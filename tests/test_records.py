"""The JSON codec for the program's declarative inputs.

Two contracts.  Encodings are byte-stable: cache keys fold in
``FaultPlan.to_dict()``, snapshots embed ``ServeConfig.to_dict()`` and
traces are pinned, so the JSON of every registered record kind and of the
run/serve/ingress configs is pinned here by SHA-256.  Decoding is strict:
every decoder rejects a non-object payload, an unknown tag, an unknown or
missing field and (for plans) a missing list key with a ``ValueError``.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.faults import (
    FAULT_KINDS,
    DownloadFailure,
    EdgeOutage,
    FaultPlan,
    FeedbackLoss,
    GilbertElliottLoss,
    MarketOutage,
    TradeRejection,
    load_plan,
)
from repro.ingress import IngressConfig, SlaClass
from repro.obs import EVENT_TYPES, event_from_dict, iter_events, read_events
from repro.serve import (
    AddEdge,
    ChaosPlan,
    RandomKills,
    Rebalance,
    ReconfigPlan,
    RemoveEdge,
    ServeConfig,
    TransportDrop,
    WorkerKill,
    WorkerStall,
    load_chaos_plan,
    load_reconfig_plan,
)
from repro.serve.chaos import CHAOS_KINDS
from repro.serve.reconfig import RECONFIG_OPS
from repro.sim.config import CostWeights, ScenarioConfig
from repro.spec import RunSpec


def _sample_event(cls):
    """An instance of event class ``cls`` with a distinct value per field."""
    values = {}
    for i, f in enumerate(dataclasses.fields(cls)):
        values[f.name] = {"int": 7 + i, "float": 0.375 * i, "str": f"{f.name}-{i}"}[f.type]
    return cls(**values)


EVENTS = [_sample_event(cls) for _, cls in sorted(EVENT_TYPES.items())]

FAULTS = [
    EdgeOutage(edge=1, start=2, end=5),
    FeedbackLoss(probability=0.25, edge=0, start=1, end=9),
    DownloadFailure(probability=0.5, max_backoff=4),
    MarketOutage(start=3, end=6),
    TradeRejection(probability=0.125, start=2),
    GilbertElliottLoss(p_bad=0.1, p_good=0.4, loss_good=0.05, edge=2),
]

CHAOS = [
    WorkerKill(worker=1, at=4),
    WorkerStall(worker=0, at=2, seconds=0.5),
    TransportDrop(worker=1, at=3, count=2),
    RandomKills(probability=0.05, start=1, end=10, max_per_worker=2),
]

RECONFIG = [
    AddEdge(at=6, edge=3),
    RemoveEdge(at=2, edge=3),
    Rebalance(at=4, num_workers=3),
]

SCENARIO = ScenarioConfig(
    dataset="synthetic",
    num_edges=4,
    horizon=24,
    num_models=3,
    carbon_cap_kg=250.0,
    weights=CostWeights(inference=2.0, trading=0.02),
    seed=5,
    n_test=300,
)

INGRESS = IngressConfig(
    classes=(
        SlaClass(name="now", share=0.75, deadline_slots=0, priority=1,
                 deferrable=False),
        SlaClass(name="later", share=0.25, deadline_slots=12, priority=0,
                 deferrable=True),
    ),
    admission="drop-oldest",
    queue_capacity=64,
    slot_capacity=32,
    lookahead=6,
    forecaster="ar1",
)

RUN_SPEC = RunSpec(
    scenario=SCENARIO,
    selection="UCB",
    trading="Ours",
    seed=3,
    label="pinned",
    label_delay=2,
    faults=FaultPlan(tuple(FAULTS[:5])),
    trace_output="trace.jsonl",
    trace_edge=1,
)

SERVE = ServeConfig(
    scenario=SCENARIO,
    seed=2,
    adapter="shape",
    shape="spike",
    shape_total_events=500,
    num_workers=2,
    on_worker_death="restart",
    ingress=INGRESS.to_dict(),
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _records_sha(records) -> str:
    return _sha("\n".join(json.dumps(record.as_dict()) for record in records))


class TestEncodingsArePinned:
    def test_every_kind_has_a_pinned_instance(self):
        assert {type(e).type for e in EVENTS} == set(EVENT_TYPES)
        assert {f.kind for f in FAULTS} == set(FAULT_KINDS)
        assert {c.kind for c in CHAOS} == set(CHAOS_KINDS)
        assert {op.kind for op in RECONFIG} == set(RECONFIG_OPS)

    @pytest.mark.parametrize("records,digest", [
        (EVENTS, "b8bfaac5ead98cfc60f14e1b5267950f0d9ac15b899637ec3c27b14ddb4eda3c"),
        (FAULTS, "db666865de6c34208a5bf99e89e5479cf667b7ccc73f5dfaf90f84dbfce745e9"),
        (CHAOS, "574f15d27fdf0807f8ed8f3e5b7a1a0f2e4fefd2b65366014b2e45959d734ea4"),
        (RECONFIG, "28ff8fe92d184d7e2e1f4d1645cc53526fd475f3c1e45c4e4f6632c6d7344008"),
    ], ids=["events", "faults", "chaos", "reconfig"])
    def test_record_json(self, records, digest):
        assert _records_sha(records) == digest

    @pytest.mark.parametrize("config,digest", [
        (RUN_SPEC, "0fe2d89a7f3bee083ac28c239ba2aeb96027c8f59ca81bedf1fb9046703f18b4"),
        (SERVE, "0d951b393e4b857b05418159abc688d3ec4c83b8522b40661f20830acb667291"),
        (INGRESS, "a512771d7b163f577ab844a7169a38ca4260abc58983a2e3121ff9728a16590a"),
    ], ids=["run_spec", "serve", "ingress"])
    def test_config_json(self, config, digest):
        assert _sha(json.dumps(config.to_dict())) == digest

    def test_run_spec_document(self):
        assert _sha(RUN_SPEC.to_json()) == "79d75521c1333e3d551b9ba8fa98f63d001c7b40967618b3264b26953778e25f"


_OUTAGE = {"kind": "market_outage", "start": 1, "end": 4}
_SLA = {"name": "a", "share": 1.0, "deadline_slots": 2, "priority": 0,
        "deferrable": True}

#: (decoder, payload, message pattern) — every malformed shape per decoder.
MALFORMED = [
    # trace events
    (event_from_dict, [1], "event entry must be a JSON object"),
    (event_from_dict, {"type": "warp_drive", "t": 0}, "unknown event type 'warp_drive'"),
    (event_from_dict, {"type": "slot_start", "t": 0, "bogus": 1},
     r"unknown slot_start event fields \['bogus'\]"),
    (event_from_dict, {"type": "slot_start"}, r"missing required fields \['t'\]"),
    # plans
    (FaultPlan.from_dict, [1], "fault plan must be a JSON object"),
    (FaultPlan.from_dict, {}, '"faults" list'),
    (FaultPlan.from_dict, {"fault": [_OUTAGE]}, '"faults" list'),
    (FaultPlan.from_dict, {"faults": [_OUTAGE], "chaos": []}, '"faults" list'),
    (FaultPlan.from_dict, {"faults": [{"kind": "solar_flare"}]}, "unknown fault kind"),
    (FaultPlan.from_dict, {"faults": [{**_OUTAGE, "edge": 1}]},
     r"unknown market_outage fault fields \['edge'\]"),
    (FaultPlan.from_dict, {"faults": [{"kind": "market_outage", "start": 1}]},
     r"missing required fields \['end'\]"),
    (FaultPlan.from_dict, {"faults": [{**_OUTAGE, "start": "1"}]}, "bad market_outage"),
    (ChaosPlan.from_dict, "chaos", "chaos plan must be a JSON object"),
    (ChaosPlan.from_dict, {}, '"chaos" list'),
    (ChaosPlan.from_dict, {"chaos_specs": [{"kind": "worker_kill", "worker": 0, "at": 1}]},
     '"chaos" list'),
    (ChaosPlan.from_dict, {"chaos": [{"kind": "gremlin", "at": 1}]}, "gremlin"),
    (ChaosPlan.from_dict, {"chaos": [{"kind": "worker_kill", "worker": 0, "at": 1, "x": 0}]},
     r"unknown worker_kill chaos fields \['x'\]"),
    (ChaosPlan.from_dict, {"chaos": [{"kind": "worker_kill", "worker": 0}]},
     r"missing required fields \['at'\]"),
    (ReconfigPlan.from_dict, None, "reconfig op plan must be a JSON object"),
    (ReconfigPlan.from_dict, {}, '"reconfig" list'),
    (ReconfigPlan.from_dict, {"ops": [{"kind": "rebalance", "at": 2, "num_workers": 2}]},
     '"reconfig" list'),
    (ReconfigPlan.from_dict, {"reconfig": [{"kind": "split_brain", "at": 1}]},
     "unknown reconfig op kind 'split_brain'"),
    (ReconfigPlan.from_dict, {"reconfig": [{"kind": "add_edge", "at": 1, "edges": 2}]},
     r"unknown add_edge reconfig op fields \['edges'\]"),
    (ReconfigPlan.from_dict, {"reconfig": [{"kind": "add_edge", "edge": 2}]},
     r"missing required fields \['at'\]"),
    (ReconfigPlan.from_dict, {"reconfig": [5]}, "reconfig op entry must be a JSON object"),
    # configs
    (ScenarioConfig.from_dict, [1], "scenario config must be a JSON object"),
    (ScenarioConfig.from_dict, {"num_edge": 4}, r"unknown scenario config fields \['num_edge'\]"),
    (ScenarioConfig.from_dict, {"weights": {"trade": 1.0}},
     r"unknown cost weights fields \['trade'\]"),
    (ScenarioConfig.from_dict, {"weights": 2.0}, "cost weights must be a JSON object"),
    (ServeConfig.from_dict, [1], "serve config must be a JSON object"),
    (ServeConfig.from_dict, {"bogus_knob": 1}, r"unknown serve config fields \['bogus_knob'\]"),
    (ServeConfig.from_dict, {"scenario": {"horizn": 8}},
     r"unknown scenario config fields \['horizn'\]"),
    (IngressConfig.from_dict, "default", "IngressConfig must be a JSON object"),
    (IngressConfig.from_dict, {"burst_factor": 2}, r"unknown IngressConfig fields \['burst_factor'\]"),
    (IngressConfig.from_dict, {"classes": [{**_SLA, "tier": 1}]},
     r"unknown SLA class fields \['tier'\]"),
    (IngressConfig.from_dict, {"classes": [{"name": "a", "share": 1.0}]},
     r"SLA class is missing required fields \['deadline_slots', 'deferrable', 'priority'\]"),
    (IngressConfig.from_dict, {"classes": 3}, "bad IngressConfig"),
    (RunSpec.from_dict, [1], "run spec must be an object"),
    (RunSpec.from_dict, {"mystery": 1}, r"unknown run-spec fields \['mystery'\]"),
    (RunSpec.from_dict, {"scenario": {"dataset": "synthetic", "seeds": 1}},
     r"unknown scenario config fields \['seeds'\]"),
    (RunSpec.from_dict, {"faults": {"faults": [{"kind": "market_outage"}]}},
     r"missing required fields \['end', 'start'\]"),
    (RunSpec.from_dict, {"faults": {"specs": []}}, '"faults" list'),
]


class TestMalformedInputIsRejected:
    @pytest.mark.parametrize(
        "decode,payload,match", MALFORMED,
        ids=[f"{getattr(d, '__self__', d).__name__}-{i}" for i, (d, _, _) in enumerate(MALFORMED)],
    )
    def test_value_error_names_the_fault(self, decode, payload, match):
        with pytest.raises(ValueError, match=match):
            decode(payload)

    @pytest.mark.parametrize("load", [load_plan, load_chaos_plan, load_reconfig_plan,
                                      ServeConfig.from_file, IngressConfig.from_file])
    def test_file_loaders_reject_a_non_object(self, tmp_path, load):
        path = tmp_path / "input.json"
        path.write_text("[1]", encoding="utf-8")
        with pytest.raises(ValueError, match="must be a JSON object"):
            load(path)

    def test_fault_plan_json_array(self):
        with pytest.raises(ValueError, match="fault plan must be a JSON object"):
            FaultPlan.from_json("[1]")

    def test_trace_line_with_unknown_field_names_path_and_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        lines = [json.dumps(event.as_dict()) for event in EVENTS[:3]]
        lines[1] = lines[1][:-1] + ', "bogus": 1}'
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for read in (read_events, lambda p: list(iter_events(p))):
            with pytest.raises(ValueError, match=rf"trace\.jsonl:2: unknown .* fields \['bogus'\]"):
                read(path)

    @pytest.mark.parametrize("plan", [
        FaultPlan(tuple(FAULTS)), ChaosPlan(tuple(CHAOS)), ReconfigPlan(tuple(RECONFIG)),
    ], ids=["faults", "chaos", "reconfig"])
    def test_plans_round_trip(self, plan):
        assert type(plan).from_json(plan.to_json()) == plan
        assert len(plan) == len(plan.records) and not plan.is_empty

    @pytest.mark.parametrize("config", [RUN_SPEC, SERVE, INGRESS],
                             ids=["run_spec", "serve", "ingress"])
    def test_configs_round_trip(self, config):
        assert type(config).from_dict(json.loads(json.dumps(config.to_dict()))) == config

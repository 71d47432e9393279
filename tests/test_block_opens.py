"""Batched Algorithm-1 block opens in the per-edge engines.

Every engine solves the Tsallis-OMD steps of the blocks that open at one
slot in a single :func:`~repro.core.tsallis.tsallis_inf_probabilities_batch`
call (:func:`repro.sim.vector.batch_block_opens`), and the per-edge
engines open each edge's block right before that edge's kernel step.  The
batched rows are bitwise the scalar solves, so none of this may show:

* the full trace of a traced, faulted, label-delayed run — event order
  included — hashes to the value pinned before batching existed, both
  through ``Simulator`` and through in-process serve;
* mixed fleets and subclassed policies open through their own ``select``;
* a slot with a single open takes the unchanged ``select`` path;
* a sharded run resumed on a slot where several edges open blocks keeps
  its digest at 1 and 2 workers.

Every pinned hash and digest here was recorded before the per-edge
engines batched their opens.
"""

from __future__ import annotations

import hashlib
import io

import pytest

import repro.sim.vector as sim_vector
from repro.core.model_selection import OnlineModelSelection
from repro.faults.plan import (
    DownloadFailure,
    EdgeOutage,
    FaultPlan,
    FeedbackLoss,
    MarketOutage,
    TradeRejection,
)
from repro.obs import JsonlSink, Tracer
from repro.policies import make_selection_policies, make_trading_policy
from repro.serve import ServeConfig, ServeRuntime, ShardRuntime, runtime_from_snapshot
from repro.sim.config import ScenarioConfig
from repro.sim.io import result_digest
from repro.sim.kernel import SlotAggregator
from repro.sim.scenario import build_scenario
from repro.sim.simulator import Simulator
from repro.spec import RunSpec
from repro.utils.rng import RngFactory

#: Six edges over 40 slots.  All six open at slot 0, four at slot 2, and
#: three at slot 16 (a snapshot boundary at ``snapshot_every=8``); slot 3
#: opens exactly one block.
CONFIG = ScenarioConfig(
    dataset="synthetic", num_edges=6, horizon=40, num_models=4, n_test=400, seed=7
)

FIVE_KINDS = FaultPlan(
    (
        EdgeOutage(edge=1, start=8, end=14),
        FeedbackLoss(probability=0.2),
        DownloadFailure(probability=0.3),
        MarketOutage(start=20, end=24),
        TradeRejection(probability=0.2),
    )
)

#: SHA-256 over the JSONL event stream of the traced, five-kind-faulted,
#: ``label_delay=2`` run of ``CONFIG`` at seed 0.
SIM_TRACE_SHA256 = (
    "61d632231a13dfb9779deab8cfa795b197f039c56133cb23e12984f2c3a498fc"
)
SERVE_TRACE_SHA256 = (
    "afda08e46d4298becc37b376e714f8fb3664d2c8295740745eaa7f4f55ab7509"
)
#: ``result_digest`` of that run (every engine agrees on it).
OBSERVED_DIGEST = (
    "0586f964cc5b9ff53492572e1bdd85c82f2a6a72f1fdb7d10cc84ab3bc4146c5"
)
#: ``result_digest`` of the clean Ours/Ours run of ``CONFIG`` at seed 0.
CLEAN_DIGEST = (
    "e703da6ab13ea7dbdfea7918c22a7354ca49966c7e53ae47123415a2238b00d9"
)
#: ``result_digest`` of the mixed fleet below, traced (per-edge loop).
MIXED_DIGEST = (
    "b2eda62f53f6e7f69c0cd9010417b17b639d5be3fe9b43a29051c3b591c0fc26"
)


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(CONFIG)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _jsonl_tracer() -> tuple[Tracer, io.StringIO]:
    stream = io.StringIO()
    return Tracer([JsonlSink(stream)]), stream


def _open_slots(policies) -> list[int]:
    """Per slot, how many plain Algorithm-1 policies open a block there."""
    horizon = policies[0].horizon
    opens = [0] * horizon
    for policy in policies:
        if type(policy) is OnlineModelSelection:
            for start in policy.schedule.starts:
                opens[int(start)] += 1
    return opens


@pytest.fixture
def batch_log(monkeypatch):
    """Row counts of every batched solve, grouped by slot.

    Wraps the module-level solver the engines call and marks each slot end
    at the fold, so ``log[t]`` lists the batches solved during slot ``t``.
    """
    log: list[list[int]] = [[]]
    solve = sim_vector.tsallis_inf_probabilities_batch
    fold = SlotAggregator.fold

    def counting_solve(losses, etas):
        log[-1].append(len(losses))
        return solve(losses, etas)

    def marking_fold(self, t, outcomes):
        fold(self, t, outcomes)
        log.append([])

    monkeypatch.setattr(sim_vector, "tsallis_inf_probabilities_batch", counting_solve)
    monkeypatch.setattr(SlotAggregator, "fold", marking_fold)
    return log


class TestTraceOrder:
    def test_simulator_trace_is_unchanged(self, scenario):
        spec = RunSpec(seed=0, label_delay=2, faults=FIVE_KINDS)
        tracer, stream = _jsonl_tracer()
        result = Simulator.from_spec(scenario, spec, tracer=tracer).run()
        assert result_digest(result) == OBSERVED_DIGEST
        assert _sha256(stream.getvalue()) == SIM_TRACE_SHA256

    def test_in_process_serve_trace_is_unchanged(self):
        config = ServeConfig(scenario=CONFIG, seed=0, label_delay=2)
        tracer, stream = _jsonl_tracer()
        result = ServeRuntime(config, tracer=tracer, faults=FIVE_KINDS).run()
        assert result_digest(result) == OBSERVED_DIGEST
        assert _sha256(stream.getvalue()) == SERVE_TRACE_SHA256


class TestBatchedOpens:
    def test_per_edge_engine_solves_each_slot_in_one_batch(self, scenario, batch_log):
        spec = RunSpec(seed=0, label_delay=2, faults=FIVE_KINDS)
        sim = Simulator.from_spec(scenario, spec, tracer=Tracer())
        opens = _open_slots(sim.selection_policies)
        assert result_digest(sim.run()) == OBSERVED_DIGEST
        # One batch per slot with two or more opens, none otherwise; a
        # single open (slot 3) goes through select's scalar solve.
        assert opens[3] == 1 and opens[16] == 3
        assert batch_log[: len(opens)] == [[n] if n >= 2 else [] for n in opens]

    def test_in_process_serve_batches_like_the_simulator(self, batch_log):
        config = ServeConfig(scenario=CONFIG, seed=0, label_delay=2)
        runtime = ServeRuntime(config, tracer=Tracer(), faults=FIVE_KINDS)
        opens = _open_slots([kernel.policy for kernel in runtime.edge_kernels])
        assert result_digest(runtime.run()) == OBSERVED_DIGEST
        assert batch_log[: len(opens)] == [[n] if n >= 2 else [] for n in opens]

    def test_mixed_and_subclassed_fleet_opens_through_select(self, scenario, batch_log):
        class Subclassed(OnlineModelSelection):
            """May override opening, so it must never be batched."""

            def _open_block(self, block, t):
                self.opened_by_select.append(block)
                super()._open_block(block, t)

        factory = RngFactory(5).child("mixed")
        ours = make_selection_policies("Ours", scenario, factory)
        ucb = make_selection_policies("UCB", scenario, factory)
        sub = Subclassed(
            ours[2].num_models,
            ours[2].horizon,
            ours[2].switch_cost,
            factory.get("subclassed"),
        )
        sub.opened_by_select = []
        policies = [ours[0], ucb[1], sub, ours[3], ucb[4], ours[5]]
        trader = make_trading_policy("Ours", scenario, factory)
        sim = Simulator(
            scenario, policies, trader, run_seed=5, label="mixed", tracer=Tracer()
        )
        opens = _open_slots(policies)
        assert result_digest(sim.run()) == MIXED_DIGEST
        assert sub.opened_by_select == list(range(sub.schedule.num_blocks))
        assert batch_log[: len(opens)] == [[n] if n >= 2 else [] for n in opens]


class TestShardedResume:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_on_a_multi_open_slot(self, scenario, tmp_path, workers):
        snap = tmp_path / "state.pkl"
        config = ServeConfig(
            scenario=CONFIG,
            seed=0,
            num_workers=workers,
            snapshot_every=8,
            snapshot_path=str(snap),
        )
        policies = Simulator.from_spec(scenario, RunSpec(seed=0)).selection_policies
        assert _open_slots(policies)[16] == 3
        ShardRuntime(config, heartbeat_interval=0.05).run(max_slots=20)
        resumed = runtime_from_snapshot(snap, heartbeat_interval=0.05)
        assert resumed.completed_slot + 1 == 16
        assert result_digest(resumed.run()) == CLEAN_DIGEST

"""The cohort router against the per-request oracle, slot for slot.

:class:`repro.ingress.IngressRouter` queues one cohort per (class, arrival
slot) and splits counts; :class:`tests.ingress_reference.PerRequestRouter`
queues one tuple per request.  For generated SLA mixes, admission
policies, queue and slot capacities (0 included), price paths and a
snapshot/restore at a generated slot, both must return the same
``(released, provisional)``, ``depth`` and queued requests on every slot,
and drain to an empty queue on the final slot.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ingress import IngressConfig, IngressRouter, SlaClass
from tests.ingress_reference import PerRequestRouter

ADMISSIONS = ("admit", "drop-oldest", "deadline-shed")


@st.composite
def sla_mixes(draw):
    size = draw(st.integers(1, 4))
    return tuple(
        SlaClass(
            name=f"c{i}",
            share=1.0 / size,
            deadline_slots=draw(st.integers(0, 10)),
            priority=draw(st.integers(0, 2)),
            deferrable=draw(st.booleans()),
        )
        for i in range(size)
    )


@st.composite
def routing_cases(draw):
    classes = draw(sla_mixes())
    config = IngressConfig(
        classes=classes,
        deferral=draw(st.booleans()),
        admission=draw(st.sampled_from(ADMISSIONS)),
        queue_capacity=draw(st.integers(0, 12)),
        slot_capacity=draw(st.integers(0, 10)),
        lookahead=draw(st.integers(1, 6)),
        defer_margin=draw(st.sampled_from((0.0, 0.01, 0.2))),
        forecaster=draw(st.sampled_from(("ewma", "ar1"))),
    )
    horizon = draw(st.integers(1, 24))
    counts = draw(
        st.lists(
            st.lists(st.integers(0, 9), min_size=len(classes), max_size=len(classes)),
            min_size=horizon,
            max_size=horizon,
        )
    )
    prices = draw(
        st.lists(
            st.sampled_from((0.5, 1.0, 1.02, 2.0, 10.0)),
            min_size=horizon,
            max_size=horizon,
        )
    )
    restore_at = draw(st.integers(0, horizon - 1))
    return config, horizon, counts, prices, restore_at


def _queued(router):
    """Every queued request as a sorted ``(deadline, seq, arrival, class)`` list."""
    fifo = getattr(router, "_fifo", ())
    return sorted([*fifo, *(entry for heap in router._heaps for entry in heap)])


def _restored(router, fresh):
    fresh.load_state(pickle.loads(pickle.dumps(router.state_dict())))
    return fresh


@settings(max_examples=300, deadline=None)
@given(routing_cases())
def test_cohort_router_matches_per_request_oracle(case):
    config, horizon, counts, prices, restore_at = case
    cohort = IngressRouter(0, config, horizon)
    oracle = PerRequestRouter(0, config, horizon)
    for t in range(horizon):
        if t == restore_at:
            cohort = _restored(cohort, IngressRouter(0, config, horizon))
            oracle = _restored(oracle, PerRequestRouter(0, config, horizon))
        assert cohort.step(t, counts[t], prices[t]) == oracle.step(
            t, counts[t], prices[t]
        ), t
        assert cohort.depth == oracle.depth, t
        assert _queued(cohort) == _queued(oracle), t
    assert cohort.depth == 0


def test_pre_cohort_state_is_rejected_by_name():
    config = IngressConfig(slot_capacity=2)
    oracle = PerRequestRouter(0, config, horizon=8)
    oracle.step(0, [5, 5, 5], 1.0)
    router = IngressRouter(0, config, horizon=8)
    with pytest.raises(ValueError, match="pre-cohort"):
        router.load_state(oracle.state_dict())

"""Property battery for the load-shape generator and the soak harness.

The guarantees under test are the ones the soak harness leans on:

* **conservation** — every generated grid sums to exactly the requested
  event total, for all shapes and awkward sizes (largest-remainder
  rounding, not truncation);
* **bit-reproducibility** — equal ``(shape, horizon, edges, total, seed)``
  gives bit-equal grids across calls; different seeds differ;
* **non-negativity** — no cell ever goes negative;
* the P² quantile sketch tracks known distributions within tolerance and
  is exact while small;
* soak reports round-trip their schema and project onto the bench compare
  gate.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench.report import BenchReport, compare_ratios
from repro.serve.load import (
    SHAPE_NAMES,
    make_load_grid,
    shape_profile,
)
from repro.serve.soak import (
    SOAK_FORMAT_VERSION,
    P2Quantile,
    SoakReport,
    StageStats,
    run_soak,
)

AWKWARD_SIZES = [
    (1, 1, 1),
    (7, 3, 100),
    (48, 4, 2000),
    (13, 5, 9973),  # prime total, uneven grid
    (96, 64, 12345),
]


class TestShapeProfiles:
    @pytest.mark.parametrize("shape", SHAPE_NAMES)
    def test_profiles_are_strictly_positive(self, shape):
        for horizon in (1, 2, 7, 48, 100):
            profile = shape_profile(shape, horizon)
            assert profile.shape == (horizon,)
            assert (profile > 0).all()

    def test_shapes_are_actually_different(self):
        profiles = {s: shape_profile(s, 64) for s in SHAPE_NAMES}
        seen = set()
        for shape, profile in profiles.items():
            key = profile.tobytes()
            assert key not in seen, f"{shape} duplicates another profile"
            seen.add(key)

    def test_spike_spikes_and_step_steps(self):
        spike = shape_profile("spike", 64)
        assert spike.max() == 20.0 and spike.min() == 1.0
        step = shape_profile("step", 64)
        assert (step[:32] == 1.0).all() and (step[32:] == 4.0).all()

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="sawtooth"):
            shape_profile("triangle", 10)


class TestLoadGridProperties:
    @pytest.mark.parametrize("shape", SHAPE_NAMES)
    @pytest.mark.parametrize("horizon,edges,total", AWKWARD_SIZES)
    def test_conservation_is_exact(self, shape, horizon, edges, total):
        grid = make_load_grid(
            shape, horizon=horizon, num_edges=edges, total_events=total, seed=3
        )
        assert grid.shape == (horizon, edges)
        assert int(grid.sum()) == total

    @pytest.mark.parametrize("shape", SHAPE_NAMES)
    @pytest.mark.parametrize("horizon,edges,total", AWKWARD_SIZES)
    def test_non_negative_integer_counts(self, shape, horizon, edges, total):
        grid = make_load_grid(
            shape, horizon=horizon, num_edges=edges, total_events=total, seed=3
        )
        assert grid.dtype == np.int64
        assert (grid >= 0).all()

    @pytest.mark.parametrize("shape", SHAPE_NAMES)
    def test_bit_reproducible_per_seed(self, shape):
        kwargs = dict(horizon=48, num_edges=6, total_events=5000)
        first = make_load_grid(shape, seed=11, **kwargs)
        second = make_load_grid(shape, seed=11, **kwargs)
        assert np.array_equal(first, second)
        other = make_load_grid(shape, seed=12, **kwargs)
        assert not np.array_equal(first, other)

    def test_zero_events_is_an_all_zero_grid(self):
        grid = make_load_grid(
            "spike", horizon=16, num_edges=4, total_events=0, seed=0
        )
        assert grid.sum() == 0 and (grid == 0).all()

    def test_grid_follows_its_profile(self):
        # A step grid's second half must carry (about 4x) more events.
        grid = make_load_grid(
            "step", horizon=64, num_edges=8, total_events=100_000, seed=0
        )
        low, high = grid[:32].sum(), grid[32:].sum()
        assert high > 2.5 * low

    def test_jitter_bounds_validated(self):
        with pytest.raises(ValueError, match="jitter"):
            make_load_grid(
                "constant", horizon=4, num_edges=2, total_events=10, jitter=1.0
            )


class TestP2Quantile:
    def test_exact_while_small(self):
        sketch = P2Quantile(0.5)
        for x in (5.0, 1.0, 3.0):
            sketch.add(x)
        assert sketch.value() == 3.0

    def test_empty_sketch_is_nan(self):
        assert np.isnan(P2Quantile(0.95).value())

    @pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
    def test_tracks_uniform_distribution(self, q):
        rng = np.random.default_rng(7)
        sketch = P2Quantile(q)
        samples = rng.uniform(0.0, 1.0, size=20_000)
        for x in samples:
            sketch.add(float(x))
        assert sketch.value() == pytest.approx(q, abs=0.03)

    def test_tracks_exponential_tail(self):
        rng = np.random.default_rng(21)
        sketch = P2Quantile(0.99)
        samples = rng.exponential(1.0, size=20_000)
        for x in samples:
            sketch.add(float(x))
        exact = float(np.quantile(samples, 0.99))
        assert sketch.value() == pytest.approx(exact, rel=0.15)

    def test_quantile_domain_validated(self):
        with pytest.raises(ValueError, match="quantile"):
            P2Quantile(1.0)

    def test_stage_stats_summary_fields(self):
        stats = StageStats()
        for x in (0.1, 0.2, 0.3, 0.4):
            stats.observe(x)
        summary = stats.summary()
        assert summary["count"] == 4
        assert summary["max_s"] == 0.4
        assert summary["mean_s"] == pytest.approx(0.25)
        assert set(summary) >= {"p50_s", "p95_s", "p99_s"}


class TestSoakReportSchema:
    @staticmethod
    def _report(**overrides):
        fields = dict(
            shape="spike",
            seed=0,
            num_edges=4,
            num_workers=2,
            horizon=48,
            total_events=2000,
            wall_seconds=1.5,
            events_in=2000,
            events_served=1900,
            events_shed=100,
            events_dropped_offline=0,
            accounting_ok=True,
            throughput_eps=1266.7,
            stages={
                "slot": {
                    "count": 48,
                    "mean_s": 0.01,
                    "max_s": 0.05,
                    "p50_s": 0.01,
                    "p95_s": 0.02,
                    "p99_s": 0.03,
                }
            },
        )
        fields.update(overrides)
        return SoakReport(**fields)

    def test_round_trips_through_json(self):
        report = self._report()
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["format_version"] == SOAK_FORMAT_VERSION
        assert SoakReport.from_dict(payload) == report

    def test_unknown_format_version_rejected(self):
        payload = self._report().to_dict()
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="format_version"):
            SoakReport.from_dict(payload)

    def test_projects_onto_the_bench_compare_gate(self):
        bench = self._report().to_bench_report()
        assert bench.suite == "soak_spike"
        # Round-trips the bench schema (the gate reads it back from disk)...
        loaded = BenchReport.from_json(bench.to_json())
        assert loaded.get("slot/p95") is not None
        assert loaded.ratios["served_fraction"] == pytest.approx(0.95)
        # ...and ratio regressions actually trip the gate.
        slower = self._report(events_served=400, throughput_eps=266.0)
        comparisons = compare_ratios(loaded, slower.to_bench_report())
        regressed = {c.name for c in comparisons if c.regressed}
        assert "served_fraction" in regressed

    def test_accounting_equation_is_what_gates(self):
        bad = self._report(events_served=1899, accounting_ok=False)
        assert bad.events_in != (
            bad.events_served + bad.events_shed + bad.events_dropped_offline
        )
        assert not bad.accounting_ok


class TestRunSoakProperties:
    @pytest.mark.parametrize("shape", SHAPE_NAMES)
    def test_accounting_exact_under_every_shape(self, shape):
        # One worker soaks the local shard in the parent; two soak worker
        # processes.  Both feed every stage through on_stage_sample.
        for num_workers in (1, 2):
            report = run_soak(
                shape,
                num_edges=3,
                num_workers=num_workers,
                horizon=16,
                total_events=600,
                seed=1,
            )
            assert report.accounting_ok, num_workers
            assert report.events_in == 600
            assert report.events_in == (
                report.events_served
                + report.events_shed
                + report.events_dropped_offline
            )
            for stage in ("queue", "serve", "trade", "slot"):
                assert report.stages[stage]["count"] > 0, (num_workers, stage)

    def test_removed_edge_passes_the_volume_leg(self):
        # A removed edge folds offline with zero arrivals, so its grid cells
        # in [remove, re-add) never enter; the gate must expect exactly that.
        from repro.serve import AddEdge, Rebalance, ReconfigPlan, RemoveEdge

        plan = ReconfigPlan((
            Rebalance(at=4, num_workers=3),
            RemoveEdge(at=6, edge=1),
            AddEdge(at=10, edge=1),
        ))
        report = run_soak(
            "sawtooth",
            num_edges=4,
            num_workers=2,
            horizon=16,
            total_events=600,
            seed=1,
            reconfig=plan,
        )
        grid = make_load_grid(
            "sawtooth", horizon=16, num_edges=4, total_events=600, seed=1
        )
        assert report.reconfigs == 3
        assert report.events_in == 600 - int(grid[6:10, 1].sum())
        assert report.events_in == (
            report.events_served
            + report.events_shed
            + report.events_dropped_offline
        )
        assert report.accounting_ok

    def test_observer_builds_one_stage_stats_per_stage(self, monkeypatch):
        # Each stage's sketches are built once and reused: a sample must
        # not construct (and throw away) a fresh StageStats.
        from repro.serve import soak

        built = []

        class CountingStageStats(soak.StageStats):
            def __init__(self) -> None:
                super().__init__()
                built.append(self)

        monkeypatch.setattr(soak, "StageStats", CountingStageStats)
        report = run_soak(
            "constant",
            num_edges=3,
            num_workers=2,
            horizon=16,
            total_events=600,
            seed=1,
        )
        assert report.stages["queue"]["count"] == 3 * 16
        assert len(built) == len(report.stages)

    def test_shedding_still_balances_the_books(self):
        # A tiny queue under the spike shape must shed — and the equation
        # still has to hold exactly.
        report = run_soak(
            "spike",
            num_edges=2,
            num_workers=2,
            horizon=16,
            total_events=4000,
            queue_capacity=1,
            seed=0,
        )
        assert report.accounting_ok
        assert report.events_shed > 0

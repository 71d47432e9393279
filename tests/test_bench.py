"""Unit tests of the bench report schema, comparisons, and CLI gate.

Everything here runs on synthetic reports — no real measurement beyond one
trivial inline case — so the regression-gate *logic* is pinned independently
of machine speed: round-trip fidelity, the wall-vs-ratio gating split, and
the CLI's exit-code contract (0 clean / 1 regression / 2 usage error).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.cases import (
    INFORMATIONAL_RATIOS,
    SUITE_NAMES,
    BenchCase,
    derive_ratios,
    run_case,
    suite_cases,
)
from repro.bench.cli import main
from repro.bench.report import (
    BENCH_FORMAT_VERSION,
    BenchReport,
    BenchResult,
    CaseComparison,
    RatioComparison,
    compare_ratios,
    compare_reports,
    load_report,
    machine_fingerprint,
    report_filename,
)

MACHINE = {"host": "test-rig", "python": "3.x"}


def _result(name: str, wall: float) -> BenchResult:
    return BenchResult(
        name=name, wall_seconds=wall, cpu_seconds=wall,
        rounds=3, work=100.0, unit="ops",
    )


def _report(
    walls: dict[str, float],
    *,
    suite: str = "simulator",
    ratios: dict[str, float] | None = None,
    machine: dict | None = None,
    mode: str = "full",
) -> BenchReport:
    return BenchReport(
        suite=suite,
        machine=MACHINE if machine is None else machine,
        results=tuple(_result(n, w) for n, w in walls.items()),
        ratios=ratios or {},
        mode=mode,
    )


# ---------------------------------------------------------------------------
# Schema: BenchResult / BenchReport round trips and validation.


class TestReportSchema:
    def test_result_round_trip_recomputes_throughput(self):
        result = _result("a", 0.25)
        payload = result.to_dict()
        assert payload["throughput"] == pytest.approx(400.0)
        assert BenchResult.from_dict(payload) == result

    def test_result_validation(self):
        with pytest.raises(ValueError, match="wall_seconds"):
            _result("a", 0.0)
        with pytest.raises(ValueError, match="rounds"):
            BenchResult(name="a", wall_seconds=1.0, cpu_seconds=1.0,
                        rounds=0, work=1.0, unit="ops")

    def test_report_json_round_trip(self, tmp_path):
        report = _report({"a": 0.1, "b": 0.2}, ratios={"speedup": 2.0},
                         mode="smoke")
        assert BenchReport.from_json(report.to_json()) == report
        path = report.write(str(tmp_path / report_filename("simulator")))
        assert load_report(path) == report

    def test_report_rejects_unknown_format_version(self):
        payload = _report({"a": 0.1}).to_dict()
        payload["format_version"] = BENCH_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="format_version"):
            BenchReport.from_dict(payload)

    def test_report_mode_defaults_to_full_on_read(self):
        payload = _report({"a": 0.1}).to_dict()
        del payload["mode"]
        assert BenchReport.from_dict(payload).mode == "full"

    def test_report_get(self):
        report = _report({"a": 0.1})
        assert report.get("a").wall_seconds == pytest.approx(0.1)
        assert report.get("zzz") is None

    def test_machine_fingerprint_is_json_safe_and_stable(self):
        fingerprint = machine_fingerprint()
        assert json.loads(json.dumps(fingerprint)) == fingerprint
        assert fingerprint == machine_fingerprint()


# ---------------------------------------------------------------------------
# Comparison logic: the wall-time threshold and the ratio slack.


class TestComparisons:
    def test_wall_regression_threshold_edge(self):
        at_edge = CaseComparison(name="a", baseline_wall=1.0,
                                 current_wall=1.15, threshold=0.15)
        over = CaseComparison(name="a", baseline_wall=1.0,
                              current_wall=1.16, threshold=0.15)
        assert not at_edge.regressed
        assert over.regressed

    def test_missing_current_case_regresses_but_new_case_does_not(self):
        missing = CaseComparison(name="a", baseline_wall=1.0,
                                 current_wall=None, threshold=0.15)
        new = CaseComparison(name="a", baseline_wall=None,
                             current_wall=1.0, threshold=0.15)
        assert missing.regressed
        assert not new.regressed
        assert missing.ratio is None

    def test_ratio_slack_edge(self):
        at_edge = RatioComparison(name="s", baseline_ratio=4.0,
                                  current_ratio=2.0, slack=0.5)
        below = RatioComparison(name="s", baseline_ratio=4.0,
                                current_ratio=1.9, slack=0.5)
        missing = RatioComparison(name="s", baseline_ratio=4.0,
                                  current_ratio=None, slack=0.5)
        assert not at_edge.regressed
        assert below.regressed
        assert missing.regressed

    def test_compare_reports_orders_baseline_first_then_new(self):
        baseline = _report({"a": 0.1, "b": 0.2})
        current = _report({"b": 0.2, "c": 0.3})
        comps = compare_reports(baseline, current)
        assert [c.name for c in comps] == ["a", "b", "c"]
        assert comps[0].regressed          # "a" lost
        assert not comps[1].regressed      # "b" unchanged
        assert not comps[2].regressed      # "c" new

    def test_compare_reports_rejects_suite_mismatch(self):
        with pytest.raises(ValueError, match="cannot compare suites"):
            compare_reports(_report({"a": 0.1}),
                            _report({"a": 0.1}, suite="core"))

    def test_compare_ratios_covers_both_directions(self):
        baseline = _report({}, ratios={"kept": 4.0, "lost": 2.0})
        current = _report({}, ratios={"kept": 3.9, "gained": 5.0})
        by_name = {c.name: c for c in compare_ratios(baseline, current)}
        assert set(by_name) == {"kept", "lost", "gained"}
        assert not by_name["kept"].regressed
        assert by_name["lost"].regressed
        assert not by_name["gained"].regressed


# ---------------------------------------------------------------------------
# The measurement loop, on a trivial inline case.


class TestRunCase:
    @staticmethod
    def _case(calls: list, rounds: int = 3) -> BenchCase:
        def build():
            def thunk():
                calls.append(1)
            return thunk

        return BenchCase(suite="t", name="trivial", build=build,
                         work=7.0, unit="ops", rounds=rounds)

    def test_full_mode_runs_warmup_plus_rounds(self):
        calls: list = []
        result = run_case(self._case(calls))
        assert len(calls) == 4  # 1 warmup + 3 rounds
        assert result.rounds == 3
        assert result.wall_seconds > 0.0
        assert result.work == 7.0

    def test_smoke_mode_still_warms_up_and_caps_rounds(self):
        calls: list = []
        result = run_case(self._case(calls), smoke=True)
        assert len(calls) == 3  # 1 warmup + best-of-2 rounds
        assert result.rounds == 2
        single: list = []
        assert run_case(self._case(single, rounds=1), smoke=True).rounds == 1

    def test_derive_ratios_from_synthetic_walls(self):
        results = (_result("simulate_scalar_i64", 0.4),
                   _result("simulate_vectorized_i64", 0.1),
                   _result("simulate_scalar_i10", 0.3),
                   _result("simulate_vectorized_i10", 0.2),
                   _result("simulate_observed_i64", 0.3))
        ratios = derive_ratios("simulator", results)
        assert ratios["vectorized_speedup_i64"] == pytest.approx(4.0)
        assert ratios["vectorized_speedup_i10"] == pytest.approx(1.5)
        assert ratios["observed_gap_i64"] == pytest.approx(3.0)

    def test_simulator_suite_has_the_observed_case(self):
        names = [case.name for case in suite_cases("simulator")]
        assert "simulate_observed_i64" in names
        # Overrides define their own workload; the observed twin has its
        # own faults and tracer, so it is left out like the vectorized ones.
        overridden = suite_cases("simulator", spec_overrides={"label_delay": 1})
        assert not any(
            case.name.startswith(("simulate_observed", "simulate_vectorized"))
            for case in overridden
        )


# ---------------------------------------------------------------------------
# CLI exit codes, on replayed synthetic reports (no measurement).


def _write(report: BenchReport, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    report.write(os.path.join(directory, report_filename(report.suite)))


class TestCliGate:
    def test_list_exits_zero_and_names_all_suites(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for suite in SUITE_NAMES:
            assert f"{suite}:" in out

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["warp-drive"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_replay_missing_report_is_usage_error(self, tmp_path, capsys):
        assert main(["simulator", "--check",
                     "--replay", str(tmp_path)]) == 2
        assert "replay report missing" in capsys.readouterr().err

    def test_check_with_overrides_is_usage_error(self, tmp_path, capsys):
        from repro.faults import EdgeOutage, FaultPlan

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            FaultPlan((EdgeOutage(edge=0, start=1, end=2),)).to_json()
        )
        assert main(["simulator", "--check", "--faults", str(plan_path)]) == 2
        assert "drop --faults" in capsys.readouterr().err

    def _run_check(self, tmp_path, baseline: BenchReport,
                   current: BenchReport) -> int:
        base_dir = str(tmp_path / "base")
        cur_dir = str(tmp_path / "cur")
        _write(baseline, base_dir)
        _write(current, cur_dir)
        return main([baseline.suite, "--check",
                     "--replay", cur_dir, "--baseline-dir", base_dir])

    def test_matching_replay_passes(self, tmp_path, capsys):
        report = _report({"a": 0.1}, ratios={"speedup": 4.0})
        assert self._run_check(tmp_path, report, report) == 0
        assert "bench check passed" in capsys.readouterr().out

    def test_wall_regression_fails_on_same_machine(self, tmp_path, capsys):
        baseline = _report({"a": 0.1})
        current = _report({"a": 0.2})
        assert self._run_check(tmp_path, baseline, current) == 1
        assert "SLOW" in capsys.readouterr().out

    def test_wall_delta_is_informational_across_machines(self, tmp_path, capsys):
        baseline = _report({"a": 0.1})
        current = _report({"a": 0.2}, machine={"host": "other"})
        assert self._run_check(tmp_path, baseline, current) == 0
        out = capsys.readouterr().out
        assert "machine fingerprint differs" in out
        assert "slow" in out and "SLOW" not in out

    def test_wall_delta_is_informational_in_smoke_mode(self, tmp_path, capsys):
        baseline = _report({"a": 0.1})
        current = _report({"a": 0.2}, mode="smoke")
        assert self._run_check(tmp_path, baseline, current) == 0
        assert "low-round" in capsys.readouterr().out

    def test_ratio_regression_fails_even_in_smoke_mode(self, tmp_path, capsys):
        baseline = _report({"a": 0.1}, ratios={"speedup": 4.0})
        current = _report({"a": 0.1}, ratios={"speedup": 1.2}, mode="smoke")
        assert self._run_check(tmp_path, baseline, current) == 1
        out = capsys.readouterr().out
        assert "RATIO" in out
        assert "FAIL: 1 regression(s)" in out

    def test_informational_ratio_never_gates(self, tmp_path, capsys):
        # A gap ratio falling is an improvement, not a regression.
        assert "observed_gap_i64" in INFORMATIONAL_RATIOS
        baseline = _report({"a": 0.1}, ratios={"observed_gap_i64": 3.0})
        current = _report({"a": 0.1}, ratios={"observed_gap_i64": 1.2})
        assert self._run_check(tmp_path, baseline, current) == 0
        out = capsys.readouterr().out
        assert "info    observed_gap_i64: 1.20x vs baseline 3.00x" in out
        assert "RATIO" not in out

    def test_lost_case_coverage_fails(self, tmp_path, capsys):
        baseline = _report({"a": 0.1, "b": 0.2})
        current = _report({"a": 0.1})
        assert self._run_check(tmp_path, baseline, current) == 1
        assert "MISSING b" in capsys.readouterr().out

    def test_missing_baseline_skips_gate(self, tmp_path, capsys):
        cur_dir = str(tmp_path / "cur")
        _write(_report({"a": 0.1}), cur_dir)
        assert main(["simulator", "--check", "--replay", cur_dir,
                     "--baseline-dir", str(tmp_path / "nothing")]) == 0
        assert "skipping gate" in capsys.readouterr().out

    def test_threshold_flag_widens_the_wall_gate(self, tmp_path):
        baseline = _report({"a": 0.1})
        current = _report({"a": 0.2})
        base_dir = str(tmp_path / "base")
        cur_dir = str(tmp_path / "cur")
        _write(baseline, base_dir)
        _write(current, cur_dir)
        assert main(["simulator", "--check", "--replay", cur_dir,
                     "--baseline-dir", base_dir, "--threshold", "150"]) == 0

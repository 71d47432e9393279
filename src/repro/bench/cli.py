"""The ``repro bench`` command body: run suites, write reports, gate.

Kept inside :mod:`repro.bench` (rather than the top-level CLI module) so
the gate is scriptable: ``python -m repro.bench.cli --check`` behaves
exactly like ``repro bench --check``.  Printing is this module's job — the
measurement loop (:mod:`repro.bench.cases`) and the report/compare layer
(:mod:`repro.bench.report`) stay silent.

Exit codes: 0 clean, 1 regression found by ``--check``, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.bench.cases import (
    INFORMATIONAL_RATIOS,
    SUITE_NAMES,
    run_suite,
    suite_cases,
)
from repro.bench.report import (
    DEFAULT_RATIO_SLACK,
    DEFAULT_THRESHOLD,
    BenchReport,
    compare_ratios,
    compare_reports,
    load_report,
    machine_fingerprint,
    report_filename,
)

__all__ = ["add_arguments", "main", "run"]

#: Default location of the committed baseline reports.
DEFAULT_BASELINE_DIR = os.path.join("benchmarks", "baselines")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the bench-specific arguments (shared flags are the caller's)."""
    parser.add_argument("suites", nargs="*", metavar="SUITE",
                        help=f"suites to run (default: all of "
                             f"{', '.join(SUITE_NAMES)})")
    parser.add_argument("--list", action="store_true",
                        help="list suites and cases, run nothing")
    parser.add_argument("--smoke", action="store_true",
                        help="best of two timed rounds after warmup (fast, "
                             "noisier; what CI runs)")
    parser.add_argument("--output-dir", metavar="DIR", default=".",
                        help="write BENCH_<suite>.json here (default: .)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed baselines and "
                             "exit 1 on regression")
    parser.add_argument("--baseline-dir", metavar="DIR",
                        default=DEFAULT_BASELINE_DIR,
                        help=f"baseline reports (default: "
                             f"{DEFAULT_BASELINE_DIR})")
    parser.add_argument("--replay", metavar="DIR", default=None,
                        help="re-check existing BENCH_*.json from DIR "
                             "instead of measuring anything")
    parser.add_argument("--threshold", type=float, metavar="PCT",
                        default=DEFAULT_THRESHOLD * 100.0,
                        help="wall-time regression threshold in percent "
                             f"(default: {DEFAULT_THRESHOLD * 100:.0f})")
    parser.add_argument("--ratio-slack", type=float, metavar="PCT",
                        default=DEFAULT_RATIO_SLACK * 100.0,
                        help="allowed drop of derived speedup ratios in "
                             f"percent (default: {DEFAULT_RATIO_SLACK * 100:.0f})")


def _list_cases(suites: list[str]) -> int:
    for suite in suites:
        print(f"{suite}:")
        for case in suite_cases(suite):
            print(f"  {case.name:<28} {case.work:>10.0f} {case.unit} "
                  f"x{case.rounds}")
    return 0


def _print_report(report: BenchReport) -> None:
    print(f"suite {report.suite}:")
    for result in report.results:
        print(f"  {result.name:<28} {result.wall_seconds * 1e3:>10.2f} ms wall  "
              f"{result.cpu_seconds * 1e3:>10.2f} ms cpu  "
              f"{result.throughput:>12.1f} {result.unit}/s")
    for name, value in sorted(report.ratios.items()):
        print(f"  {name:<28} {value:>10.2f}x")


def _check_suite(
    baseline: BenchReport,
    current: BenchReport,
    *,
    threshold: float,
    ratio_slack: float,
) -> int:
    """Print the comparison; return the number of gating regressions."""
    regressions = 0
    gate_walls = (
        baseline.machine == current.machine and current.mode == "full"
    )
    if not gate_walls:
        why = (
            "machine fingerprint differs from the baseline"
            if baseline.machine != current.machine
            else "smoke-mode numbers are low-round"
        )
        print(f"  [{baseline.suite}] {why}; wall-time deltas are "
              "informational, ratios still gate")
    for comp in compare_reports(baseline, current, threshold=threshold):
        if comp.current_wall is None:
            print(f"  MISSING {comp.name}: case in baseline but not measured")
            regressions += 1
            continue
        if comp.baseline_wall is None:
            print(f"  new     {comp.name}: {comp.current_wall * 1e3:.2f} ms "
                  "(no baseline)")
            continue
        delta = (comp.ratio - 1.0) * 100.0
        marker = "ok  "
        if comp.regressed:
            marker = "SLOW" if gate_walls else "slow"
            regressions += 1 if gate_walls else 0
        print(f"  {marker}    {comp.name}: {comp.current_wall * 1e3:.2f} ms "
              f"vs {comp.baseline_wall * 1e3:.2f} ms ({delta:+.1f}%)")
    for comp in compare_ratios(baseline, current, slack=ratio_slack):
        if comp.current_ratio is None:
            print(f"  MISSING ratio {comp.name}: in baseline but not derived")
            regressions += 1
            continue
        if comp.baseline_ratio is None:
            print(f"  new     ratio {comp.name}: {comp.current_ratio:.2f}x")
            continue
        if comp.name in INFORMATIONAL_RATIOS:
            print(f"  info    {comp.name}: {comp.current_ratio:.2f}x "
                  f"vs baseline {comp.baseline_ratio:.2f}x (not gated)")
            continue
        marker = "RATIO" if comp.regressed else "ok  "
        if comp.regressed:
            regressions += 1
        print(f"  {marker}   {comp.name}: {comp.current_ratio:.2f}x "
              f"vs baseline {comp.baseline_ratio:.2f}x")
    return regressions


def run(args: argparse.Namespace) -> int:
    """Execute ``repro bench`` from parsed arguments."""
    suites = list(args.suites) if args.suites else list(SUITE_NAMES)
    for suite in suites:
        if suite not in SUITE_NAMES:
            print(f"unknown suite {suite!r}; registered: "
                  f"{', '.join(SUITE_NAMES)}", file=sys.stderr)
            return 2
    if args.list:
        return _list_cases(suites)

    spec_overrides: dict[str, object] = {}
    if getattr(args, "faults", None):
        from repro.faults import load_plan

        spec_overrides["faults"] = load_plan(args.faults)
    if getattr(args, "trace_output", None):
        spec_overrides["trace_output"] = args.trace_output
    if spec_overrides and args.check:
        print("bench --check compares the baseline workload; drop "
              "--faults/--trace-output to gate", file=sys.stderr)
        return 2

    current: dict[str, BenchReport] = {}
    if args.replay is not None:
        for suite in suites:
            path = os.path.join(args.replay, report_filename(suite))
            if not os.path.exists(path):
                print(f"replay report missing: {path}", file=sys.stderr)
                return 2
            current[suite] = load_report(path)
            _print_report(current[suite])
    else:
        fingerprint = machine_fingerprint()
        print("machine: " + ", ".join(
            f"{key}={value}" for key, value in fingerprint.items()))
        for suite in suites:
            report = run_suite(
                suite,
                smoke=args.smoke,
                progress=lambda name: print(f"  running {name} ..."),
                spec_overrides=spec_overrides or None,
            )
            current[suite] = report
            _print_report(report)
            os.makedirs(args.output_dir, exist_ok=True)
            path = report.write(
                os.path.join(args.output_dir, report_filename(suite))
            )
            print(f"wrote {path}")

    if not args.check:
        return 0

    threshold = args.threshold / 100.0
    ratio_slack = args.ratio_slack / 100.0
    total = 0
    for suite in suites:
        baseline_path = os.path.join(args.baseline_dir, report_filename(suite))
        if not os.path.exists(baseline_path):
            print(f"no baseline for suite {suite} ({baseline_path}); "
                  "skipping gate")
            continue
        baseline = load_report(baseline_path)
        print(f"checking {suite} against {baseline_path}:")
        total += _check_suite(
            baseline, current[suite],
            threshold=threshold, ratio_slack=ratio_slack,
        )
    if total:
        print(f"FAIL: {total} regression(s) beyond the "
              f"{args.threshold:.0f}% / ratio-{args.ratio_slack:.0f}% gate")
        return 1
    print("bench check passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.bench.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="measured performance suites with a regression gate",
    )
    add_arguments(parser)
    parser.add_argument("--faults", metavar="PLAN.json", default=None,
                        help="fault plan applied to the end-to-end "
                             "simulator cases (measures faulted overhead)")
    parser.add_argument("--trace-output", metavar="LOG.jsonl", default=None,
                        help="trace the end-to-end simulator cases to this "
                             "JSONL file (measures tracing overhead)")
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())

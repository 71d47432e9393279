"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Run from the repository root.  It runs every workload in ``BENCHMARK.json``
at ``--size tiny``, once untraced and once traced, and checks:

- the last line of standard output is the result object, with every
  metric of the run's group present once, with its unit, as a finite
  number, and printed by name and unit on an earlier line;
- every output check passed and nothing failed;
- no end-to-end metric reads 0;
- the traced predictions of README.md: no per-edge kernel steps on
  ``sim-fleet``, ``edges x slots`` of them on ``sim-observed`` and
  ``serve-saturate``, and equal ``sim-fleet`` / ``serve-saturate`` digests.

It also runs the command in a directory holding only ``BENCHMARK.json``
and the benchmark's files, where it must fail without printing a result.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int, failures: list[str]) -> tuple[dict, str]:
    """Run one workload; return its metric values and printed digest."""
    label = f"{workload} --trace {trace}"
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        failures.append(f"{label}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        failures.append(f"{label}: last line is not a JSON result")
        return {}, ""
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        failures.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        failures.append(f"{label}: attempted={result.get('attempted')}")
    group = "per_layer" if trace else "end_to_end"
    expected = {metric["name"]: metric["unit"] for metric in spec[group]}
    metrics = result.get("metrics", {})
    got = {name: entry.get("unit") for name, entry in metrics.items()}
    if got != expected:
        failures.append(f"{label}: metrics/units differ from BENCHMARK.json {group}")
    printed = {tuple(line.split()[::2]) for line in lines[:-1] if len(line.split()) == 3}
    values = {}
    for name, entry in metrics.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{label}: {name} = {value!r}")
            continue
        values[name] = value
        if (name, entry.get("unit")) not in printed:
            failures.append(f"{label}: {name} not printed with its unit")
        if not trace and value == 0:
            failures.append(f"{label}: end-to-end metric {name} is 0")
    digest = next((line.split()[-1] for line in lines if line.startswith("# digest:")), "")
    return values, digest


def check_bare_directory(failures: list[str]) -> None:
    """Without the program the command must fail and print no result."""
    bare = HERE / ".work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, "sim-fleet", 0)
        if proc.returncode == 0:
            failures.append("bare directory: exit 0")
        lines = proc.stdout.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            failures.append("bare directory: printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import SIZES

    tiny = SIZES["tiny"]
    failures: list[str] = []
    digests = {}
    for workload in (entry["name"] for entry in spec["workloads"]):
        _, digests[workload] = check_run(spec, workload, 0, failures)
        traced, _ = check_run(spec, workload, 1, failures)
        steps = traced.get("sim.kernel.edge_step.calls")
        want = 0 if workload == "sim-fleet" else tiny.edges * tiny.horizon
        if workload != "serve-paced" and steps != want:
            failures.append(f"{workload}: sim.kernel.edge_step.calls = {steps}, want {want}")
        print(f"{workload}: done", flush=True)
    if digests.get("sim-fleet") != digests.get("serve-saturate"):
        failures.append(f"digests differ: {digests}")
    check_bare_directory(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Host-speed calibration for the benchmark.

Shared hosts drift in speed by tens of percent within minutes, and not
equally on every CPU.  A fixed small-array NumPy loop that never calls the
program slows with them.  Timing the loop just before and just after each
rep lets ``run.py`` report the rep's times at a reference host speed.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

__all__ = ["calibration_s", "loop_s"]


def loop_s() -> float:
    """Seconds for one pass of the fixed calibration loop."""
    values = np.arange(256, dtype=float)
    total = 0.0
    start = time.perf_counter()
    for _ in range(2000):
        values = np.sqrt(values * values + 1.0)
        total += float(values.sum())
    return time.perf_counter() - start


def _child(conn) -> None:
    conn.send(loop_s())
    conn.close()


def calibration_s(processes: int) -> float:
    """Mean loop seconds over ``processes`` copies run at the same time.

    A single copy runs in this process, so it shares the CPU the rep runs
    on; that tracked the single-process workloads best.  More copies run in
    forked children, one per CPU a multi-process workload keeps busy.  The
    benchmark starts no threads, so forking is safe, as it is for the shard
    runtime's own workers.
    """
    if processes == 1:
        return loop_s()
    context = multiprocessing.get_context("fork")
    pipes = [context.Pipe(duplex=False) for _ in range(processes)]
    children = [context.Process(target=_child, args=(send,)) for _, send in pipes]
    try:
        for child in children:
            child.start()
        for _, send in pipes:
            send.close()
        times = [receive.recv() for receive, _ in pipes]
    finally:
        for child in children:
            if child.pid is not None:
                child.join()
    return sum(times) / processes

#!/usr/bin/env python3
"""One timed pass over a workload's ops, in an interpreter of its own.

    python3 perfbench/timed_pass.py WORKLOAD SEED SECONDS CYCLES

Runs the op sequence of WORKLOAD and SEED untraced, in whole cycles: for
SECONDS and at least MIN_OPS ops when CYCLES is 0, else for exactly CYCLES
cycles.  Before each op, and after the last, it times a fixed piece of
reference work that does not touch eechain, so that run.py can tell how
fast the machine ran around each op.  The last line of standard output is
one JSON object: each op's wall time in ms (null when it failed), the
reference timings in ms (one more than the ops), the points each op
delivers, the cycles run and the pass's peak resident memory.  run.py
starts it.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import MIN_OPS, OUT, Loop, import_eechain  # noqa: E402
from workloads import Executor  # noqa: E402

_REF_SIGNAL = numpy.exp(0.37j * numpy.arange(1 << 15))
_REF_MATRIX = numpy.cos(0.1 * numpy.add.outer(numpy.arange(96), 2 * numpy.arange(96)))
_REF_MATRIX = _REF_MATRIX + _REF_MATRIX.T
_REF_ARRAY = numpy.exp(0.11j * numpy.arange(1 << 18))


def reference_work():
    """2 to 4 ms of the kinds of work eechain does: an FFT, a small
    Hermitian eigensolve, a pass over a 4 MB array and a pure-Python loop."""
    numpy.fft.ifft(_REF_SIGNAL)
    numpy.linalg.eigvalsh(_REF_MATRIX)
    numpy.abs(_REF_ARRAY * 1.5)
    return sum(math.sin(0.001 * i) for i in range(3000))


def timed_pass(loop):
    """Run the loop untraced, timing the reference work around every op."""
    op_ms, ref_ms, points = [], [], []

    def reference():
        reference_work()  # untimed: brings its data back into cache after an op
        t0 = time.perf_counter()
        reference_work()
        ref_ms.append(1e3 * (time.perf_counter() - t0))

    def run_one(_op_id, op):
        reference()
        elapsed = loop.attempt(op)
        op_ms.append(None if elapsed is None else 1e3 * elapsed)
        points.append(op.points)

    for _ in range(3):  # untimed: numpy's FFT plan cache and first-call costs
        reference_work()
    cycles = loop.run(run_one)
    reference()
    return {"op_ms": op_ms, "ref_ms": ref_ms, "points": points, "cycles": cycles}


def main(argv):
    workload, seed, seconds, cycles = argv[0], int(argv[1]), float(argv[2]), int(argv[3])
    eechain = import_eechain()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        loop = Loop(Executor(eechain, scratch), workload, seed, seconds, MIN_OPS, cycles or None)
        loop.warm_up(workload, seed)
        result = timed_pass(loop)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])

#!/usr/bin/env python3
"""eechain benchmark: end-to-end and per-layer metrics on two workloads.

Run from the repository root:

    python3 perfbench/run.py --workload large_chain --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

One workload runs per process, so ``setup_s`` and ``peak_rss_mb`` belong
to it; ``--workload all`` starts one fresh process per workload and prints
every result.  Each workload is a closed loop: one caller in one process
sends the next op when the previous one returned.  The op sequence comes
from ``--seed`` alone (see workloads.py) and every op's output is checked.

``--trace 0`` measures the end-to-end metrics with tracing off.  It runs
the same op sequence in PASSES timed passes, one after another, each in a
fresh interpreter (timed_pass.py), so that no pass can reuse what an
earlier one computed.  Each op's time is scaled by the speed at which the
machine ran the reference work timed around it (``speed_normalised``),
and the op's metric time is the median over the passes.  The raw wall
times are printed and stored too.  See README.md for why.
``--trace 1`` runs every op twice, once with the wrappers of spans.py
installed and once without, in alternating order; it reports the per-layer
metrics and the tracing overhead (traced minus untraced mean op time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it print each metric with its unit and sample count, ``failed_frac``, and
the machine the run was made on.  Results and spans are also written to
``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Executor, op_stream  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

STARTED = time.perf_counter()
# A run must end within 180 s; a pass still going at this age is killed.
DEADLINE_S = 170.0
# At least ten op times lie beyond p90.
MIN_OPS = 100
# Timed passes over the same ops, each in a fresh interpreter; an op's time
# is its median over the passes.
PASSES = 3
# The nominal time of timed_pass.reference_work, in ms: op times are scaled
# to the machine speed at which the reference work takes this long.
REF_MS = 3.0
# Fresh interpreters timed for setup_s, after one untimed start that lets
# the bytecode cache fill.
SETUP_REPEATS = 5
SETUP_CODE = (
    "import math, sys; sys.path.insert(0, 'src'); import eechain; "
    "eechain.entropy_of(eechain.LatticeSpec(64), math.inf, range(8))"
)
# Set for the run and every process it starts, unless the caller set them:
# one BLAS thread.  With two on the two shared cores, an eigensolve stalled
# whenever the machine took one core away (a 1.8 s oracle check took 55 s).
RUN_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class SetupError(Exception):
    """The run cannot give a result: no eechain sources, or a timed pass
    that failed or ran past DEADLINE_S."""


def import_eechain():
    """Import eechain from this checkout's src/, never from elsewhere."""
    package = SRC / "eechain"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no eechain sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import eechain
    import eechain.cli

    if Path(eechain.__file__).resolve().parent != package.resolve():
        raise SetupError(f"imported eechain from {eechain.__file__}, not {package}")
    return eechain


def machine_info(eechain):
    """The machine and libraries a result was measured on."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass

    def blas_of(module):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_of(numpy),
        "scipy_blas": blas_of(scipy),
        "env": {k: os.environ[k] for k in RUN_ENV if k in os.environ},
        "eechain_backend": eechain.backend_name(),
    }


def measure_setup():
    """Median seconds from starting a fresh interpreter to the end of its
    first small entropy_of."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True, timeout=120
        )
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Loop:
    """Closed loop over whole cycles of ops: until the time budget is spent
    and at least min_ops ops were attempted, or for a given number of
    cycles."""

    def __init__(self, executor, workload, seed, seconds, min_ops, cycles=None):
        self.executor = executor
        self.stream = op_stream(workload, seed)
        self.seconds = seconds
        self.min_ops = min_ops
        self.cycles = cycles
        self.attempted = 0
        self.failed = 0
        self.first_cycle = 0

    def attempt(self, op):
        """Run one op; its time in seconds, or None when it failed."""
        try:
            elapsed = self.executor.run(op)
        except Exception:  # every failure is counted, the loop goes on
            if self.failed < 3:
                traceback.print_exc(file=sys.stderr)
                print(f"failed op: {op}", file=sys.stderr)
            return None
        return elapsed

    def run(self, run_one):
        """Call run_one(op_id, op) for each op; return the number of cycles
        run."""
        start = time.perf_counter()
        for done, cycle in enumerate(self.stream, 1):
            if not self.first_cycle:
                self.first_cycle = len(cycle)
            for op in cycle:
                run_one(self.attempted, op)
                self.attempted += 1
            if self.cycles is not None:
                if done >= self.cycles:
                    return done
            elif time.perf_counter() - start >= self.seconds and self.attempted >= self.min_ops:
                return done

    def warm_up(self, workload, seed):
        """Run the first two ops untimed, so that lazy set-up and caches are
        done before timing starts."""
        for op in next(op_stream(workload, seed))[:2]:
            self.attempt(op)


def _quantiles(op_ms, points, ok):
    """op_ms_p50, op_ms_p90 and points_per_s of the ops that succeeded."""
    times = [t for t, good in zip(op_ms, ok) if good]
    delivered = sum(pt for pt, good in zip(points, ok) if good)
    if len(times) > 1:
        q = statistics.quantiles(times, n=100, method="inclusive")
        p50, p90 = q[49], q[89]
    else:  # every op but at most one failed; the result is marked incorrect
        p50 = p90 = times[0] if times else 0.0
    return {
        "op_ms_p50": (p50, "ms"),
        "op_ms_p90": (p90, "ms"),
        "points_per_s": (1e3 * delivered / sum(times) if times else 0.0, "1/s"),
    }


def speed_normalised(one_pass):
    """A pass's op times scaled to the machine speed at which the reference
    work takes REF_MS: each op's time times REF_MS over the mean of the
    reference timings just before and just after it."""
    ref = one_pass["ref_ms"]
    return [
        None if t is None else t * REF_MS / (0.5 * (ref[i] + ref[i + 1]))
        for i, t in enumerate(one_pass["op_ms"])
    ]


def measure_untraced(workload, seed, seconds):
    """End-to-end metrics from PASSES passes over one op sequence, each in
    a fresh interpreter.  Also returns the same metrics from the raw wall
    times, each op's normalised time in ms, the op runs attempted and
    failed, and the passes."""
    passes = []
    for _ in range(PASSES):
        cmd = [sys.executable, str(HERE / "timed_pass.py"), workload, str(seed)]
        cmd += [str(seconds / PASSES), str(passes[0]["cycles"]) if passes else "0"]
        left = DEADLINE_S - (time.perf_counter() - STARTED)
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(left, 1.0)
            )
        except subprocess.TimeoutExpired:
            raise SetupError(f"{workload} ran past {DEADLINE_S:.0f} s") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SetupError(f"timed pass of {workload} exited {proc.returncode}")
        passes.append(json.loads(lines[-1]))

    def per_op_median(per_pass):
        return [None if None in t else statistics.median(t) for t in zip(*per_pass)]

    op_ms = per_op_median([speed_normalised(p) for p in passes])
    raw_ms = per_op_median([p["op_ms"] for p in passes])
    ok = [t is not None for t in op_ms]
    metrics = _quantiles(op_ms, passes[0]["points"], ok)
    # the passes run the same ops; the median drops a pass whose allocator
    # happened to keep more freed memory
    metrics["peak_rss_mb"] = (statistics.median(p["peak_rss_mb"] for p in passes), "MB")
    raw = _quantiles(raw_ms, passes[0]["points"], ok)
    attempted = sum(len(p["op_ms"]) for p in passes)
    failed = sum(t is None for p in passes for t in p["op_ms"])
    return metrics, raw, op_ms, attempted, failed, passes


def measure_traced(loop, tracer, spans_path):
    untraced, traced = [], []

    def run_one(op_id, op):
        tracer.op_id = op_id
        results = {}
        for with_trace in ((False, True) if op_id % 2 == 0 else (True, False)):
            if with_trace:
                with tracer:
                    results[True] = loop.attempt(op)
            else:
                results[False] = loop.attempt(op)
        if None in results.values():
            loop.failed += 1
        else:
            untraced.append(results[False])
            traced.append(results[True])

    loop.run(run_one)
    tracer.write(spans_path)
    metrics = layer_metrics(tracer.spans, tracer.counts, loop.attempted, loop.first_cycle)
    base = statistics.fmean(untraced) if untraced else 0.0
    overhead = statistics.fmean(traced) - base if traced else 0.0
    metrics["trace.overhead_ms"] = (1e3 * overhead, "ms")
    metrics["trace.overhead_frac"] = (overhead / base if base else 0.0, "ratio")
    metrics["trace.ops"] = (loop.attempted, "count")
    return metrics


def run_workload(workload, seed, seconds, trace):
    eechain = import_eechain()
    machine = machine_info(eechain)
    OUT.mkdir(exist_ok=True)
    op_ms = passes = raw = None
    if trace:
        scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
        try:
            # a traced run needs one whole cycle, so that the counts are complete
            loop = Loop(Executor(eechain, scratch), workload, seed, seconds, 1)
            loop.warm_up(workload, seed)
            spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
            metrics = measure_traced(loop, Tracer(eechain), spans_path)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        attempted, failed = loop.attempted, loop.failed
        samples = attempted - failed
    else:
        setup_s = measure_setup()
        metrics, raw, op_ms, attempted, failed, passes = measure_untraced(
            workload, seed, seconds
        )
        metrics["setup_s"] = (setup_s, "s")
        samples = len(op_ms)

    failed_frac = failed / attempted
    print(f"# eechain perfbench: workload={workload} seed={seed} trace={trace}")
    print(f"# machine: {json.dumps(machine, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name.startswith("op_ms"):
            note = f"  ({samples} ops, median of {PASSES} passes, speed-normalised)"
        elif name == "setup_s":
            note = f"  (median of {SETUP_REPEATS} fresh interpreters)"
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:<48} {shown} {unit}{note}")
    print(f"  {'failed_frac':<48} {failed_frac:>16.6g}   ({failed}/{attempted} op runs)")
    if raw:
        print("  raw wall times, not speed-normalised (not in the result):")
        for name, (value, unit) in raw.items():
            print(f"  {'raw.' + name:<48} {value:>16.6g} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=workload, seed=seed, trace=trace, machine=machine,
                  failed_frac=failed_frac, samples=samples, op_ms=op_ms, passes=passes,
                  raw={k: v for k, (v, _unit) in (raw or {}).items()})
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    return result


def run_all(args):
    """Every workload, each in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SetupError(f"{workload} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # before numpy loads; the processes the run starts inherit them
    for name, value in RUN_ENV.items():
        os.environ.setdefault(name, value)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the pass or set-up process it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

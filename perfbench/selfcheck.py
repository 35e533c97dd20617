#!/usr/bin/env python3
"""Self-check of the benchmark harness.  Run from the repository root:

    python3 perfbench/selfcheck.py

It checks that

1. the op sequence is a function of the seed: the same seed gives identical
   ops and another seed different ones;
2. eechain receives only the generated inputs: with its entry points
   wrapped by recorders, one cycle of each workload calls them with exactly
   the arguments of the op sequence, in order;
3. a short run of every workload in a fresh process, untraced and traced,
   fails no op and reports exactly the metric names and units of
   BENCHMARK.json;
4. in a directory holding only BENCHMARK.json and the benchmark's files the
   benchmark exits nonzero and prints no result.

Exits 0 when every check passes and 1 otherwise.  Takes about three minutes
on two cores.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import OUT, ROOT, import_eechain  # noqa: E402
from workloads import WORKLOADS, Executor, op_stream  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cycles(workload, seed, count=3):
    return list(itertools.islice(op_stream(workload, seed), count))


def check_seeding():
    for workload in WORKLOADS:
        if _cycles(workload, 5) != _cycles(workload, 5):
            yield f"{workload}: seed 5 gave two different op sequences"
        if _cycles(workload, 5) == _cycles(workload, 6):
            yield f"{workload}: seeds 5 and 6 gave the same op sequence"


def check_inputs(eechain):
    """Record every call into the entry points while one cycle runs."""
    calls = []
    entropy_of, main = eechain.entropy_of, eechain.cli.main

    def record_entropy_of(spec, beta, subsystem, *rest):
        calls.append(("point", (spec.n_sites, len(subsystem), spec.z_exponent,
                                spec.mass, beta, spec.boundary_phase),
                      list(subsystem) == list(range(len(subsystem))) and spec.spacing == 1.0))
        return entropy_of(spec, beta, subsystem, *rest)

    def record_main(argv):
        calls.append(("cli", tuple(argv), True))
        return main(argv)

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=OUT))
    eechain.entropy_of, eechain.cli.main = record_entropy_of, record_main
    try:
        executor = Executor(eechain, scratch)
        for workload in WORKLOADS:
            calls.clear()
            cycle = next(op_stream(workload, 9))
            for op in cycle:
                executor.run(op)
            expected = [(op.kind, op.args, True) for op in cycle]
            got = [
                (kind, tuple("{out}" if str(a).startswith(str(scratch)) else a for a in args), ok)
                for kind, args, ok in calls
            ]
            if got != expected:
                yield f"{workload}: eechain received other inputs than the op sequence"
    finally:
        eechain.entropy_of, eechain.cli.main = entropy_of, main
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, cwd):
    cmd = [sys.executable, "perfbench/run.py"] + args
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def check_smoke():
    expected = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    for workload, trace in itertools.product(WORKLOADS, (0, 1)):
        args = ["--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace)]
        code, lines, err = _run(args, ROOT)
        label = f"{workload} --trace {trace}"
        if code != 0 or not lines:
            yield f"{label}: exit {code}: {err.strip()[-500:]}"
            continue
        result = json.loads(lines[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            yield f"{label}: result keys {sorted(result)}"
        if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
            yield f"{label}: {result['failed']} of {result['attempted']} ops failed"
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        if units != expected[trace]:
            yield f"{label}: metrics {sorted(units)} differ from BENCHMARK.json"
        print(f"  {label}: {result['attempted']} ops, 0 failed", flush=True)


def check_without_sources():
    OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _err = _run(
            ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"], bare
        )
        if code == 0 or any(line.startswith("{") for line in lines):
            yield f"without eechain sources: exit {code}, output {lines[-1:]}"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    eechain = import_eechain()
    problems = []
    for name, check in (
        ("seeding", check_seeding),
        ("inputs", lambda: check_inputs(eechain)),
        ("smoke runs", check_smoke),
        ("without sources", check_without_sources),
    ):
        print(f"selfcheck: {name}", flush=True)
        found = list(check())
        for problem in found:
            print(f"  FAIL {problem}", flush=True)
        problems += found
    print("selfcheck: " + ("FAIL" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

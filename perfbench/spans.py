"""Spans around eechain's module-level functions, recorded from outside.

The traced run replaces functions on the modules that call them (for
example ``eechain.entropy.build_correlation_matrix``, the name ``entropy_of``
looks up) with wrappers that record a span: name, start, end, parent span
and op id.  Spans stay in memory and are written out when the run ends.
Nothing inside ``src/`` changes.

Counted quantities (points transformed, matrix dimensions cubed, bytes
assembled) are computed from the arguments and results of the wrapped
calls, so they repeat exactly for a given op sequence.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict


def _matrix_dim(matrix):
    entries = getattr(matrix, "entries", matrix)
    return entries.shape[0]


# (module, attribute, span name, counter).  The span name is a string, or a
# function of the call's first argument.  A counter maps (tracer, args,
# kwargs, result) to {count name: increment}.
def _wrap_table(eechain):
    cli, entropy, lattice = eechain.cli, eechain.entropy, eechain.lattice
    thermal, oracle = eechain.thermal, eechain.oracle

    def profile_count(tracer, args, kwargs, result):
        return {
            "backend.fourier_profile.points": len(result),
            "thermal.sweep_entropy.fourier_profile_calls": int(
                tracer.inside("thermal.sweep_entropy")
            ),
        }

    def corr_bytes(tracer, args, kwargs, result):
        return {"lattice.build_correlation_matrix.bytes_computed": 16 * result.dim**2}

    def dim_cubed(tracer, args, kwargs, result):
        return {"entropy.hermitian_eigenvalues.dim_cubed": _matrix_dim(args[0]) ** 3}

    def distinct_profiles(tracer, args, kwargs, result):
        # The fourier_profile calls a sweep would make if it computed each
        # (z, beta) profile once: p and q when massive, none for the exact
        # delta of an even-z massless ground state, p alone otherwise.
        zs, betas, mass = args[0], args[1], kwargs.get("mass", 0.0)
        calls = 0
        for z in set(zs):
            for beta in set(betas):
                if mass > 0:
                    calls += 2
                elif not (z % 2 == 0 and math.isinf(beta)):
                    calls += 1
        return {"thermal.sweep_entropy.distinct_profiles": calls}

    def fock_cubed(tracer, args, kwargs, result):
        return {"oracle.many_body_state.fock_dim_cubed": result.dimension**3}

    def table_bytes(tracer, args, kwargs, result):
        return {"output.emit_table.bytes": len(result)}

    return [
        (eechain, "entropy_of", "entropy.entropy_of", None),
        (thermal, "entropy_of", "entropy.entropy_of", None),
        (cli, "entropy_of", "entropy.entropy_of", None),
        (lattice, "build_mode_grid", "lattice.build_mode_grid", None),
        (lattice, "fourier_profile", "backend.fourier_profile", profile_count),
        (entropy, "build_correlation_matrix", "lattice.build_correlation_matrix", corr_bytes),
        (cli, "build_correlation_matrix", "lattice.build_correlation_matrix", corr_bytes),
        (entropy, "hermitian_eigenvalues", "entropy.hermitian_eigenvalues", dim_cubed),
        (entropy, "entanglement_entropy", "entropy.entanglement_entropy", None),
        (cli, "entanglement_entropy", "entropy.entanglement_entropy", None),
        (cli, "sweep_entropy", "thermal.sweep_entropy", distinct_profiles),
        (cli, "fit_low_temperature", "thermal.fit", None),
        (cli, "fit_high_temperature", "thermal.fit", None),
        (cli, "emit_table", "output.emit_table", table_bytes),
        (cli, "emit_plot", "output.emit_plot", None),
        (cli, "many_body_state", "oracle.many_body_state", fock_cubed),
        (oracle, "many_body_state", "oracle.many_body_state", fock_cubed),
        (oracle, "single_particle_hamiltonian", "oracle.single_particle_hamiltonian", None),
        (cli, "mode_correlators", "oracle.mode_correlators", None),
        (cli, "reduced_entropy", "oracle.reduced_entropy", None),
        (cli, "main", _main_span_name, None),
    ]


def _main_span_name(argv):
    """A cmera command's cli.main span is named cmera.command: nothing inside
    it is wrapped but the plot writer, so its self time is the cmera work.
    Wrapping the 501 scalar bogoliubov_angle calls instead would mostly
    time the wrappers."""
    return "cmera.command" if argv and argv[0] == "cmera" else "cli.main"


class Tracer:
    """Installs the wrappers while tracing is on and keeps the spans.

    A span is (id, name, start, end, parent id or None, op id).  Counts are
    kept per op id.
    """

    def __init__(self, eechain):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self.op_id = None
        self._stack = []  # (id, name) of the open spans
        self._next_id = 0
        self._patches = []
        for module, attr, name, counter in _wrap_table(eechain):
            original = getattr(module, attr)
            self._patches.append((module, attr, original, self._wrap(name, original, counter)))

    def inside(self, name):
        """True when a span of this name is open."""
        return any(open_name == name for _sid, open_name in self._stack)

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            span_name = name(args[0]) if callable(name) else name
            self._stack.append((sid, span_name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, span_name, start, end, parent, self.op_id))
            if counter is not None:
                bucket = self.counts[self.op_id]
                for key, value in counter(self, args, kwargs, result).items():
                    bucket[key] += value
            return result

        return wrapper

    def __enter__(self):
        for module, attr, _original, wrapped in self._patches:
            setattr(module, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _wrapped in self._patches:
            setattr(module, attr, original)
        return False

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


# Inclusive time ("ms") or self time ("self_ms") per op, by span name.
_TIMES = [
    ("lattice.build_mode_grid.ms", "lattice.build_mode_grid", False),
    ("backend.fourier_profile.ms", "backend.fourier_profile", False),
    ("lattice.build_correlation_matrix.self_ms", "lattice.build_correlation_matrix", True),
    ("entropy.hermitian_eigenvalues.ms", "entropy.hermitian_eigenvalues", False),
    ("entropy.entanglement_entropy.ms", "entropy.entanglement_entropy", False),
    ("entropy.entropy_of.self_ms", "entropy.entropy_of", True),
    ("thermal.sweep_entropy.ms", "thermal.sweep_entropy", False),
    ("thermal.sweep_entropy.self_ms", "thermal.sweep_entropy", True),
    ("thermal.fit.ms", "thermal.fit", False),
    ("output.emit_table.ms", "output.emit_table", False),
    ("output.emit_plot.ms", "output.emit_plot", False),
    ("cli.main.self_ms", "cli.main", True),
    ("cmera.ms", "cmera.command", True),
    ("oracle.single_particle_hamiltonian.ms", "oracle.single_particle_hamiltonian", False),
    ("oracle.many_body_state.self_ms", "oracle.many_body_state", True),
    ("oracle.mode_correlators.ms", "oracle.mode_correlators", False),
    ("oracle.reduced_entropy.ms", "oracle.reduced_entropy", False),
]

_COUNTS = {
    "backend.fourier_profile.points": "count",
    "lattice.build_correlation_matrix.bytes_computed": "B",
    "entropy.hermitian_eigenvalues.dim_cubed": "count",
    "oracle.many_body_state.fock_dim_cubed": "count",
    "output.emit_table.bytes": "B",
    "thermal.sweep_entropy.distinct_profiles": "count",
    "thermal.sweep_entropy.fourier_profile_calls": "count",
}


def layer_metrics(spans, counts, n_ops, count_ops):
    """Per-layer metrics from spans and counts.

    Times are ms per traced op over all n_ops traced ops.  Counts are exact
    totals over the ops whose id is below count_ops (the first cycle), so
    that they do not depend on how many ops the time budget allowed.
    """
    child_time = defaultdict(float)
    for _sid, _name, start, end, parent, _op in spans:
        if parent is not None:
            child_time[parent] += end - start
    inclusive, own = defaultdict(float), defaultdict(float)
    for sid, name, start, end, _parent, _op in spans:
        inclusive[name] += end - start
        own[name] += end - start - child_time[sid]

    metrics = {}
    for metric, name, self_time in _TIMES:
        total = own[name] if self_time else inclusive[name]
        metrics[metric] = (1e3 * total / n_ops, "ms")


    totals = defaultdict(int)
    for op, bucket in counts.items():
        if op < count_ops:
            for key, value in bucket.items():
                totals[key] += value
    for key, unit in _COUNTS.items():
        metrics[key] = (totals[key], unit)
    calls = totals["thermal.sweep_entropy.fourier_profile_calls"]
    reuse = totals["thermal.sweep_entropy.distinct_profiles"] / calls if calls else 0.0
    metrics["thermal.profile_reuse"] = (reuse, "ratio")
    return metrics

"""Temperature sweeps, closed-form reference curves, and regime fits.

The low-temperature fit works in the scaling variable x = l * beta^(-1/z)
with l = N_A * eps, regressing entropy on the basis {1, x, x^2}; the
high-temperature fit uses {1, x, ln(eps^z / beta)}.  Both solve the normal
equations directly (the bases are O(1) in the windows used) with a
conditioning guard, and report classical per-coefficient standard errors
(sigma^2 = RSS/(n-p), cov = sigma^2 (X^T X)^(-1)).

Default beta grids (frozen after a window study; see the acceptance tests):

* low T: x linearly spaced on [0.05, 0.27], 10 points, beta = (l/x)^z.
  The floor keeps the thermal length l/x inside the chain (beta^(1/z)
  below N/2 at the sizes used); the cap stays inside the x < 0.3 window
  with margin for the quartic tail.
* high T: 12 points log-spaced on [200 * eps^z, (l/3)^z] — empty when the
  floor exceeds the cap, which is exactly the "regime unreachable" case
  for small z.  The floor keeps band-edge modes cold (beta * omega_max
  >= 200), where the continuum thermal ansatz still applies.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

# entropy_of stays bound here: perfbench's traced run wraps thermal.entropy_of
from .entropy import _entropies_of_blocks, entropy_of  # noqa: F401
from .errors import (
    IllConditioned,
    InsufficientData,
    InvalidKind,
    InvalidParameter,
    RegimeUnreachable,
)
from .lattice import LatticeSpec

LOW_T_WINDOW = 0.3  # rows with x = l * beta^(-1/z) below this qualify
HIGH_T_WINDOW = 3.0  # rows with x above this qualify
SATURATION_FRACTION = 0.9  # ... and entropy below this fraction of 2*N_A*ln2
MIN_ROWS = 8
CONDITION_BOUND = 1e12


@dataclass(frozen=True)
class SweepRow:
    z: int
    beta: float
    n: int
    na: int
    epsilon: float
    mass: float
    entropy: float

    def sort_key(self):
        return (self.z, self.beta, self.na, self.n, self.mass, self.epsilon)


@dataclass(frozen=True)
class SweepTable:
    rows: tuple

    def __len__(self):
        return len(self.rows)

    def sorted(self):
        return SweepTable(rows=tuple(sorted(self.rows, key=SweepRow.sort_key)))


@dataclass(frozen=True)
class FitResult:
    """Least-squares summary: coefficients with standard errors.

    basis labels the regressors in order; coefficients[0] is the constant
    term (the extrapolated S at the regime's anchor).
    """

    coefficients: tuple
    std_errors: tuple
    residual_rms: float
    basis: tuple
    n_rows: int


def regime_scales(spec: LatticeSpec, na):
    """(crossover temperature, saturation entropy) for a subsystem size."""
    t_c = (spec.spacing * na) ** (-spec.z_exponent)
    s_max = 2.0 * na * math.log(2.0)
    return t_c, s_max


def cft_reference(kind, params):
    """Closed-form entropy curves used as overlays and fit targets.

    kinds: 'finite_size'   S = (c/3) ln((N/pi) sin(pi N_A / N))
           'thermal'       S = (c/3) ln((beta/(pi eps)) sinh(pi l / beta))
           'low_T_expansion'   (c/3) [ln(l/eps) + (pi^2/6)(l/beta)^2]
           'high_T_expansion'  (c/3) [pi l/beta - ln(l/beta) + ln(l/(2 pi eps))]
    """
    p = dict(params)
    c = p.get("c", 2.0)
    if kind == "finite_size":
        n, na = p["n"], p["na"]
        return (c / 3.0) * math.log((n / math.pi) * math.sin(math.pi * na / n))
    if kind == "thermal":
        l, beta, eps = p["l"], p["beta"], p.get("eps", 1.0)
        return (c / 3.0) * math.log((beta / (math.pi * eps)) * math.sinh(math.pi * l / beta))
    if kind == "low_T_expansion":
        l, beta, eps = p["l"], p["beta"], p.get("eps", 1.0)
        return (c / 3.0) * (math.log(l / eps) + (math.pi**2 / 6.0) * (l / beta) ** 2)
    if kind == "high_T_expansion":
        l, beta, eps = p["l"], p["beta"], p.get("eps", 1.0)
        return (c / 3.0) * (
            math.pi * l / beta - math.log(l / beta) + math.log(l / (2.0 * math.pi * eps))
        )
    raise InvalidKind(f"unknown reference curve kind: {kind!r}")


# Thread-count symbols of numpy's bundled OpenBLAS: ILP64 wheels prefix and
# suffix them, older wheels do not.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_threads():
    """(get, set) for the thread count of numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for get_name, put_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, put_name):
                get, put = getattr(lib, get_name), getattr(lib, put_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _set_one_blas_thread():
    """Pool initializer: forked workers inherit one thread, spawned ones not."""
    control = _openblas_threads()
    if control is not None and control[0]() != 1:
        control[1](1)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, where it can be set."""
    control = _openblas_threads()
    if control is None:
        yield
        return
    get, put = control
    saved = get()
    put(1)
    try:
        yield
    finally:
        put(saved)


def sweep_entropy(
    zs, betas, nas, n_sites, mass=0.0, spacing=1.0, boundary_phase=0.0, jobs=None
) -> SweepTable:
    """Entropy over the product grid zs x betas x nas.

    Each distinct (z, beta) is one group: its profile is transformed and
    its range(max(nas)) correlation matrix assembled once, and every N_A
    is solved on a leading principal submatrix, so the rows equal the
    per-point entropy_of values bit for bit at the same BLAS thread count.
    One row is returned per grid point, repeated axis values included,
    sorted by (z, beta, N_A).

    The eigensolves run on one BLAS thread, serial or not: LAPACK's last
    bits can depend on the thread count once a matrix is large enough to
    be threaded, so this keeps the rows independent of the core count and
    of jobs.  With jobs > 1 the groups are spread over at most that many
    worker processes (the platform's default start method; each worker
    sets one BLAS thread), and the rows are the serial rows byte for byte.
    Where numpy's OpenBLAS cannot be found its thread count is left alone;
    forked workers then inherit the caller's.
    """
    if jobs is not None and jobs < 1:
        raise InvalidParameter(f"jobs must be >= 1, got {jobs!r}")
    groups = list(dict.fromkeys((int(z), beta) for z in zs for beta in betas))
    specs = [
        LatticeSpec(
            n_sites=n_sites,
            z_exponent=z,
            mass=mass,
            spacing=spacing,
            boundary_phase=boundary_phase,
        )
        for z, _ in groups
    ]
    group_betas = [beta for _, beta in groups]
    args = (specs, group_betas, itertools.repeat([int(na) for na in nas]))
    workers = min(jobs or 1, len(groups))
    with _one_blas_thread():
        if workers > 1:
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_set_one_blas_thread
            ) as pool:
                points = list(pool.map(_entropies_of_blocks, *args))
        else:
            points = list(map(_entropies_of_blocks, *args))
    by_group = dict(zip(groups, points))
    rows = [
        SweepRow(entropy=point.entropy, **point.params)
        for z in zs
        for beta in betas
        for point in by_group[int(z), beta]
    ]
    return SweepTable(rows=tuple(rows)).sorted()


def default_low_temperature_betas(z, na, eps=1.0):
    """Frozen default beta grid for the low-T window (see module docstring)."""
    length = na * eps
    x = np.linspace(0.05, 0.27, 10)
    return (length / x) ** z


def default_high_temperature_betas(z, na, eps=1.0):
    """Frozen default beta grid for the high-T window; may be empty."""
    lo = 200.0 * eps**z
    hi = (na * eps / 3.0) ** z
    if lo >= hi:
        return np.empty(0)
    return np.geomspace(lo, hi, 12)


def _solve_least_squares(design, values, basis, n_rows):
    normal = design.T @ design
    cond = np.linalg.cond(normal)
    if cond > CONDITION_BOUND:
        raise IllConditioned(
            f"normal equations condition number {cond:.3e} exceeds {CONDITION_BOUND:.0e}"
        )
    coef = np.linalg.solve(normal, design.T @ values)
    resid = values - design @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    dof = len(values) - design.shape[1]
    sigma2 = float(resid @ resid / dof) if dof > 0 else 0.0
    std = np.sqrt(np.diag(sigma2 * np.linalg.inv(normal)))
    return FitResult(
        coefficients=tuple(float(v) for v in coef),
        std_errors=tuple(float(v) for v in std),
        residual_rms=rms,
        basis=basis,
        n_rows=n_rows,
    )


def _scaling_variable(row: SweepRow):
    if math.isinf(row.beta):
        return 0.0
    return row.na * row.epsilon * row.beta ** (-1.0 / row.z)


def fit_low_temperature(table: SweepTable, z, extra_power=None) -> FitResult:
    """Fit S = S_inf + f1*x + f2*x^2 on rows with x < 0.3 at this z.

    extra_power appends one more monomial (e.g. 3 for a cubic refit used
    by the odd-z parity checks).
    """
    rows = [r for r in table.rows if r.z == z and _scaling_variable(r) < LOW_T_WINDOW]
    if len(rows) < MIN_ROWS:
        raise InsufficientData(
            f"low-T fit needs >= {MIN_ROWS} rows with x < {LOW_T_WINDOW}, "
            f"got {len(rows)}"
        )
    x = np.array([_scaling_variable(r) for r in rows])
    s = np.array([r.entropy for r in rows])
    powers = [0, 1, 2] + ([extra_power] if extra_power else [])
    design = np.column_stack([x**p for p in powers])
    basis = tuple("1" if p == 0 else f"x^{p}" if p > 1 else "x" for p in powers)
    return _solve_least_squares(design, s, basis, len(rows))


def fit_high_temperature(table: SweepTable, z) -> FitResult:
    """Fit S = S_off + g*x + h*ln(eps^z/beta) on qualifying high-T rows.

    Rows qualify when x > 3 and S < 0.9 * (2 N_A ln 2).  Zero qualifying
    rows means the regime is physically out of reach at this (z, N_A) —
    RegimeUnreachable; one to seven rows is InsufficientData.
    """
    rows = []
    for r in table.rows:
        if r.z != z or math.isinf(r.beta):
            continue
        s_max = 2.0 * r.na * math.log(2.0)
        if _scaling_variable(r) > HIGH_T_WINDOW and r.entropy < SATURATION_FRACTION * s_max:
            rows.append(r)
    if not rows:
        raise RegimeUnreachable(
            f"no rows reach the high-T window (x > {HIGH_T_WINDOW}, unsaturated) at z={z}"
        )
    if len(rows) < MIN_ROWS:
        raise InsufficientData(
            f"high-T fit needs >= {MIN_ROWS} qualifying rows, got {len(rows)}"
        )
    x = np.array([_scaling_variable(r) for r in rows])
    log_term = np.array([r.z * math.log(r.epsilon) - math.log(r.beta) for r in rows])
    s = np.array([r.entropy for r in rows])
    design = np.column_stack([np.ones_like(x), x, log_term])
    return _solve_least_squares(
        design, s, ("1", "x", "ln(eps^z/beta)"), len(rows)
    )

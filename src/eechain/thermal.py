"""Temperature sweeps, closed-form reference curves, and regime fits.

The low-temperature fit works in the scaling variable x = l * beta^(-1/z)
with l = N_A * eps, regressing entropy on the basis {1, x, x^2} over rows
with x < 0.3, ground states kept at x = 0; the high-temperature fit uses
{1, x, ln(eps^z / beta)} over rows with beta <= (l/3)^z, that is x >= 3,
with beta finite and S below 0.9 of 2 N_A ln 2.  Both solve the normal
equations directly (the bases are O(1) in the windows used) with a
conditioning guard, and report classical per-coefficient standard errors
(sigma^2 = RSS/(n-p), cov = sigma^2 (X^T X)^(-1)).

Default beta grids (frozen after a window study; see the acceptance tests).
Both take z, N_A and eps by the input rules (as the fits take z), and raise
RegimeUnreachable where a beta overflows a float:

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

import itertools
import math
from dataclasses import dataclass

import numpy as np

# entropy_of stays bound here: perfbench's traced run wraps thermal.entropy_of
from .entropy import EntropyPoint, _entropies_of_blocks, entropy_of  # noqa: F401
from .errors import (
    IllConditioned,
    InsufficientData,
    InvalidKind,
    InvalidParameter,
    RegimeUnreachable,
)
from .lattice import (
    LatticeSpec, _power, validate_integer, validate_model, validate_positive, validate_real
)

LOW_T_WINDOW = 0.3  # rows with x = l * beta^(-1/z) below this qualify
HIGH_T_WINDOW = 3.0  # rows with finite beta <= (l / this)^z, i.e. x >= this, qualify
SATURATION_FRACTION = 0.9  # ... and entropy below this fraction of 2*N_A*ln2
MIN_ROWS = 8
CONDITION_BOUND = 1e12


@dataclass(frozen=True)
class SweepTable:
    """Sweep rows: a tuple of EntropyPoints."""

    rows: tuple

    def __len__(self):
        return len(self.rows)

    def sorted(self):
        return SweepTable(rows=tuple(sorted(self.rows, key=EntropyPoint.sort_key)))


@dataclass(frozen=True)
class FitResult:
    """Least-squares summary: coefficients with standard errors.

    basis labels the regressors in order; coefficients[0] is the constant
    term (the extrapolated S at the regime's anchor).
    """

    n_rows: int
    basis: tuple
    coefficients: tuple
    std_errors: tuple
    residual_rms: float


def regime_scales(spec: LatticeSpec, na):
    """(crossover temperature, saturation entropy) for a subsystem size."""
    na = validate_integer("subsystem size", na, 1)
    t_c = (spec.spacing * na) ** (-spec.z_exponent)
    s_max = 2.0 * na * math.log(2.0)
    return t_c, s_max


# S / (c/3) for each closed-form reference kind, as a function of its keys
_CFT_CURVES = {
    "finite_size": (
        ("n", "na"),
        lambda n, na: math.log((n / math.pi) * math.sin(math.pi * na / n)),
    ),
    "thermal": (
        ("l", "beta", "eps"),
        lambda l, beta, eps: math.log(
            (beta / (math.pi * eps)) * math.sinh(math.pi * l / beta)
        ),
    ),
    "low_T_expansion": (
        ("l", "beta", "eps"),
        lambda l, beta, eps: math.log(l / eps) + (math.pi**2 / 6.0) * (l / beta) ** 2,
    ),
    "high_T_expansion": (
        ("l", "beta", "eps"),
        lambda l, beta, eps: (
            math.pi * l / beta - math.log(l / beta) + math.log(l / (2.0 * math.pi * eps))
        ),
    ),
}


def cft_reference(kind, params):
    """Closed-form entropy curves used as overlays and fit targets.

    kinds: 'finite_size'   S = (c/3) ln((N/pi) sin(pi N_A / N))
           'thermal'       S = (c/3) ln((beta/(pi eps)) sinh(pi l / beta))
           'low_T_expansion'   (c/3) [ln(l/eps) + (pi^2/6)(l/beta)^2]
           'high_T_expansion'  (c/3) [pi l/beta - ln(l/beta) + ln(l/(2 pi eps))]

    params maps the keys the kind reads (n and na, or l, beta and eps) and
    c to finite reals > 0, with na < n; c defaults to 2 and eps to 1.  A
    missing or bad key, or a curve that overflows or takes the log of a
    value <= 0, raises InvalidParameter.
    """
    if kind not in _CFT_CURVES:
        raise InvalidKind(f"unknown reference curve kind: {kind!r}")
    keys, curve = _CFT_CURVES[kind]
    p = {"c": 2.0, "eps": 1.0, **dict(params)}
    missing = [key for key in keys if key not in p]
    if missing:
        raise InvalidParameter(f"{kind} reference needs params {missing}")
    c = validate_positive("c", p["c"])
    values = [validate_positive(key, p[key]) for key in keys]
    if kind == "finite_size" and not values[1] < values[0]:
        # sin(pi N_A / N) at N_A = N or 3N is round-off, not 0, and its log is finite
        raise InvalidParameter(f"finite_size reference needs na < n, got {params}")
    try:
        value = (c / 3.0) * curve(*values)
    except (ArithmeticError, ValueError):  # math's overflow and domain errors
        value = math.nan
    if not math.isfinite(value):  # float division and sinh(inf) overflow silently
        raise InvalidParameter(f"{kind} reference is not defined at {params}")
    return value


def sweep_entropy(
    zs, betas, nas, n_sites, mass=0.0, spacing=1.0, boundary_phase=0.0, jobs=None
) -> SweepTable:
    """Entropy over the product grid zs x betas x nas.

    Each distinct (z, beta) is one group: its profile is computed and its
    range(max(nas)) correlation blocks built once, and every N_A is solved
    on their leading N_A x N_A blocks, so the rows equal the per-point
    entropy_of values bit for bit.
    One row is returned per grid point, repeated axis values included,
    sorted by (z, beta, N_A).  A z or N_A that is not an integer, or a jobs
    that is neither None nor an integer >= 1, raises InvalidParameter.

    Every eigensolve and partial-DFT GEMM runs on one BLAS thread (see
    eechain.blas), so the rows do not depend on the core count or on jobs.
    With jobs > 1 the groups are spread over at most that many worker
    processes (the platform's default start method), and the rows are the
    serial rows byte for byte.
    """
    if jobs is not None:
        jobs = validate_integer("jobs", jobs, 1)
    groups = list(dict.fromkeys((z, beta) for z in zs for beta in betas))
    specs = [LatticeSpec(n_sites, z, mass, spacing, boundary_phase) for z, _ in groups]
    group_betas = [beta for _, beta in groups]
    args = (specs, group_betas, itertools.repeat(list(nas)))
    workers = min(jobs or 1, len(groups))
    if workers > 1:
        # imported here: the pool pulls in multiprocessing, which a serial
        # sweep and a plain import never need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(_entropies_of_blocks, *args))
    else:
        points = list(map(_entropies_of_blocks, *args))
    by_group = dict(zip(groups, points))
    rows = [point for z in zs for beta in betas for point in by_group[z, beta]]
    return SweepTable(rows=tuple(rows)).sorted()


def _grid_scales(z, na, eps):
    """(z, eps, l = N_A * eps), with z and eps as validate_model takes them."""
    z, _, eps = validate_model(z, 0.0, eps)
    return z, eps, validate_real("na", validate_integer("na", na, 1)) * eps


def _finite(betas):
    """betas, if every one is a finite float; else RegimeUnreachable."""
    if not np.isfinite(betas).all():
        raise RegimeUnreachable("a beta of the default grid overflows a float")
    return betas


def default_low_temperature_betas(z, na, eps=1.0):
    """Frozen default beta grid for the low-T window (see module docstring)."""
    z, _, length = _grid_scales(z, na, eps)
    x = np.linspace(0.05, 0.27, 10)
    with np.errstate(over="ignore"):
        return _finite((length / x) ** z)


def default_high_temperature_betas(z, na, eps=1.0):
    """Frozen default beta grid for the high-T window; may be empty."""
    z, eps, length = _grid_scales(z, na, eps)
    lo, hi = _finite(np.array([200.0 * _power(eps, z), _power(length / HIGH_T_WINDOW, z)]))
    if lo >= hi:
        return np.empty(0)
    return np.geomspace(lo, hi, 12)


def _solve_least_squares(design, values, basis):
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
        n_rows=len(values),
    )


def _scaling_variable(row: EntropyPoint):
    # a ground state's x is 0 by the formula: inf ** (-1/z) is exactly 0.0
    return row.na * row.epsilon * row.beta ** (-1.0 / row.z)


def _fit(rows, last, basis, too_few):
    """Least squares of S on [1, x, last(x, rows)]; too few rows raise InsufficientData."""
    if len(rows) < MIN_ROWS:
        raise InsufficientData(f"{too_few}, got {len(rows)}")
    x = np.array([_scaling_variable(r) for r in rows])
    design = np.column_stack([np.ones_like(x), x, last(x, rows)])
    return _solve_least_squares(design, np.array([r.entropy for r in rows]), basis)


def fit_low_temperature(table: SweepTable, z) -> FitResult:
    """Fit S = S_inf + f1*x + f2*x^2 on rows with x < 0.3 at this z."""
    z = validate_integer("z", z, 1)
    rows = [r for r in table.rows if r.z == z and _scaling_variable(r) < LOW_T_WINDOW]
    too_few = f"low-T fit needs >= {MIN_ROWS} rows with x < {LOW_T_WINDOW}"
    return _fit(rows, lambda x, rows: x**2, ("1", "x", "x^2"), too_few)


def fit_high_temperature(table: SweepTable, z) -> FitResult:
    """Fit S = S_off + g*x + h*ln(eps^z/beta) on qualifying high-T rows.

    Rows qualify when beta <= (N_A eps / 3)^z, that is x >= 3, with beta
    finite and S < 0.9 * (2 N_A ln 2).  No x is compared: the default grid's
    last beta is that bound, and its x may compute to one ulp below 3.  Zero
    qualifying rows means the regime is physically out of reach at this
    (z, N_A) — RegimeUnreachable; one to seven rows is InsufficientData.
    """
    z = validate_integer("z", z, 1)
    rows = [r for r in table.rows if r.z == z and r.beta < math.inf
            and r.beta <= _power(r.na * r.epsilon / HIGH_T_WINDOW, z)
            and r.entropy < SATURATION_FRACTION * (2.0 * r.na * math.log(2.0))]
    if not rows:
        raise RegimeUnreachable(
            f"no unsaturated rows with finite beta <= (N_A eps/{HIGH_T_WINDOW})^z at z={z}"
        )
    return _fit(
        rows,
        lambda x, rows: [r.z * math.log(r.epsilon) - math.log(r.beta) for r in rows],
        ("1", "x", "ln(eps^z/beta)"),
        f"high-T fit needs >= {MIN_ROWS} qualifying rows",
    )

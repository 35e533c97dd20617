"""Scale-flow (cMERA-style) pipeline: mixing angle, entangler strength
g(u), emergent radial metric, geodesic lengths, and the resulting
entanglement entropy closed forms.

Scale coordinate u <= 0 with momentum k = cutoff * e^u (k treated as a
positive quantity).  Two angle profiles appear:

* `bogoliubov_angle` — the closed-form profile
  phi(k) = (1/2) arcsin(k^z / sqrt(k^{2z} + m^2)) - (-1)^z pi/4
         = (1/2) atan2(k^z, m) - (-1)^z pi/4,
  which feeds the g(u) pipeline.  Massless limits: pi/2 (odd z), 0 (even).
* `minimizing_angle` — the exact per-momentum minimizer of the energy
  integrand, phi = (pi - atan2(m, (-k)^z))/2, satisfying
  tan(2 phi) = -m/(-k)^z with curvature d^2e/dphi^2 = 4 omega >= 0.
  The two differ by a branch choice; stationarity checks use this one.

The inversion g(u) = -phi + k dphi/dk = -phi + dphi/du (chain rule at
k = cutoff e^u) has the closed form, with alpha = atan2(k^z, m),

    g(u) = -phi(k) + z m k^z / (2 (k^{2z} + m^2)) = -phi(k) + (z/4) sin 2 alpha

which `g_from_phi_numeric` reproduces by finite differences.  It is finite
at every u: (-1)^z pi/4 as k^z -> 0, ((-1)^z - 1) pi/4 as k^z -> inf, and
the latter everywhere when m = 0.  `geodesic_length_massive` integrates in
s = ln tan(pi t/2) along the semicircle r = (l/2) sin(pi t) = (l/2) sech s.

Inputs follow eechain.lattice's rules: z is an integer >= 1, m a finite
real >= 0, and cutoff, length and eps finite reals > 0.  Momenta, scales
and angles are arrays of real numbers; bogoliubov_angle's momenta are
finite and > 0.  Anything else raises InvalidParameter.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInterval, InsufficientSampling, InvalidParameter
from .lattice import (
    validate_finite_array,
    validate_integer,
    validate_nonnegative,
    validate_positive,
    validate_real,
    validate_real_array,
)

SQRT3 = math.sqrt(3.0)
MIN_POINTS_PER_DECADE = 100
GEODESIC_POINTS = 4001


def _model(z, m):
    """(z, m) as an int and a float, if z is an integer >= 1 and m finite >= 0."""
    return validate_integer("z", z, 1), validate_nonnegative("m", m)


def _interval(length, eps):
    """(length, eps) as floats, if both are finite reals > 0 and length > eps."""
    length, eps = validate_positive("length", length), validate_positive("eps", eps)
    if length <= eps:
        raise DegenerateInterval(f"interval l={length} must exceed cutoff eps={eps}")
    return length, eps


def _finite_result(name, value):
    """value, if every entry of it is finite: finite samples can overflow."""
    if not np.isfinite(value).all():
        raise InvalidParameter(f"{name} overflows a float on these samples")
    return value


def _mixing_angle(k, z, m):
    """atan2(k^z, m) for m > 0: pi/2 where k^z overflows, 0 where it underflows."""
    with np.errstate(over="ignore"):
        return np.arctan2(k**z, m)


def bogoliubov_angle(k, z, m):
    """Closed-form mixing angle at finite momentum k > 0."""
    z, m = _model(z, m)
    k = validate_real_array("k", k)
    if not np.all((k > 0) & (k < math.inf)):
        raise InvalidParameter("momenta must be finite and positive")
    # m = 0: exactly pi/2, where k^z may underflow to 0 and atan2(0, 0) = 0
    alpha = np.full_like(k, np.pi / 2.0) if m == 0 else _mixing_angle(k, z, m)
    phi = 0.5 * alpha - (-1.0) ** z * np.pi / 4.0
    return float(phi) if phi.ndim == 0 else phi


def minimizing_angle(k, z, m):
    """Per-momentum energy minimizer; valid for either sign of k."""
    z, m = _model(z, m)
    k = validate_real_array("k", k)
    phi = 0.5 * (np.pi - np.arctan2(m, (-k) ** z))
    return float(phi) if phi.ndim == 0 else phi


def g_closed_form(u, z, m, cutoff=1.0):
    """Entangler strength g(u) at scale u <= 0.

    Massless: the constant (pi/4)((-1)^z - 1) — 0 for even z, -pi/2 odd.
    Massive: -phi(k) + (z/4) sin 2 alpha at k = cutoff e^u.
    """
    z, m = _model(z, m)
    cutoff = validate_positive("cutoff", cutoff)
    u = validate_real_array("u", u)
    if m == 0:
        value = np.full_like(u, (np.pi / 4.0) * ((-1.0) ** z - 1.0))
    else:
        with np.errstate(over="ignore"):  # k = inf gives alpha = pi/2
            alpha = _mixing_angle(cutoff * np.exp(u), z, m)
        value = (z / 4.0) * np.sin(2.0 * alpha) - 0.5 * alpha + (-1.0) ** z * np.pi / 4.0
    return float(value) if value.ndim == 0 else value


def _derivative_uniform(values, du):
    """Fourth-order first derivative on >= 5 uniform samples (5-point stencils)."""
    f = np.asarray(values, dtype=float)
    out = np.empty_like(f)
    out[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * du)
    out[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * du)
    out[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12 * du)
    out[-2] = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] - f[-5]) / (12 * du)
    out[-1] = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12 * du)
    return out


def g_from_phi_numeric(u_values, phi_values):
    """g(u) = -phi(u) + dphi/du from a sampled angle profile.

    The grid must be uniform and at least 100 points per decade of scale
    (du <= ln(10)/100), else InsufficientSampling.
    """
    u = validate_finite_array("u_values", u_values)
    phi = validate_finite_array("phi_values", phi_values)
    if u.ndim != 1 or u.shape != phi.shape or u.size < 5:
        raise InsufficientSampling("profile must be 1-d with at least 5 samples")
    steps = np.diff(u)
    du = steps[0]
    if du <= 0 or np.max(np.abs(steps - du)) > 1e-9 * max(abs(du), 1e-30):
        raise InsufficientSampling("profile grid must be uniform and increasing")
    if du > math.log(10.0) / MIN_POINTS_PER_DECADE + 1e-12:
        raise InsufficientSampling(
            f"grid spacing {du:.4g} coarser than "
            f"{MIN_POINTS_PER_DECADE} points per decade"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_result("g", -phi + _derivative_uniform(phi, du))


def energy_density(k_values, phi_values, z, m):
    """Trapezoid quadrature of (1/2pi) [(-k)^z cos 2phi - m sin 2phi] dk
    over finite samples of one shape."""
    z, m = _model(z, m)
    k = validate_finite_array("k_values", k_values)
    phi = validate_finite_array("phi_values", phi_values)
    if k.shape != phi.shape:
        raise InvalidParameter(f"k_values and phi_values differ in shape: {k.shape}, {phi.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        integrand = (-k) ** z * np.cos(2.0 * phi) - m * np.sin(2.0 * phi)
        return float(_finite_result("energy density", np.trapezoid(integrand, k) / (2.0 * np.pi)))


def metric_guu(u, z, m, cutoff=1.0):
    """Radial metric component g_uu = g(u)^2 / 3."""
    g = g_closed_form(u, z, m, cutoff)
    return g * g / 3.0


def geodesic_length(g_const, length, eps):
    """Geodesic length (2|g|/sqrt(3)) ln(l/eps) in a constant-g metric."""
    g_const = validate_real("g_const", g_const)
    length, eps = _interval(length, eps)
    return (2.0 * abs(g_const) / SQRT3) * math.log(length / eps)


def geodesic_length_massive(z, m, cutoff, length, eps):
    """Semicircle-ansatz geodesic length in the u-dependent massive metric.

    (2 pi / sqrt 3) * integral_alpha^(1/2) |g(u(t))| csc(pi t) dt along
    r(t) = (l/2) sin(pi t), u(t) = ln(eps / r(t)), alpha = 2 eps/(pi l), is
    (2 / sqrt 3) * integral_(ln tan(eps/l))^0 |g| ds in s = ln tan(pi t/2),
    taken by the trapezoid rule on GEODESIC_POINTS nodes: exact for a
    constant g, and geodesic_length up to the small-alpha expansion.  This
    is an ansatz (the constant-g case is the controlled one).
    """
    length, eps = _interval(length, eps)
    alpha = 2.0 * eps / (math.pi * length)
    if alpha == 0.0:
        raise DegenerateInterval(
            f"interval l={length} too long for cutoff eps={eps}: "
            "2 eps/(pi l) underflows to 0"
        )
    if alpha >= 0.5:
        raise DegenerateInterval("interval too short for the semicircle ansatz")
    # ln(eps/l) as a difference of logs keeps its digits where eps/l is
    # subnormal, and u = ln(2 eps/l) + ln cosh s without an overflowing cosh
    x, log_x = eps / length, math.log(eps) - math.log(length)
    s = np.linspace(log_x + math.log(math.tan(x) / x), 0.0, GEODESIC_POINTS)
    u = log_x + np.abs(s) + np.log1p(np.exp(-2.0 * np.abs(s)))
    g = np.abs(g_closed_form(u, z, m, cutoff))
    return float((2.0 / SQRT3) * np.trapezoid(g, s))


def ee_cmera(z, length, eps, c=2.0):
    """Holographic entropy S = c L / (sqrt(3) pi) of an interval l.

    L is the geodesic_length of the constant massless entangler strength
    g = g_closed_form(u, z, 0): -pi/2 for odd z, which gives
    S = (c/3) ln(l/eps), and 0 for even z, which gives S = 0 exactly.  This
    is the cMERA picture of Nozaki, Ryu and Takayanagi (arXiv:1208.3469).
    The interval must exceed the cutoff, as in geodesic_length.
    """
    c = validate_positive("c", c)
    return c * geodesic_length(g_closed_form(0.0, z, 0.0), length, eps) / (SQRT3 * math.pi)

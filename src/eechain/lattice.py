"""Mode grids, dispersion, and equal-time correlation matrices for a
periodic chain of free fermions with anisotropic (z-dependent) dispersion.

Momenta live on k_kappa = 2*pi*(theta + kappa)/(N*eps) for kappa = 0..N-1,
with the lattice-regularized momentum keff = sin(k*eps)/eps and dispersion
omega = sqrt(keff**(2z) + m**2).  Natural units throughout: hbar = k_B = 1,
beta is the dimensionless inverse temperature, and beta = math.inf denotes
the ground state.

The two-point functions of the (+/-) chirality components are circulant in
the site difference d = j - i:

    <psi_s,i^dag psi_s,j>  = delta_ij/2 + s * e^{2i pi theta d/N} * p[d]
    <psi_s,i^dag psi_-s,j> =            - e^{2i pi theta d/N} * q[d]

where p, q are half inverse-DFTs of the real occupation weights F, G over
the mode grid (see fourier_profile).  Only the N distinct profile entries
are ever computed, by one real-input FFT each (half the spectrum, the rest
by conjugate symmetry), so a full parameter point costs O(N log N).

A mode is an exact node (k*eps = 0 mod pi, so keff = 0) exactly when
2*(theta + kappa)/N is an integer, which needs theta in {0, 1/2}.  Nodes
and the sign of -keff are read off the index lattice, never off the size
of omega, so no tolerance decides which modes are zero modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DuplicateSite, InvalidParameter, SiteOutOfRange

@dataclass(frozen=True)
class LatticeSpec:
    """Static description of one lattice model instance.

    Attributes
    ----------
    n_sites : int
        Number of sites N (>= 2).
    z_exponent : int
        Dynamical exponent z >= 1; sets the dispersion omega ~ |k|^z.
    mass : float
        Finite non-negative mass m.
    spacing : float
        Finite lattice spacing eps > 0 (default 1, natural units).  The
        largest possible omega**2, m**2 + eps**(-2z), must be a finite float.
    boundary_phase : float
        Twist theta in [0, 1); 0 is plain periodic boundary conditions.
    """

    n_sites: int
    z_exponent: int = 1
    mass: float = 0.0
    spacing: float = 1.0
    boundary_phase: float = 0.0

    def __post_init__(self):
        if not isinstance(self.n_sites, (int, np.integer)) or self.n_sites < 2:
            raise InvalidParameter(
                f"n_sites must be an integer >= 2, got {self.n_sites!r}"
            )
        if not isinstance(self.z_exponent, (int, np.integer)) or self.z_exponent < 1:
            raise InvalidParameter(
                f"z_exponent must be an integer >= 1, got {self.z_exponent!r}"
            )
        if not (math.isfinite(self.mass) and self.mass >= 0):
            raise InvalidParameter(f"mass must be finite and >= 0, got {self.mass!r}")
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise InvalidParameter(
                f"spacing must be finite and > 0, got {self.spacing!r}"
            )
        # omega**2 = keff**(2z) + m**2 with |keff| <= 1/eps on every grid
        omega_bound = _power(self.mass, 2) + _power(self.spacing, -2 * self.z_exponent)
        if not math.isfinite(omega_bound):
            raise InvalidParameter(
                "mass**2 + spacing**(-2*z_exponent) must be a finite float, got "
                f"mass={self.mass!r}, spacing={self.spacing!r}, "
                f"z_exponent={self.z_exponent}"
            )
        if not 0 <= self.boundary_phase < 1:
            raise InvalidParameter(
                f"boundary_phase must lie in [0, 1), got {self.boundary_phase!r}"
            )


def _power(base, exponent):
    """float(base)**exponent, or inf where that overflows a float."""
    try:
        return float(base) ** exponent
    except OverflowError:
        return math.inf


def validate_beta(beta):
    """Check an inverse temperature: positive real or math.inf."""
    if not (beta > 0):
        raise InvalidParameter(f"beta must be positive (or inf), got {beta!r}")
    return float(beta)


@dataclass(frozen=True)
class ModeGrid:
    """Momenta, lattice-regularized momenta, and frequencies, length N each.

    massless_frequencies holds |keff|^z, the frequencies at m = 0, with
    exact zeros at the nodes.
    """

    momenta: np.ndarray
    effective_momenta: np.ndarray
    frequencies: np.ndarray
    massless_frequencies: np.ndarray


@dataclass(frozen=True)
class CorrelationMatrix:
    """2N_A x 2N_A two-point function restricted to a subsystem.

    Row/column index 2*a + s pairs subsystem slot a with chirality
    s (0 = '+', 1 = '-').
    """

    entries: np.ndarray
    subsystem: tuple = field(default=())

    @property
    def dim(self):
        return self.entries.shape[0]


def _node_indices(n, theta):
    """Modes kappa with 2*(theta + kappa)/N an integer: k*eps = 0 (mod pi)."""
    twice_theta = 2.0 * theta
    if not twice_theta.is_integer():
        return []
    # 2*(theta + kappa) lies in [0, 2N), so it must equal 0 or N
    shift = int(twice_theta)
    return [(t - shift) // 2 for t in (0, n) if t >= shift and (t - shift) % 2 == 0]


def _below_node_range(n, theta):
    """(lo, hi): the modes kappa in [lo, hi) have 0 < 2*(theta + kappa)/N <= 1.

    There sin(k*eps) > 0, or k*eps = pi approached from below; every other
    mode has sin(k*eps) < 0, or k*eps = 0 approached from below.
    """
    # 2*kappa <= N - 2*theta, and 2*theta is exact in floating point
    return (1 if theta == 0.0 else 0), (n - math.ceil(2.0 * theta)) // 2 + 1


def _abs_power(x, z):
    """|x|**z for an integer z >= 1, by repeated squaring."""
    base = np.abs(x)
    power = None
    while True:
        if z & 1:
            if power is None:
                # base is squared in place below unless this is the top bit
                power = base if z == 1 else base.copy()
            else:
                power *= base
        z >>= 1
        if not z:
            return power
        base *= base


def build_mode_grid(spec: LatticeSpec) -> ModeGrid:
    """Momentum grid k = 2*pi*(theta+kappa)/(N*eps) and derived arrays.

    keff keeps the rounded sine (about 1e-16 at k*eps = pi), but |keff|^z
    is exactly 0 at the nodes.  omega = hypot(|keff|^z, m), which does not
    underflow to 0 where m*m would; at m = 0 it is the |keff|^z array itself.
    """
    n, eps = spec.n_sites, spec.spacing
    kappa = np.arange(n)
    k = 2.0 * np.pi * (spec.boundary_phase + kappa) / (n * eps)
    keff = np.sin(k * eps) / eps
    power = _abs_power(keff, spec.z_exponent)
    power[_node_indices(n, spec.boundary_phase)] = 0.0
    return ModeGrid(
        momenta=k,
        effective_momenta=keff,
        frequencies=np.hypot(power, spec.mass) if spec.mass > 0 else power,
        massless_frequencies=power,
    )


def _mode_weights(spec: LatticeSpec, beta):
    """Real occupation weight arrays (F, G) over the full mode grid.

    F = (-keff)^z/omega * tanh(beta*omega/2) weights the chirality-diagonal
    correlator and G = (m/omega) * tanh(beta*omega/2) the cross-chirality
    one; tanh(...) = 1 at beta = inf.  Both come from one vectorized pass:
    (-keff)^z = sign(-keff)^z * |keff|^z with the sign read off the mode
    index (see _below_node_range), and |keff|^z taken from the grid.

    At an exact node |keff|^z = 0.  With m > 0 that gives F = 0 and
    G = tanh(beta*m/2).  With m = 0, (-keff)^z/omega is the sign alone, so
    F = sign^z * tanh(0) = 0 at finite beta, the continuous limit.  In the
    ground state a node is filled by the limit of the sign as the node is
    approached from below, which is +1 at k*eps = 0 (mod 2pi) and (-1)^z
    at k*eps = pi.  This one-sided filling keeps the even-z ground state
    an exact product state and the global state pure, which plain
    sign(0) = 0 half-filling does not.  It also gives every odd z the same
    ground-state weights.
    """
    beta = validate_beta(beta)
    grid = build_mode_grid(spec)
    power, omega = grid.massless_frequencies, grid.frequencies
    del grid  # frees the momenta before the weights are allocated
    m = spec.mass

    tanh_factor = None
    if not math.isinf(beta):
        # in place: for a massless point at a smooth N this step sets the
        # peak memory of the whole point
        tanh_factor = beta * omega
        tanh_factor /= 2.0
        np.tanh(tanh_factor, out=tanh_factor)
    if m == 0.0:
        # omega = |keff|^z, so F is the sign times tanh(...) exactly
        f = np.ones(spec.n_sites) if tanh_factor is None else tanh_factor
        g = np.zeros(spec.n_sites)
    else:
        f = power / omega
        g = m / omega
        if tanh_factor is not None:
            f *= tanh_factor
            g *= tanh_factor
    if spec.z_exponent % 2:
        lo, hi = _below_node_range(spec.n_sites, spec.boundary_phase)
        np.negative(f[lo:hi], out=f[lo:hi])
    return f, g


def fourier_profile(weights):
    """Half inverse-DFT of a real length-N weight vector, by FFT.

    Parameters
    ----------
    weights : (N,) array_like, real
        Mode weights w_kappa.

    Returns
    -------
    (N,) complex ndarray with entry d equal to
    (1/2N) * sum_kappa w[kappa] * exp(2i pi kappa d / N).

    Real weights make the profile conjugate-symmetric, p[N-d] = conj(p[d]),
    so one real-input transform gives entries 0..N//2 and the upper half
    is filled by symmetry.
    """
    w = np.asarray(weights)
    if w.ndim != 1 or w.size == 0 or np.iscomplexobj(w):
        raise ValueError("weights must be a nonempty real 1-d array")
    n = w.size
    half = np.fft.ihfft(w)
    half /= 2.0
    profile = np.empty(n, dtype=np.complex128)
    profile[: half.size] = half
    np.conjugate(half[n - half.size : 0 : -1], out=profile[half.size :])
    return profile


def _profiles(spec: LatticeSpec, beta):
    """Half inverse-DFT profiles (p, q) of the two weight arrays."""
    f, g = _mode_weights(spec, beta)
    if np.ptp(f) == 0.0:
        # constant weights transform to an exact delta; skipping the DFT
        # keeps e.g. the even-z ground-state matrix exactly diagonal
        p = np.zeros(spec.n_sites, complex)
        p[0] = 0.5 * f[0]
    else:
        p = fourier_profile(f)
    del f  # lowers the peak memory of the second transform by 8N bytes
    q = fourier_profile(g) if spec.mass > 0 else np.zeros(spec.n_sites, complex)
    return p, q


def _twist_phase(spec: LatticeSpec, signed_d):
    """e^{2i pi theta d / N} with the *signed* site difference d = j - i.

    Not periodic in d unless theta = 0: shifting j by N multiplies the
    correlator by e^{2i pi theta}.
    """
    if spec.boundary_phase == 0.0:
        return np.ones_like(np.asarray(signed_d, dtype=float), dtype=complex)
    return np.exp(2j * np.pi * spec.boundary_phase * np.asarray(signed_d) / spec.n_sites)


def build_correlation_matrix(spec: LatticeSpec, beta, subsystem) -> CorrelationMatrix:
    """Assemble the restricted correlation matrix for a list of sites.

    The subsystem may be any ordered list of distinct sites (contiguity is
    not required).  Index layout is (site slot, chirality)-interleaved:
    entry [2a+s, 2b+s'] is the (s, s') element of the block for site pair
    (subsystem[a], subsystem[b]).
    """
    sites = np.asarray(list(subsystem), dtype=np.int64)
    if sites.size == 0:
        raise InvalidParameter("subsystem must be nonempty")
    if np.unique(sites).size != sites.size:
        raise DuplicateSite(f"subsystem contains repeated sites: {subsystem}")
    if sites.min() < 0 or sites.max() >= spec.n_sites:
        raise SiteOutOfRange(
            f"subsystem sites must lie in [0, {spec.n_sites}), got {subsystem}"
        )

    p, q = _profiles(spec, beta)
    d_signed = sites[None, :] - sites[:, None]  # d[a, b] = j - i
    phase = _twist_phase(spec, d_signed)
    same = phase * p[d_signed % spec.n_sites]
    cross = -phase * q[d_signed % spec.n_sites]

    na = sites.size
    m = np.zeros((2 * na, 2 * na), dtype=complex)
    eye = np.eye(na) * 0.5
    m[0::2, 0::2] = eye + same
    m[1::2, 1::2] = eye - same
    m[0::2, 1::2] = cross
    m[1::2, 0::2] = cross
    return CorrelationMatrix(entries=m, subsystem=tuple(int(s) for s in sites))


def offdiagonal_sum_check(n, length, dx):
    """Finite-lattice probe of the continuum correlator 1/x tail.

    Evaluates (1/2L) * sum_kappa e^{2i pi (dx/L) kappa} * sign(keff_kappa)
    on an N-mode grid of physical size L.  As N grows at fixed dx/L the
    magnitude approaches the continuum value 1/(4 pi dx); the overall sign
    is convention-dependent so callers should compare magnitudes.

    Note the sum has arithmetic resonances at rational dx/L: it vanishes
    identically when dx is an even integer multiple of L/N's unit, so
    convergence studies should hold dx/L fixed while growing N.
    """
    if not 0 < dx < length:
        raise ValueError(f"need 0 < dx < L, got dx={dx}, L={length}")
    kappa = np.arange(n)
    signs = np.sign(np.sin(2.0 * np.pi * kappa / n))
    signs[_node_indices(n, 0.0)] = 0.0
    phases = np.exp(2j * np.pi * (dx / length) * kappa)
    return complex(np.sum(phases * signs) / (2.0 * length))

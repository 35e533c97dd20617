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

where p, q are half inverse-DFTs of the occupation weights F, G over the
mode grid (see fourier_profile).  Only the N distinct profile entries are
ever computed, by one FFT each, so a full parameter point costs O(N log N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DuplicateSite, InvalidParameter, SiteOutOfRange

# Frequencies below this are treated as exact zero modes.  Only the
# massless theory can get here (omega >= m otherwise); the closest
# competing scale is the smallest nonzero |sin| on the grid, which for
# N <= 1e6 is far above 1e-12.
NODE_TOL = 1e-12


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
        Finite lattice spacing eps > 0 (default 1, natural units).
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
        if not 0 <= self.boundary_phase < 1:
            raise InvalidParameter(
                f"boundary_phase must lie in [0, 1), got {self.boundary_phase!r}"
            )


def validate_beta(beta):
    """Check an inverse temperature: positive real or math.inf."""
    if not (beta > 0):
        raise InvalidParameter(f"beta must be positive (or inf), got {beta!r}")
    return float(beta)


@dataclass(frozen=True)
class ModeGrid:
    """Momenta, lattice-regularized momenta, and frequencies, length N each."""

    momenta: np.ndarray
    effective_momenta: np.ndarray
    frequencies: np.ndarray


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


def build_mode_grid(spec: LatticeSpec) -> ModeGrid:
    """Momentum grid k = 2*pi*(theta+kappa)/(N*eps) and derived arrays."""
    n, eps = spec.n_sites, spec.spacing
    kappa = np.arange(n)
    k = 2.0 * np.pi * (spec.boundary_phase + kappa) / (n * eps)
    keff = np.sin(k * eps) / eps
    omega = np.sqrt(keff ** (2 * spec.z_exponent) + spec.mass**2)
    return ModeGrid(momenta=k, effective_momenta=keff, frequencies=omega)


def _mode_weights(spec: LatticeSpec, beta):
    """Occupation weight arrays (F, G) over the full mode grid.

    F weights the chirality-diagonal correlator and G = (m/omega)*tanh(...)
    the cross-chirality one.  Zero modes (omega = 0, massless only) get
    F = G = 0 at finite beta — the continuous limit of both products.

    In the ground state (beta = inf) a zero mode is filled by the limit of
    (-keff)^z/omega as the node is approached from below, which is +1 at
    k*eps = 0 (mod 2pi) and (-1)^z at k*eps = pi.  This one-sided filling
    keeps the even-z ground state an exact product state and the global
    state pure, which plain sign(0) = 0 half-filling does not.
    """
    beta = validate_beta(beta)
    grid = build_mode_grid(spec)
    keff, omega = grid.effective_momenta, grid.frequencies
    z, m = spec.z_exponent, spec.mass

    node = omega < NODE_TOL
    regular = ~node
    f = np.zeros(spec.n_sites)
    g = np.zeros(spec.n_sites)
    if math.isinf(beta) and m == 0.0:
        # omega = |keff^z| exactly, so F reduces to a sign; evaluating it
        # as such avoids the ~1e-16 noise of the generic quotient
        f[regular] = np.sign(-keff[regular]) ** z
    else:
        tanh_factor = (
            1.0 if math.isinf(beta) else np.tanh(beta * omega[regular] / 2.0)
        )
        f[regular] = ((-keff[regular]) ** z / omega[regular]) * tanh_factor
        g[regular] = (m / omega[regular]) * tanh_factor

    if np.any(node) and math.isinf(beta):
        at_band_edge = np.cos(grid.momenta * spec.spacing) < 0.0  # k*eps = pi
        f[node & at_band_edge] = (-1.0) ** z
        f[node & ~at_band_edge] = 1.0
    return f, g


def fourier_profile(weights):
    """Half inverse-DFT of a length-N weight vector, by FFT.

    Parameters
    ----------
    weights : (N,) array_like, real or complex
        Mode weights w_kappa.

    Returns
    -------
    (N,) complex ndarray with entry d equal to
    (1/2N) * sum_kappa w[kappa] * exp(2i pi kappa d / N).
    """
    w = np.asarray(weights, dtype=np.complex128)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty 1-d array")
    return np.fft.ifft(w) / 2.0


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
    sines = np.sin(2.0 * np.pi * kappa / n)
    signs = np.sign(sines)
    signs[np.abs(sines) < NODE_TOL] = 0.0
    phases = np.exp(2j * np.pi * (dx / length) * kappa)
    return complex(np.sum(phases * signs) / (2.0 * length))

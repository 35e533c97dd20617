"""Mode grids, dispersion, and equal-time correlation matrices for a
periodic chain of free fermions with anisotropic (z-dependent) dispersion.

Momenta live on k_kappa = 2*pi*(theta + kappa)/(N*eps) for kappa = 0..N-1,
with the lattice-regularized momentum keff = sin(k*eps)/eps and dispersion
omega = sqrt(keff**(2z) + m**2).  Natural units throughout: hbar = k_B = 1,
beta is the dimensionless inverse temperature, and beta = math.inf denotes
the ground state.

For even N, mode kappa + N/2 has k*eps shifted by pi, so its keff is minus
that of mode kappa and its omega the same.  Only the L distinct modes are
computed: L = N/2 for even N and L = N for odd N (see _folded).

The two-point functions of the (+/-) chirality components are circulant in
the site difference d = j - i:

    <psi_s,i^dag psi_s,j>  = delta_ij/2 + s * e^{2i pi theta d/N} * p[d]
    <psi_s,i^dag psi_-s,j> =            - e^{2i pi theta d/N} * q[d]

where p, q are the half inverse-DFTs of the real occupation weights
w = F, G over the mode grid, (1/2N) sum_kappa w[kappa] e^{2i pi kappa d/N}.
Real weights make them conjugate symmetric, p[-d] = conj(p[d]), so the
block reads p and q only at the distinct |d| its site pairs span.  Only
those are computed, and the block entries from them at each |d|; the
entry at -|d| is the conjugate of the one at +|d|, and each N_A x N_A
block is one gather of those.  Each profile takes one of four paths:

* massless ground state: no mode grid at all.  Even z gives the exact
  delta p[d] = delta_{d0}/2.  Odd z gives Peschel's Fermi-sea correlator
  in closed form (see _fermi_sea_profile): O(1) per entry.
* short chain, for a massive or thermal point at d < SHORT_CHAIN_DISTANCES
  = D: the entries of the untwisted (theta = 0) M-site chain with the same
  z, m and eps, where M, the smallest even 5-smooth length >= D + c/a, is
  below N (see _short_chain_sites).  There F and G are analytic and
  periodic in t = k*eps, the sum over the modes is the trapezoid rule,
  and by Poisson summation the twisted entry of an n-site chain is
  sum_j e^{-2i pi theta j} P_inf[d + jn]: the infinite chain's P_inf[d],
  which does not depend on theta, plus aliases that decay as e^{-a|d + jn|};
  a is the distance of the nearest singularity of the weights from the
  real t axis.  The aliases of the M-site chain are below K e^{-c} at
  every d < D, with c = SHORT_CHAIN_MARGIN = 40 and K < 7 (on z <= 1002,
  see _short_chain_sites), under 3e-17, and the N-site chain's smaller
  still: so the untwisted M-site entries are the N-site ones at every
  theta to rounding, and a massive or thermal entry at d < D depends on
  z, m, eps, beta and d alone once M < N.  The M-site chain takes one of
  the two paths below, by its own M.
* partial DFT, where N is large or has a large prime factor
  (_uses_partial_dft): a sqrt(L)-split DFT over the L distinct modes in
  fixed blocks of PROFILE_BLOCK site differences, O(L) per block (see
  _partial_dft).
* FFT, at every other N: one real-input FFT of length N per weight array,
  O(N log N) (see fourier_profile).  It takes the partial DFT's (w, s)
  pairs, weights over the L distinct modes and the sign of mode
  kappa + N/2, reads each entry off the half spectrum, and gives the
  parity zeros below.

Two symmetries make parts of the grid paths' entries vanish, and each has
one rule that makes them exact zeros:

* parity, for even N: mode kappa + N/2 carries (-1)^z times the F weight
  of mode kappa and the same G weight, so p[d] vanishes unless
  (-1)^d = (-1)^z and q[d] unless d is even.  The partial DFT computes
  only the other parity of d; the FFT's round-off of about 1e-17 at the
  vanishing one is set to 0.
* reflection, at theta in {0, 1/2}: the mode set is closed under
  k -> -k, with F(-k) = (-1)^z F(k) and G(-k) = G(k), so the twisted
  P is imaginary for odd z and real for even z, and C is real.  Both
  grid paths leave the other part as round-off, set to 0 after the
  twist.  The short chain is untwisted, so its reflection zeros hold at
  every theta: P_inf is imaginary for odd z and real for even z, and
  C_inf is real, whatever the twist, and what the rule drops there is
  round-off and aliases, under 1e-16.  The massless ground state has no
  such weights (its one-sided node filling breaks the symmetry), which is
  one more reason it keeps its closed form.

The path depends on N, beta, theta and the model alone, and each entry's
bits depend on N, beta, theta, the model and its own d alone (a
short-chain entry's on neither N nor theta): never on N_A or on which
other entries the subsystem needs.  So a block of a larger matrix equals
the matrix of the smaller subsystem bit for bit.

A mode is an exact node (k*eps = 0 mod pi, so keff = 0) exactly when
2*(theta + kappa)/N is an integer, which needs theta in {0, 1/2}.  The
grid subtracts the nearest integer from that ratio exactly before it
rounds anything, so nodes come out as exact zeros.  The sign of -keff is read off the index
lattice, never off the size of omega, so no tolerance decides which modes
are zero modes.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import reprlib
from collections import Counter
from dataclasses import dataclass, fields, replace

import numpy as np

from .blas import one_blas_thread
from .errors import DuplicateSite, InvalidParameter, NotHermitian, SiteOutOfRange

HERMITICITY_TOL = 1e-9
MAX_CHAIN_SITES = math.isqrt(2**63 - 1)  # N*N bounds the profiles' int64 phases


@dataclass(frozen=True)
class LatticeSpec:
    """Static description of one lattice model instance.

    Attributes
    ----------
    n_sites : int
        Number of sites N, 2 <= N <= MAX_CHAIN_SITES = 3037000499.
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
        # the fields hold the Python ints and floats the validators return
        n_sites = validate_integer("n_sites", self.n_sites, 2)
        if n_sites > MAX_CHAIN_SITES:
            raise InvalidParameter(f"n_sites must be <= {MAX_CHAIN_SITES}: N*N must fit an int64")
        model = validate_model(self.z_exponent, self.mass, self.spacing)
        theta = validate_real("boundary_phase", self.boundary_phase)
        if not 0 <= theta < 1:
            raise InvalidParameter(f"boundary_phase must lie in [0, 1), got {theta!r}")
        for field, value in zip(fields(self), (n_sites, *model, theta)):
            object.__setattr__(self, field.name, value)


def _is_integer(value):
    """The integer rule: an int or a numpy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def validate_integer(name, value, minimum):
    """value as an int, if it is an integer (see _is_integer) >= minimum."""
    if not (_is_integer(value) and value >= minimum):
        raise InvalidParameter(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def validate_real(name, value):
    """value as a float, if it is a real number that fits one (ints, not bools)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParameter(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int or a Fraction beyond the largest float
        raise InvalidParameter(f"{name} must fit a float") from None


def _holds_bool(values):
    """True if values is a bool, a bool array, or a list or tuple that nests one."""
    if isinstance(values, (list, tuple)):
        return any(map(_holds_bool, values))
    return isinstance(values, (bool, np.bool_)) or (
        isinstance(values, np.ndarray) and values.dtype.kind == "b"
    )


def _as_array(name, values):
    """values as an array, if they are not ragged and hold no bool."""
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged nested sequence
        raise InvalidParameter(
            f"{name} must be a regular array, got {reprlib.repr(values)}"
        ) from None
    if _holds_bool(values):  # numpy reads [True, 0.7] as floats
        raise InvalidParameter(f"{name} must be numbers, not bools, got {reprlib.repr(values)}")
    return array


def validate_real_array(name, values):
    """values as a float array, if numpy reads them as real numbers: no
    bools, also among numbers, and no ragged nesting."""
    array = _as_array(name, values)
    if array.dtype.kind not in "iuf":
        raise InvalidParameter(f"{name} must be real numbers, got {reprlib.repr(values)}")
    return array.astype(float, copy=False)


def validate_finite_array(name, values):
    """values as a float array, if they are finite real numbers."""
    array = validate_real_array(name, values)
    if not (finite := np.isfinite(array)).all():
        raise InvalidParameter(
            f"{name} must be finite, got {array[~finite][0]} in {reprlib.repr(values)}"
        )
    return array


def validate_positive(name, value):
    """value as a float, if it is a finite real number > 0."""
    if not (math.isfinite(value := validate_real(name, value)) and value > 0):
        raise InvalidParameter(f"{name} must be finite and > 0, got {value!r}")
    return value


def validate_nonnegative(name, value):
    """value as a float, if it is a finite real number >= 0 (a mass)."""
    if not (math.isfinite(value := validate_real(name, value)) and value >= 0):
        raise InvalidParameter(f"{name} must be finite and >= 0, got {value!r}")
    return value


def validate_model(z_exponent, mass, spacing):
    """The dispersion parameters z, m and eps of a LatticeSpec (whose
    docstring gives the ranges), as an int and floats; cMERA shares them."""
    z_exponent = validate_integer("z_exponent", z_exponent, 1)
    mass = validate_nonnegative("mass", mass)
    spacing = validate_positive("spacing", spacing)
    # omega**2 = keff**(2z) + m**2 with |keff| <= 1/eps on every grid
    if not math.isfinite(_power(mass, 2) + _power(spacing, -2 * z_exponent)):
        raise InvalidParameter(
            "mass**2 + spacing**(-2*z_exponent) must be a finite float, got "
            f"mass={mass!r}, spacing={spacing!r}, z_exponent={z_exponent}"
        )
    return z_exponent, mass, spacing


def _power(base, exponent):
    """float(base)**exponent, or inf where that overflows a float."""
    try:
        return float(base) ** exponent
    except OverflowError:
        return math.inf


def validate_beta(beta):
    """An inverse temperature as a float: a positive real or math.inf."""
    beta = validate_real("beta", beta)
    if not beta > 0:
        raise InvalidParameter(f"beta must be positive (or inf), got {beta!r}")
    return beta


def validate_subsystem(subsystem, n):
    """The sites of a subsystem of an N-site chain, as Python ints.

    A subsystem is a nonempty sequence of distinct integer sites (see
    _is_integer) in [0, N), in any order; contiguity is not required.
    Anything else raises InvalidParameter, or its subclasses SiteOutOfRange
    (negative sites included) and DuplicateSite.  A message names the first
    offending site, never the whole subsystem.
    """
    rule = "subsystem must be a nonempty sequence of integer sites"
    try:
        sites = list(subsystem)
    except TypeError:  # not iterable
        sites = None
    if not sites:
        raise InvalidParameter(f"{rule}, got {reprlib.repr(subsystem)}")
    if not all(map(_is_integer, sites)):
        site = next(s for s in sites if not _is_integer(s))
        raise InvalidParameter(f"{rule}, got site {reprlib.repr(site)}")
    if min(sites) < 0 or max(sites) >= n:
        site = next(s for s in sites if not 0 <= s < n)
        raise SiteOutOfRange(f"subsystem sites must lie in [0, {n}), got site {site}")
    if len(set(sites)) != len(sites):
        site = next(s for s, count in Counter(sites).items() if count > 1)
        raise DuplicateSite(f"subsystem repeats site {site}")
    return [int(s) for s in sites]


@dataclass(frozen=True)
class ModeGrid:
    """Frequencies over the L distinct modes kappa < L (see _folded).

    massless_frequencies holds |keff|^z, the frequencies at m = 0, with
    exact zeros at the nodes; frequencies holds omega.  For even N, mode
    kappa + N/2 has the frequencies of mode kappa.
    """

    frequencies: np.ndarray
    massless_frequencies: np.ndarray


@dataclass(frozen=True)
class CorrelationMatrix:
    """Two-point function restricted to a subsystem of N_A sites.

    The 2N_A x 2N_A matrix is M = 1/2 + P (x) sigma_z + C (x) sigma_x, with
    the site slot as the first factor and the chirality (0 = '+', 1 = '-')
    as the second.  Only the Hermitian N_A x N_A blocks are stored: `same`
    is P, `cross` is C, each with the twist phase applied; block entry
    [a, b] belongs to the a-th and b-th sites of the subsystem.  `dim` is
    2N_A.  `entries` is M itself, row/column index 2*a + s, interleaved
    from the blocks on first access; the eigensolve never reads it.  Blocks
    that are not numeric, square and of one shape raise InvalidParameter,
    and an asymmetry |B - B^dag| NaN or over 1e-9 NotHermitian.  Each is
    held as a read-only copy, so this one check covers every solve.  Only
    this module makes a matrix that skips it (_held): the lattice's own
    blocks, exactly Hermitian, and their leading sub-blocks (_leading).  A
    copy or an unpickled matrix is made by the constructor too
    (__reduce__), so it is checked and locked like any other.
    """

    same: np.ndarray
    cross: np.ndarray

    def __post_init__(self):
        for field in fields(self):  # the blocks as float or complex copies
            block = _as_array(field.name, getattr(self, field.name)).copy()
            real = validate_real_array(field.name, block.real)
            object.__setattr__(self, field.name, block if np.iscomplexobj(block) else real)
        shape, cross = self.same.shape, self.cross.shape
        if not (len(shape) == 2 and shape[0] == shape[1] > 0 and cross == shape):
            raise InvalidParameter(f"blocks must be square, of one shape: {shape}, {cross}")
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, and np.max keeps a NaN
            asym = np.max([np.max(np.abs(b - b.conj().T)) for b in (self.same, self.cross)])
        if not asym <= HERMITICITY_TOL:
            raise NotHermitian(f"max asymmetry {asym:.3e} exceeds {HERMITICITY_TOL}")
        self.same.flags.writeable = self.cross.flags.writeable = False

    def __reduce__(self):
        return CorrelationMatrix, (self.same, self.cross)

    def _leading(self, na):
        """The matrix of the first na sites: P and C's leading na x na blocks.

        A principal sub-block is no less Hermitian than its block, and this
        matrix's blocks were checked when it was made, or are the lattice's
        exact ones; either way they are locked.  So the sub-blocks are held
        as read-only views, unchecked (_held).  Taken from
        build_correlation_matrix(spec, beta, range(n)), they are the blocks
        of build_correlation_matrix(spec, beta, range(na)) bit for bit, as
        each entry's bits depend on its own d alone (see the module
        docstring).
        """
        return _held(self.same[:na, :na], self.cross[:na, :na])

    @property
    def dim(self):
        return 2 * self.same.shape[0]

    @functools.cached_property
    def entries(self):
        na = self.same.shape[0]
        m = np.zeros((2 * na, 2 * na), dtype=complex)
        eye = np.eye(na) * 0.5
        m[0::2, 0::2] = eye + self.same
        m[1::2, 1::2] = eye - self.same
        m[0::2, 1::2] = self.cross
        m[1::2, 0::2] = self.cross
        return m


def _held(same, cross):
    """A CorrelationMatrix of blocks known to be Hermitian, locked but not checked.

    Read in this module alone, where the blocks are proved Hermitian: the
    gathers of build_correlation_matrix and CorrelationMatrix._leading.
    """
    same.flags.writeable = cross.flags.writeable = False
    corr = object.__new__(CorrelationMatrix)
    corr.__dict__.update(same=same, cross=cross)
    return corr


def _folded(n):
    """L, the distinct modes: N/2 for even N, N for odd N (see the module docstring)."""
    return n // (2 - n % 2)


def _below_node_range(n, theta):
    """(lo, hi): the modes kappa in [lo, hi) have 0 < 2*(theta + kappa)/N <= 1.

    There sin(k*eps) > 0, or k*eps = pi approached from below; every other
    mode has sin(k*eps) < 0, or k*eps = 0 approached from below.
    """
    # 2*kappa <= N - 2*theta, and 2*theta is exact in floating point
    return (1 if theta == 0.0 else 0), (n - math.ceil(2.0 * theta)) // 2 + 1


def _abs_power(x, z):
    """|x|**z for an integer z >= 1, by repeated squaring; overwrites x."""
    base = np.abs(x, out=x)
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
    """|keff|^z and omega over the L distinct modes (see ModeGrid): N/2
    of them for even N, N for odd N.

    |keff| = |sin(pi*u/N)|/eps with u = 2*(theta + kappa).  The multiple of
    N nearest u is subtracted from 2*kappa first, in floats that hold the
    integers exactly, and only then are 2*theta added and the angle, now in
    [-pi/2, pi/2], scaled by pi/N.  So the angle has a rounding error
    relative to its own size, not to N's, and a node (u a multiple of N)
    is an exact 0.

    omega = sqrt(|keff|^(2z) + m^2) wherever m^2 is a normal float;
    validate_model keeps the sum finite.  Below that np.hypot, which does
    not underflow to 0 where m*m would.  At m = 0 omega is the |keff|^z
    array itself.
    """
    n, eps, m, theta = spec.n_sites, spec.spacing, spec.mass, spec.boundary_phase
    angle = np.arange(0.0, 2.0 * _folded(n), 2.0)
    for j in (1, 2):
        # u is nearer to j*N than to (j-1)*N from u >= (2j-1)N/2 on
        angle[math.ceil((2 * j - 1) * n / 4 - theta) :] -= n
    angle += 2.0 * theta
    angle *= math.pi / n
    keff = np.sin(angle, out=angle)
    keff /= eps
    power = _abs_power(keff, spec.z_exponent)
    if m == 0.0:
        omega = power
    elif m * m >= np.finfo(float).tiny:
        omega = power * power
        omega += m * m
        np.sqrt(omega, out=omega)
    else:
        omega = np.hypot(power, m)
    return ModeGrid(frequencies=omega, massless_frequencies=power)


def _mode_weights(spec: LatticeSpec, beta):
    """Real occupation weight arrays (F, G) over the L distinct modes of
    build_mode_grid, at a beta the caller has validated.  For even N mode
    kappa + N/2 carries (-1)^z times the F and the same G of mode kappa.

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
    grid = build_mode_grid(spec)
    power, omega = grid.massless_frequencies, grid.frequencies
    m = spec.mass

    tanh_factor = None
    if not math.isinf(beta):
        # in place: for a massless point at a smooth N this step sets the
        # peak memory of the whole point.  tanh(inf) = 1 is the limit
        with np.errstate(over="ignore"):
            tanh_factor = beta * omega
        tanh_factor /= 2.0
        np.tanh(tanh_factor, out=tanh_factor)
    if m == 0.0:
        # omega = |keff|^z, so F is the sign times tanh(...) exactly
        f = np.ones(power.size) if tanh_factor is None else tanh_factor
        g = np.zeros(power.size)
    else:
        # in place: the grid's arrays are this function's own
        f = np.divide(power, omega, out=power)
        g = np.divide(m, omega, out=omega)
        if tanh_factor is not None:
            f *= tanh_factor
            g *= tanh_factor
    if spec.z_exponent % 2:
        # for even N, hi is N/2 or N/2 + 1, so the slice ends at L
        lo, hi = _below_node_range(spec.n_sites, spec.boundary_phase)
        np.negative(f[lo:hi], out=f[lo:hi])
    return f, g


@functools.cache
def _largest_prime_factor(n):
    factor, largest = 2, 1
    while factor * factor <= n:
        while n % factor == 0:
            largest, n = factor, n // factor
        factor += 1
    return max(largest, n)


def _uses_partial_dft(n):
    """True where the partial DFT, not the FFT, computes the profiles.

    A function of N alone, so a profile entry never changes path with the
    subsystem.  The FFT costs O(N log N) whatever the subsystem, and several
    times that where a prime factor of N above about 300 sends numpy's FFT
    down its Bluestein path.  The partial DFT costs O(L) per block of
    PROFILE_BLOCK site differences, so it wins at large N, and at such
    prime factors, while a subsystem spans few blocks.  The bounds were set
    when the partial DFT summed all N modes; at even N it now sums N/2, so
    the true crossover lies lower, but they stay where they are, as moving
    them changes which bits those N get.
    """
    return n >= 2**17 or (n >= 10**4 and _largest_prime_factor(n) > 300)


def _sin_pi(r, n):
    """sin(pi*r/N) for integer r, accurate to rounding relative to its size.

    r is reduced mod 2N and the angle reflected into [0, pi/2] before it is
    scaled by pi/N: near pi a rounded angle would leave sin(pi/N) at N = 1e5
    with a relative error of 1e-11.
    """
    r = r % (2 * n)
    sign = np.where(r < n, 1.0, -1.0)
    r = r % n
    return sign * np.sin(np.minimum(r, n - r) * (math.pi / n))


def _fermi_sea_profile(n, theta, distances):
    """p at the given site differences for an odd-z massless ground state.

    The weights are -1 on _below_node_range's [lo, hi) and +1 elsewhere, so
    with L = hi - lo and phi = 2 pi d/N the DFT is a geometric sum (Peschel's
    Fermi-sea correlator, J. Phys. A 36 L205):

        p[0] = (N - 2L)/(2N),
        p[d] = -e^{i phi (lo + (L-1)/2)} sin(L phi/2) / (N sin(phi/2)).

    The integer phase arguments are reduced mod 2N before they are scaled by
    pi/N, so each entry is exact to rounding at any N and any d < N.
    """
    lo, hi = _below_node_range(n, theta)
    length = hi - lo
    d = distances[distances > 0]
    centre = d * (2 * lo + length - 1) % (2 * n) * (math.pi / n)
    p = np.empty(distances.size, dtype=complex)
    p[distances == 0] = (n - 2 * length) / (2 * n)
    p[distances > 0] = -np.exp(1j * centre) * (
        _sin_pi(d * length, n) / (n * _sin_pi(d, n))
    )
    return p


# Site differences per partial-DFT block; blocks start at multiples of it.
PROFILE_BLOCK = 16


def _partial_dft(spec: LatticeSpec, weights, distances):
    """The profile of each weight array at the given d only, by a DFT over
    the L distinct modes.

    weights holds (w, s) pairs: w over the L distinct modes of
    build_mode_grid, and s the sign mode kappa + N/2 carries for even N
    (see _mode_weights): (-1)^z for F, +1 for G.  For even N that mode adds
    s(-1)^d times the term of mode kappa, so entry d is exactly 0 where
    (-1)^d != s; only the d of the other parity are computed, and the
    others stay 0.  Entry d is then

        (1/2L) sum_{kappa < L} w[kappa] e^{2i pi kappa d/N},

    the surviving terms of even N counting twice.  With B = isqrt(L) and
    kappa = a*B + c the sum is

        sum_c e^{2i pi c d/N} sum_a w[aB + c] e^{2i pi aB d/N}.

    The site differences are taken in fixed blocks [j*W, (j+1)*W) with
    W = PROFILE_BLOCK, and only the blocks that hold a requested d are
    computed.  Per block, one real GEMM of the phase tables
    [cos; sin](2 pi aB d/N) over the computed d, against the weights laid
    out as rows of B, gives the inner sums, and a B-term phase sum per d
    finishes them; weight arrays that keep the same d share the tables.
    The shapes of every product are fixed by N and the GEMM runs on one
    BLAS thread, so an entry's bits do not depend on which other entries
    were asked for.  O(L) per block.
    """
    n = spec.n_sites
    modes = _folded(n)
    step = 2 - n % 2  # one parity of d survives for even N
    width = math.isqrt(modes)
    rows, rest = divmod(modes, width)
    # integer phases are reduced mod N before they are scaled: exact while
    # N*N fits an int64
    outer_phase = np.arange(rows + (rest > 0)) * width % n
    inner_phase = np.arange(width)
    block_of = distances // PROFILE_BLOCK
    profiles = [np.zeros(distances.size, dtype=complex) for _ in weights]
    with one_blas_thread():
        for block in np.unique(block_of):
            wanted = block_of == block
            offsets = distances[wanted] - block * PROFILE_BLOCK
            tables = {}  # by the first d offset computed
            for (w, sign), profile in zip(weights, profiles):
                first = int(sign < 0) if step == 2 else 0
                if first not in tables:
                    d = np.arange(first, PROFILE_BLOCK, step)[:, None]
                    d += block * PROFILE_BLOCK
                    outer = outer_phase * d % n * (2.0 * math.pi / n)
                    inner = inner_phase * d % n * (2.0 * math.pi / n)
                    tables[first] = (
                        np.concatenate([np.cos(outer), np.sin(outer)]),
                        np.cos(inner),
                        np.sin(inner),
                    )
                table, cos_c, sin_c = tables[first]
                sums = table[:, :rows] @ w[: rows * width].reshape(rows, width)
                if rest:
                    sums[:, :rest] += np.outer(table[:, rows], w[rows * width :])
                re, im = np.split(sums, 2)
                real = (re * cos_c - im * sin_c).sum(axis=1)
                imag = (re * sin_c + im * cos_c).sum(axis=1)
                kept = offsets % step == first
                at, row = np.flatnonzero(wanted)[kept], offsets[kept] // step
                profile[at] = (real[row] + 1j * imag[row]) / (2 * modes)
    return profiles


def fourier_profile(spec: LatticeSpec, weights, distances):
    """_partial_dft's profiles by FFT, one real-input transform of length N
    per weight array: for even N each (w, s) is unfolded to the N modes,
    mode kappa + N/2 carrying s * w[kappa].  Real weights make the profile
    conjugate symmetric, p[N - d] = conj(p[d]), so entry d is read off the
    half spectrum ihfft/2, which holds d <= N/2, and for d > N/2 is the
    conjugate of entry N - d there.  The round-off of about 1e-17 that the
    transform leaves at the d where (-1)^d != s is set to 0."""
    n = spec.n_sites
    upper = distances > n // 2
    index = np.where(upper, n - distances, distances)
    profiles = []
    for w, sign in weights:
        profile = np.fft.ihfft(w if n % 2 else np.concatenate((w, sign * w)))[index] / 2.0
        np.conjugate(profile, out=profile, where=upper)
        if n % 2 == 0:
            profile[(distances % 2 == 1) != (sign < 0)] = 0.0
        profiles.append(profile)
    return profiles


# Site differences below D take the short chain; the margin c sets its length.
SHORT_CHAIN_DISTANCES = 512
SHORT_CHAIN_MARGIN = 40.0


def _singularity_distance(spec: LatticeSpec, beta):
    """a: the distance from the real t = k*eps axis to the nearest
    singularity of the weights F and G, for a massive or thermal point.

    Both are functions of s = keff^(2z) + m^2, times (-keff)^z or m, with
    keff = sin(t)/eps entire.  At finite beta tanh(beta*omega/2)/omega is
    even in omega, so the branch points of omega cancel and the nearest
    singularities are the n = 0 poles of tanh, at s = -(pi/beta)^2; at
    beta = inf they are the branch points of omega, at s = 0.  Both sit
    where keff^(2z) = -R, R = m^2 + (pi/beta)^2: at
    sin t = eps R^(1/2z) e^{i pi (2j + 1)/(2z)}.  |Im asin(w)| grows with
    |w - 1| + |w + 1| (its level sets are ellipses with foci +/-1), so on a
    circle it is least nearest the real axis: at j = 0, whose angle is
    pi/(2z).  0 where eps R^(1/2z) underflows, inf or NaN where it
    overflows.
    """
    root = math.hypot(spec.mass, math.pi / beta) ** (1.0 / spec.z_exponent)  # R^(1/2z)
    return abs(cmath.asin(spec.spacing * root * cmath.exp(0.5j * math.pi / spec.z_exponent)).imag)


@functools.lru_cache(maxsize=4096)
def _even_smooth_length(target):
    """The smallest even 5-smooth integer >= target (target >= 2)."""
    best, five = 2 * target, 1
    while five < best:
        odd = five
        while odd < best:
            # the least power of two, at least 2, with odd << shift >= target
            shift = max(1, (-(-target // odd) - 1).bit_length())
            best = min(best, odd << shift)
            odd *= 3
        five *= 5
    return best


def _short_chain_sites(spec: LatticeSpec, beta):
    """M, the sites of the chain whose entries stand for the N-site ones at
    d < D = SHORT_CHAIN_DISTANCES; None where the N-site chain keeps them.

    M is the smallest even 5-smooth length >= D + c/a, with
    c = SHORT_CHAIN_MARGIN and a = _singularity_distance.  The entries are
    the trapezoid rule (1/2M) sum_kappa w(t_kappa) e^{i t_kappa d} over
    t_kappa = 2 pi (kappa + theta)/M, and by Poisson summation they differ
    from the infinite chain's P_inf[d] = (1/4 pi) int w(t) e^{itd} dt by
    the aliases e^{-2i pi theta j} P_inf[d + jM], j != 0.  Moving the
    contour up, P_inf[x] for x > 0 is the sum over the singularities t* in
    the upper half plane of (i/2) Res e^{i t* x}.  The largest alias, from
    j = -1, sits at x = M - d > c/a, so it is below K e^{-c}, K the sum of
    |Res|/2 e^{-(x Im t* - c)}.  At finite beta, 1/beta <= sqrt(R)/pi
    bounds the residue of F and G at each n = 0 pole by (2/(pi z)) |tan t*|.
    With sin t* = rho e^{i phi}, rho = eps R^(1/2z),
    |tan t*| = rho / |1 - rho^2 e^{2i phi}|^(1/2) is at most 1 where
    cos 2phi <= 0 and at most |sin 2phi|^(-1/2) elsewhere, and these
    bounds summed over the 2z poles give at most 4/pi at every z and rho.
    The poles of n >= 1 (residues smaller by 1/(2n+1), further out) and,
    at beta = inf, the leading terms of the integrals along the branch
    cuts, |tan t*|^(1/2) / (2 sqrt(2 pi z x)), have no such bound: on a
    scan of z <= 1002 and rho from 1e-4 to 1e4 the sum over all poles
    stayed below 1.4, and the cut terms below 0.45 for z <= 5 and 6.3 for
    z <= 1002.  So on that range the largest
    alias is below K e^{-c} < 7 * 4.2e-18 = 3e-17 at every d < D, under a
    quarter of the rounding unit of an entry of size 1/2; the N-site
    chain's own aliases are smaller still.  Beyond z = 1002 the bound is
    not verified (the cut terms grow like sqrt(z): 14 at z = 5000, where
    tests/test_short_chain.py compares the chain with the N-site one).
    Halving c lets the aliases through: 4e-12 at z = 1, m = 0,
    beta = 1000.

    M depends on z, m, eps and beta alone (a never reads theta), never on
    the entries asked for.  The chain runs untwisted (see _block_entries):
    the j = 0 term P_inf[d] is the same at every theta, and only the
    aliases carry the twist.  The N-site chain keeps every entry of a
    massless ground state (a closed form), and those where a is not a
    positive finite number or where M would not be below N.
    """
    a = _singularity_distance(spec, beta)  # 0 for a massless ground state
    if not 0.0 < a < math.inf:
        return None
    target = SHORT_CHAIN_DISTANCES + SHORT_CHAIN_MARGIN / a
    if not target < spec.n_sites:
        return None
    sites = _even_smooth_length(math.ceil(target))
    return sites if sites < spec.n_sites else None


def _block_entries(spec: LatticeSpec, beta, distances):
    """Block entries (P, C) at the site differences d >= 0 given.

    P = e^{2i pi theta d/N} p[d] and C = -e^{2i pi theta d/N} q[d]
    for 0 <= d < N; the entries at -d are their conjugates (see
    build_correlation_matrix).  Those at d < SHORT_CHAIN_DISTANCES come
    from the short chain where _short_chain_sites gives one, and every
    other from _chain_entries of the N-site chain.

    The short chain is untwisted (theta = 0) at every theta: by Poisson
    summation its entries and the twisted N-site ones are both the
    infinite chain's P_inf[d] and C_inf[d], which do not depend on theta,
    to aliases below 3e-17.  So the reflection rule of _chain_entries
    writes its exact zeros (Re P for odd z, Im P for even z, and Im C) at
    every twist, and hermitian_eigenvalues reads them and takes a real
    solve.  The N-site chain keeps its theta: its finite-N effects are not
    alias-small.
    """
    beta = validate_beta(beta)
    distances = np.asarray(distances, dtype=np.int64)
    sites = _short_chain_sites(spec, beta)
    if sites is None:
        return _chain_entries(spec, beta, distances)
    short_chain = replace(spec, n_sites=sites, boundary_phase=0.0)
    short = distances < SHORT_CHAIN_DISTANCES
    same = np.empty(distances.size, dtype=complex)
    cross = np.empty(distances.size, dtype=complex)
    for chain, wanted in ((short_chain, short), (spec, ~short)):
        if wanted.any():
            same[wanted], cross[wanted] = _chain_entries(chain, beta, distances[wanted])
    return same, cross


def _chain_entries(spec: LatticeSpec, beta, distances):
    """Block entries (P, C) of the N-site chain itself, at a validated beta
    and int64 distances d >= 0.

    The path is picked from N, theta and the model alone (see the module
    docstring).  Every path with a mode grid gives the exact zeros of the
    module docstring's two symmetry rules: for even N p[d] where
    (-1)^d != (-1)^z and q[d] at odd d, and at theta in {0, 1/2} Re P for
    odd z, Im P for even z and Im C.
    """
    n = spec.n_sites
    massive = spec.mass > 0
    closed_form = not massive and math.isinf(beta)
    if closed_form:
        if spec.z_exponent % 2:
            profiles = [_fermi_sea_profile(n, spec.boundary_phase, distances)]
        else:
            profiles = [np.where(distances == 0, 0.5 + 0j, 0j)]
    else:
        f, g = _mode_weights(spec, beta)
        weights = [(f, (-1.0) ** spec.z_exponent), (g, 1.0)][: 1 + massive]
        engine = _partial_dft if _uses_partial_dft(n) else fourier_profile
        profiles = engine(spec, weights, distances)
    p, q = (*profiles, np.zeros(distances.size, dtype=complex))[:2]
    twist = np.exp(2j * np.pi * spec.boundary_phase * distances / n)
    same, cross = twist * p, -twist * q
    if not closed_form and spec.boundary_phase in (0.0, 0.5):
        # the reflection rule: both grid paths leave the parts it forbids
        # as round-off (about 1e-17), so they are dropped
        (same.real if spec.z_exponent % 2 else same.imag)[:] = 0.0
        cross.imag[:] = 0.0
    return same, cross


def build_correlation_matrix(spec: LatticeSpec, beta, subsystem) -> CorrelationMatrix:
    """The restricted correlation matrix for a list of sites, as its blocks.

    The subsystem follows validate_subsystem.  Block entry [a, b] belongs to
    the site pair (subsystem[a], subsystem[b]); see CorrelationMatrix for
    the layout.  Each block is one gather from its entries at the signed d,
    and the entry at -d is the conjugate of the one at +d on every path.
    So P and C are exactly Hermitian, and are held unchecked (_held); the
    leading sub-blocks that a scan of N_A solves come from the matrix
    (CorrelationMatrix._leading).
    """
    sites = np.asarray(validate_subsystem(subsystem, spec.n_sites), dtype=np.int64)
    d_signed = sites[None, :] - sites[:, None]  # d[a, b] = j - i
    d_abs = np.abs(d_signed)
    needed = np.zeros(d_abs.max() + 1, dtype=bool)
    needed[d_abs] = True
    distances = np.flatnonzero(needed)
    same, cross = (np.concatenate((x, x.conj())) for x in _block_entries(spec, beta, distances))
    index = (np.cumsum(needed) - 1)[d_abs] + distances.size * (d_signed < 0)
    return _held(same[index], cross[index])

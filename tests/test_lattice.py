import itertools
import math
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eechain.lattice
from eechain import (
    CorrelationMatrix,
    DuplicateSite,
    InvalidParameter,
    LatticeSpec,
    SiteOutOfRange,
    build_correlation_matrix,
    build_mode_grid,
    entropy_of,
    many_body_state,
    reduced_entropy,
    validate_beta,
)
from eechain.lattice import (
    MAX_CHAIN_SITES,
    _fermi_sea_profile,
    _mode_weights,
    _partial_dft,
    _uses_partial_dft,
    fourier_profile,
)

INF = math.inf


def test_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(n_sites=1)
    with pytest.raises(ValueError):
        LatticeSpec(n_sites=10, z_exponent=0)
    with pytest.raises(ValueError):
        LatticeSpec(n_sites=10, mass=-0.1)
    with pytest.raises(ValueError):
        LatticeSpec(n_sites=10, spacing=0.0)
    with pytest.raises(ValueError):
        LatticeSpec(n_sites=10, boundary_phase=1.0)
    # non-integer exponents are rejected, not truncated
    with pytest.raises(ValueError):
        LatticeSpec(n_sites=10, z_exponent=2.5)


def test_spec_rejects_overflowing_frequencies():
    # omega**2 <= m**2 + eps**(-2z) must stay a finite float
    for kwargs in (
        {"mass": 1e308},
        {"mass": np.float64(1e200)},
        {"spacing": 1e-300, "z_exponent": 3},
        {"spacing": 0.5, "z_exponent": 600},
        {"mass": 1.2e154, "spacing": 1e-77, "z_exponent": 2},
    ):
        with pytest.raises(InvalidParameter):
            LatticeSpec(n_sites=4, **kwargs)
    LatticeSpec(n_sites=4, mass=1e150, spacing=1e-30, z_exponent=3)


INTEGER_TYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@pytest.mark.parametrize("integer", INTEGER_TYPES)
@pytest.mark.parametrize("real", [np.float16, np.float32, np.float64])
def test_numpy_scalars_give_the_python_number_results(integer, real):
    # numpy 2 computes on a numpy scalar in its own type (NEP 50): unless the
    # spec holds the validators' Python numbers, m*m runs in float32, -2z in
    # uint8, 4**N in int8, and (2j - 1)N wraps on the grid of an int16 N
    mass, spacing, theta, beta = (real(v) for v in (0.3, 0.9, 0.3, 2.0))
    assert _uses_partial_dft(30011) and not _uses_partial_dft(100)
    for n in [4, 100] + ([30011] if np.iinfo(integer).max >= 30011 else []):
        spec = LatticeSpec(integer(n), integer(3), mass, spacing, theta)
        python = LatticeSpec(n, 3, float(mass), float(spacing), float(theta))
        assert spec == python
        assert [type(getattr(spec, f.name)) for f in fields(spec)] == [int, int] + [float] * 3
        if n == 4:  # the oracle
            values = [reduced_entropy(many_body_state(s, beta), [0, 1]) for s in (spec, python)]
        else:  # the FFT path, then the partial DFT
            a, b = entropy_of(spec, beta, range(16)), entropy_of(python, float(beta), range(16))
            assert a == b
            values = [a.entropy, b.entropy]
        assert values[0].hex() == values[1].hex()


def test_validate_beta():
    assert validate_beta(INF) == INF
    assert validate_beta(2.0) == 2.0
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            validate_beta(bad)


def test_validate_beta_rejects_non_numbers():
    for bad in ("x", None, 1j):
        with pytest.raises(InvalidParameter):
            validate_beta(bad)


def test_mode_grid_n4():
    # keff = (0, 1, 0, -1): for even N the grid holds the distinct half
    grid = build_mode_grid(LatticeSpec(n_sites=4, z_exponent=1))
    np.testing.assert_array_equal(grid.massless_frequencies, [0, 1])
    np.testing.assert_allclose(grid.frequencies, [0, 1], atol=1e-15)
    # odd N has no such pairs: all N modes, keff = sin(2 pi kappa/5)
    grid = build_mode_grid(LatticeSpec(n_sites=5, z_exponent=1))
    np.testing.assert_allclose(
        grid.frequencies, np.abs(np.sin(2 * np.pi * np.arange(5) / 5)), atol=1e-15
    )


def test_mode_grid_twist_shifts_momenta():
    n = 6
    plain = build_mode_grid(LatticeSpec(n_sites=n))
    twisted = build_mode_grid(LatticeSpec(n_sites=n, boundary_phase=0.5))
    k = 2 * np.pi * np.arange(n // 2) / n
    np.testing.assert_allclose(plain.frequencies, np.abs(np.sin(k)), atol=1e-15)
    # theta = 1/2 shifts every k*eps by pi/N
    np.testing.assert_allclose(twisted.frequencies, np.abs(np.sin(k + np.pi / n)), atol=1e-15)
    # antiperiodic grid has no zero mode
    assert twisted.frequencies.min() > 0.1


def _block(spec, beta, i, j):
    """2x2 block of <psi_s,i^dag psi_s',j>, sliced from the whole chain's matrix."""
    m = build_correlation_matrix(spec, beta, range(spec.n_sites)).entries
    return m[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]


def test_ground_state_block_n4():
    # N=4, z=1, m=0: modes keff = (0, 1, 0, -1) with the zero modes filled
    # as the limit from below, so the weight vector is (+1, -1, -1, +1)
    # and <psi_+0^dag psi_+1> = (1/8) sum F_kappa i^kappa = (1 - 1j)/4.
    spec = LatticeSpec(n_sites=4, z_exponent=1)
    block = _block(spec, INF, 0, 1)
    assert block[0, 0] == pytest.approx((1 - 1j) / 4, abs=1e-15)
    assert block[1, 1] == pytest.approx(-(1 - 1j) / 4, abs=1e-15)
    assert block[0, 1] == 0.0 and block[1, 0] == 0.0
    same_site = _block(spec, INF, 2, 2)
    np.testing.assert_allclose(same_site, np.eye(2) * 0.5, atol=1e-15)


def test_fourier_profile_matches_direct_sum():
    # odd N: the L = N weights are the grid's own, and d > N/2 is read as
    # the conjugate of entry N - d
    rng = np.random.default_rng(3)
    w = rng.standard_normal(17)
    n = w.size
    kappa = np.arange(n)
    direct = np.array(
        [np.sum(w * np.exp(2j * np.pi * kappa * d / n)) / (2 * n) for d in range(n)]
    )
    (profile,) = fourier_profile(LatticeSpec(n_sites=n), [(w, 1.0)], np.arange(n))
    np.testing.assert_allclose(profile, direct, atol=1e-13)


def test_matrix_n4_halved():
    spec = LatticeSpec(n_sites=4, z_exponent=1)
    corr = build_correlation_matrix(spec, INF, [0, 1])
    m = corr.entries
    assert corr.dim == 4
    np.testing.assert_allclose(np.diag(m), 0.5, atol=1e-15)
    assert m[0, 2] == pytest.approx((1 - 1j) / 4, abs=1e-15)
    assert m[2, 0] == pytest.approx((1 + 1j) / 4, abs=1e-15)
    eigs = np.linalg.eigvalsh(m)
    expected = np.sort([(2 - math.sqrt(2)) / 4] * 2 + [(2 + math.sqrt(2)) / 4] * 2)
    np.testing.assert_allclose(eigs, expected, atol=1e-14)


def test_subsystem_validation():
    spec = LatticeSpec(n_sites=10)
    with pytest.raises(ValueError):
        build_correlation_matrix(spec, INF, [])
    with pytest.raises(DuplicateSite):
        build_correlation_matrix(spec, INF, [1, 1, 2])
    with pytest.raises(SiteOutOfRange):
        build_correlation_matrix(spec, INF, [0, 10])
    with pytest.raises(SiteOutOfRange):
        build_correlation_matrix(spec, INF, [-1])


def test_even_z_ground_state_exactly_diagonal():
    for z in (2, 4, 8):
        spec = LatticeSpec(n_sites=64, z_exponent=z)
        m = build_correlation_matrix(spec, INF, range(10)).entries
        off = m - np.diag(np.diag(m))
        assert np.abs(off).max() == 0.0
        assert set(np.round(np.diag(m).real, 15)) <= {0.0, 1.0}


def test_parity_class_invariance():
    # massless ground-state matrices depend on z only through (-1)^z
    for z in (1, 2, 3, 4):
        a = build_correlation_matrix(
            LatticeSpec(n_sites=30, z_exponent=z), INF, range(9)
        ).entries
        b = build_correlation_matrix(
            LatticeSpec(n_sites=30, z_exponent=z + 2), INF, range(9)
        ).entries
        assert np.abs(a - b).max() <= 1e-14


@pytest.mark.parametrize(
    "n_sites, z",
    [(2000, 3), (2000, 5), (2000, 7), (2000, 9), (100_000, 3), (100_000, 5)],
)
def test_odd_z_ground_state_correlators_equal_z1(n_sites, z):
    # f = sign(-keff)^z for every odd z, also where |keff|^z is far below
    # 1e-12 (z = 9 at N = 2000), so every correlator equals the z = 1 one.
    # the blocks take the closed form here, so the weights go through the FFT
    d = np.arange(n_sites)
    p1, pz = (
        fourier_profile(spec, [(_mode_weights(spec, INF)[0], -1.0)], d)[0]
        for spec in (LatticeSpec(n_sites=n_sites), LatticeSpec(n_sites=n_sites, z_exponent=z))
    )
    assert np.abs(pz - p1).max() <= 1e-14


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 600),
    z=st.integers(1, 12),
    mass=st.sampled_from([0.0, 1e-200]) | st.floats(1e-3, 10.0),
    theta=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True),
    beta=st.just(INF) | st.floats(1e-3, 1e6),
)
# a sine of the unreduced angle is 2.5e-13 off in relative terms here
@example(n=215, z=4, mass=0.0, theta=0.3183, beta=100.0)
# the partial DFT's N at theta = 0: the grid holds all N distinct modes
@example(n=100003, z=3, mass=0.3, theta=0.0, beta=50.0)
def test_mode_weights_match_direct_formula(n, z, mass, theta, beta):
    spec = LatticeSpec(n_sites=n, z_exponent=z, mass=mass, boundary_phase=theta)
    f, g = _mode_weights(spec, beta)
    assert f.size == g.size == (n // 2 if n % 2 == 0 else n)
    if n % 2 == 0:  # mode kappa + N/2 carries (-1)^z F and the G of mode kappa
        f, g = np.concatenate((f, (-1.0) ** z * f)), np.concatenate((g, g))
    assert np.isfinite(f).all() and np.isfinite(g).all()
    assert np.abs(f).max() <= 1.0 and 0.0 <= g.min() and g.max() <= 1.0

    # sign(-keff) from the exact k*eps/pi = 2*(theta + kappa)/N, since the
    # rounded sine can have the wrong sign within 1e-15 of a node; at a node
    # it is the limit from below
    twice_k = [2 * (Fraction(theta) + kappa) for kappa in range(n)]
    node = np.array([c % n == 0 for c in twice_k])
    sign = np.array([-1.0 if 0 < c <= n else 1.0 for c in twice_k])
    # |keff| from the angle reduced by the nearest multiple of pi exactly,
    # so the reference is accurate to rounding next to the nodes too
    reduced = [c - round(c / n) * n for c in twice_k]
    power = np.array([abs(math.sin(math.pi * float(r / n))) for r in reduced]) ** z
    omega = np.hypot(power, mass)
    tanh = 1.0 if beta == INF else np.tanh(beta * omega / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        f_direct = sign**z * power / omega * tanh
        g_direct = mass / omega * tanh
    # the formula is 0/0 where |keff|^z underflows, so compare where it is normal
    regular = ~node & (power >= np.finfo(float).tiny)
    np.testing.assert_allclose(f[regular], f_direct[regular], rtol=1e-13, atol=0)
    np.testing.assert_allclose(g[regular], g_direct[regular], rtol=1e-13, atol=0)
    # exact nodes: a massless ground state fills them from below, else F = 0
    if mass == 0.0 and beta == INF:
        assert np.array_equal(f[node], sign[node] ** z)
    else:
        assert not f[node].any()


def test_massless_cross_chirality_exactly_zero():
    m = build_correlation_matrix(
        LatticeSpec(n_sites=12, z_exponent=3), 2.0, range(5)
    ).entries
    assert np.abs(m[0::2, 1::2]).max() == 0.0
    assert np.abs(m[1::2, 0::2]).max() == 0.0


def test_infinite_temperature_limit():
    m = build_correlation_matrix(
        LatticeSpec(n_sites=16, z_exponent=1, mass=0.5), 1e-9, range(4)
    ).entries
    assert np.abs(m - 0.5 * np.eye(8)).max() < 1e-9


def test_translation_invariance():
    spec = LatticeSpec(n_sites=14, z_exponent=2, mass=0.4)
    for shift in (1, 5, 9):
        a = _block(spec, 3.0, 2, 6)
        b = _block(spec, 3.0, (2 + shift) % 14, (6 + shift) % 14)
        np.testing.assert_allclose(a, b, atol=1e-15)
    # shifted subsystems have identical spectra
    e1 = np.linalg.eigvalsh(
        build_correlation_matrix(spec, 3.0, [0, 1, 4]).entries
    )
    e2 = np.linalg.eigvalsh(
        build_correlation_matrix(spec, 3.0, [7, 8, 11]).entries
    )
    np.testing.assert_allclose(e1, e2, atol=1e-13)


@pytest.mark.parametrize("n_sites", [4, 9, 50, 200])
@pytest.mark.parametrize("beta", [INF, 10.0, 1.0, 0.1])
@pytest.mark.parametrize("mass", [0.0, 0.5])
@pytest.mark.parametrize("z", [1, 2, 5, 9])
def test_matrix_invariants_grid(n_sites, beta, mass, z):
    """Hermiticity and eigenvalue range over the sampling grid."""
    spec = LatticeSpec(n_sites=n_sites, z_exponent=z, mass=mass)
    na = max(1, n_sites // 3)
    m = build_correlation_matrix(spec, beta, range(na)).entries
    assert np.abs(m - m.conj().T).max() <= 1e-12
    eigs = np.linalg.eigvalsh(m)
    assert eigs.min() >= -1e-9
    assert eigs.max() <= 1 + 1e-9


def test_twisted_matrix_still_hermitian():
    spec = LatticeSpec(n_sites=20, z_exponent=1, mass=0.3, boundary_phase=0.37)
    m = build_correlation_matrix(spec, 5.0, [0, 3, 4, 11]).entries
    assert np.abs(m - m.conj().T).max() <= 1e-12
    eigs = np.linalg.eigvalsh(m)
    assert eigs.min() >= -1e-9 and eigs.max() <= 1 + 1e-9


# A CorrelationMatrix checks its blocks' Hermiticity when it is made, but
# the lattice holds its own without that check (lattice._held).  So every
# profile path must give exactly Hermitian blocks: the FFT (N = 16, 17,
# 2000, 2001), the partial DFT (N = 131072, 100003), the short chain of a
# massive or thermal point (d < 512, which range(600) passes), the Fermi
# sea and the even-z delta, on contiguous and on sparse sites.  The sparse
# sites are 20 of 30 evenly spaced ones, in random order, so that their
# far entries take at most 29 distances of the N-site chain.
@pytest.mark.parametrize("n_sites", [16, 17, 2000, 2001, 131_072, 100_003])
def test_every_profile_path_gives_exactly_hermitian_blocks(n_sites):
    rng = np.random.default_rng(n_sites)
    slots = rng.choice(min(30, n_sites), size=min(20, n_sites), replace=False)
    site_sets = [range(min(64, n_sites)), range(min(600, n_sites)), slots * max(n_sites // 30, 1)]
    points = itertools.product(range(1, 6), (0.0, 0.3), (INF, 50.0), (0.0, 0.5, 0.3183))
    for z, mass, beta, theta in points:
        spec = LatticeSpec(n_sites, z, mass, 1.0, theta)
        for sites in site_sets:
            corr = build_correlation_matrix(spec, beta, sites)
            assert np.array_equal(corr.same, corr.same.conj().T)
            assert np.array_equal(corr.cross, corr.cross.conj().T)


# A scan of N_A solves the leading sub-blocks of one matrix, held
# unchecked (CorrelationMatrix._leading): they must be the smaller
# subsystem's own matrix, byte for byte, on every profile path.  (N, z, m,
# beta, theta, the largest N_A)
LEADING_CASES = [
    (64, 3, 0.0, INF, 0.3183, 64),  # the Fermi sea
    (64, 2, 0.0, INF, 0.5, 64),  # the even-z delta
    (500, 3, 0.3, 50.0, 0.3183, 128),  # the N-site FFT, even N
    (501, 2, 0.0, 2.0, 0.5, 128),  # the N-site FFT, odd N
    (131_072, 1, 0.0, 1e5, 0.3183, 128),  # the partial DFT
    (2000, 1, 0.3, 50.0, 0.3183, 600),  # the short chain, and the N-site chain at d >= 512
]


@pytest.mark.parametrize("n_sites, z, mass, beta, theta, largest", LEADING_CASES)
def test_leading_blocks_are_the_smaller_subsystems_matrix(n_sites, z, mass, beta, theta, largest):
    spec = LatticeSpec(n_sites, z, mass, 1.0, theta)
    corr = build_correlation_matrix(spec, beta, range(largest))
    for na in [na for na in (1, 17, 32, 63, largest // 2 + 1, 513, largest) if na <= largest]:
        lead, own = corr._leading(na), build_correlation_matrix(spec, beta, range(na))
        assert type(lead) is CorrelationMatrix and lead.dim == 2 * na
        for block, expected in ((lead.same, own.same), (lead.cross, own.cross)):
            assert block.tobytes() == expected.tobytes()
            assert not block.flags.writeable


def _sparse_blocks(z, mass, beta, theta):
    """(spec, sites, blocks) for 6 random sites at N = 12, 301 (the FFT) and
    100003 (the partial DFT)."""
    rng = np.random.default_rng(2024)
    for n in (12, 301, 100_003):
        spec = LatticeSpec(n, z, mass, 1.0, theta)
        sites = [int(s) for s in rng.choice(n, size=6, replace=False)]
        yield spec, sites, build_correlation_matrix(spec, beta, sites)


SPARSE_BLOCK_CASES = pytest.mark.parametrize(
    "z, mass, beta, theta",
    [
        (z, mass, beta, theta)
        # massive; massless on the Fermi-sea, delta and mode-grid paths
        for z, mass, beta in [(3, 0.4, 7.0), (1, 0.0, INF), (2, 0.0, INF), (1, 0.0, 3.0)]
        for theta in (0.0, 0.5, 0.3183)
    ],
)


@SPARSE_BLOCK_CASES
def test_block_entries_depend_only_on_their_site_pair(z, mass, beta, theta):
    for spec, sites, corr in _sparse_blocks(z, mass, beta, theta):
        off = ~np.eye(len(sites), dtype=bool)
        for block in (corr.same, corr.cross):
            # byte for byte, zero parts' signs included: the -d entry is the
            # conj of the +d one on every path
            assert block.T[off].tobytes() == block.conj()[off].tobytes()
        for a, i in enumerate(sites):
            for b, j in enumerate(sites):
                pair = build_correlation_matrix(spec, beta, [i] if a == b else [i, j])
                k = 0 if a == b else 1
                assert corr.same[a, b].tobytes() == pair.same[0, k].tobytes()
                assert corr.cross[a, b].tobytes() == pair.cross[0, k].tobytes()


def _own_profiles(spec, beta, distances):
    """p and q at the d >= 0 given, from the profile function of each path
    of the N-site chain: the delta, the Fermi sea, the partial DFT or the
    FFT."""
    n, z = spec.n_sites, spec.z_exponent
    zeros = np.zeros(distances.size, dtype=complex)
    if spec.mass == 0.0 and beta == INF:
        if z % 2:
            return _fermi_sea_profile(n, spec.boundary_phase, distances), zeros
        return np.where(distances == 0, 0.5 + 0j, 0j), zeros
    f, g = _mode_weights(spec, beta)
    weights = [(f, (-1.0) ** z), (g, 1.0)]
    p, q = (_partial_dft if _uses_partial_dft(n) else fourier_profile)(spec, weights, distances)
    return p, q if spec.mass > 0 else zeros


@SPARSE_BLOCK_CASES
def test_blocks_equal_the_entrywise_formula(z, mass, beta, theta, monkeypatch):
    # bit for bit: P = e^{2i pi theta d/N} p[d] and C = -e^{2i pi theta d/N} q[d]
    # at d = |j - i|, and at d < 0 the conjugate of the entry at -d.  At
    # theta in {0, 1/2} every grid path keeps only the imaginary (odd z) or
    # real (even z) part of P and the real part of C.  The N-site chain
    # gives every entry here: with D = 0 no d takes the short chain
    # (tests/test_short_chain.py checks it)
    monkeypatch.setattr(eechain.lattice, "SHORT_CHAIN_DISTANCES", 0)
    for spec, sites, corr in _sparse_blocks(z, mass, beta, theta):
        same, cross = _entrywise_blocks(spec, beta, sites)
        assert corr.same.tobytes() == same.tobytes()
        assert corr.cross.tobytes() == cross.tobytes()


def _entrywise_blocks(spec, beta, sites):
    """P and C of the sites from the N-site chain's profiles, entry by entry."""
    z, theta = spec.z_exponent, spec.boundary_phase
    d = np.subtract.outer(sites, sites).T  # d[a, b] = j - i
    p, q = (x.reshape(d.shape) for x in _own_profiles(spec, beta, np.abs(d).ravel()))
    twist = np.exp(2j * np.pi * theta * np.abs(d) / spec.n_sites)
    same, cross = twist * p, -twist * q
    if not (spec.mass == 0.0 and beta == INF) and theta in (0.0, 0.5):
        (same.real if z % 2 else same.imag)[:] = 0.0
        cross.imag[:] = 0.0
    below = d < 0
    same[below], cross[below] = same[below].conj(), cross[below].conj()
    return same, cross


@pytest.mark.parametrize("z", [1, 2])
@pytest.mark.parametrize("n_sites", [2 * 10**7, 10**9, MAX_CHAIN_SITES])
def test_gather_memory_follows_the_block_not_the_chain(n_sites, z):
    # sites at both ends of a long chain span d up to N - 1; indexing their
    # few distances by a mask over 0 .. N - 1 took 17 bytes per chain site
    # (324 MiB at N = 2e7).  The massless ground state is in closed form,
    # so nothing else grows with N either
    spec = LatticeSpec(n_sites, z, 0.0, 1.0, 0.25)
    ends = [0, n_sites - 1]
    intervals = [*range(20), *range(n_sites // 2, n_sites // 2 + 20)]
    for sites in (ends, intervals):
        tracemalloc.start()
        try:
            corr = build_correlation_matrix(spec, INF, sites)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        same, cross = _entrywise_blocks(spec, INF, np.array(sites))
        assert corr.same.tobytes() == same.tobytes()
        assert corr.cross.tobytes() == cross.tobytes()



# A contiguous subsystem range(s, s + n) builds each block as windows of
# one table of its entries at d = -(n - 1) .. n - 1; any other site set
# gathers them.  The two must agree byte for byte on every profile path.
# (N, z, m, beta, theta, N_A, the path of the entries)
WINDOW_CASES = [
    (2000, 3, 0.0, INF, 0.3183, 64, "fermi-sea"),
    (2000, 2, 0.0, INF, 0.5, 64, "delta"),
    (2000, 1, 0.3, 50.0, 0.3183, 64, "short-chain"),
    (2000, 1, 0.01, INF, 0.3183, 64, "fft"),
    (501, 2, 0.0, 2.0, 0.5, 64, "fft"),  # odd N
    (131_072, 1, 1e-5, INF, 0.3183, 64, "partial-dft"),
    (2000, 1, 0.3, 50.0, 0.3183, 600, "short-chain"),  # and the N-site chain at d >= 512
    (2000, 3, 0.3, INF, 0.0, 1, "short-chain"),
]


def _entry_path(spec, beta):
    if spec.mass == 0.0 and beta == INF:
        return "fermi-sea" if spec.z_exponent % 2 else "delta"
    if eechain.lattice._short_chain_sites(spec, beta) is not None:
        return "short-chain"
    return "partial-dft" if _uses_partial_dft(spec.n_sites) else "fft"


@pytest.mark.parametrize("n_sites, z, mass, beta, theta, na, path", WINDOW_CASES)
def test_contiguous_blocks_are_the_gathered_blocks(
    n_sites, z, mass, beta, theta, na, path, monkeypatch
):
    spec = LatticeSpec(n_sites, z, mass, 1.0, theta)
    assert _entry_path(spec, beta) == path
    # a gather indexes its distances by a mask or, with a span of 0, by
    # np.unique: both give the windows' bytes
    for mask_span, start in itertools.product((eechain.lattice._MASK_SPAN, 0), (0, 5)):
        monkeypatch.setattr(eechain.lattice, "_MASK_SPAN", mask_span)
        windows = build_correlation_matrix(spec, beta, range(start, start + na))
        gathered = build_correlation_matrix(spec, beta, list(range(start, start + na)))
        for block, expected in ((windows.same, gathered.same), (windows.cross, gathered.cross)):
            assert block.shape == (na, na)
            assert block.tobytes() == expected.tobytes()
            assert not block.flags.writeable

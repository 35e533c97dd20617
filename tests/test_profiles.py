"""Profiles at the sizes users reach, against references that share no code
with the path under test: the closed-form Fermi sea and the partial DFT are
checked against numpy's FFT, and sweeps against single points."""

import math

import mpmath
import numpy as np
import pytest

import eechain.lattice
from eechain import (
    LatticeSpec,
    build_correlation_matrix,
    cft_reference,
    entropy_of,
    sweep_entropy,
)
from eechain.blas import openblas_threads
from eechain.lattice import (
    MAX_CHAIN_SITES,
    _below_node_range,
    _block_entries,
    _chain_entries,
    _mode_weights,
    _partial_dft,
    _short_chain_sites,
    _uses_partial_dft,
    fourier_profile,
)

INF = math.inf
GENERIC_THETA = 0.3183


def _distances(n):
    """The first 64 site differences and a few far ones."""
    return np.concatenate([np.arange(64), [n // 3, n // 2, n - 1]])


def _twist(spec, d):
    return np.exp(2j * np.pi * spec.boundary_phase * d / spec.n_sites)


def _assert_entries_equal_fft(spec, beta):
    """P and C at d >= 0 to 1e-15 of FFTs of the full-grid weights, twisted:
    those of the N-site chain itself (the partial DFT at the N used here),
    and the block entries, which take the short chain at d < 512 where it
    is shorter than N."""
    d = _distances(spec.n_sites)
    f, g = _mode_weights(spec, beta)
    weights = [(f, (-1.0) ** spec.z_exponent), (g, 1.0)][: 1 + (spec.mass > 0)]
    p, q = (*fourier_profile(spec, weights, d), np.zeros(d.size))[:2]
    for same, cross in (_chain_entries(spec, beta, d), _block_entries(spec, beta, d)):
        assert np.abs(same - _twist(spec, d) * p).max() <= 1e-15
        assert np.abs(cross + _twist(spec, d) * q).max() <= 1e-15


@pytest.mark.parametrize("n_sites", [100_000, 1_000_000, 1_000_003])
@pytest.mark.parametrize("theta", [0.0, 0.5, GENERIC_THETA])
def test_fermi_sea_closed_form_equals_fft(n_sites, theta):
    d = _distances(n_sites)
    spec1 = LatticeSpec(n_sites=n_sites, boundary_phase=theta)
    f1, _ = _mode_weights(spec1, INF)
    reference = _twist(spec1, d) * fourier_profile(spec1, [(f1, -1.0)], d)[0]
    for z in (1, 3, 5, 9):
        spec = LatticeSpec(n_sites=n_sites, z_exponent=z, boundary_phase=theta)
        # every odd z has the z = 1 weights, so one FFT serves all four
        f, _ = _mode_weights(spec, INF)
        assert np.array_equal(f, f1)
        same, cross = _block_entries(spec, INF, d)
        assert np.abs(same - reference).max() <= 1e-14
        assert not cross.any()


@pytest.mark.parametrize("n_sites", [100_003, 131_072, 1_000_000])
@pytest.mark.parametrize(
    "z, mass, beta, theta",
    [(1, 0.3, 50.0, 0.0), (5, 0.3, INF, 0.5), (2, 0.0, 50.0, 0.37)],
)
def test_partial_dft_equals_fft(n_sites, z, mass, beta, theta):
    assert _uses_partial_dft(n_sites)
    spec = LatticeSpec(n_sites=n_sites, z_exponent=z, mass=mass, boundary_phase=theta)
    _assert_entries_equal_fft(spec, beta)


# At theta in {0, 1/2} the reflection rule drops the part of each entry the
# symmetry k -> -k forbids, after the partial DFT.  Every N mod 4 is covered
# (131072, 1000001, 131074, 100003), with massive thermal, massless thermal
# and massive ground points at z = 1..5; at the Bluestein sizes 1000001
# and 1000003 each FFT takes about 0.4 s, so they get one point each.
MIRRORED_CASES = [
    (n, theta, z, mass, beta)
    for n, theta, points in [
        (131_072, 0.0, [(1, 0.3, 50.0), (2, 0.0, 20.0), (3, 0.5, INF)]),
        (131_072, 0.5, [(4, 0.3, 50.0), (5, 0.3, 50.0), (3, 0.5, INF)]),
        (131_074, 0.0, [(5, 0.5, INF), (3, 0.0, 20.0), (2, 0.3, 50.0)]),
        (131_074, 0.5, [(1, 0.0, 20.0), (2, 0.3, 50.0), (4, 0.5, INF)]),
        (100_003, 0.0, [(2, 0.5, INF), (1, 0.0, 20.0), (3, 0.3, 50.0)]),
        (100_003, 0.5, [(3, 0.3, 50.0), (4, 0.0, 20.0), (1, 0.5, INF)]),
        (1_000_000, 0.0, [(4, 0.5, INF)]),
        (1_000_000, 0.5, [(5, 0.0, 20.0)]),
        (1_000_001, 0.0, [(3, 0.0, 20.0)]),
        (1_000_003, 0.5, [(1, 0.0, 20.0)]),
    ]
    for z, mass, beta in points
]


@pytest.mark.parametrize("n_sites, theta, z, mass, beta", MIRRORED_CASES)
def test_mirrored_partial_dft_equals_fft(n_sites, theta, z, mass, beta):
    assert _uses_partial_dft(n_sites)
    spec = LatticeSpec(n_sites=n_sites, z_exponent=z, mass=mass, boundary_phase=theta)
    _assert_entries_equal_fft(spec, beta)


def test_partial_dft_leaves_the_weights_alone():
    # the partial DFT only reads the weights, so the caller's arrays stay
    # the weights of the grid
    spec = LatticeSpec(n_sites=131_072, z_exponent=2, mass=0.3)
    f, g = _mode_weights(spec, 50.0)
    saved = f.copy(), g.copy()
    _partial_dft(spec, [(f, 1.0), (g, 1.0)], np.arange(8))
    assert f.tobytes() == saved[0].tobytes() and g.tobytes() == saved[1].tobytes()


@pytest.mark.parametrize("n_sites", [131_072, 131_074, 100_003])
@pytest.mark.parametrize("theta", [0.0, 0.5])
@pytest.mark.parametrize("z, mass, beta", [(1, 0.3, 50.0), (2, 0.3, 50.0), (3, 0.0, 20.0)])
def test_mirrored_entries_are_exactly_real_or_imaginary(n_sites, theta, z, mass, beta):
    # F(-k) = (-1)^z F(k) and G(-k) = G(k): the twisted p is imaginary for
    # odd z and real for even z, the twisted q real; for even N, p vanishes
    # at the d of the other parity than z, q at odd d; all exactly.  So do
    # the entries of the short chain, whose M is even, at odd N too; the
    # N-site chain's own entries are checked apart, since at d < 512 the
    # blocks here take the short chain
    spec = LatticeSpec(n_sites=n_sites, z_exponent=z, mass=mass, boundary_phase=theta)
    corr = build_correlation_matrix(spec, beta, range(40))
    d = np.subtract.outer(np.arange(40), np.arange(40))
    even = n_sites % 2 == 0 or _short_chain_sites(spec, beta) is not None
    _assert_exact_symmetry(corr.same, corr.cross, d, z, mass, even)
    d = np.arange(40)
    _assert_exact_symmetry(*_chain_entries(spec, beta, d), d, z, mass, n_sites % 2 == 0)


def _assert_exact_symmetry(same, cross, d, z, mass, even):
    """P exactly imaginary (odd z) or real (even z), C exactly real, and,
    for an even chain, exact zeros where the parity rule forbids them."""
    assert not (same.imag if z % 2 == 0 else same.real).any()
    assert not cross.imag.any()
    # for odd z, p[0] is a sine series at d = 0: exactly 0 as well
    live = d != 0 if z % 2 else np.full(d.shape, True)
    if even:
        live &= d % 2 == z % 2
        assert not cross[d % 2 == 1].any()
    assert not same[~live].any()
    assert same[live].all()
    assert cross[d % 2 == 0].all() == (mass > 0)


@pytest.mark.parametrize("n_sites", [2000, 2001, 9973])
@pytest.mark.parametrize("theta", [0.0, 0.5])
@pytest.mark.parametrize(
    "z, mass, beta",
    [(1, 0.3, 50.0), (2, 0.3, 50.0), (3, 0.0, 20.0), (4, 0.0, 20.0), (5, 0.5, INF)],
)
def test_fft_entries_drop_only_round_off_at_theta_0_and_half(n_sites, theta, z, mass, beta):
    # the same symmetry on the FFT path of the N-site chain: the transform
    # of the unfolded weights leaves the parts it forbids as round-off, and
    # the block entries hold them as exact zeros and the other parts as the
    # FFT's bits.  For even N so are the entries the parity rule forbids
    assert not _uses_partial_dft(n_sites)
    spec = LatticeSpec(n_sites=n_sites, z_exponent=z, mass=mass, boundary_phase=theta)
    d = np.arange(450)
    same, cross = _chain_entries(spec, beta, d)
    f, g = _mode_weights(spec, beta)
    if n_sites % 2 == 0:  # mode kappa + N/2 carries (-1)^z F and the G of mode kappa
        f, g = np.concatenate((f, (-1.0) ** z * f)), np.concatenate((g, g))
    p = _twist(spec, d) * (np.fft.ihfft(f)[d] / 2)
    q = _twist(spec, d) * (np.fft.ihfft(g)[d] / 2)
    kept, dropped = (np.imag, np.real) if z % 2 else (np.real, np.imag)
    assert np.abs(dropped(p)).max() <= 1e-16
    assert np.abs(q.imag).max() <= 1e-16
    assert not dropped(same).any() and not cross.imag.any()
    live_p = d % 2 == z % 2 if n_sites % 2 == 0 else np.full(d.size, True)
    live_q = d % 2 == 0 if n_sites % 2 == 0 else np.full(d.size, True)
    assert np.abs(p[~live_p]).max(initial=0.0) <= 1e-16
    assert np.abs(q[~live_q]).max(initial=0.0) <= 1e-16
    assert not same[~live_p].any() and not cross[~live_q].any()
    assert np.array_equal(kept(same)[live_p], kept(p)[live_p])
    assert np.array_equal(cross.real[live_q], -q.real[live_q])


@pytest.mark.parametrize("n_sites", [1_000_000, 1_000_003])
@pytest.mark.parametrize("theta", [0.0, GENERIC_THETA])
@pytest.mark.parametrize("z, mass, beta", [(1, 0.5, 50.0), (2, 0.3, 10.0), (3, 0.5, INF)])
def test_weights_next_to_the_nodes_match_mpmath(n_sites, theta, z, mass, beta):
    # the modes next to k*eps = pi and 2*pi, where a sine of the unreduced
    # angle loses up to six digits of keff; mpmath's sinpi is exact at nodes
    spec = LatticeSpec(n_sites=n_sites, z_exponent=z, mass=mass, boundary_phase=theta)
    f, g = _mode_weights(spec, beta)
    if n_sites % 2 == 0:  # mode kappa + N/2 carries (-1)^z F and the G of mode kappa
        f, g = np.concatenate((f, (-1.0) ** z * f)), np.concatenate((g, g))
    half = n_sites // 2
    with mpmath.workdps(40):
        for kappa in [*range(half - 3, half + 4), *range(n_sites - 3, n_sites)]:
            keff = mpmath.sinpi(2 * (mpmath.mpf(theta) + kappa) / n_sites)
            omega = mpmath.sqrt(keff ** (2 * z) + mpmath.mpf(mass) ** 2)
            tanh = 1 if beta == INF else mpmath.tanh(beta * omega / 2)
            for weight, exact in ((f, (-keff) ** z / omega * tanh), (g, mass / omega * tanh)):
                exact = float(exact)
                assert abs(weight[kappa] - exact) <= 4 * np.spacing(abs(exact))


@pytest.mark.parametrize("n_sites", [131_072, 1_000_000])
@pytest.mark.parametrize("z, mass, beta", [(1, 0.5, 50.0), (3, 0.3, INF), (5, 0.0, 20.0)])
def test_even_n_partial_dft_zeros_are_exact(n_sites, z, mass, beta):
    # for even N, mode kappa + N/2 carries -F (odd z) and +G, so p vanishes
    # at even d and q at odd d: exactly, not to round-off.  The blocks take
    # the short chain at d < 512, so the partial DFT's entries are checked
    # through the N-site chain as well
    assert _uses_partial_dft(n_sites)
    spec = LatticeSpec(n_sites=n_sites, z_exponent=z, mass=mass, boundary_phase=0.37)
    corr = build_correlation_matrix(spec, beta, range(40))
    d = np.arange(40)
    for same, cross, odd in (
        (corr.same, corr.cross, np.add.outer(d, d) % 2 == 1),
        (*_chain_entries(spec, beta, d), d % 2 == 1),
    ):
        assert not same[~odd].any()
        assert same[odd].all()
        assert not cross[odd].any()
        assert cross[~odd].all() == (mass > 0)


@pytest.mark.parametrize("n_sites", [100_000, 100_003, 131_072])
def test_sweep_rows_equal_entropy_of_at_large_n(n_sites):
    # a 64-site sweep asks for four profile blocks, a 16-site point for one:
    # the shared entries, and so the rows, must agree bit for bit
    nas = (16, 40, 64)
    table = sweep_entropy((1,), (50.0,), nas, n_sites=n_sites, mass=0.3)
    spec = LatticeSpec(n_sites=n_sites, mass=0.3)
    for row, na in zip(table.rows, nas):
        assert row.entropy == entropy_of(spec, 50.0, range(na)).entropy


@pytest.mark.parametrize("n_sites", [100_003, 1_000_000])
@pytest.mark.parametrize("mass, beta", [(0.3, 50.0), (0.0, INF)])
def test_profile_entries_do_not_depend_on_the_request(n_sites, mass, beta):
    spec = LatticeSpec(n_sites=n_sites, z_exponent=3, mass=mass, boundary_phase=0.37)
    few = np.array([5, n_sites // 2])
    many = np.concatenate([np.arange(64), [n_sites // 2]])
    for alone, among in zip(_block_entries(spec, beta, few), _block_entries(spec, beta, many)):
        assert np.array_equal(alone, among[[5, 64]])


def test_partial_dft_bits_do_not_depend_on_blas_threads():
    # a threaded GEMM changes the profiles' last bits, which the twelve
    # digits the CLI prints can hide.  The entries are those of the N-site
    # chain: at d < 512 the blocks of these points take the short chain
    control = openblas_threads()
    if control is None:
        return
    get, put = control
    saved = get()
    # an odd N at theta = 0, and a generic theta at even N (one parity of d)
    specs = [
        LatticeSpec(n_sites=100_003, mass=0.3),
        LatticeSpec(n_sites=1_000_000, mass=0.3, boundary_phase=0.37),
    ]
    for spec in specs:
        profiles = []
        try:
            for threads in (1, 2):
                put(threads)
                profiles.append(np.concatenate(_chain_entries(spec, 50.0, np.arange(64))))
                assert get() == threads
        finally:
            put(saved)
        assert np.array_equal(profiles[0], profiles[1])


@pytest.mark.parametrize("mass, beta", [(0.3, 50.0), (0.0, INF)])
def test_sparse_subsystem_equals_fft_path(mass, beta):
    n = 1_000_000
    spec = LatticeSpec(n_sites=n, z_exponent=3, mass=mass, boundary_phase=0.37)
    sites = np.array([0, 5, n // 2])
    m = build_correlation_matrix(spec, beta, sites).entries
    f, g = _mode_weights(spec, beta)
    d = sites[None, :] - sites[:, None]
    p, q = fourier_profile(spec, [(f, -1.0), (g, 1.0)], d % n)
    phase = np.exp(2j * np.pi * 0.37 * d / n)
    same, cross = phase * p, -phase * q
    assert np.abs(m[0::2, 0::2] - (0.5 * np.eye(3) + same)).max() <= 1e-14
    assert np.abs(m[1::2, 1::2] - (0.5 * np.eye(3) - same)).max() <= 1e-14
    assert np.abs(m[0::2, 1::2] - cross).max() <= 1e-14
    assert np.abs(m[1::2, 0::2] - cross).max() <= 1e-14


def test_partial_dft_crossover():
    # 5-smooth N below 2^17 and small N keep the FFT; a large prime factor
    # (numpy's Bluestein path) or a large N takes the partial DFT
    for n in (2000, 2003, 100_000, 65_536):
        assert not _uses_partial_dft(n)
    for n in (100_003, 2 * 50_021, 131_072, 1_000_000, 1_000_003):
        assert _uses_partial_dft(n)


def _largest_prime_factors(limit):
    """The largest prime factor of each n in [2, limit), by a sieve: the
    reference for the gcd test that replaced trial division."""
    largest = np.arange(limit)
    for p in range(2, limit):
        if largest[p] == p:  # no smaller prime divides p
            largest[p::p] = p
    return largest.tolist()


def test_partial_dft_choice_matches_the_prime_factor_bound():
    # the rule the gcd test replaced: N >= 2^17, or a prime factor above 300
    # at N >= 10^4
    largest = _largest_prime_factors(4 * 10**5)
    rng = np.random.default_rng(39)
    draws = rng.integers(2, MAX_CHAIN_SITES, 20_000, endpoint=True).tolist()
    for n in [*range(2, 4 * 10**5), *draws]:
        expected = n >= 2**17 or (n >= 10**4 and largest[n] > 300)
        assert _uses_partial_dft(n) == expected, n


def test_small_chain_keeps_the_fft(monkeypatch):
    calls = []

    def counting(spec, weights, distances):
        calls.extend(spec.n_sites for _ in weights)  # one transform per array
        return fourier_profile(spec, weights, distances)

    monkeypatch.setattr(eechain.lattice, "fourier_profile", counting)
    spec = LatticeSpec(n_sites=2000, mass=0.3)
    _chain_entries(spec, 50.0, np.arange(450))
    assert calls == [2000, 2000]
    calls.clear()
    _chain_entries(LatticeSpec(n_sites=100_003, mass=0.3), 50.0, np.arange(64))
    assert calls == []


@pytest.mark.parametrize("n_sites", [100_000, 1_000_000])
@pytest.mark.parametrize("z", [2, 4])
def test_even_z_ground_state_entropy_is_exactly_zero(n_sites, z):
    spec = LatticeSpec(n_sites=n_sites, z_exponent=z)
    assert entropy_of(spec, INF, range(64)).entropy == 0.0


def test_finite_size_central_charge_at_large_n():
    # S = (c/3) ln((N/pi) sin(pi N_A/N)) + const (Calabrese & Cardy,
    # hep-th/0405152) with c = 2, fitted where N_A << N
    n, nas = 100_000, (50, 71, 100, 141, 200, 283, 400)
    table = sweep_entropy((1,), (INF,), nas, n_sites=n)
    law = [cft_reference("finite_size", {"n": n, "na": na, "c": 1.0}) for na in nas]
    c = np.polyfit(law, [row.entropy for row in table.rows], 1)[0]
    assert c == pytest.approx(2.0, abs=0.05)


@pytest.mark.parametrize("z", [1, 3])
def test_fermi_sea_closed_form_at_the_largest_chain(z):
    # at N = MAX_CHAIN_SITES every integer phase product is below 2^63; the
    # entries match Peschel's geometric sum in 40-digit arithmetic
    n, theta = MAX_CHAIN_SITES, 0.25
    d = np.array([0, 1, 2, 999, n // 3, n // 2, n - 2, n - 1])
    spec = LatticeSpec(n_sites=n, z_exponent=z, boundary_phase=theta)
    same, cross = _block_entries(spec, INF, d)
    lo, hi = _below_node_range(n, theta)
    length = hi - lo
    with mpmath.workdps(40):
        for entry, dist in zip(same, map(int, d)):
            twist = mpmath.expjpi(2 * mpmath.mpf(theta) * dist / n)
            if dist == 0:
                p = mpmath.mpf(n - 2 * length) / (2 * n)
            else:
                phi = 2 * mpmath.pi * dist / n
                p = -mpmath.expj(phi * (lo + mpmath.mpf(length - 1) / 2)) * (
                    mpmath.sin(length * phi / 2) / (n * mpmath.sin(phi / 2))
                )
            assert abs(entry - complex(twist * p)) <= 1e-16
    assert not cross.any()

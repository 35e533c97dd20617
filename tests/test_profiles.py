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
    _mode_weights,
    _profiles,
    _unfolded,
    _uses_partial_dft,
    fourier_profile,
)

INF = math.inf
GENERIC_THETA = 0.3183


def _distances(n):
    """The first 64 site differences and a few far ones."""
    return np.concatenate([np.arange(64), [n // 3, n // 2, n - 1]])


@pytest.mark.parametrize("n_sites", [100_000, 1_000_000, 1_000_003])
@pytest.mark.parametrize("theta", [0.0, 0.5, GENERIC_THETA])
def test_fermi_sea_closed_form_equals_fft(n_sites, theta):
    d = _distances(n_sites)
    f1, _ = _mode_weights(LatticeSpec(n_sites=n_sites, boundary_phase=theta), INF)
    reference = fourier_profile(_unfolded(n_sites, f1, -1.0))[d]
    for z in (1, 3, 5, 9):
        spec = LatticeSpec(n_sites=n_sites, z_exponent=z, boundary_phase=theta)
        # every odd z has the z = 1 weights, so one FFT serves all four
        f, _ = _mode_weights(spec, INF)
        assert np.array_equal(f, f1)
        p, q = _profiles(spec, INF, d)
        assert np.abs(p - reference).max() <= 1e-14
        assert not q.any()


@pytest.mark.parametrize("n_sites", [100_003, 131_072, 1_000_000])
@pytest.mark.parametrize(
    "z, mass, beta, theta",
    [(1, 0.3, 50.0, 0.0), (5, 0.3, INF, 0.5), (2, 0.0, 50.0, 0.37)],
)
def test_partial_dft_equals_fft(n_sites, z, mass, beta, theta):
    assert _uses_partial_dft(n_sites)
    spec = LatticeSpec(n_sites=n_sites, z_exponent=z, mass=mass, boundary_phase=theta)
    d = _distances(n_sites)
    p, q = _profiles(spec, beta, d)
    f, g = _mode_weights(spec, beta)
    f, g = _unfolded(n_sites, f, (-1.0) ** z), _unfolded(n_sites, g, 1.0)
    assert np.abs(p - fourier_profile(f)[d]).max() <= 1e-15
    assert np.abs(q - fourier_profile(g)[d]).max() <= 1e-15


@pytest.mark.parametrize("n_sites", [1_000_000, 1_000_003])
@pytest.mark.parametrize("theta", [0.0, GENERIC_THETA])
@pytest.mark.parametrize("z, mass, beta", [(1, 0.5, 50.0), (2, 0.3, 10.0), (3, 0.5, INF)])
def test_weights_next_to_the_nodes_match_mpmath(n_sites, theta, z, mass, beta):
    # the modes next to k*eps = pi and 2*pi, where a sine of the unreduced
    # angle loses up to six digits of keff; mpmath's sinpi is exact at nodes
    f, g = _mode_weights(
        LatticeSpec(n_sites=n_sites, z_exponent=z, mass=mass, boundary_phase=theta), beta
    )
    f, g = _unfolded(n_sites, f, (-1.0) ** z), _unfolded(n_sites, g, 1.0)
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
    # at even d and q at odd d: exactly, not to round-off
    assert _uses_partial_dft(n_sites)
    spec = LatticeSpec(n_sites=n_sites, z_exponent=z, mass=mass, boundary_phase=0.37)
    corr = build_correlation_matrix(spec, beta, range(40))
    odd = np.add.outer(np.arange(40), np.arange(40)) % 2 == 1
    assert not corr.same[~odd].any()
    assert corr.same[odd].all()
    assert not corr.cross[odd].any()
    assert corr.cross[~odd].all() == (mass > 0)


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
    for alone, among in zip(_profiles(spec, beta, few), _profiles(spec, beta, many)):
        assert np.array_equal(alone, among[[5, 64]])


def test_partial_dft_bits_do_not_depend_on_blas_threads():
    # a threaded GEMM changes the profiles' last bits, which the twelve
    # digits the CLI prints can hide
    control = openblas_threads()
    if control is None:
        return
    get, put = control
    saved = get()
    spec = LatticeSpec(n_sites=100_003, mass=0.3)
    profiles = []
    try:
        for threads in (1, 2):
            put(threads)
            profiles.append(np.concatenate(_profiles(spec, 50.0, np.arange(64))))
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
    f, g = _unfolded(n, f, -1.0), _unfolded(n, g, 1.0)
    d = sites[None, :] - sites[:, None]
    phase = np.exp(2j * np.pi * 0.37 * d / n)
    same = phase * fourier_profile(f)[d % n]
    cross = -phase * fourier_profile(g)[d % n]
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


def test_small_chain_keeps_the_fft(monkeypatch):
    calls = []

    def counting(weights):
        calls.append(weights.size)
        return fourier_profile(weights)

    monkeypatch.setattr(eechain.lattice, "fourier_profile", counting)
    spec = LatticeSpec(n_sites=2000, mass=0.3)
    build_correlation_matrix(spec, 50.0, range(450))
    assert calls == [2000, 2000]
    calls.clear()
    build_correlation_matrix(LatticeSpec(n_sites=100_003, mass=0.3), 50.0, range(64))
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

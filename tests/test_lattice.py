import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eechain import (
    DuplicateSite,
    InvalidParameter,
    LatticeSpec,
    SiteOutOfRange,
    build_correlation_matrix,
    build_mode_grid,
    offdiagonal_sum_check,
    validate_beta,
)
from eechain.lattice import _mode_weights, _profiles, fourier_profile

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


def test_validate_beta():
    assert validate_beta(INF) == INF
    assert validate_beta(2.0) == 2.0
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            validate_beta(bad)


def test_mode_grid_n4():
    grid = build_mode_grid(LatticeSpec(n_sites=4, z_exponent=1))
    np.testing.assert_allclose(grid.momenta, [0, np.pi / 2, np.pi, 3 * np.pi / 2])
    np.testing.assert_allclose(grid.effective_momenta, [0, 1, 0, -1], atol=1e-15)
    np.testing.assert_allclose(grid.frequencies, [0, 1, 0, 1], atol=1e-15)


def test_mode_grid_twist_shifts_momenta():
    n = 6
    plain = build_mode_grid(LatticeSpec(n_sites=n))
    twisted = build_mode_grid(LatticeSpec(n_sites=n, boundary_phase=0.5))
    np.testing.assert_allclose(
        twisted.momenta - plain.momenta, np.full(n, np.pi / n), atol=1e-15
    )
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
    rng = np.random.default_rng(3)
    w = rng.standard_normal(17)
    n = w.size
    kappa = np.arange(n)
    direct = np.array(
        [np.sum(w * np.exp(2j * np.pi * kappa * d / n)) / (2 * n) for d in range(n)]
    )
    np.testing.assert_allclose(fourier_profile(w), direct, atol=1e-13)


def test_fourier_profile_input_validation():
    with pytest.raises(ValueError):
        fourier_profile(np.zeros(0))
    with pytest.raises(ValueError):
        fourier_profile(np.zeros((3, 3)))


def test_matrix_n4_halved():
    spec = LatticeSpec(n_sites=4, z_exponent=1)
    corr = build_correlation_matrix(spec, INF, [0, 1])
    m = corr.entries
    assert corr.dim == 4
    assert corr.subsystem == (0, 1)
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
    # 1e-12 (z = 9 at N = 2000), so every correlator equals the z = 1 one
    p1, _ = _profiles(LatticeSpec(n_sites=n_sites, z_exponent=1), INF)
    pz, _ = _profiles(LatticeSpec(n_sites=n_sites, z_exponent=z), INF)
    assert np.abs(pz - p1).max() <= 1e-14


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 600),
    z=st.integers(1, 12),
    mass=st.sampled_from([0.0, 1e-200]) | st.floats(1e-3, 10.0),
    theta=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True),
    beta=st.just(INF) | st.floats(1e-3, 1e6),
)
def test_mode_weights_match_direct_formula(n, z, mass, theta, beta):
    spec = LatticeSpec(n_sites=n, z_exponent=z, mass=mass, boundary_phase=theta)
    f, g = _mode_weights(spec, beta)
    assert np.isfinite(f).all() and np.isfinite(g).all()
    assert np.abs(f).max() <= 1.0 and 0.0 <= g.min() and g.max() <= 1.0

    # sign(-keff) from the exact k*eps/pi = 2*(theta + kappa)/N, since the
    # rounded sine can have the wrong sign within 1e-15 of a node; at a node
    # it is the limit from below
    twice_k = [2 * (Fraction(theta) + kappa) for kappa in range(n)]
    node = np.array([c % n == 0 for c in twice_k])
    sign = np.array([-1.0 if 0 < c <= n else 1.0 for c in twice_k])
    power = np.abs(build_mode_grid(spec).effective_momenta) ** z
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


def test_sum_check_preconditions():
    with pytest.raises(ValueError):
        offdiagonal_sum_check(100, 100.0, 0.0)
    with pytest.raises(ValueError):
        offdiagonal_sum_check(100, 100.0, 100.0)


def test_sum_check_even_integer_resonance():
    # kappa and kappa + N/2 carry opposite signs and identical phases when
    # dx is an even integer, so the sum cancels identically
    for n, dx in [(100, 2.0), (1000, 10.0), (64, 4.0)]:
        assert abs(offdiagonal_sum_check(n, float(n), dx)) < 1e-15


def test_sum_check_error_decays_like_1_over_n():
    errs = []
    sizes = (100, 1000, 10000)
    for n in sizes:
        dx = 0.02 * n
        val = offdiagonal_sum_check(n, float(n), dx)
        errs.append(abs(val - 1j / (4 * math.pi * dx)))
    slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    assert -1.2 < slope < -0.8

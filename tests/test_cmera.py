import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import trapezoid

from eechain import (
    DegenerateInterval,
    InsufficientSampling,
    InvalidParameter,
    LatticeSpec,
    bogoliubov_angle,
    ee_cmera,
    energy_density,
    entropy_of,
    g_closed_form,
    g_from_phi_numeric,
    geodesic_length,
    geodesic_length_massive,
    metric_guu,
    minimizing_angle,
)

PI = math.pi


def test_angle_massless_limits():
    for z in (1, 3, 5):
        assert bogoliubov_angle(0.7, z, 0.0) == pytest.approx(PI / 2, abs=1e-14)
    for z in (2, 4):
        assert bogoliubov_angle(0.7, z, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_angle_heavy_mass_limits():
    assert bogoliubov_angle(1.0, 1, 1e12) == pytest.approx(PI / 4, abs=1e-9)
    assert bogoliubov_angle(1.0, 2, 1e12) == pytest.approx(-PI / 4, abs=1e-9)


@pytest.mark.parametrize("z, m", [(4, 1e-8), (3, 1e-6), (6, 1e-12), (1, 1e-3), (2, 0.5)])
def test_angle_matches_mpmath(z, m):
    # on the cmera command's scales; near the arcsin branch point k^z >> m a
    # quotient k^z/omega rounded to 1 loses about sqrt(eps) of the angle
    k = np.exp(np.linspace(-5.0, 0.0, 501))
    phi = bogoliubov_angle(k, z, m)
    with mpmath.workdps(40):
        for kk, value in zip(k, phi):
            power = mpmath.mpf(kk) ** z
            ratio = power / mpmath.sqrt(power**2 + mpmath.mpf(m) ** 2)
            exact = mpmath.asin(ratio) / 2 - (-1) ** z * mpmath.pi / 4
            assert abs(value - float(exact)) <= 2 * np.spacing(PI / 2)


def test_angle_at_extreme_momenta():
    # k^z or k^(2z) overflows or underflows: the angle takes its limit
    assert bogoliubov_angle(1e80, 2, 0.5) == 0.0
    assert bogoliubov_angle(1e200, 2, 0.5) == 0.0
    assert bogoliubov_angle(1e200, 3, 0.5) == PI / 2
    assert bogoliubov_angle(1e-200, 2, 0.5) == -PI / 4
    assert bogoliubov_angle(1e-200, 3, 0.0) == PI / 2


def test_angle_rejects_nonpositive_momenta():
    with pytest.raises(InvalidParameter):
        bogoliubov_angle(0.0, 1, 0.5)
    with pytest.raises(InvalidParameter):
        bogoliubov_angle(-1.0, 1, 0.5)


def test_minimizing_angle_tangent_relation():
    for k, z, m in [(0.5, 1, 0.8), (1.3, 2, 0.4), (-0.7, 3, 1.1), (2.0, 5, 0.0)]:
        phi = minimizing_angle(k, z, m)
        lhs = math.tan(2 * phi)
        rhs = -m / (-k) ** z
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_minimizing_angle_massless_branches():
    # odd z: the minimizer flips across k = 0
    assert minimizing_angle(0.5, 1, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert minimizing_angle(-0.5, 1, 0.0) == pytest.approx(PI / 2, abs=1e-14)
    # even z: always pi/2 (the dispersion term is positive either side)
    assert minimizing_angle(0.5, 2, 0.0) == pytest.approx(PI / 2, abs=1e-14)
    assert minimizing_angle(-0.5, 2, 0.0) == pytest.approx(PI / 2, abs=1e-14)


def test_g_massless_constants():
    u = np.linspace(-3, 0, 7)
    np.testing.assert_allclose(g_closed_form(u, 1, 0.0), -PI / 2, atol=1e-15)
    np.testing.assert_allclose(g_closed_form(u, 2, 0.0), 0.0, atol=1e-15)


def test_g_massive_value_at_u0():
    # z=1, m=1, cutoff=1 at u=0: -phi(1) + 1/(2*omega^2) = -3 pi/8 + 1/4
    val = g_closed_form(np.array([0.0]), 1, 1.0)[0]
    assert val == pytest.approx(-3 * PI / 8 + 0.25, rel=1e-14)


@pytest.mark.parametrize("z, m", [(1, 1.0), (2, 0.5), (3, 0.05), (4, 1e-8), (5, 2.0)])
def test_g_matches_mpmath(z, m):
    # on the cmera command's scales at cutoff 1
    u = np.linspace(-5.0, 0.0, 501)
    g = g_closed_form(u, z, m)
    with mpmath.workdps(40):
        for k, value in zip(np.exp(u), g):
            power, mass = mpmath.mpf(k) ** z, mpmath.mpf(m)
            phi = mpmath.atan2(power, mass) / 2 - (-1) ** z * mpmath.pi / 4
            exact = -phi + z * mass * power / (2 * (power**2 + mass**2))
            assert abs(value - exact) <= 4.5e-16


@pytest.mark.parametrize(
    "u, z, m, cutoff, limit",
    [
        # k^(2z) overflowed
        (400.0, 1, 0.5, 1.0, -PI / 2),
        (0.0, 1, 0.3, 1.5e300, -PI / 2),
        (800.0, 3, 0.3, 1.0, -PI / 2),
        # k = e^u underflows to 0, a momentum bogoliubov_angle rejects
        (-800.0, 1, 0.3, 1.0, -PI / 4),
    ],
)
def test_g_takes_its_limit_where_k_overflows_or_underflows(u, z, m, cutoff, limit):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = g_closed_form(u, z, m, cutoff)
    assert abs(value - limit) <= np.spacing(abs(limit))


def test_g_cutoff_rescaling():
    u = np.linspace(-4, -1, 11)
    shifted = g_closed_form(u + math.log(2.0), 1, 0.6, cutoff=1.0)
    scaled = g_closed_form(u, 1, 0.6, cutoff=2.0)
    np.testing.assert_allclose(scaled, shifted, atol=1e-14)


@pytest.mark.parametrize("z,m", [(1, 1.0), (2, 0.7), (3, 0.2)])
def test_numeric_inversion_matches_closed_form(z, m):
    u = np.linspace(-5.0, 0.0, 2001)
    phi = bogoliubov_angle(np.exp(u), z, m)
    got = g_from_phi_numeric(u, phi)
    want = g_closed_form(u, z, m)
    assert np.abs(got - want).max() < 1e-6


def test_numeric_inversion_sampling_gates():
    u = np.linspace(-5.0, 0.0, 100)  # du = 0.0505 > ln(10)/100
    phi = bogoliubov_angle(np.exp(u), 1, 1.0)
    with pytest.raises(InsufficientSampling):
        g_from_phi_numeric(u, phi)
    bad_u = np.r_[np.linspace(-5, -1, 500), np.linspace(-0.99, 0, 300)]
    with pytest.raises(InsufficientSampling):
        g_from_phi_numeric(bad_u, np.zeros_like(bad_u))


@pytest.mark.parametrize("u", [np.arange(4.0) * 1e-3, np.zeros((10, 10))])
def test_numeric_inversion_needs_a_1d_profile_of_5_samples(u):
    with pytest.raises(InsufficientSampling):
        g_from_phi_numeric(u, np.zeros_like(u))


def test_energy_density_rejects_samples_of_two_shapes():
    with pytest.raises(InvalidParameter):
        energy_density([1.0, 2.0], [0.1], 1, 0.3)


def test_energy_minimizer_beats_constant_profiles():
    z, m = 1, 0.5
    k = np.linspace(1e-3, 1.0, 2000)
    phi_min = minimizing_angle(k, z, m)
    e_min = energy_density(k, phi_min, z, m)
    omega = np.sqrt(k ** (2 * z) + m * m)
    assert e_min == pytest.approx(-trapezoid(omega, k) / (2 * PI), rel=1e-12)
    for const in (0.0, PI / 4, PI / 2):
        assert e_min <= energy_density(k, np.full_like(k, const), z, m) + 1e-15


def test_energy_second_differences_nonnegative():
    z, m = 2, 0.8
    k = np.linspace(1e-3, 1.0, 600)
    phi = minimizing_angle(k, z, m)
    e0 = energy_density(k, phi, z, m)
    rng = np.random.default_rng(11)
    for _ in range(5):
        delta = 0.3 * rng.standard_normal(k.size)
        second = (
            energy_density(k, phi + delta, z, m)
            + energy_density(k, phi - delta, z, m)
            - 2 * e0
        )
        assert second >= -1e-12


def test_metric_values():
    u = np.linspace(-6, 0, 13)
    np.testing.assert_allclose(metric_guu(u, 1, 0.0), PI**2 / 12, atol=1e-14)
    np.testing.assert_allclose(metric_guu(u, 4, 0.0), 0.0, atol=1e-15)
    assert metric_guu(-10.0, 1, 1.0) == pytest.approx(PI**2 / 48, rel=1e-10)


def test_geodesic_constant_metric():
    assert geodesic_length(PI / 2, math.e, 1.0) == pytest.approx(
        PI / math.sqrt(3), abs=1e-12
    )
    with pytest.raises(DegenerateInterval):
        geodesic_length(PI / 2, 1.0, 1.0)
    with pytest.raises(DegenerateInterval):
        geodesic_length(PI / 2, 0.5, 1.0)


def test_geodesic_massive_limits():
    # vanishing mass reproduces the constant-g closed form
    light = geodesic_length_massive(1, 1e-12, 1.0, 100.0, 1.0)
    const = geodesic_length(PI / 2, 100.0, 1.0)
    assert light == pytest.approx(const, rel=1e-5)
    # a gap shortens the geodesic (less IR entanglement)
    heavy = geodesic_length_massive(1, 1.0, 1.0, 100.0, 1.0)
    assert heavy < light
    with pytest.raises(DegenerateInterval):
        geodesic_length_massive(1, 0.5, 1.0, 0.9, 1.0)
    with pytest.raises(DegenerateInterval):
        # interval too short for the semicircle parameterization
        geodesic_length_massive(1, 0.5, 1.0, 1.05, 1.0)


@pytest.mark.parametrize("z", [1, 3])
@pytest.mark.parametrize("ratio", [1e2, 1e4, 1e6, 1e10])
def test_geodesic_massless_is_the_constant_g_integral(z, ratio):
    # the csc(pi t) end point is resolved however long the interval:
    # (2|g|/sqrt 3) ln cot(eps/l) with |g| = pi/2
    got = geodesic_length_massive(z, 0.0, 1.0, ratio, 1.0)
    want = (PI / math.sqrt(3)) * -math.log(math.tan(1.0 / ratio))
    assert got == pytest.approx(want, rel=1e-12)


def test_geodesic_massive_at_a_subnormal_cutoff():
    # every k = cutoff e^u underflows, or nearly: g is its k -> 0 limit
    tiny = geodesic_length_massive(1, 0.5, 1e-320, 1e10, 1.0)
    assert tiny == geodesic_length_massive(1, 0.5, 1e-300, 1e10, 1.0)


def test_geodesic_massive_at_a_subnormal_alpha():
    # 2 eps/(pi l) is subnormal, and cosh s would overflow at s0 = ln tan(eps/l)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = geodesic_length_massive(1, 0.5, 1.0, 1e300, 1e-20)
    assert math.isfinite(value) and value > 0


def test_geodesic_massive_rejects_an_underflowing_interval():
    # 2 eps/(pi l) underflows to 0, so the semicircle would start at r = 0
    with pytest.raises(DegenerateInterval, match="interval"):
        geodesic_length_massive(1, 0.5, 1.0, 1e300, 1e-30)


def test_ee_closed_form():
    assert ee_cmera(1, 100.0, 1.0) == pytest.approx((2 / 3) * math.log(100))
    assert ee_cmera(3, 50.0, 2.0) == pytest.approx((2 / 3) * math.log(25))
    assert ee_cmera(2, 100.0, 1.0) == 0.0
    assert ee_cmera(8, 7.0, 1.0) == 0.0
    # c is adjustable
    assert ee_cmera(1, 10.0, 1.0, c=3.0) == pytest.approx(math.log(10))


@pytest.mark.parametrize("z", [1, 2, 3])
def test_massless_cmera_slope_equals_the_lattice(z):
    # from N_A = 10 to 30 in an N = 20000 ground state the lattice S grows by
    # 0.73271 for odd z, the geodesic's c L/(sqrt(3) pi) by (2/3) ln 3 =
    # 0.73241; for even z neither grows
    spec = LatticeSpec(n_sites=20_000, z_exponent=z)
    lattice = [entropy_of(spec, math.inf, range(na)).entropy for na in (10, 30)]
    cmera = [ee_cmera(z, na, 1.0) for na in (10, 30)]
    assert lattice[1] - lattice[0] == pytest.approx(cmera[1] - cmera[0], abs=5e-4)
    if z % 2 == 0:
        assert lattice == cmera == [0.0, 0.0]


@pytest.mark.parametrize("z, saturated", [(1, 1.244498), (2, 0.779164), (3, 1.044951)])
def test_massive_cmera_grows_where_the_lattice_saturates(z, saturated):
    # past the correlation length 1/m = 2 the lattice S of an N = 4000 ground
    # state is flat, but g -> (-1)^z pi/4 as k^z -> 0, so the geodesic's
    # c L/(sqrt(3) pi) keeps growing by (1/3) ln 2 = 0.231 per doubling of l.
    # The paper claims the cMERA form for the massless case only
    lengths = (20, 40, 80, 160)
    spec = LatticeSpec(n_sites=4000, z_exponent=z, mass=0.5)
    lattice = [entropy_of(spec, math.inf, range(na)).entropy for na in lengths]
    assert lattice == pytest.approx([saturated] * 4, abs=1e-6)
    cmera = [
        2 * geodesic_length_massive(z, 0.5, 1.0, l, 1.0) / (math.sqrt(3) * PI)
        for l in lengths
    ]
    assert np.diff(cmera) == pytest.approx([math.log(2) / 3] * 3, abs=5e-3)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eechain import (
    IllConditioned,
    InsufficientData,
    InvalidKind,
    InvalidParameter,
    LatticeSpec,
    RegimeUnreachable,
    SiteOutOfRange,
    SweepRow,
    SweepTable,
    cft_reference,
    default_high_temperature_betas,
    default_low_temperature_betas,
    emit_table,
    entropy_of,
    fit_high_temperature,
    fit_low_temperature,
    regime_scales,
    sweep_entropy,
)

INF = math.inf


def test_regime_scales():
    t_c, s_max = regime_scales(LatticeSpec(n_sites=100, z_exponent=3), 10)
    assert t_c == pytest.approx(10.0**-3)
    assert s_max == pytest.approx(20 * math.log(2))


# ------------------------------------------------------------- references


def test_reference_finite_size():
    val = cft_reference("finite_size", {"c": 2.0, "n": 100, "na": 50})
    assert val == pytest.approx((2 / 3) * math.log(100 / math.pi), rel=1e-12)
    assert val == pytest.approx(2.3069602000924605, rel=1e-12)
    # the chord length is symmetric under na -> n - na
    a = cft_reference("finite_size", {"n": 100, "na": 30})
    b = cft_reference("finite_size", {"n": 100, "na": 70})
    assert a == pytest.approx(b, rel=1e-14)


def test_reference_thermal_limits():
    base = {"c": 2.0, "l": 40.0, "eps": 1.0}
    # cold: sinh -> its argument, reproducing the area law + quadratic term
    cold = cft_reference("thermal", {**base, "beta": 4000.0})
    low = cft_reference("low_T_expansion", {**base, "beta": 4000.0})
    assert cold == pytest.approx(low, abs=1e-8)
    # hot: sinh -> exp/2, reproducing the extensive form
    hot = cft_reference("thermal", {**base, "beta": 2.0})
    high = cft_reference("high_T_expansion", {**base, "beta": 2.0})
    assert hot == pytest.approx(high, abs=1e-8)


def test_reference_unknown_kind():
    with pytest.raises(InvalidKind):
        cft_reference("volume_law", {"l": 10})


# ------------------------------------------------------------------ sweep


def test_sweep_sorted_and_complete():
    table = sweep_entropy((2, 1), (1.0, INF), (3, 2), n_sites=12)
    assert len(table.rows) == 8
    keys = [(r.z, r.beta, r.na) for r in table.rows]
    assert keys == sorted(keys)
    # spot value agrees with the direct computation
    row = next(r for r in table.rows if (r.z, r.beta, r.na) == (1, 1.0, 3))
    direct = entropy_of(LatticeSpec(n_sites=12, z_exponent=1), 1.0, range(3))
    assert row.entropy == direct.entropy


def test_sweep_parallel_is_bit_identical():
    kwargs = dict(n_sites=40, mass=0.2)
    serial = sweep_entropy((1, 3), (2.0, 8.0), (4, 7), jobs=1, **kwargs)
    parallel = sweep_entropy((1, 3), (2.0, 8.0), (4, 7), jobs=2, **kwargs)
    assert emit_table(serial) == emit_table(parallel)
    rerun = sweep_entropy((1, 3), (2.0, 8.0), (4, 7), jobs=1, **kwargs)
    assert emit_table(serial) == emit_table(rerun)


def test_sweep_parallel_is_bit_identical_at_threaded_sizes():
    # 350- and 400-row matrices are large enough for a threaded BLAS to
    # change LAPACK's last bits, so the rows match only when the serial
    # and the parallel eigensolves run at the same thread count
    grid = ((1,), (100.0, 10.0), (175, 200))
    serial = sweep_entropy(*grid, n_sites=2000, jobs=1)
    parallel = sweep_entropy(*grid, n_sites=2000, jobs=2)
    assert emit_table(serial) == emit_table(parallel)


def test_sweep_restores_blas_thread_count():
    from eechain import thermal

    control = thermal._openblas_threads()
    if control is not None:
        get, put = control
        saved = get()
        put(2)
        try:
            sweep_entropy((1,), (2.0,), (3,), n_sites=10, jobs=1)
            assert get() == 2
        finally:
            put(saved)


@st.composite
def _sweep_grids(draw):
    n = draw(st.integers(2, 24))
    return {
        "zs": draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)),
        "betas": draw(
            st.lists(st.sampled_from([INF, 0.3, 2.0, 7.5]), min_size=1, max_size=3)
        ),
        "nas": draw(st.lists(st.integers(1, n), min_size=1, max_size=4)),
        "n_sites": n,
        "mass": draw(st.sampled_from([0.0, 0.4])),
        "spacing": draw(st.sampled_from([1.0, 0.5])),
        "boundary_phase": draw(st.sampled_from([0.0, 0.25, 0.7])),
    }


@settings(max_examples=60, deadline=None)
@given(_sweep_grids())
def test_sweep_rows_equal_entropy_of(grid):
    # the grouped sweep slices one matrix per (z, beta); each row must still
    # be the per-point value exactly, whatever order and repeats the axes have
    table = sweep_entropy(**grid)
    assert len(table) == len(grid["zs"]) * len(grid["betas"]) * len(grid["nas"])
    for row in table.rows:
        spec = LatticeSpec(
            n_sites=grid["n_sites"],
            z_exponent=row.z,
            mass=grid["mass"],
            spacing=grid["spacing"],
            boundary_phase=grid["boundary_phase"],
        )
        assert row.entropy == entropy_of(spec, row.beta, range(row.na)).entropy


def test_sweep_rejects_bad_subsystem_sizes():
    with pytest.raises(InvalidParameter):
        sweep_entropy((1,), (INF,), (3, 0), n_sites=10)
    with pytest.raises(InvalidParameter):
        sweep_entropy((1,), (INF,), (-2,), n_sites=10)
    with pytest.raises(SiteOutOfRange):
        sweep_entropy((1,), (INF,), (3, 11), n_sites=10)


@pytest.mark.parametrize("mass, profiles_per_group", [(0.0, 1), (0.3, 2)])
def test_sweep_builds_one_profile_and_matrix_per_group(
    monkeypatch, mass, profiles_per_group
):
    import eechain.entropy
    import eechain.lattice

    calls = {"profile": 0, "matrix": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        eechain.lattice,
        "fourier_profile",
        counting("profile", eechain.lattice.fourier_profile),
    )
    monkeypatch.setattr(
        eechain.entropy,
        "build_correlation_matrix",
        counting("matrix", eechain.entropy.build_correlation_matrix),
    )
    zs, betas = (1, 2, 1), (2.0, 5.0, 2.0)  # 2 x 2 distinct (z, beta)
    table = sweep_entropy(zs, betas, (6, 2, 4, 2), n_sites=30, mass=mass)
    assert len(table) == 3 * 3 * 4
    assert calls == {"profile": 4 * profiles_per_group, "matrix": 4}


# ----------------------------------------------------------------- grids


def test_default_beta_grids():
    low = default_low_temperature_betas(2, 50)
    assert len(low) == 10
    x = 50.0 / np.asarray(low) ** (1 / 2)
    np.testing.assert_allclose(x, np.linspace(0.05, 0.27, 10), rtol=1e-12)
    assert len(default_high_temperature_betas(1, 50)) == 0
    high = default_high_temperature_betas(8, 50)
    assert len(high) == 12
    assert high[0] == pytest.approx(200.0)


# ------------------------------------------------------------- synthetic


def _low_rows(z, coeffs, xs, na=50):
    rows = []
    for x in xs:
        beta = (na / x) ** z
        s = coeffs[0] + coeffs[1] * x + coeffs[2] * x * x
        rows.append(
            SweepRow(z=z, beta=beta, n=2000, na=na, epsilon=1.0, mass=0.0, entropy=s)
        )
    return SweepTable(rows=tuple(rows))


def test_low_fit_recovers_synthetic():
    coeffs = (3.1, -0.4, 1.2)
    table = _low_rows(3, coeffs, np.linspace(0.05, 0.27, 10))
    fit = fit_low_temperature(table, 3)
    assert fit.basis == ("1", "x", "x^2")
    np.testing.assert_allclose(fit.coefficients, coeffs, atol=1e-10)
    assert fit.residual_rms < 1e-12
    assert fit.n_rows == 10


def test_low_fit_window_and_rows_gate():
    coeffs = (1.0, 0.0, 1.0)
    # rows outside x < 0.3 are ignored entirely
    table = _low_rows(1, coeffs, np.linspace(0.4, 0.9, 10))
    with pytest.raises(InsufficientData):
        fit_low_temperature(table, 1)
    # too few in-window rows
    table = _low_rows(1, coeffs, np.linspace(0.05, 0.27, 7))
    with pytest.raises(InsufficientData):
        fit_low_temperature(table, 1)
    # rows for other z are not mixed in
    table = _low_rows(2, coeffs, np.linspace(0.05, 0.27, 10))
    with pytest.raises(InsufficientData):
        fit_low_temperature(table, 1)


def test_low_fit_degenerate_design_matrix():
    table = _low_rows(1, (1.0, 0.0, 1.0), np.full(10, 0.1))
    with pytest.raises(IllConditioned):
        fit_low_temperature(table, 1)


def test_high_fit_recovers_synthetic():
    z, na = 2, 10
    a, b, c = 0.1, 0.05, 0.3
    rows = []
    for beta in np.geomspace(0.01, 4.0, 12):
        x = na * beta ** (-1 / z)
        s = a + b * x + c * math.log(1.0 / beta)
        rows.append(
            SweepRow(z=z, beta=beta, n=2000, na=na, epsilon=1.0, mass=0.0, entropy=s)
        )
    fit = fit_high_temperature(SweepTable(rows=tuple(rows)), z)
    assert fit.basis == ("1", "x", "ln(eps^z/beta)")
    np.testing.assert_allclose(fit.coefficients, (a, b, c), atol=1e-10)


def test_high_fit_gates():
    # every row too cold -> the regime is unreachable, not merely sparse
    cold = _low_rows(1, (1.0, 0.0, 1.0), np.linspace(0.05, 0.27, 10))
    with pytest.raises(RegimeUnreachable):
        fit_high_temperature(cold, 1)
    # saturated rows are excluded too
    z, na = 2, 5
    smax = 2 * na * math.log(2)
    rows = [
        SweepRow(
            z=z, beta=b, n=100, na=na, epsilon=1.0, mass=0.0, entropy=0.99 * smax
        )
        for b in np.geomspace(0.001, 0.1, 10)
    ]
    with pytest.raises(RegimeUnreachable):
        fit_high_temperature(SweepTable(rows=tuple(rows)), z)
    # a handful of valid rows is sparse data, not unreachability
    rows = [
        SweepRow(z=z, beta=b, n=100, na=na, epsilon=1.0, mass=0.0, entropy=1.0 + b)
        for b in np.geomspace(0.01, 0.5, 4)
    ]
    with pytest.raises(InsufficientData):
        fit_high_temperature(SweepTable(rows=tuple(rows)), z)


# -------------------------------------------- measured-lattice invariants


def test_low_fit_quadratic_window(low_t_tables):
    fit = fit_low_temperature(low_t_tables[1], 1)
    f2 = fit.coefficients[2]
    target = 2 * math.pi**2 / 18
    assert abs(f2 / target - 1) < 0.10


def test_low_fit_linear_term_subleading(low_t_tables):
    # at the window edge the fitted linear contribution stays a few
    # percent of the quadratic one
    fit = fit_low_temperature(low_t_tables[1], 1)
    _, f1, f2 = fit.coefficients
    x_edge = 0.27
    assert abs(f1) * x_edge < 0.05 * f2 * x_edge**2


@pytest.mark.parametrize("z", [3, 5])
def test_odd_z_cubic_refit_no_odd_powers(low_t_tables, z):
    fit = fit_low_temperature(low_t_tables[z], z, extra_power=3)
    c, s = fit.coefficients, fit.std_errors
    assert abs(c[1]) < 5 * s[1]
    assert abs(c[3]) < 5 * s[3]


@pytest.mark.xfail(
    strict=True,
    reason="at z=1 the quartic dispersion correction leaks into the odd "
    "cubic-basis coefficients on any workable window; the magnitude-based "
    "check above is the meaningful form of the statement",
)
def test_odd_z_cubic_refit_no_odd_powers_z1(low_t_tables):
    fit = fit_low_temperature(low_t_tables[1], 1, extra_power=3)
    c, s = fit.coefficients, fit.std_errors
    assert abs(c[1]) < 5 * s[1]
    assert abs(c[3]) < 5 * s[3]


@pytest.mark.parametrize("z", [6, 7, 8, 9])
def test_high_fit_residuals_large_z(high_t_tables, z):
    table = high_t_tables[z]
    fit = fit_high_temperature(table, z)
    smax = 2 * 50 * math.log(2)
    kept = [
        r.entropy
        for r in table.rows
        if 50.0 * r.beta ** (-1.0 / z) > 3.0 and r.entropy < 0.9 * smax
    ]
    assert fit.residual_rms < 0.01 * np.mean(kept)

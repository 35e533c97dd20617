"""Acceptance battery: twelve numbered end-to-end checks, one test each.

Each test prints a single `[criterion NN] PASS/FAIL` line (visible with
pytest -s) and asserts the same condition, so the suite both documents
and enforces the contract.  Criteria 10, 11 and 12 also run under a
planted error, which each must catch.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from eechain import entropy, lattice
from eechain import (
    LatticeSpec,
    RegimeUnreachable,
    bogoliubov_angle,
    build_correlation_matrix,
    energy_density,
    entanglement_entropy,
    entropy_of,
    fit_high_temperature,
    fit_low_temperature,
    g_closed_form,
    g_from_phi_numeric,
    geodesic_length,
    hermitian_eigenvalues,
    many_body_state,
    minimizing_angle,
    mode_correlators,
    reduced_entropy,
)

INF = math.inf


def _report(number, ok, detail):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def _ground_state_entropies(z_values, n_sites=100, na_max=50):
    out = {}
    for z in z_values:
        spec = LatticeSpec(n_sites=n_sites, z_exponent=z)
        out[z] = np.array(
            [entropy_of(spec, INF, range(na)).entropy for na in range(1, na_max + 1)]
        )
    return out


def test_criterion_01_even_z_vanishing():
    t0 = time.time()
    s = _ground_state_entropies((2, 4, 6))
    worst = max(np.abs(v).max() for v in s.values())
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    _report(1, ok, f"even-z ground-state max S = {worst:.3e}, {elapsed:.1f}s")


def test_criterion_02_odd_z_universality():
    s = _ground_state_entropies((1, 3, 5))
    d3 = np.abs(s[3] - s[1]).max()
    d5 = np.abs(s[5] - s[1]).max()
    ok = d3 < 1e-10 and d5 < 1e-10
    _report(2, ok, f"max |S(3)-S(1)| = {d3:.3e}, max |S(5)-S(1)| = {d5:.3e}")


def test_criterion_03_area_law_central_charge():
    n = 100
    spec = LatticeSpec(n_sites=n, z_exponent=1)
    nas = np.arange(5, 51)
    entropies = np.array(
        [entropy_of(spec, INF, range(na)).entropy for na in nas]
    )
    chord = np.log((n / math.pi) * np.sin(math.pi * nas / n))
    slope = np.polyfit(chord, entropies, 1)[0]
    c = 3.0 * slope
    ok = 1.95 <= c <= 2.05
    _report(3, ok, f"fitted central charge c = {c:.4f}")


def test_criterion_04_purity_symmetry():
    n = 100
    spec = LatticeSpec(n_sites=n, z_exponent=1)
    worst = 0.0
    for na in range(5, 51):
        s_a = entropy_of(spec, INF, range(na)).entropy
        s_b = entropy_of(spec, INF, range(n - na)).entropy
        worst = max(worst, abs(s_a - s_b))
    ok = worst < 1e-8
    _report(4, ok, f"max |S(N_A) - S(N-N_A)| = {worst:.3e}")


def test_criterion_05_saturation():
    beta, na = 1e-6, 5
    worst_s, worst_eig = 0.0, 0.0
    for z in (1, 2, 5):
        spec = LatticeSpec(n_sites=100, z_exponent=z)
        corr = build_correlation_matrix(spec, beta, range(na))
        eigs = hermitian_eigenvalues(corr)
        worst_eig = max(worst_eig, np.abs(eigs - 0.5).max())
        s = entanglement_entropy(eigs)
        worst_s = max(worst_s, abs(s - 2 * na * math.log(2)))
    ok = worst_s < 1e-5 and worst_eig < 1e-6
    _report(5, ok, f"|S - 10 ln 2| <= {worst_s:.3e}, |c - 1/2| <= {worst_eig:.3e}")


def test_criterion_06_oracle_equivalence():
    t0 = time.time()
    worst_corr, worst_s = 0.0, 0.0
    for n in (3, 4):
        for z in (1, 2, 3):
            for m in (0.5, 1.0):
                for beta in (INF, 5.0, 1.0):
                    spec = LatticeSpec(n_sites=n, z_exponent=z, mass=m)
                    state = many_body_state(spec, beta)
                    corr = mode_correlators(state)
                    fast = build_correlation_matrix(spec, beta, range(n)).entries
                    worst_corr = max(worst_corr, np.abs(corr - fast).max())
                    for na in (1, 2):
                        s_o = reduced_entropy(state, range(na))
                        s_c = entropy_of(spec, beta, range(na)).entropy
                        worst_s = max(worst_s, abs(s_o - s_c))
    elapsed = time.time() - t0
    ok = worst_corr < 1e-10 and worst_s < 1e-8 and elapsed < 30.0
    _report(
        6,
        ok,
        f"correlator diff <= {worst_corr:.2e}, entropy diff <= {worst_s:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_07_low_temperature_coefficients(low_t_tables):
    t0 = time.time()
    fit1 = fit_low_temperature(low_t_tables[1], 1)
    fit2 = fit_low_temperature(low_t_tables[2], 2)
    f2 = fit1.coefficients[2]
    r1 = abs(fit1.coefficients[1]) / fit1.std_errors[1]
    r2 = abs(fit2.coefficients[1]) / fit2.std_errors[1]
    elapsed = time.time() - t0
    ok = 0.9 <= f2 <= 1.3 and r1 < 5.0 and r2 > 5.0 and elapsed < 600.0
    _report(
        7,
        ok,
        f"z=1: f2 = {f2:.4f}, |f1|/se = {r1:.2f}; z=2: |f1|/se = {r2:.2f}",
    )


def test_criterion_08_high_temperature_gating(low_t_tables, high_t_tables):
    unreachable = False
    try:
        fit_high_temperature(low_t_tables[1], 1)
    except RegimeUnreachable:
        unreachable = True
    table = high_t_tables[8]
    fit = fit_high_temperature(table, 8)
    smax = 2 * 50 * math.log(2)
    kept = [
        r.entropy
        for r in table.rows
        if 50.0 * r.beta ** (-1.0 / 8) > 3.0 and r.entropy < 0.9 * smax
    ]
    rel = fit.residual_rms / np.mean(kept)
    ok = unreachable and rel < 0.01
    _report(
        8,
        ok,
        f"z=1 RegimeUnreachable = {unreachable}, z=8 residual = {100 * rel:.2f}% "
        f"of mean S",
    )


def test_criterion_09_cmera_closed_forms():
    angle_ok = all(
        abs(bogoliubov_angle(0.3, z, 0.0) - math.pi / 2) < 1e-14 for z in (1, 3, 5)
    ) and all(abs(bogoliubov_angle(0.3, z, 0.0)) < 1e-14 for z in (2, 4))

    u = np.linspace(-5.0, 0.0, 2001)
    sup = 0.0
    for z, m in ((1, 1.0), (2, 0.5)):
        phi = bogoliubov_angle(np.exp(u), z, m)
        sup = max(sup, np.abs(g_from_phi_numeric(u, phi) - g_closed_form(u, z, m)).max())

    geo = geodesic_length(math.pi / 2, math.e, 1.0)
    geo_ok = abs(geo - math.pi / math.sqrt(3)) < 1e-12

    z, m = 1, 0.8
    k = np.linspace(1e-3, 1.0, 800)
    phi_min = minimizing_angle(k, z, m)
    e0 = energy_density(k, phi_min, z, m)
    rng = np.random.default_rng(20)
    second_min = math.inf
    for _ in range(20):
        delta = 0.25 * rng.standard_normal(k.size)
        second = (
            energy_density(k, phi_min + delta, z, m)
            + energy_density(k, phi_min - delta, z, m)
            - 2 * e0
        )
        second_min = min(second_min, second)

    ok = angle_ok and sup < 1e-6 and geo_ok and second_min >= -1e-12
    _report(
        9,
        ok,
        f"angles ok = {angle_ok}, sup|g_num - g_closed| = {sup:.2e}, "
        f"geodesic err = {abs(geo - math.pi / math.sqrt(3)):.1e}, "
        f"min second difference = {second_min:.2e}",
    )


# Massless z = 1 chains at an FFT-path and a partial-DFT-path N, at two
# twists; at these beta their entries at d < 512 come from short chains
CONTINUUM_CHAINS = [
    LatticeSpec(n, 1, boundary_phase=theta)
    for n in (100000, 100003)
    for theta in (0.0, 0.3183)
]
CONTINUUM_BETAS = (10, 20, 40, 80)


def _continuum_convergence():
    """(ok, detail): the lattice P[0, d] tends to the continuum Dirac
    correlator 1/(beta sinh(pi d/beta)) at odd d ~ beta/2 with an error
    falling like beta^-2, and the doubler cancels it at even d."""
    slopes, worst_even = [], 0.0
    for spec in CONTINUUM_CHAINS:
        errors = []
        for beta in CONTINUUM_BETAS:
            d = 2 * (beta // 4) + 1
            p = build_correlation_matrix(spec, beta, range(d + 1)).same[0]
            exact = 1.0 / (beta * math.sinh(math.pi * d / beta))
            errors.append(abs(abs(p[d]) - exact) / exact)
            worst_even = max(worst_even, np.abs(p[2::2]).max())
        slopes.append(np.polyfit(np.log(CONTINUUM_BETAS), np.log(errors), 1)[0])
    ok = all(-2.2 <= s <= -1.8 for s in slopes) and worst_even <= 1e-15
    detail = (
        f"relative error slopes in beta = {', '.join(f'{s:.3f}' for s in slopes)}, "
        f"max even-d |P[0, d]| = {worst_even:.1e}"
    )
    return ok, detail


def test_criterion_10_continuum_convergence():
    _report(10, *_continuum_convergence())


def test_criterion_10_fails_when_the_weights_take_twice_beta(monkeypatch):
    # a planted error in the thermal weights must fail the criterion
    weights = lattice._mode_weights
    monkeypatch.setattr(
        lattice, "_mode_weights", lambda spec, beta: weights(spec, 2 * beta)
    )
    ok, detail = _continuum_convergence()
    assert not ok, detail


# Massless chains of N_A = 50 sites at N = 1e5: every point takes the
# short chain, whose entries stand for the infinite chain's
THERMAL_SITES, THERMAL_NA = 100_000, 50
LOW_T, HIGH_T = 1000.0, 1.0
STAIRCASE_Z = (2, 4, 6, 8)  # even z; the swing a(z) reads S at z .. z + 2
GAP_Z = (40, 1002)  # even z; the gap reads S at z and z + 1
# measured: swing ratios 0.79, 0.73, 0.76; high/low T 0.11, 0.05, 0.03,
# 0.03; gap ratio 0.017
STAIRCASE_DECAY, HIGH_T_FRACTION, GAP_FRACTION = 0.85, 0.2, 0.05


def _massless_entropy(z, beta):
    """S at theta = 0, if it has the same bits at theta = 0.3183; else None."""
    values = set()
    for theta in (0.0, 0.3183):
        spec = LatticeSpec(THERMAL_SITES, z, boundary_phase=theta)
        assert lattice._short_chain_sites(spec, beta) is not None
        values.add(entropy_of(spec, beta, range(THERMAL_NA)).entropy)
    return values.pop() if len(values) == 1 else None


def _parity_washout():
    """(ok, detail): the even/odd-z staircase of S shrinks with z at low T
    and is washed out at high T, and the parity gap at z = 1002 is a small
    fraction of the one at z = 40 (PAPER.md's thermal claim)."""
    t0 = time.time()
    zs = range(STAIRCASE_Z[0], STAIRCASE_Z[-1] + 3)
    s = {(z, b): _massless_entropy(z, b) for z in zs for b in (LOW_T, HIGH_T)}
    s.update({(z, LOW_T): _massless_entropy(z, LOW_T) for g in GAP_Z for z in (g, g + 1)})
    if None in s.values():
        return False, "an entropy moved with theta"

    def swing(z, b):  # a(z, beta) = |Delta(z) - Delta(z + 1)|
        return abs(s[z + 2, b] - 2 * s[z + 1, b] + s[z, b])

    low = [swing(z, LOW_T) for z in STAIRCASE_Z]
    decay = [b / a for a, b in zip(low, low[1:])]
    washout = [swing(z, HIGH_T) / a for z, a in zip(STAIRCASE_Z, low)]
    gap = [abs(s[z + 1, LOW_T] - s[z, LOW_T]) for z in GAP_Z]
    elapsed = time.time() - t0
    ok = (
        max(decay) <= STAIRCASE_DECAY
        and max(washout) <= HIGH_T_FRACTION
        and gap[1] <= GAP_FRACTION * gap[0]
        and elapsed < 1.0
    )
    detail = (
        f"low-T swing a(z = {STAIRCASE_Z}) = {', '.join(f'{a:.3f}' for a in low)}, "
        f"ratios {', '.join(f'{r:.2f}' for r in decay)}; high/low-T swing "
        f"{', '.join(f'{r:.3f}' for r in washout)}; parity gap {gap[0]:.3f} at "
        f"z = {GAP_Z[0]}, {gap[1]:.4f} at z = {GAP_Z[1]}; theta-free bits; {elapsed:.2f}s"
    )
    return ok, detail


def test_criterion_11_parity_washes_out_with_temperature_and_z():
    _report(11, *_parity_washout())


def test_criterion_11_fails_when_f_takes_its_sign_from_abs_k(monkeypatch):
    # a planted error: F with the sign of |keff|^z in place of (-keff)^z,
    # on the distinct modes and on the mirrored ones of an even chain
    weights = lattice._mode_weights

    def unsigned(spec, beta):
        f, g = weights(spec, beta)
        return np.abs(f), g

    monkeypatch.setattr(lattice, "_mode_weights", unsigned)
    for name in ("fourier_profile", "_partial_dft"):
        engine = getattr(lattice, name)

        def unmirrored(spec, pairs, distances, engine=engine):
            return engine(spec, [(w, 1.0) for w, _ in pairs], distances)

        monkeypatch.setattr(lattice, name, unmirrored)
    ok, detail = _parity_washout()
    assert not ok, detail


# Wide blocks of the massless odd-z ground state against Jin and Korepin
# (J. Stat. Phys. 116, 79, 2004): S(range(L)) = 2[(1/3) ln(2 l) + U1] + R(L),
# with l = (N/pi) sin(pi L/N) the chord and the factor 2 the two
# chiralities.  R(L) L^2 is -1/30 to within 2.1e-5: R L^2 + 1/30 read
# -2.05e-5 at L = 64, -1.22e-6 and -1.27e-6 at L = 256 (N = 10^6 and
# the prime 999983) and 9.07e-7 at L = 1024, where it is 8.7e-13 of S.  A
# PURE_SNAP of 1e-10 moves it to -2.1e-4 at L = 256 and -6.9e-3 at 1024.
JIN_KOREPIN_BLOCKS = [(10**6, 64), (999983, 64), (10**6, 256), (999983, 256), (10**6, 1024)]
JIN_KOREPIN_BOUND = 3e-5
UPSILON_1 = 0.49501790813513706


def _jin_korepin_constant():
    """U1 = -int_0^inf [e^-t/(3t) + 1/(t sinh^2(t/2)) - cosh(t/2)/(2 sinh^3(t/2))] dt.

    The two 4/t^3 terms cancel near t = 0, where quad over [0, inf) loses
    every digit (0.589 at 60 digits, -22.2 at 80).  The integrand tends to
    -1/3 there, so the integral from eps = 1e-14 plus eps/3 is U1 to
    about 1e-28.
    """
    with mpmath.workdps(60):
        eps = mpmath.mpf("1e-14")

        def integrand(t):
            half = t / 2
            return (
                mpmath.exp(-t) / (3 * t)
                + 1 / (t * mpmath.sinh(half) ** 2)
                - mpmath.cosh(half) / (2 * mpmath.sinh(half) ** 3)
            )

        return float(-mpmath.quad(integrand, [eps, 1, mpmath.inf]) + eps / 3)


def _jin_korepin():
    """(ok, detail): |R L^2 + 1/30| <= JIN_KOREPIN_BOUND on every block."""
    t0 = time.time()
    upsilon = _jin_korepin_constant()
    residues = []
    for n, length in JIN_KOREPIN_BLOCKS:
        s = entropy_of(LatticeSpec(n, 1), INF, range(length)).entropy
        chord = n / math.pi * math.sin(math.pi * length / n)
        residues.append((s - 2 * (math.log(2 * chord) / 3 + upsilon)) * length**2 + 1 / 30)
    elapsed = time.time() - t0
    ok = (
        abs(upsilon - UPSILON_1) < 1e-16
        and max(map(abs, residues)) <= JIN_KOREPIN_BOUND
        and elapsed < 2.0
    )
    detail = (
        f"U1 = {upsilon!r}; R L^2 + 1/30 at (N, L) = "
        + ", ".join(f"{b}: {r:.2e}" for b, r in zip(JIN_KOREPIN_BLOCKS, residues))
        + f" (bound {JIN_KOREPIN_BOUND:g}); {elapsed:.2f}s"
    )
    return ok, detail


def test_criterion_12_wide_blocks_follow_jin_korepin():
    _report(12, *_jin_korepin())


def test_criterion_12_fails_when_pure_modes_snap_at_1e_10(monkeypatch):
    # a planted error: eigenvalues within 1e-10 of 0 or 1 dropped as pure
    monkeypatch.setattr(entropy, "PURE_SNAP", 1e-10)
    ok, detail = _jin_korepin()
    assert not ok, detail

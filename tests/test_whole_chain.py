"""The whole chain as an exact reference for the block solve.

For N_A = N the subsystem is the whole chain, so the 2N eigenvalues of M
are the mode occupations 1/2 +- 1/2 tanh(beta*omega_kappa/2), kappa = 0 ..
N - 1: Peschel's correlation-matrix method (J. Phys. A 36 L205) read
backwards.  So the s_j of hermitian_eigenvalues are the sorted
1/2 tanh(beta*omega_kappa/2), S(range(N)) is the Gibbs entropy
2 sum_kappa h(n_kappa) with n_kappa = 1/(e^{beta omega_kappa} + 1), and at
beta = inf the chain is pure, so every split of it has S(A) = S(rest).
omega is taken from the dispersion formula here, not from
build_mode_grid, so that the check does not share the lattice's grid.

The chains reach every profile path: the N-site FFT at even and odd N,
the partial DFT (with _uses_partial_dft patched), the Fermi sea and the
even-z delta (massless ground states at a generic twist), and the short
chain for d < 512 with the N-site chain beyond it (N = 2000, 2001).
"""

import itertools
import math

import numpy as np
import pytest

import eechain.lattice
from eechain import LatticeSpec, build_correlation_matrix, entropy_of
from eechain.entropy import entanglement_entropy, hermitian_eigenvalues
from eechain.lattice import _short_chain_sites

INF = math.inf
GENERIC_THETA = 0.3183

# (z, m, beta, theta).  A massless ground state at theta in {0, 1/2} has a
# mode at omega = 0, which the lattice fills one-sidedly (occupation 0 or
# 1, not the 1/2 of the formula), so it is left out.
GRID = [
    (z, mass, beta, theta)
    for z, mass, beta, theta in itertools.product(
        (1, 2, 3, 5), (0.0, 0.3), (INF, 50.0, 2.0), (0.0, 0.5, GENERIC_THETA)
    )
    if not (mass == 0.0 and beta == INF and theta in (0.0, 0.5))
]
# The whole grid where its solves are cheap (0.02 s at N = 64 and 65, 0.9
# s at 500), every fourth configuration at 501 (2.5 s for all), and one
# thermal point each at 2000 and 2001, where the short chain gives d < 512
# (M = 648 and 576) and the N-site chain the rest.  Both run at theta =
# 1/2, so that the N-site chain's twist is not the identity, and both take
# a real solve: the whole chain at odd N has no parity zeros to split by.
CHAINS = {
    64: GRID,
    65: GRID,
    500: GRID,
    501: GRID[::4],
    2000: [(1, 0.3, 50.0, 0.5)],
    2001: [(2, 0.0, 2.0, 0.5)],
}
# The s_j agree to one bound per N, of N units of 2^-53.  Measured on the
# chains above with one BLAS thread: 2.8e-15 at N = 64, 4.3e-15 at 65,
# 2.0e-14 at 500, 7.5e-15 at 501, and at most 3.0e-14 on seven points each
# at 2000 and 2001.
SPECTRUM_BOUND = {n: n * 2.0**-53 for n in CHAINS}
# S against the Gibbs sum, and S(A) against S(rest), to N * 1e-13: about
# twice the worst error per site measured (5.3e-14 at N = 2000, a pure
# massive z = 1 chain at theta = 0.3183).  Both errors come from the near
# pure modes: PURE_SNAP drops those within 1e-15 of 0 or 1, and keeps the
# round-off of the ones beyond.
ENTROPY_TOL_PER_SITE = 1e-13


def _frequencies(n, z, mass, theta):
    """omega_kappa = (|sin(2 pi (theta + kappa)/N)|^(2z) + m^2)^(1/2), eps = 1.

    2(theta + kappa) is first brought within N/2 of 0, its integer part
    exactly, so that the sine is right to rounding near k = pi too, where a
    plain np.sin(np.pi) is 1.2e-16, not 0.
    """
    kappa = np.arange(n)
    wraps = np.round((2.0 * kappa + 2.0 * theta) / n)
    reduced = (2.0 * kappa - n * wraps) + 2.0 * theta
    return np.sqrt(np.abs(np.sin(np.pi * reduced / n)) ** (2 * z) + mass**2)


def _gibbs_entropy(beta, omega):
    """2 sum_kappa h(n_kappa), n = 1/(e^x + 1) at x = beta*omega, with
    h = log1p(e^-x) + x e^-x/(1 + e^-x), which cancels nothing at x >= 0.
    A pure chain (beta = inf, every omega > 0) has S = 0."""
    if math.isinf(beta):
        return 0.0
    x = beta * omega
    e = np.exp(-x)
    return 2.0 * math.fsum(np.log1p(e) + x * e / (1.0 + e))


def _whole_chain_errors(n, z, mass, beta, theta):
    """(max |s_j - 1/2 tanh(beta omega/2)|, S(range(N)) - Gibbs) of a chain."""
    spec = LatticeSpec(n, z, mass, 1.0, theta)
    eigs = hermitian_eigenvalues(build_correlation_matrix(spec, beta, range(n)))
    omega = _frequencies(n, z, mass, theta)
    s = np.sort(0.5 * np.tanh(beta * omega / 2.0))
    gibbs = _gibbs_entropy(beta, omega)
    return np.abs(eigs[n:] - 0.5 - s).max(), entanglement_entropy(eigs) - gibbs


def _check_whole_chains(n, configurations):
    for z, mass, beta, theta in configurations:
        spectrum, entropy = _whole_chain_errors(n, z, mass, beta, theta)
        point = (n, z, mass, beta, theta)
        assert spectrum <= SPECTRUM_BOUND[n], (point, spectrum)
        assert abs(entropy) <= n * ENTROPY_TOL_PER_SITE, (point, entropy)


@pytest.mark.parametrize("n", sorted(CHAINS))
def test_whole_chain_is_its_mode_occupations(n):
    _check_whole_chains(n, CHAINS[n])


def test_the_largest_chains_take_the_short_chain():
    # else they would not check it: the short chain's M is below N
    for n in (2000, 2001):
        [(z, mass, beta, theta)] = CHAINS[n]
        assert _short_chain_sites(LatticeSpec(n, z, mass, 1.0, theta), beta) < n


@pytest.mark.parametrize("n", [64, 65])
def test_whole_chain_on_the_partial_dft(n, monkeypatch):
    # the partial DFT runs at N >= 10^4 only; patched, it runs at any N
    calls = []
    monkeypatch.setattr(eechain.lattice, "_uses_partial_dft", lambda n: calls.append(n) or True)
    _check_whole_chains(n, GRID)
    assert calls


# Pure chains, massive, twisted and at z > 1: the Fermi sea at a generic
# twist, massive chains at each twist, and the even-z delta
PURE_CHAINS = [
    (1, 0.3, 0.0),
    (3, 0.0, GENERIC_THETA),
    (2, 0.3, GENERIC_THETA),
    (3, 0.3, GENERIC_THETA),
    (5, 0.3, 0.5),
    (2, 0.0, GENERIC_THETA),
]


@pytest.mark.parametrize("n", [64, 65, 500, 501])
def test_a_pure_chain_splits_into_equal_entropies(n):
    rng = np.random.default_rng(n)
    sparse = np.sort(rng.choice(n, size=n // 3, replace=False))
    splits = [
        (range(n // 2), range(n // 2, n)),
        (range(n // 5), range(n // 5, n)),
        (sparse, np.setdiff1d(np.arange(n), sparse)),
    ]
    for z, mass, theta in PURE_CHAINS:
        spec = LatticeSpec(n, z, mass, 1.0, theta)
        for part, rest in splits:
            s_part = entropy_of(spec, INF, [int(i) for i in part]).entropy
            s_rest = entropy_of(spec, INF, [int(i) for i in rest]).entropy
            assert abs(s_part - s_rest) <= n * ENTROPY_TOL_PER_SITE, (n, z, mass, theta)

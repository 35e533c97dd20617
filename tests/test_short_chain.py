"""The short chain against the N-site chain it stands for.

For a massive or thermal point the entries at d < SHORT_CHAIN_DISTANCES
come from an M-site chain (see eechain.lattice._short_chain_sites).  Here
they are compared with the N-site entries of _chain_entries, the path every
entry took before, on a grid with long correlation lengths (a small a,
so M near N) at even, odd and prime N.  The short chain runs untwisted,
so its entries are also checked for the same bits at every theta, with
the reflection rule's exact zeros and the real solve those give.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import eechain.lattice
from eechain import LatticeSpec, entropy_of
from eechain.lattice import (
    MAX_CHAIN_SITES,
    SHORT_CHAIN_DISTANCES,
    SHORT_CHAIN_MARGIN,
    _block_entries,
    _chain_entries,
    _even_smooth_length,
    _short_chain_sites,
)

INF = math.inf
GENERIC_THETA = 0.3183
# one rounding unit of an entry of size up to 1: the N-site sums carry
# about that much round-off of their own (1.7e-16 at most on this grid)
TOLERANCE = 2.0**-52
DISTANCES = np.arange(SHORT_CHAIN_DISTANCES)

# (z, m, beta): correlation lengths of about beta/pi (m = 0) and 1/m up to
# 1600 sites, short ones, and z up to 5
MODELS = [
    (1, 0.0, 1000.0),
    (1, 0.01, 1000.0),
    (1, 0.01, INF),
    (1, 0.0, 5000.0),  # M = 64800, near the fallback at N = 1e5
    (2, 0.3, 50.0),
    (3, 0.1, INF),
    (4, 0.01, 1000.0),
    (5, 0.0, 100.0),
    (5, 1.0, 10.0),
]
LONG_CORRELATION = MODELS[:4]


def _largest_difference(spec, beta):
    same, cross = _block_entries(spec, beta, DISTANCES)
    full_same, full_cross = _chain_entries(spec, beta, DISTANCES)
    return max(np.abs(same - full_same).max(), np.abs(cross - full_cross).max())


# an even 5-smooth N (the FFT), a prime one and an even one above 2^17 (the
# partial DFT)
@pytest.mark.parametrize("n_sites", [100_000, 100_003, 131_072])
@pytest.mark.parametrize("theta", [0.0, 0.5, GENERIC_THETA])
@pytest.mark.parametrize("z, mass, beta", MODELS)
def test_short_chain_equals_the_n_site_chain(n_sites, theta, z, mass, beta):
    spec = LatticeSpec(n_sites, z, mass, 1.0, theta)
    assert _short_chain_sites(spec, beta) < n_sites
    assert _largest_difference(spec, beta) <= TOLERANCE


@pytest.mark.parametrize("n_sites", [999_983, 1_000_000])
@pytest.mark.parametrize("z, mass, beta", [(1, 0.01, 1000.0), (4, 0.01, 1000.0)])
def test_short_chain_equals_the_n_site_chain_at_a_million_sites(n_sites, z, mass, beta):
    spec = LatticeSpec(n_sites, z, mass, 1.0, GENERIC_THETA)
    assert _largest_difference(spec, beta) <= TOLERANCE


@pytest.mark.parametrize("theta", [0.0, 0.5, GENERIC_THETA])
@pytest.mark.parametrize(
    "z, mass, beta, units",
    [
        (40, 0.3, 50.0, 1),
        (1002, 0.0, 1000.0, 1),
        (5000, 0.3, INF, 4),
        (5000, 0.01, INF, 4),
        (5000, 0.3, 50.0, 4),
    ],
)
def test_short_chain_equals_the_n_site_chain_at_large_z(theta, z, mass, beta, units):
    # against the FFT: the partial DFT at a prime N of 1e5 sums the nearly
    # constant large-z weights with up to 1.6e-15 of round-off of its own.
    # z = 5000 lies beyond the scan behind the bound (z <= 1002, see
    # _short_chain_sites); there the FFTs of any two chains (M, 2M, 3M or
    # N sites) differ by up to 3.3e-16 of round-off, so it gets four units
    spec = LatticeSpec(100_000, z, mass, 1.0, theta)
    assert _short_chain_sites(spec, beta) < spec.n_sites
    assert _largest_difference(spec, beta) <= units * TOLERANCE


def test_halved_margin_fails_the_comparison(monkeypatch):
    # a planted M from c/2: the aliases at d near D come through
    monkeypatch.setattr(eechain.lattice, "SHORT_CHAIN_MARGIN", SHORT_CHAIN_MARGIN / 2)
    for z, mass, beta in LONG_CORRELATION:
        spec = LatticeSpec(100_000, z, mass, 1.0, GENERIC_THETA)
        assert _largest_difference(spec, beta) > 1e3 * TOLERANCE


@pytest.mark.parametrize(
    "spec, beta",
    [
        (LatticeSpec(1_000_000, 1, 0.3, 7.27e-21), 50.0),  # a = 2.2e-21
        (LatticeSpec(1_000_000, 1, 1e-200, 1.0, GENERIC_THETA), INF),  # a = 1e-200
        (LatticeSpec(1_000_000, 3, 1e-200), INF),  # a = 1.1e-67
        (LatticeSpec(2000, 1002, 0.3), INF),  # M = 2000
    ],
)
def test_extreme_inputs_fall_back_to_the_n_site_chain(spec, beta):
    assert _short_chain_sites(spec, beta) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = entropy_of(spec, beta, range(40))
    assert np.isfinite(point.entropy)
    entries = _block_entries(spec, beta, DISTANCES)
    for block, full in zip(entries, _chain_entries(spec, beta, DISTANCES)):
        assert np.array_equal(block, full)


def test_large_z_takes_the_short_chain_without_error():
    spec = LatticeSpec(1_000_000, 1002, 0.3)
    assert _short_chain_sites(spec, 50.0) == 1944
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(entropy_of(spec, 50.0, range(40)).entropy)


def test_entries_beyond_d_keep_the_n_site_chain():
    # the untwisted short chain gives d < D only; the others are the
    # N-site entries
    spec = LatticeSpec(100_000, 2, 0.3, 1.0, GENERIC_THETA)
    sites = _short_chain_sites(spec, 50.0)
    short = LatticeSpec(sites, 2, 0.3)
    d = np.array([0, SHORT_CHAIN_DISTANCES - 1, SHORT_CHAIN_DISTANCES, 50_000])
    mixed, full = _block_entries(spec, 50.0, d), _chain_entries(spec, 50.0, d)
    for block, reference, own in zip(mixed, full, _chain_entries(short, 50.0, d[:2])):
        assert np.array_equal(block[:2], own)
        assert np.array_equal(block[2:], reference[2:])


TWISTS = [0.0, GENERIC_THETA, 0.5, 0.77]
# an even 5-smooth N, a prime one and two even ones on the partial DFT
SHORT_CHAIN_N = [100_000, 100_003, 131_072, 1_000_000]
# (m, beta): a massive ground state, a massless thermal and a massive
# thermal point
SHORT_CHAIN_POINTS = [(0.3, INF), (0.0, 50.0), (0.1, 100.0)]


def _short_entries(z, mass, beta):
    """The block entries at d < D for every N and theta above."""
    entries = []
    for n_sites in SHORT_CHAIN_N:
        for theta in TWISTS:
            spec = LatticeSpec(n_sites, z, mass, 1.0, theta)
            assert _short_chain_sites(spec, beta) < n_sites
            entries.append(_block_entries(spec, beta, DISTANCES))
    return entries


def _same_bits(entries):
    first = [block.tobytes() for block in entries[0]]
    return all([block.tobytes() for block in pair] == first for pair in entries)


def _reflection_zeros(z, same, cross):
    """Whether Re P (odd z) or Im P (even z), and Im C, are exact zeros."""
    return not (same.real if z % 2 else same.imag).any() and not cross.imag.any()


def _eigvalsh_inputs(monkeypatch, spec, beta):
    """real or complex, for each eigvalsh that entropy_of runs."""
    inputs, eigvalsh = [], np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        inputs.append("complex" if np.iscomplexobj(a) else "real")
        return eigvalsh(a, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", recorded)
        entropy_of(spec, beta, range(64))
    return inputs


@pytest.mark.parametrize("z", range(1, 6))
@pytest.mark.parametrize("mass, beta", SHORT_CHAIN_POINTS)
def test_short_chain_entries_do_not_depend_on_theta(z, mass, beta):
    # the short chain is untwisted: its entries stand for P_inf and C_inf,
    # the same at every theta, with the reflection rule's exact zeros
    entries = _short_entries(z, mass, beta)
    assert _same_bits(entries)
    assert all(_reflection_zeros(z, *pair) for pair in entries)


def test_twisted_massive_odd_z_takes_the_real_eigvalsh(monkeypatch):
    spec = LatticeSpec(100_000, 3, 0.3, 1.0, GENERIC_THETA)
    assert _eigvalsh_inputs(monkeypatch, spec, 50.0) == ["real"]


def test_planted_twist_fails_the_theta_checks(monkeypatch):
    # a planted twist: the short chain at the point's own theta
    def keep_theta(spec, n_sites, boundary_phase):
        return dataclasses.replace(spec, n_sites=n_sites)

    monkeypatch.setattr(eechain.lattice, "replace", keep_theta)
    for z in range(1, 6):
        for mass, beta in SHORT_CHAIN_POINTS:
            entries = _short_entries(z, mass, beta)
            assert not _same_bits(entries)
            assert not all(_reflection_zeros(z, *pair) for pair in entries)
    spec = LatticeSpec(100_000, 3, 0.3, 1.0, GENERIC_THETA)
    assert _eigvalsh_inputs(monkeypatch, spec, 50.0) == ["complex"]


def test_short_chain_does_not_depend_on_n():
    # once M < N, a massive or thermal entropy is the same at every N
    values = {
        entropy_of(LatticeSpec(n, 3, 0.1, 1.0, GENERIC_THETA), 100.0, range(64)).entropy
        for n in (2000, 100_000, 100_003, 1_000_000)
    }
    assert len(values) == 1


def test_even_smooth_length_is_the_least_above_its_target():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for target in [*range(2, 3000), 10**9 - 1, 2**40 + 1]:
        length = _even_smooth_length(target)
        assert length >= target and length % 2 == 0 and smooth(length)
        if target < 3000:
            assert not any(m % 2 == 0 and smooth(m) for m in range(target, length))


def _searched_even_smooth_length(target):
    """The search the table lookup replaced, kept as its reference."""
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


def test_even_smooth_length_matches_the_search_it_replaced():
    for target in [*range(2, 2**17 + 1), 10**9 - 1, MAX_CHAIN_SITES, 2**40 + 1]:
        assert _even_smooth_length(target) == _searched_even_smooth_length(target), target

import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eechain import (
    CorrelationMatrix,
    EigenvalueOutOfRange,
    EntropyPoint,
    LatticeSpec,
    NotHermitian,
    build_correlation_matrix,
    entanglement_entropy,
    entropy,
    entropy_of,
    hermitian_eigenvalues,
    lattice,
)

INF = math.inf


def binary_entropy(c):
    return -(c * math.log(c) + (1 - c) * math.log(1 - c))


def test_quarter_filling_value():
    got = entanglement_entropy([0.25, 0.25, 0.75, 0.75])
    assert got == pytest.approx(4 * binary_entropy(0.25), rel=1e-12)
    assert got == pytest.approx(2.249341, abs=5e-7)


def test_pure_eigenvalues_contribute_nothing():
    assert entanglement_entropy([0.0, 1.0]) == 0.0
    assert entanglement_entropy([1e-16, 1.0 - 1e-16, 0.5]) == math.log(2)
    assert entanglement_entropy([]) == 0.0


def test_clamping_and_range_gate():
    # within the clamp band: treated as pure
    assert entanglement_entropy([-0.5e-9, 1.0 + 0.5e-9]) == 0.0
    with pytest.raises(EigenvalueOutOfRange):
        entanglement_entropy([-2e-9, 0.5])
    with pytest.raises(EigenvalueOutOfRange):
        entanglement_entropy([0.5, 1.0 + 2e-9])


def test_hermiticity_gate():
    zero = np.zeros((2, 2))
    p = np.array([[0.1, 0.1], [0.3, 0.1]])
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(CorrelationMatrix(same=p, cross=zero))
    # asymmetry below the tolerance passes
    p = np.array([[0.1, 0.1], [0.1 + 1e-10, 0.1]])
    hermitian_eigenvalues(CorrelationMatrix(same=p, cross=zero))
    # the check covers both blocks
    spec = LatticeSpec(n_sites=16, z_exponent=3, mass=0.4, boundary_phase=0.25)
    corr = build_correlation_matrix(spec, 2.0, range(4))
    cross = corr.cross.copy()
    cross[0, 1] += 1e-8
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(CorrelationMatrix(same=corr.same, cross=cross))


def test_not_hermitian_raises_when_the_matrix_is_made():
    p = np.array([[0.1, 0.1], [0.3, 0.1]])
    with pytest.raises(NotHermitian):
        CorrelationMatrix(same=p, cross=np.zeros((2, 2)))
    with pytest.raises(NotHermitian):
        CorrelationMatrix(same=np.zeros((2, 2)), cross=p)


def test_blocks_cannot_change_after_their_check():
    # the one Hermiticity check, when the matrix is made, covers every
    # later solve only if nothing can write the blocks it passed
    spec = LatticeSpec(n_sites=16, z_exponent=3, mass=0.4, boundary_phase=0.25)
    built = build_correlation_matrix(spec, 2.0, range(6))
    same, cross = built.same.copy(), built.cross.copy()
    made = CorrelationMatrix(same=same, cross=cross)
    sub = lattice._held(built.same[:4, :4], built.cross[:4, :4])
    for corr in (built, made, sub):
        for block in (corr.same, corr.cross):
            with pytest.raises(ValueError):
                block[0, 1] = 1.0
            with pytest.raises(ValueError):
                block.imag[1, 0] = 1.0
    # made holds copies: a later write to the caller's arrays reaches no solve
    eigs = hermitian_eigenvalues(made)
    same[0, 1] = cross[1, 0] = 7.0
    assert np.array_equal(hermitian_eigenvalues(made), eigs)
    assert np.array_equal(eigs, hermitian_eigenvalues(built))


def test_copies_are_checked_and_locked():
    # a deep copy and an unpickled copy go back through the constructor,
    # so their blocks are locked like the original's
    spec = LatticeSpec(n_sites=16, z_exponent=3, mass=0.4, boundary_phase=0.25)
    built = build_correlation_matrix(spec, 2.0, range(6))
    made = CorrelationMatrix(same=0.1 * np.eye(2), cross=np.zeros((2, 2)))
    for corr in (built, made):
        for twin in (copy.copy(corr), copy.deepcopy(corr), pickle.loads(pickle.dumps(corr))):
            assert type(twin) is CorrelationMatrix
            assert np.array_equal(hermitian_eigenvalues(twin), hermitian_eigenvalues(corr))
            for block in (twin.same, twin.cross):
                with pytest.raises(ValueError):
                    block[0, 1] = 1.0
    # blocks held unchecked (lattice._held) are checked when they are copied
    bad = lattice._held(np.array([[0.1, 0.1], [0.3, 0.1]]), np.zeros((2, 2)))
    payload = pickle.dumps(bad)
    with pytest.raises(NotHermitian):
        pickle.loads(payload)
    with pytest.raises(NotHermitian):
        copy.deepcopy(bad)


def test_structured_solves_give_the_ascending_dense_spectrum():
    # hand-built blocks with both signs of eigenvalue: real P with C = 0
    # (real eigvalsh), imaginary P with real C (real SVD), and generic ones
    rng = np.random.default_rng(7)
    sym, anti = rng.normal(size=(2, 12, 12)) / 20
    sym, anti = sym + sym.T, anti - anti.T
    zero = np.zeros((12, 12))
    for same, cross in [(sym, zero), (1j * anti, sym), (sym + 1j * anti, sym)]:
        corr = CorrelationMatrix(same=same + 0j, cross=cross + 0j)
        eigs = hermitian_eigenvalues(corr)
        assert np.all(np.diff(eigs) >= 0)
        assert np.abs(eigs - np.linalg.eigvalsh(corr.entries)).max() <= 1e-14


def test_entropy_of_point():
    spec = LatticeSpec(n_sites=4, z_exponent=1)
    pt = entropy_of(spec, INF, range(2))
    eigs = hermitian_eigenvalues(build_correlation_matrix(spec, INF, range(2)))
    c = (2 - math.sqrt(2)) / 4
    np.testing.assert_allclose(eigs, [c, c, 1 - c, 1 - c], atol=1e-15)
    assert pt.entropy == entanglement_entropy(eigs)
    assert pt.entropy == pytest.approx(4 * binary_entropy(c), rel=1e-12)
    assert pt == EntropyPoint(
        z=1, beta=INF, n=4, na=2, epsilon=1.0, mass=0.0, entropy=pt.entropy
    )


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        float,
        st.integers(1, 16),
        elements=st.floats(0.0, 1.0, allow_nan=False),
    )
)
def test_entropy_bounds_and_symmetry(eigs):
    s = entanglement_entropy(eigs)
    assert 0.0 <= s <= len(eigs) * math.log(2) + 1e-12
    # particle-hole mirrored spectrum has the same entropy
    assert entanglement_entropy(1.0 - eigs) == pytest.approx(s, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda na: st.tuples(
            st.just(na),
            st.integers(0, 1),
            st.floats(0.2, 5.0),
            st.floats(0.0, 1.0),
        )
    )
)
def test_lattice_entropy_nonnegative(case):
    na, z_off, beta, mass = case
    spec = LatticeSpec(n_sites=12, z_exponent=1 + z_off, mass=mass)
    s = entropy_of(spec, beta, range(na)).entropy
    assert -1e-12 <= s <= 2 * na * math.log(2) + 1e-12


def _assert_block_solve_matches_dense(corr, entropy_tol, pure=False):
    eigs = hermitian_eigenvalues(corr)
    dense = np.linalg.eigvalsh(corr.entries)
    assert eigs.shape == dense.shape
    assert np.all(np.diff(eigs) >= 0)
    assert np.abs(eigs - dense).max() <= 1e-13
    # a pure block's entropy is exactly 0, which the dense solve need not
    # read: its round-off eigenvalues just above PURE_SNAP add up to 1e-12
    reference = 0.0 if pure else entanglement_entropy(dense)
    assert entanglement_entropy(eigs) == pytest.approx(reference, abs=entropy_tol)


@st.composite
def _correlation_points(draw):
    n = draw(st.integers(2, 400))
    spec = LatticeSpec(
        n_sites=n,
        z_exponent=draw(st.integers(1, 6)),
        mass=draw(st.just(0.0) | st.floats(0.01, 3.0)),
        boundary_phase=draw(
            st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True)
        ),
    )
    beta = draw(st.just(INF) | st.floats(0.05, 1000.0))
    na = draw(st.integers(1, min(n, 64)))
    if draw(st.booleans()):
        sites = range(na)
    else:
        sites = draw(st.permutations(range(n)))[:na]
    return spec, beta, sites


# Whole-chain ground states, where the dense entropy reads 1.109e-12 and
# 1.034e-12 for an exact 0 (the block solve gives 0.0).
@settings(max_examples=150, deadline=None)
@given(_correlation_points())
@example((LatticeSpec(54, 1, 2.855813186184027, 1.0, 0.18655616526625896), INF, range(54)))
@example((LatticeSpec(59, 1, 0.9875087700732894, 1.0, 0.0), INF, range(59)))
def test_block_solve_matches_dense_eigensolve(point):
    spec, beta, sites = point
    corr = build_correlation_matrix(spec, beta, sites)
    # at beta = inf the whole chain is in a pure state
    pure = math.isinf(beta) and len(sites) == spec.n_sites
    _assert_block_solve_matches_dense(corr, entropy_tol=1e-12, pure=pure)


# A point that a hypothesis draw of the test above reached (seed 9215): the
# block solve reads 1.006e-12 below the dense one, and a 40-digit SVD of
# the same blocks puts it 1.15e-12 off and the dense solve 1.4e-13 off.
@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: PURE_SNAP = 1e-15 drops the true eigenvalues within "
    "1e-15 of 0 or 1, and on these gapped blocks they add up to over 1e-12 of S",
)
def test_block_solve_matches_dense_eigensolve_at_a_near_pure_point():
    spec = LatticeSpec(n_sites=37, z_exponent=2, mass=1.21875, boundary_phase=0.0)
    corr = build_correlation_matrix(spec, 28.0, range(36))
    _assert_block_solve_matches_dense(corr, entropy_tol=1e-12)


def test_block_solve_matches_dense_eigensolve_at_450_sites():
    spec = LatticeSpec(n_sites=2000, z_exponent=3, mass=0.3, boundary_phase=0.25)
    corr = build_correlation_matrix(spec, 50.0, range(450))
    _assert_block_solve_matches_dense(corr, entropy_tol=1e-10)


# At theta in {0, 1/2} the blocks are structured: P is imaginary for odd z
# and real for even z, C is real, and C = 0 at m = 0.  Odd z (and even z
# with m = 0) take a real solve.  At these points range(200) takes the
# short chain at every N; the sparse sites' far entries come from the
# N-site chain: by FFT at N = 2000, 2001, and by the partial DFT at
# N = 131072, 100003.
STRUCTURED_POINTS = [  # z, m, beta
    (1, 0.3, 50.0),
    (3, 0.5, INF),
    (1, 0.0, 2.0),
    (2, 0.0, 20.0),
    (4, 0.0, 5.0),
]


@pytest.mark.parametrize("n_sites", [2000, 2001, 131_072, 100_003])
@pytest.mark.parametrize("theta", [0.0, 0.5])
@pytest.mark.parametrize("z, mass, beta", STRUCTURED_POINTS)
def test_structured_blocks_solve_as_the_complex_svd(n_sites, theta, z, mass, beta):
    spec = LatticeSpec(n_sites, z, mass, 1.0, theta)
    sparse = np.random.default_rng(n_sites).choice(n_sites, size=12, replace=False)
    for sites in (range(200), sparse):
        corr = build_correlation_matrix(spec, beta, sites)
        same, cross = corr.same, corr.cross
        if z % 2:
            assert not same.real.any() and not cross.imag.any()
        else:
            assert not same.imag.any() and not cross.any()
        s = np.linalg.svd(same + 1j * cross, compute_uv=False)
        reference = np.concatenate((0.5 - s, 0.5 + s[::-1]))
        assert np.abs(hermitian_eigenvalues(corr) - reference).max() <= 1e-14


# S of range(32) from blocks built with mpmath at 40 digits, independent of
# eechain: F and G summed over all N modes, the twist, an mpmath SVD and the
# entropy.  That takes about 2 s a point, so the values are pinned here.
EXACT_ENTROPIES = [  # N, z, m, theta, beta, S
    (195, 3, 1.954, 0.5, 17.36, 0.25045467660729212417),
    (120, 1, 1.2, 0.0, INF, 0.56625010733177559837),
    (301, 2, 0.8, 0.3183, 5.0, 3.7398499245550281870),
    (200, 1, 0.5, 0.0, 30.0, 1.2445268998064861610),
    (151, 3, 0.7, 0.5, INF, 0.81973164895359236150),
    (240, 2, 1.5, 0.0, INF, 0.27082967828329308993),
]


@pytest.mark.parametrize("n, z, mass, theta, beta, exact", EXACT_ENTROPIES)
def test_entropy_matches_exact_blocks(n, z, mass, theta, beta, exact):
    # PURE_SNAP drops the true eigenvalues within 1e-15 of 0 or 1, which
    # puts the first point 5.2e-13 off; the others lie within 1.3e-13.  The
    # even-N points split by sublattice, and read -6.7e-14 (120 sites),
    # +3.7e-14 (200) and -5.5e-14 (240)
    got = entropy_of(LatticeSpec(n, z, mass, 1.0, theta), beta, range(32)).entropy
    assert abs(got - exact) <= 1e-12


# S of range(N_A) from the very blocks build_correlation_matrix gives, so
# that it measures the spectrum solve and the entropy functional alone: each
# double entry taken exactly into mpmath, mpmath.svd_c of P + iC at 40
# digits (60 gives the same 20 digits), and S = 2 sum_j h(1/2 + s_j), h the
# binary entropy.  A 1/2 - s_j below 0 (down to -8.8e-17, from the blocks'
# round-off) adds 0, as the clamp has it.  About 2 s a point, so the values
# are pinned here.  Each
# bound sits just above today's error at PURE_SNAP = 1e-15: -1.41e-12,
# -9.8e-13, -2.4e-13 and -1.2e-13.
BLOCK_ENTROPIES = [  # N, z, m, theta, beta, N_A, S, bound
    (195, 3, 1.954, 0.5, 17.36, 64, 0.25045467660964881881, 1.45e-12),
    (77, 2, 0.828, 0.476, 29.67, 64, 0.53191903487326025141, 1.0e-12),
    (394, 3, 1.5708, 0.9953, INF, 63, 0.33962243624265234119, 2.9e-13),
    (60, 1, 1.0625, 0.21875, INF, 59, 0.53775044268015904001, 1.25e-13),
]


@pytest.mark.parametrize("n, z, mass, theta, beta, na, exact, bound", BLOCK_ENTROPIES)
def test_entropy_matches_40_digit_blocks(n, z, mass, theta, beta, na, exact, bound):
    got = entropy_of(LatticeSpec(n, z, mass, 1.0, theta), beta, range(na)).entropy
    assert abs(got - exact) <= bound


# The blocks split where their exact zeros allow (eechain.entropy): into
# the even and the odd sites for even z, and by the bipartite P for odd z.
# On an even chain every point splits.  At odd N only entries from a short
# chain (massive or thermal, d < 512) have the zeros; the Fermi sea at odd
# N and a subsystem spanning d >= 512 do not split.  The even-z massless
# ground state's P is diagonal, so its blocks split at every N, though its
# s_j are read off the diagonal without a split.
def _split_expected(n, z, mass, beta, sites):
    if z % 2 == 0 and mass == 0 and beta == INF:
        return True
    return n % 2 == 0 or ((mass > 0 or beta < INF) and np.ptp(sites) < 512)


def _split_site_sets(n):
    sparse = np.random.default_rng(n).choice(n, size=21, replace=False)
    return [range(63), range(64), sparse[:20], sparse, np.unique(sparse % 500)]


@pytest.mark.parametrize("n_sites", [2000, 2001])
@pytest.mark.parametrize("theta", [0.0, 0.5, 0.3183])
@pytest.mark.parametrize("mass, beta", [(0.0, INF), (0.0, 50.0), (0.3, INF), (0.3, 50.0)])
@pytest.mark.parametrize("z", [1, 2, 3, 4])
def test_split_solve_matches_the_complex_svd(z, mass, beta, theta, n_sites):
    spec = LatticeSpec(n_sites, z, mass, 1.0, theta)
    for sites in _split_site_sets(n_sites):
        corr = build_correlation_matrix(spec, beta, sites)
        split = entropy._sublattices(corr.same, corr.cross)
        assert (split is not None) == _split_expected(n_sites, z, mass, beta, sites)
        if split is not None:
            assert split[-1] == bool(z % 2)
        s = np.linalg.svd(corr.same + 1j * corr.cross, compute_uv=False)
        reference = np.concatenate((0.5 - s, 0.5 + s[::-1]))
        eigs = hermitian_eigenvalues(corr)
        assert eigs.shape == reference.shape
        assert np.abs(eigs - reference).max() <= 1e-14


def test_split_needs_every_dropped_entry_to_be_exactly_zero():
    # one entry the split would drop, set to the smallest subnormal (and its
    # conjugate), leaves the whole solve: next to site 0 on a contiguous
    # subsystem, whose classes are slices, and away from it on sites whose
    # parities do not alternate, whose classes are index arrays
    spec = LatticeSpec(2000, 3, 0.3, 1.0, 0.0)
    cases = [  # sites, an entry of C across the classes, an entry of P within one
        (range(10), (0, 1), (0, 2)),
        ([0, 3, 4, 6, 9, 10, 15, 17, 18, 23], (8, 9), (5, 8)),
    ]
    for sites, across, within in cases:
        for beta, block in ((50.0, "cross"), (INF, "same")):
            corr = build_correlation_matrix(spec, beta, sites)
            split = entropy._sublattices(corr.same, corr.cross)
            assert split is not None
            assert isinstance(split[0], slice) == isinstance(sites, range)
            blocks = {"same": corr.same.copy(), "cross": corr.cross.copy()}
            a, b = across if block == "cross" else within
            blocks[block][a, b] = blocks[block][b, a] = 5e-324
            tweaked = CorrelationMatrix(**blocks)
            assert entropy._sublattices(tweaked.same, tweaked.cross) is None
            s = np.linalg.svd(tweaked.same + 1j * tweaked.cross, compute_uv=False)
            reference = np.concatenate((0.5 - s, 0.5 + s[::-1]))
            assert np.abs(hermitian_eigenvalues(tweaked) - reference).max() <= 1e-14


# One case per row of the solve table in eechain.entropy, and the split
# each takes.  Odd N on the N-site chain has no exact zeros, so those
# sites take the whole solve; sites whose parities do not alternate split
# into index arrays.
_SPARSE = np.random.default_rng(5).choice(2000, size=20, replace=False)
SOLVE_ROWS = {  # N, z, m, theta, beta, sites, split
    "diagonal": (2000, 2, 0.0, 0.0, INF, range(64), "diagonal"),
    "unsplit-real-svd": (2001, 1, 0.3, 0.0, 50.0, _SPARSE, None),
    "unsplit-real-eigvalsh": (2001, 2, 0.0, 0.0, 50.0, _SPARSE, None),
    "unsplit-complex-svd": (2001, 1, 0.0, 0.3183, INF, range(64), None),
    "even-z-equal-blocks": (2000, 2, 0.0, 0.0, 50.0, range(64), slice),
    "even-z-unequal-blocks": (2000, 2, 0.3, 0.0, 50.0, range(63), slice),
    "massless-odd-z-even-na": (2000, 1, 0.0, 0.0, INF, range(64), slice),
    "massless-odd-z-odd-na": (2000, 1, 0.0, 0.0, INF, range(63), slice),
    "massive-odd-z-real": (2000, 3, 0.3, 0.0, 50.0, range(64), slice),
    "massive-odd-z-complex": (2000, 3, 0.3, 0.3183, 50.0, range(64), slice),
    "sparse-even-z": (2000, 2, 0.3, 0.3183, 50.0, _SPARSE, np.ndarray),
    "sparse-massless-odd-z": (2000, 1, 0.0, 0.3183, INF, _SPARSE, np.ndarray),
    "sparse-massive-odd-z": (2000, 3, 0.3, 0.3183, 50.0, _SPARSE, np.ndarray),
}


@pytest.mark.parametrize(
    "n, z, mass, theta, beta, sites, split", SOLVE_ROWS.values(), ids=SOLVE_ROWS
)
def test_every_solve_gives_an_ascending_mirrored_spectrum_and_keeps_the_blocks(
    n, z, mass, theta, beta, sites, split
):
    corr = build_correlation_matrix(LatticeSpec(n, z, mass, 1.0, theta), beta, sites)
    classes = entropy._sublattices(corr.same, corr.cross)
    if split == "diagonal":
        assert entropy._is_diagonal(corr.same) and entropy._is_diagonal(corr.cross)
    elif split is None:
        assert classes is None
    else:
        assert isinstance(classes[0], split) and isinstance(classes[1], split)
    same, cross = corr.same.tobytes(), corr.cross.tobytes()
    eigs = hermitian_eigenvalues(corr)
    assert np.array_equal(eigs, np.sort(eigs))
    # 1/2 - s_j and 1/2 + s_j each round once, so each mirrored pair sums to
    # 1 or to the double below it
    assert set((eigs + eigs[::-1]).tolist()) <= {1.0, 1.0 - 2.0**-53}
    assert corr.same.tobytes() == same and corr.cross.tobytes() == cross


def _hermitian_pair(rng, na, alternating, bipartite):
    """Random Hermitian P and C, with the zeros of the alternating split or
    without; the diagonal of P is 0 where bipartite."""
    same, cross = (rng.normal(size=(na, na)) + 1j * rng.normal(size=(na, na)) for _ in "PC")
    same, cross = same + same.conj().T, cross + cross.conj().T
    if bipartite:
        np.fill_diagonal(same, 0.0)
    if alternating:
        parity = np.arange(na) % 2
        together = parity[:, None] == parity
        same[together if bipartite else ~together] = 0.0
        cross[~together] = 0.0
    return same, cross


def _split_differential_blocks():
    """(same, cross) pairs whose alternating classes drop only zeros, and
    pairs on which they drop a nonzero entry."""
    points = itertools.product((2000, 2001), (1, 2, 3, 4), (0.0, 0.3), (INF, 50.0), (0.0, 0.3183))
    sparse = np.random.default_rng(11).choice(2000, size=24, replace=False)
    for n, z, mass, beta, theta in points:
        corr = build_correlation_matrix(LatticeSpec(n, z, mass, 1.0, theta), beta, range(64))
        yield from ((c.same, c.cross) for c in map(corr._leading, (2, 3, 17, 64)))
        for sites in (sparse, np.sort(sparse), np.arange(1, 41, 2), [0, 2, 1, 3, 5, 4]):
            corr = build_correlation_matrix(LatticeSpec(n, z, mass, 1.0, theta), beta, sites)
            yield corr.same, corr.cross
    # heavy masses and wide blocks: the far entries are round-off, some of
    # it exactly 0, so row 1 (or row 0) misses an even site and the reach
    # test fails
    wide = [(4000, z, mass, INF, 400) for z, mass in
            ((1, 30.0), (1, 1e6), (2, 3.0), (2, 1e3), (3, 1e3), (4, 30.0))]
    wide += [(2000, 3, 0.0, 20.0, 450), (2000, 5, 0.481972, 201.402, 421)]
    for n, z, mass, beta, na in wide:
        corr = build_correlation_matrix(LatticeSpec(n, z, mass), beta, range(na))
        yield corr.same, corr.cross
    rng = np.random.default_rng(2)
    for na, alternating, bipartite in itertools.product((2, 5, 8, 9), *[(True, False)] * 2):
        same, cross = _hermitian_pair(rng, na, alternating, bipartite)
        yield same, cross
        if alternating:
            # one entry that the split drops, on one side only: each of the
            # four strided reads must see it
            dropped = [(0, i, j) for i in (0, 1) for j in (0, 1) if (i == j) == bipartite]
            for which, rows, cols in [*dropped, (1, 0, 1), (1, 1, 0)]:
                tweaked = [same.copy(), cross.copy()]
                view = tweaked[which][rows::2, cols::2]
                view[rng.integers(view.shape[0]), rng.integers(view.shape[1])] = 1e-12
                yield tuple(tweaked)


# The split as two rules that had to agree: the alternating classes where
# site 0 reaches every even site (the reach test) and the entries they drop
# are 0, else the classes grown from site 0.  Kept as the reference for the
# one rule of entropy._sublattices.
def _two_rule_sublattices(same, cross):
    bipartite = not same.diagonal().any()
    if len(same) > 1 and _alternate(same, cross, bipartite):
        return slice(0, None, 2), slice(1, None, 2), bipartite
    p, c = same != 0, cross != 0
    if bipartite:
        first = p[p[0]].any(0) | c[0]
    else:
        joins = p | c
        first = joins[joins[0]].any(0)
    first[0] = True
    together = first[:, None] == first
    if bipartite:
        dropped = (p & together).any() or (c > together).any()
    else:
        dropped = (joins > together).any()
    if first.all() or dropped:
        return None
    if first[::2].all() and not first[1::2].any():
        return slice(0, None, 2), slice(1, None, 2), bipartite
    return np.flatnonzero(first), np.flatnonzero(~first), bipartite


def _alternate(same, cross, bipartite):
    if bipartite:
        reach = same[0, 1] != 0 and same[1, 0::2].all()
        dropped = same[0::2, 0::2], same[1::2, 1::2]
    else:
        reach = (same[0, 0] != 0 or cross[0, 0] != 0) and (
            (same[0, 0::2] != 0) | (cross[0, 0::2] != 0)
        ).all()
        dropped = same[0::2, 1::2], same[1::2, 0::2]
    dropped += cross[0::2, 1::2], cross[1::2, 0::2]
    return bool(reach) and not any(block.any() for block in dropped)


def _alternating_drops_are_zero(same, cross):
    parity = np.arange(len(same)) % 2
    apart = parity[:, None] != parity
    if not same.diagonal().any():
        return not (same[~apart].any() or cross[apart].any())
    return not (same[apart].any() or cross[apart].any())


def test_the_alternating_shortcut_is_the_general_split(monkeypatch):
    blocks = [CorrelationMatrix(s, c) for s, c in _split_differential_blocks()]
    alternating = [_alternating_drops_are_zero(b.same, b.cross) for b in blocks]
    splits = [entropy._sublattices(b.same, b.cross) for b in blocks]
    eigs = [hermitian_eigenvalues(b).tobytes() for b in blocks]
    monkeypatch.setattr(entropy, "_sublattices", _two_rule_sublattices)
    assert eigs == [hermitian_eigenvalues(b).tobytes() for b in blocks]
    # the alternating classes wherever they drop only zeros, index arrays
    # or no split elsewhere
    for block, zero, split in zip(blocks, alternating, splits):
        if zero and len(block.same) > 1:
            assert split[:2] == (slice(0, None, 2), slice(1, None, 2))
        else:
            assert split is None or isinstance(split[0], np.ndarray)
    # both outcomes of the alternating test are exercised, the one rule
    # both splits and refuses the blocks it fails, and the heavy and wide
    # blocks, whose reach test failed, take the alternating classes
    assert sum(alternating) > 100 and len(alternating) - sum(alternating) > 100
    assert None in splits and any(s is not None and isinstance(s[0], np.ndarray) for s in splits)
    unreached = [
        zero and len(b.same) > 1 and not _alternate(b.same, b.cross, not b.same.diagonal().any())
        for b, zero in zip(blocks, alternating)
    ]
    assert sum(unreached) >= 8


@pytest.mark.parametrize("bipartite", [True, False])
def test_alternating_classes_split_where_site_0_does_not_reach_them(bipartite):
    # site 4 joins no site, so site 0 reaches only 2, 6 and 8 in two steps;
    # every entry the even and the odd sites drop is still 0, so they split
    same, cross = _hermitian_pair(np.random.default_rng(9), 9, True, bipartite)
    for block in (same, cross):
        block[4, :] = block[:, 4] = 0.0
    corr = CorrelationMatrix(same, cross)
    assert entropy._sublattices(corr.same, corr.cross) == (
        slice(0, None, 2), slice(1, None, 2), bipartite
    )
    s = np.linalg.svd(corr.same + 1j * corr.cross, compute_uv=False)
    reference = np.concatenate((0.5 - s, 0.5 + s[::-1]))
    assert np.abs(hermitian_eigenvalues(corr) - reference).max() <= 1e-14

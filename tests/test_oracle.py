import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eechain import (
    DegenerateGroundState,
    DuplicateSite,
    InvalidParameter,
    LatticeSpec,
    SiteOutOfRange,
    build_correlation_matrix,
    build_mode_grid,
    entropy_of,
    many_body_state,
    mode_correlators,
    reduced_entropy,
    single_particle_hamiltonian,
)
from eechain import oracle
from eechain.blas import openblas_threads
from eechain.oracle import (
    MAX_SITES,
    _fock_hamiltonian,
    _ground_sector,
    _particle_sectors,
)

INF = math.inf


def test_single_particle_hamiltonian_spectrum():
    # the 2N x 2N one-body matrix has eigenvalues {+/- omega_kappa}; for
    # even N the grid holds the distinct half, each omega twice over all N
    for n, z, theta in [(3, 1, 0.0), (4, 1, 0.0), (6, 3, 0.3183), (5, 2, 0.5)]:
        spec = LatticeSpec(n_sites=n, z_exponent=z, mass=0.5, boundary_phase=theta)
        h = single_particle_hamiltonian(spec)
        assert h.shape == (2 * n, 2 * n)
        assert np.abs(h - h.conj().T).max() < 1e-14
        eigs = np.sort(np.linalg.eigvalsh(h))
        grid = build_mode_grid(spec).frequencies
        omegas = np.tile(grid, n // grid.size)
        np.testing.assert_allclose(eigs, np.sort(np.r_[omegas, -omegas]), atol=1e-13)


def test_site_limit():
    with pytest.raises(ValueError):
        many_body_state(LatticeSpec(n_sites=MAX_SITES + 1, mass=1.0), INF)


def test_degenerate_ground_state_gate():
    # the massless chain has zero modes, so the ground state is ambiguous
    with pytest.raises(DegenerateGroundState):
        many_body_state(LatticeSpec(n_sites=4, z_exponent=1), INF)
    # a mass gap removes the degeneracy
    many_body_state(LatticeSpec(n_sites=4, z_exponent=1, mass=0.5), INF)


def test_pure_state_entropy_symmetry():
    spec = LatticeSpec(n_sites=4, z_exponent=1, mass=0.7)
    state = many_body_state(spec, INF)
    rho = state.rho.toarray()
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.matrix_rank(rho, tol=1e-10) == 1
    s_a = reduced_entropy(state, [0])
    s_b = reduced_entropy(state, [1, 2, 3])
    assert s_a == pytest.approx(s_b, abs=1e-12)


def _non_prefix_subsystems(n):
    """Lists of distinct sites in [0, n) other than [0, 1, ..., k-1]."""
    return st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True).filter(
        lambda sites: sites != list(range(len(sites)))
    )


@settings(max_examples=40, deadline=None)
@given(
    case=st.integers(2, 5).flatmap(
        lambda n: st.tuples(st.just(n), _non_prefix_subsystems(n))
    ),
    z=st.integers(1, 3),
    beta=st.sampled_from([INF, 1.5]),
    theta=st.sampled_from([0.0, 0.35]),
)
@example(case=(4, [1, 3]), z=2, beta=2.0, theta=0.0)
def test_relabeling_invariance(case, z, beta, theta):
    # reduced_entropy moves a subsystem that is not a prefix of the string
    # to its front; it must agree with the correlation-matrix result
    n, sites = case
    spec = LatticeSpec(n_sites=n, z_exponent=z, mass=0.6, boundary_phase=theta)
    s_oracle = reduced_entropy(many_body_state(spec, beta), sites)
    s_corr = entropy_of(spec, beta, sites).entropy
    assert s_oracle == pytest.approx(s_corr, abs=1e-10)


def test_thermal_state_structure():
    spec = LatticeSpec(n_sites=3, z_exponent=1, mass=0.5)
    state = many_body_state(spec, 1.0)
    rho = state.rho.toarray()
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    corr = mode_correlators(state)
    assert np.abs(corr - corr.conj().T).max() < 1e-12
    occ = np.linalg.eigvalsh(corr)
    assert occ.min() > -1e-12 and occ.max() < 1 + 1e-12


@pytest.mark.parametrize("beta", [INF, 5.0, 1.0])
@pytest.mark.parametrize("z", [1, 2, 3])
def test_correlators_match_lattice(z, beta):
    spec = LatticeSpec(n_sites=4, z_exponent=z, mass=1.0)
    state = many_body_state(spec, beta)
    corr = mode_correlators(state)
    fast = build_correlation_matrix(spec, beta, range(4)).entries
    assert np.abs(corr - fast).max() < 1e-10


def test_entropy_matches_lattice_with_twist():
    spec = LatticeSpec(n_sites=4, z_exponent=1, mass=0.8, boundary_phase=0.3)
    state = many_body_state(spec, 2.5)
    s_oracle = reduced_entropy(state, [0, 1])
    s_corr = entropy_of(spec, 2.5, [0, 1]).entropy
    assert s_oracle == pytest.approx(s_corr, abs=1e-8)


def test_maximal_chain_runs():
    spec = LatticeSpec(n_sites=6, z_exponent=1, mass=0.5)
    state = many_body_state(spec, INF)
    assert state.dimension == 2**12
    s = reduced_entropy(state, range(3))
    s_corr = entropy_of(spec, INF, range(3)).entropy
    assert s == pytest.approx(s_corr, abs=1e-8)


def test_oracle_bits_do_not_depend_on_blas_threads():
    # the sector solves and Gibbs products of a library call, not only those
    # of the CLI's oracle-check, run on one BLAS thread
    control = openblas_threads()
    if control is None:
        return
    get, put = control
    saved = get()
    spec = LatticeSpec(n_sites=5, z_exponent=3, mass=0.7, boundary_phase=0.3)
    results = {}
    try:
        for threads in (1, 2):
            put(threads)
            states = [many_body_state(spec, beta) for beta in (1.5, INF)]
            results[threads] = [
                (state.rho.data.tobytes(), reduced_entropy(state, [0, 2]))
                for state in states
            ]
            assert get() == threads
    finally:
        put(saved)
    assert results[1] == results[2]


LARGE = LatticeSpec(n_sites=6, z_exponent=3, mass=0.4, boundary_phase=0.2)


@pytest.fixture(scope="module")
def large_gibbs_state():
    return many_body_state(LARGE, 1.5)


def test_large_gibbs_state_matches_lattice(large_gibbs_state):
    corr = mode_correlators(large_gibbs_state)
    fast = build_correlation_matrix(LARGE, 1.5, range(6)).entries
    assert np.abs(corr - fast).max() < 1e-10


def _occupation_counts(n_modes):
    return np.array([bin(i).count("1") for i in range(2**n_modes)])


def test_state_holds_only_the_sector_blocks(large_gibbs_state):
    # a Gibbs state fills every sector block, sum_k C(12, k)^2 entries at
    # N = 6; a gapped ground state fills exactly one block
    gibbs = large_gibbs_state.rho
    assert sp.issparse(gibbs)
    assert gibbs.nnz == sum(math.comb(12, k) ** 2 for k in range(13)) == 2_704_156
    ground = many_body_state(LatticeSpec(n_sites=4, z_exponent=3, mass=0.4), INF)
    assert sp.issparse(ground.rho)
    entries = ground.rho.tocoo()
    counts = _occupation_counts(8)
    k = counts[entries.row[0]]
    assert np.all(counts[entries.row] == k) and np.all(counts[entries.col] == k)
    assert ground.rho.nnz == math.comb(8, k) ** 2


SUBSYSTEM_ERRORS = {  # at N = 4
    "empty": ([], InvalidParameter),
    "half-site": ([0.5], InvalidParameter),
    "fractional-sites": ([0.9, 1.9], InvalidParameter),
    "repeated": ([1, 1], DuplicateSite),
    "past-n": ([4], SiteOutOfRange),
}


@pytest.mark.parametrize(
    "subsystem, error", SUBSYSTEM_ERRORS.values(), ids=SUBSYSTEM_ERRORS.keys()
)
def test_both_paths_reject_the_same_subsystems(subsystem, error):
    spec = LatticeSpec(n_sites=4, mass=0.5)
    with pytest.raises(error):
        build_correlation_matrix(spec, 2.0, subsystem)
    with pytest.raises(error):
        reduced_entropy(many_body_state(spec, 2.0), subsystem)


def test_oracle_reads_only_the_model_from_lattice():
    # the oracle validates the lattice pipeline, so it may share the model
    # (spec, beta and subsystem checks) but none of its mode grid or
    # correlator code
    tree = ast.parse(Path(oracle.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any("lattice" in alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "lattice":
                names.update(alias.name for alias in node.names)
            else:
                assert not any(alias.name == "lattice" for alias in node.names)
    assert names == {"LatticeSpec", "validate_beta", "validate_subsystem"}


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 4),
    z=st.integers(1, 5),
    mass=st.one_of(st.just(0.0), st.floats(0.05, 2.0)),
    theta=st.one_of(st.just(0.0), st.floats(0.01, 0.99)),
)
def test_fock_hamiltonian_conserves_particle_number(n, z, mass, theta):
    # the sector split rests on this: no entry joins different counts
    spec = LatticeSpec(n_sites=n, z_exponent=z, mass=mass, boundary_phase=theta)
    h = single_particle_hamiltonian(spec)
    h_many = _fock_hamiltonian(h).tocoo()
    counts = _occupation_counts(2 * n)
    assert np.array_equal(counts[h_many.row], counts[h_many.col])
    # h is exactly 0 only where every mode is a node (N = 2, theta = 0,
    # m = 0), and then so is H
    assert (h_many.nnz > 0) == h.any()


def _dense_fock_hamiltonian(h):
    """Reference: sum_{mu,nu} h[mu,nu] c_mu^dag c_nu from dense Kronecker
    products of the Jordan-Wigner factors."""
    n_modes = h.shape[0]
    sigma_z = np.diag([1.0, -1.0])
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    ops = []
    for mu in range(n_modes):
        op = np.ones((1, 1))
        for f in [sigma_z] * mu + [lower] + [np.eye(2)] * (n_modes - mu - 1):
            op = np.kron(op, f)
        ops.append(op)
    return sum(
        h[mu, nu] * ops[mu].T @ ops[nu]
        for mu in range(n_modes)
        for nu in range(n_modes)
    )


@pytest.mark.parametrize(
    "n, z, mass, theta",
    [
        (2, 1, 0.5, 0.0),
        (3, 2, 0.0, 0.3),
        (3, 3, 0.7, 0.0),
        (4, 1, 0.5, 0.25),
        (4, 5, 1.2, 0.0),
    ],
)
def test_sectors_reproduce_dense_fock_diagonalization(n, z, mass, theta):
    spec = LatticeSpec(n_sites=n, z_exponent=z, mass=mass, boundary_phase=theta)
    h = single_particle_hamiltonian(spec)
    dense = _dense_fock_hamiltonian(h)
    h_many = _fock_hamiltonian(h)
    assert np.abs(h_many.toarray() - dense).max() < 1e-14
    sector_spectrum = np.sort(
        np.concatenate(
            [
                np.linalg.eigvalsh(h_many[index][:, index].toarray())
                for index in _particle_sectors(2 * n)
            ]
        )
    )
    energies, states = np.linalg.eigh(dense)
    np.testing.assert_allclose(sector_spectrum, energies, rtol=0, atol=1e-12)
    # the Gibbs state assembled sector by sector is exp(-beta H) / Z
    beta = 1.3
    weights = np.exp(-beta * (energies - energies[0]))
    rho = (states * (weights / weights.sum())) @ states.conj().T
    assert np.abs(many_body_state(spec, beta).rho.toarray() - rho).max() < 1e-12
    if mass > 0:  # a gapped chain has one ground state, found in one sector
        rho = many_body_state(spec, INF).rho.toarray()
        assert np.trace(dense @ rho).real == pytest.approx(energies[0], abs=1e-12)
        psi = states[:, 0]
        assert np.abs(rho - np.outer(psi, psi.conj())).max() < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 5),
    z=st.integers(1, 3),
    mass=st.floats(0.05, 2.0),
    theta=st.sampled_from([0.0, 0.2, 0.5]),
)
def test_ground_sector_holds_the_lowest_energy(n, z, mass, theta):
    # many_body_state solves only this sector for a ground state
    h = single_particle_hamiltonian(
        LatticeSpec(n_sites=n, z_exponent=z, mass=mass, boundary_phase=theta)
    )
    h_many = _fock_hamiltonian(h)
    lowest = [
        np.linalg.eigvalsh(h_many[index][:, index].toarray())[0]
        for index in _particle_sectors(2 * n)
    ]
    assert _ground_sector(h) == np.argmin(lowest)

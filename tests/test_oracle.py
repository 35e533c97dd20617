import ast
import hashlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import NUMPY_VERSION
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eechain import (
    DegenerateGroundState,
    DuplicateSite,
    GroundStateNotFound,
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
from eechain.cli import main
from eechain.oracle import (
    MAX_SITES,
    _ground_sector,
    _ground_vector,
    _hopping_pieces,
    _particle_sectors,
    _sector_hamiltonian,
)

INF = math.inf


def _dense(state):
    """The state's rho as a dense 4^N x 4^N matrix: psi psi^dag from a ground
    state's vector, else from the Gibbs state's sector blocks."""
    rho = np.zeros((state.dimension, state.dimension), dtype=complex)
    for index, values in state.sectors:
        block = np.outer(values, values.conj()) if values.ndim == 1 else values
        rho[np.ix_(index, index)] = block
    return rho


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
    rho = _dense(state)
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.matrix_rank(rho, tol=1e-10) == 1
    s_a = reduced_entropy(state, [0])
    s_b = reduced_entropy(state, [1, 2, 3])
    assert s_a == pytest.approx(s_b, abs=1e-12)


def test_pure_subsystem_entropy_is_positive_zero():
    # one site of a pure two-site chain keeps a single eigenvalue, exactly 1:
    # -sum(1 * ln 1) alone would be -0.0, which prints as "-0"
    state = many_body_state(LatticeSpec(2, 1, 1.0), INF)
    assert math.copysign(1.0, reduced_entropy(state, [0])) == 1.0


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
    rho = _dense(state)
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


@pytest.mark.xfail(
    strict=True,
    reason="the zero-mode limit: on a massless chain with exact nodes, "
    "round-off splits the degenerate many-body levels the zero modes create, "
    "and exp(-beta dE) resolves the split; the error grows as about 5.6e-17 beta",
)
def test_massless_correlators_match_lattice_at_large_beta():
    spec = LatticeSpec(n_sites=4, z_exponent=2, mass=0.0)
    corr = mode_correlators(many_body_state(spec, 1e8))
    fast = build_correlation_matrix(spec, 1e8, range(4)).entries
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
    # of the CLI's oracle-check, run on one BLAS thread; so do the Lanczos
    # GEMVs, largest on the 924 states of the N = 6 ground sector
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
            states.append(many_body_state(LARGE, INF))
            results[threads] = [
                (
                    [block.tobytes() for _, block in state.sectors],
                    reduced_entropy(state, [0, 2]),
                )
                for state in states
            ]
            assert get() == threads
    finally:
        put(saved)
    assert results[1] == results[2]



# SHA-256 of mode_correlators' bytes and float.hex of reduced_entropy on a
# prefix and a non-prefix subsystem, at N = 5, z = 3, m = 0.7, theta = 0.3.
# A Gibbs state's partial trace adds entries of several sectors into one
# rho_A entry, so its entropies also pin the order of that sum.  The ground
# state's pins are those of its Lanczos vector and its Schmidt values.
ORACLE_PINS = {
    1.5: (
        "7a46c9634bcb31df9937bc339aa69a9f50e54f13a44dab8b6b9d55744c90dd39",
        {(0, 1): "0x1.1b56add5711f8p+1", (1, 3): "0x1.293e70c26c854p+1"},
    ),
    INF: (
        "7e079f92714079df696788fd02ee65b6645652ecd3eb992397f9d95c72331ce9",
        {(0, 1): "0x1.6aa770583816ep-1", (1, 3): "0x1.0658a99ce47d5p+0"},
    ),
}


@pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"oracle bits were pinned under numpy {NUMPY_VERSION}",
)
@pytest.mark.parametrize("beta", ORACLE_PINS)
def test_oracle_bits_unchanged(beta):
    spec = LatticeSpec(n_sites=5, z_exponent=3, mass=0.7, boundary_phase=0.3)
    state = many_body_state(spec, beta)
    digest, entropies = ORACLE_PINS[beta]
    assert hashlib.sha256(mode_correlators(state).tobytes()).hexdigest() == digest
    for sites, pinned in entropies.items():
        assert reduced_entropy(state, sites).hex() == pinned

LARGE = LatticeSpec(n_sites=6, z_exponent=3, mass=0.4, boundary_phase=0.2)


@pytest.fixture(scope="module")
def large_gibbs_state():
    return many_body_state(LARGE, 1.5)


def test_large_gibbs_state_matches_lattice(large_gibbs_state):
    corr = mode_correlators(large_gibbs_state)
    fast = build_correlation_matrix(LARGE, 1.5, range(6)).entries
    assert np.abs(corr - fast).max() < 1e-10


def test_state_holds_only_the_sector_blocks(large_gibbs_state):
    # a Gibbs state holds every sector block, sum_k C(12, k)^2 entries at
    # N = 6, each over the ascending Fock indices of k particles; a gapped
    # ground state holds exactly one sector, as its unit vector
    sectors = large_gibbs_state.sectors
    assert [index.size for index, _ in sectors] == [math.comb(12, k) for k in range(13)]
    for k, (index, block) in enumerate(sectors):
        assert np.all(np.bitwise_count(index) == k) and np.all(np.diff(index) > 0)
        assert block.shape == (index.size, index.size)
    assert sum(block.size for _, block in sectors) == 2_704_156
    ground = many_body_state(LatticeSpec(n_sites=4, z_exponent=3, mass=0.4), INF)
    [(index, psi)] = ground.sectors
    k = np.bitwise_count(index[0])
    assert np.all(np.bitwise_count(index) == k) and index.size == math.comb(8, k)
    assert psi.shape == (index.size,)
    assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-14)


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


def _dense_annihilators(n_modes):
    """Reference: c_mu = Z^(mu) (x) lower (x) I^(rest) as dense matrices."""
    sigma_z = np.diag([1.0, -1.0])
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    ops = []
    for mu in range(n_modes):
        op = np.ones((1, 1))
        for f in [sigma_z] * mu + [lower] + [np.eye(2)] * (n_modes - mu - 1):
            op = np.kron(op, f)
        ops.append(op)
    return ops


def test_fock_hamiltonian_conserves_particle_number():
    # the sector split rests on this: no c_mu^dag c_nu joins different
    # counts.  Each pair's pieces are the nonzeros of the dense operator in
    # ascending row, the order the oracle's sums keep.
    for n_modes in (2, 4, 6, 8):
        pair, row, col, sign = _hopping_pieces(n_modes)
        assert np.array_equal(np.bitwise_count(row), np.bitwise_count(col))
        assert np.all(np.diff(pair) >= 0)
        ops = _dense_annihilators(n_modes)
        for mu, nu in itertools.product(range(n_modes), repeat=2):
            hop = ops[mu].T @ ops[nu]
            rows, cols = np.nonzero(hop)
            piece = pair == mu * n_modes + nu
            assert np.array_equal(row[piece], rows) and np.array_equal(col[piece], cols)
            assert np.array_equal(sign[piece], hop[rows, cols])


def _dense_fock_hamiltonian(h):
    """Reference: sum_{mu,nu} h[mu,nu] c_mu^dag c_nu from dense Kronecker
    products of the Jordan-Wigner factors."""
    n_modes = h.shape[0]
    ops = _dense_annihilators(n_modes)
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
    blocks = [_sector_hamiltonian(h, k) for k in range(2 * n + 1)]
    h_many = np.zeros_like(dense)
    for index, block in zip(_particle_sectors(2 * n), blocks):
        h_many[np.ix_(index, index)] = block
    assert np.abs(h_many - dense).max() < 1e-14
    sector_spectrum = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
    energies, states = np.linalg.eigh(dense)
    np.testing.assert_allclose(sector_spectrum, energies, rtol=0, atol=1e-12)
    # the Gibbs state assembled sector by sector is exp(-beta H) / Z
    beta = 1.3
    weights = np.exp(-beta * (energies - energies[0]))
    rho = (states * (weights / weights.sum())) @ states.conj().T
    assert np.abs(_dense(many_body_state(spec, beta)) - rho).max() < 1e-12
    if mass > 0:  # a gapped chain has one ground state, found in one sector
        [(index, values)] = many_body_state(spec, INF).sectors
        psi = np.zeros(dense.shape[0], dtype=complex)
        psi[index] = values
        assert np.vdot(psi, dense @ psi).real == pytest.approx(energies[0], abs=1e-12)
        rho = np.outer(states[:, 0], states[:, 0].conj())
        assert np.abs(np.outer(psi, psi.conj()) - rho).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 5),
    z=st.integers(1, 3),
    mass=st.floats(0.05, 2.0),
    theta=st.sampled_from([0.0, 0.2, 0.5]),
)
def test_ground_sector_holds_the_lowest_energy(n, z, mass, theta):
    # many_body_state solves only this sector for a ground state, and checks
    # its Lanczos energy against the energy and ||H|| found here
    h = single_particle_hamiltonian(
        LatticeSpec(n_sites=n, z_exponent=z, mass=mass, boundary_phase=theta)
    )
    spectra = [np.linalg.eigvalsh(_sector_hamiltonian(h, k)) for k in range(2 * n + 1)]
    count, energy, norm = _ground_sector(h)
    assert count == np.argmin([levels[0] for levels in spectra])
    assert energy == pytest.approx(spectra[count][0], abs=1e-12 * norm)
    assert norm == pytest.approx(max(np.abs(levels).max() for levels in spectra), abs=1e-12 * norm)


# N = 2-5 over every z, theta and mass; N = 6 (924 states a sector) on three
# of them, the small gap and translation-invariant theta = 0 among them
REFERENCE_CASES = [
    *itertools.product(range(2, 6), (1, 2, 3), (0.0, 0.2, 0.5), (0.05, 0.7, 1.5)),
    (6, 1, 0.0, 0.05),
    (6, 2, 0.5, 0.7),
    (6, 3, 0.2, 1.5),
]


@pytest.mark.parametrize("n, z, theta, mass", REFERENCE_CASES)
def test_ground_state_is_the_lowest_vector_of_its_sector(n, z, theta, mass):
    # psi psi^dag of the Lanczos ground state against the lowest vector of a
    # dense eigh of the same sector block; m = 0.05 leaves a gap of 0.1
    spec = LatticeSpec(n_sites=n, z_exponent=z, mass=mass, boundary_phase=theta)
    h = single_particle_hamiltonian(spec)
    count = _ground_sector(h)[0]
    _, states = np.linalg.eigh(_sector_hamiltonian(h, count))
    [(index, psi)] = many_body_state(spec, INF).sectors
    assert np.array_equal(index, _particle_sectors(2 * n)[count])
    expected = np.outer(states[:, 0], states[:, 0].conj())
    assert np.abs(np.outer(psi, psi.conj()) - expected).max() < 1e-12


def test_lanczos_is_exact_after_dim_steps():
    # levels 10 i^2 / dim^2 crowd at the bottom of a wide spectrum, so the
    # residual stays above the stop until the Krylov space is the whole
    # block; reorthogonalized, it is then exact (a three-term recurrence
    # alone ends 1e-4 off the lowest level)
    dim = 40
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    levels = 10.0 * np.arange(dim) ** 2 / dim**2
    psi = _ground_vector((q * levels) @ q.conj().T, 0.0, 10.0)
    expected = np.outer(q[:, 0], q[:, 0].conj())
    assert np.abs(np.outer(psi, psi.conj()) - expected).max() < 1e-12


def test_a_start_orthogonal_to_the_ground_state_raises(monkeypatch, capsys):
    # Lanczos from an excited level of the sector stays on it, so its Ritz
    # value is that level's energy: a typed error, never an excited state
    spec = LatticeSpec(n_sites=4, z_exponent=1, mass=0.7)
    h = single_particle_hamiltonian(spec)
    _, states = np.linalg.eigh(_sector_hamiltonian(h, _ground_sector(h)[0]))
    monkeypatch.setattr(oracle, "_start_vector", lambda dim: states[:, 1])
    with pytest.raises(GroundStateNotFound):
        many_body_state(spec, INF)
    assert main(["oracle-check", "--n", "4", "--na", "2", "--z", "1", "--mass", "0.7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("eechain: GroundStateNotFound: Lanczos ended at energy ")

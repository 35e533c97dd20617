"""Brute-force many-body cross-check at tiny system sizes.

Works in the 4^N-dimensional Fock space of the 2N fermionic modes
(site-major, chirality-minor Jordan-Wigner ordering), where c_mu^dag c_nu
acts on Fock indices by bit arithmetic.  The quadratic Hamiltonian has no
pairing terms, so it conserves particle number, and each particle-number
sector (at most C(2N, N) states) is built on its own.  A ground state
builds only its own sector and takes its lowest vector by Lanczos; it is
held as that vector psi, and the entropy of a subsystem comes from the
Schmidt values of psi.  A Gibbs state diagonalizes every sector densely
and is held as the sector blocks of rho; its reduced density matrices
follow by partial trace.  All of it is independent of the
correlation-matrix pipeline, which it exists to validate.

Every state is held in the natural site order.  A partial trace or a
Schmidt decomposition reads each entry of rho or psi in the order that
puts the subsystem at the front of the Jordan-Wigner string; kept-mode
operators then act trivially on the traced factor and the spin-basis
partial trace is the fermionic one, signs included.  Reordering permutes
the bits of each Fock index and multiplies by the sign of the permutation
restricted to the occupied modes, since a basis state is the product of
its creation operators in string order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .blas import one_blas_thread
from .errors import DegenerateGroundState, GroundStateNotFound, InvalidParameter
from .lattice import LatticeSpec, validate_beta, validate_subsystem

# Fock dimension 4^6 = 4096, largest sector C(12, 6) = 924: a ground state's
# vector, or the 2.7M entries of the Gibbs sector blocks.  At 7 sites those
# blocks would hold C(28, 14) = 40.1M entries, 642 MB of complex values,
# against 4.3 GB for a dense 4^7 x 4^7 rho.
MAX_SITES = 6
DEGENERACY_TOL = 1e-12
# relative to ||H||: where Lanczos stops, and how far its Ritz value may lie
# from the ground energy
LANCZOS_TOL = 1e-14
GROUND_ENERGY_TOL = 1e-12


@dataclass(frozen=True)
class FockState:
    """Exact many-body state plus the context needed to rebuild it.

    sectors holds the state as (index, values) pairs over _particle_sectors
    entries.  A ground state (beta = inf) is one pair whose values are its
    vector, psi[i] = <index[i]|psi>, so rho = psi psi^dag.  A Gibbs state is
    one pair per occupation count whose values are rho's block,
    block[i, j] = <index[i]|rho|index[j]>.  The state is 0 elsewhere.
    """

    spec: LatticeSpec
    beta: float
    sectors: tuple

    @property
    def dimension(self):
        return 4**self.spec.n_sites


def single_particle_hamiltonian(spec: LatticeSpec):
    """Position-space 2N x 2N Hermitian matrix, index (site, chirality).

    With U the twisted shift, U[i, i+1] = 1 and U[N-1, 0] = e^{2i pi theta},
    K = (U - U^dag)/(2i eps) is the lattice momentum, whose eigenvalues are
    keff = sin(k eps)/eps on the mode grid, and

        h = -(-K)^z (x) sigma3 + m 1 (x) sigma1.

    Built in real space, so it shares nothing with the lattice mode grid.
    Spectrum is {+/- omega_kappa}.
    """
    n, z, m = spec.n_sites, spec.z_exponent, spec.mass
    shift = np.eye(n, k=1, dtype=complex)
    shift[n - 1, 0] = np.exp(2j * np.pi * spec.boundary_phase)
    momentum = (shift - shift.conj().T) / (2j * spec.spacing)
    dispersion = np.linalg.matrix_power(-momentum, z)
    return -np.kron(dispersion, np.diag([1.0, -1.0])) + m * np.kron(
        np.eye(n), np.array([[0.0, 1.0], [1.0, 0.0]])
    )


def _read_only(arrays):
    """The arrays as a tuple, locked: cached results are shared by every caller."""
    arrays = tuple(arrays)
    for a in arrays:
        a.flags.writeable = False
    return arrays


# The caches below are keyed by the mode count 2N <= 2 * MAX_SITES.
@functools.cache
def _hopping_pieces(n_modes):
    """Nonzeros of every c_mu^dag c_nu as flat (pair, row, col, sign) arrays.

    pair = mu * n_modes + nu ascends.  Mode mu is bit n_modes - 1 - mu, and
    c_mu = Z^(mu) (x) lower (x) I: c_nu takes col (bit nu set) to mid, then
    c_mu^dag mid (bit mu clear) to row = col - bit nu + bit mu, which rises
    with col; each signs by the occupied modes ahead of it in the string.
    """
    index = np.arange(2**n_modes)
    bit = 1 << (n_modes - 1 - np.arange(n_modes))
    ahead = index[-1] ^ (2 * bit - 1)  # modes 0..mu-1, the bits above bit mu
    parts = []
    for mu, nu in itertools.product(range(n_modes), repeat=2):
        col = index[((index & bit[nu]) != 0) & (((index ^ bit[nu]) & bit[mu]) == 0)]
        mid = col ^ bit[nu]
        flips = np.bitwise_count(col & ahead[nu]) + np.bitwise_count(mid & ahead[mu])
        pair = np.full(col.size, mu * n_modes + nu)
        parts.append((pair, mid | bit[mu], col, 1.0 - 2.0 * (flips & 1)))
    return _read_only(np.concatenate(column) for column in zip(*parts))


@functools.cache
def _particle_sectors(n_modes):
    """Fock indices grouped by occupation count, the popcount of the index."""
    count = np.bitwise_count(np.arange(2**n_modes))
    return _read_only(np.flatnonzero(count == k) for k in range(n_modes + 1))


@functools.cache
def _sector_rank(n_modes):
    """Each Fock index's position in its sector of _particle_sectors."""
    rank = np.empty(2**n_modes, dtype=np.intp)
    for index in _particle_sectors(n_modes):
        rank[index] = np.arange(index.size)
    return _read_only([rank])[0]


def _sector_hamiltonian(h, k):
    """Dense sum_{mu,nu} h[mu,nu] c_mu^dag c_nu on _particle_sectors(2N)[k].

    Entries add in pair order: a diagonal entry sums h[mu,mu] by ascending mu.
    """
    pair, row, col, sign = _hopping_pieces(h.shape[0])
    rank, inside = _sector_rank(h.shape[0]), np.bitwise_count(row) == k
    block = np.zeros((math.comb(h.shape[0], k),) * 2, dtype=complex)
    position = (rank[row[inside]], rank[col[inside]])
    np.add.at(block, position, h.ravel()[pair[inside]] * sign[inside])
    return block


def _fock_relabeling(site_order):
    """(index, sign) of every natural Fock basis state in another site order.

    Natural basis state k is sign[k] times basis state index[k] of the
    Jordan-Wigner string in site_order.  A basis state is prod c_mu^dag |0>
    in string order, so moving to another order permutes its occupation
    bits and reorders its creation operators: the sign is
    (-1)^(number of occupied mode pairs whose order flips).
    """
    n_modes = 2 * len(site_order)
    # position[mu]: string position of natural mode mu (index 2*site + chirality)
    position = np.argsort([2 * site + s for site in site_order for s in (0, 1)])
    shifts = n_modes - 1 - np.arange(n_modes)  # position j is bit shifts[j]
    bits = (np.arange(2**n_modes)[:, None] >> shifts) & 1
    index = (bits << shifts[position]).sum(axis=1)
    flips = np.zeros(2**n_modes, dtype=np.int64)
    for mu, nu in itertools.combinations(range(n_modes), 2):
        if position[mu] > position[nu]:
            flips += bits[:, mu] & bits[:, nu]
    return index, 1.0 - 2.0 * (flips & 1)


def _ground_sector(h):
    """(particle number, energy, ||H||) of the many-body ground state of h.

    The ground state of a quadratic H fills exactly the single-particle
    modes of negative energy, so its number is their count and its energy
    their sum.  The highest level fills the positive ones, so ||H|| is the
    larger magnitude of the two sums.  A zero energy (to DEGENERACY_TOL)
    leaves the ground state degenerate and raises DegenerateGroundState.
    """
    single_eigs = np.linalg.eigvalsh(h)
    if np.min(np.abs(single_eigs)) < DEGENERACY_TOL:
        raise DegenerateGroundState(
            "zero single-particle eigenvalue at beta=inf; use finite beta or mass > 0"
        )
    negative = single_eigs < 0
    energy, highest = float(single_eigs[negative].sum()), float(single_eigs[~negative].sum())
    return int(np.count_nonzero(negative)), energy, max(-energy, highest)


def _start_vector(dim):
    """Lanczos's start: the centred fractional parts of j phi and j sqrt(2),
    j = 1 .. dim, as real and imaginary parts (phi the golden ratio).

    These Weyl sequences follow no symmetry of H (translation at theta = 0,
    for one), so the Krylov space is not held in a subspace without the
    ground state.  Over N = 2-5, z = 1-5, four twists and three masses the
    ground state's weight in the start was at least 0.069 / dim.  (numpy's
    seeded generators would do too, but importing numpy.random costs 6 MB.)
    """
    j = np.arange(1, dim + 1)
    return (j * (1 + 5**0.5) / 2) % 1 - 0.5 + 1j * ((j * 2**0.5) % 1 - 0.5)


def _ground_vector(block, energy, norm):
    """The lowest eigenvector of a Hermitian sector block, by Lanczos.

    Each step takes w = H v_j off every earlier vector in two classical
    Gram-Schmidt passes (full reorthogonalization; they also take off
    alpha_j v_j and beta_j v_{j-1}).  It stops when the lowest Ritz pair's
    residual beta_{j+1} |s_j| is at most LANCZOS_TOL * norm, or after dim
    steps, where the Krylov space is the whole sector (C. Lanczos, J. Res.
    Nat. Bur. Stand. 45, 255, 1950; B. N. Parlett, The Symmetric Eigenvalue
    Problem, ch. 13).  A Ritz value more than GROUND_ENERGY_TOL * norm from
    the ground energy is an excited state and raises GroundStateNotFound.
    """
    dim = block.shape[0]
    basis = np.empty((dim, dim), dtype=complex)  # row j is v_j
    tridiagonal = np.zeros((dim, dim))
    # on one BLAS thread, so that psi's bits do not depend on the core count
    with one_blas_thread():
        start = _start_vector(dim)
        basis[0] = start / np.linalg.norm(start)
        for j in range(dim):
            w = block @ basis[j]
            tridiagonal[j, j] = np.vdot(basis[j], w).real
            for _ in range(2):
                w -= (basis[: j + 1] @ w.conj()).conj() @ basis[: j + 1]
            b = np.linalg.norm(w)
            ritz, vectors = np.linalg.eigh(tridiagonal[: j + 1, : j + 1])
            if b * abs(vectors[j, 0]) <= LANCZOS_TOL * norm or j + 1 == dim:
                break
            tridiagonal[j, j + 1] = tridiagonal[j + 1, j] = b
            basis[j + 1] = w / b
        psi = vectors[:, 0] @ basis[: j + 1]
        psi /= np.linalg.norm(psi)
    if abs(ritz[0] - energy) > GROUND_ENERGY_TOL * norm:
        raise GroundStateNotFound(
            f"Lanczos ended at energy {ritz[0]!r} after {j + 1} steps, "
            f"not at the ground energy {energy!r}"
        )
    return psi


def many_body_state(spec: LatticeSpec, beta) -> FockState:
    """Exact ground state (beta = inf) or Gibbs density matrix.

    A ground state builds only its own particle-number sector (see
    _ground_sector) and takes its lowest vector by Lanczos; a Gibbs state
    builds and diagonalizes every sector.
    """
    beta = validate_beta(beta)
    n = spec.n_sites
    if n > MAX_SITES:
        raise InvalidParameter(f"oracle supports at most {MAX_SITES} sites, got {n}")

    h = single_particle_hamiltonian(spec)
    # H conserves particle number, so it is block-diagonal by occupation count
    if math.isinf(beta):
        count, energy, norm = _ground_sector(h)
        psi = _ground_vector(_sector_hamiltonian(h, count), energy, norm)
        return FockState(spec=spec, beta=beta, sectors=((_particle_sectors(2 * n)[count], psi),))
    blocks = [_sector_hamiltonian(h, k) for k in range(2 * n + 1)]
    # the sector solves and products on one BLAS thread, so that rho's bits
    # do not depend on the core count (see eechain.blas)
    with one_blas_thread():
        spectra = [np.linalg.eigh(block) for block in blocks]
        ground = min(energies[0] for energies, _ in spectra)
        with np.errstate(over="ignore"):  # exp(-inf) = 0 is the limit
            weights = [np.exp(-beta * (energies - ground)) for energies, _ in spectra]
        partition = sum(w.sum() for w in weights)
        blocks = [
            (states * (w / partition)) @ states.conj().T
            for (_, states), w in zip(spectra, weights)
        ]
    return FockState(spec=spec, beta=beta, sectors=tuple(zip(_particle_sectors(2 * n), blocks)))


def mode_correlators(state: FockState):
    """<c_mu^dag c_nu> over all mode pairs, mu = 2*site + chirality.

    Comparable entrywise with build_correlation_matrix over the full
    system (same (site, chirality) indexing).
    """
    n_modes = 2 * state.spec.n_sites
    pair, row, col, sign = _hopping_pieces(n_modes)
    rank, count = _sector_rank(n_modes), np.bitwise_count(row)
    # Tr(c_mu^dag c_nu rho) = sum of sign * rho[col, row] over the pair's
    # nonzeros; row and col share a sector, and rho is 0 outside its blocks.
    # A ground state's rho[col, row] is psi[col] conj(psi[row]).
    terms = np.zeros(pair.size, dtype=complex)
    for index, values in state.sectors:
        inside = np.flatnonzero(count == np.bitwise_count(index[0]))
        i, j = rank[col[inside]], rank[row[inside]]
        held = values[i] * values[j].conj() if math.isinf(state.beta) else values[i, j]
        terms[inside] = sign[inside] * held
    return (
        np.bincount(pair, terms.real, n_modes**2)
        + 1j * np.bincount(pair, terms.imag, n_modes**2)
    ).reshape(n_modes, n_modes)


def reduced_entropy(state: FockState, subsystem):
    """Von Neumann entropy of a site subsystem of the exact state.

    The subsystem follows lattice.validate_subsystem, as in
    lattice.build_correlation_matrix.  A ground state's entropy comes from
    the singular values of psi as a (subsystem states x rest states)
    matrix, its Schmidt decomposition, whose cost is set by the smaller
    side; a Gibbs state's from the eigenvalues of its partial trace.
    """
    n = state.spec.n_sites
    sites = validate_subsystem(subsystem, n)
    rest = [s for s in range(n) if s not in sites]
    # each natural Fock index as (A state, B state) of the string that
    # starts with the subsystem, and its sign there
    index, sign = _fock_relabeling((*sites, *rest))
    dim_a = 4 ** len(sites)
    dim_b = state.dimension // dim_a
    a, b = np.divmod(index, dim_b)
    if math.isinf(state.beta):
        [(fock, psi)] = state.sectors
        schmidt = np.zeros((dim_a, dim_b), dtype=complex)
        schmidt[a[fock], b[fock]] = sign[fock] * psi
        with one_blas_thread():
            lam = np.linalg.svd(schmidt, compute_uv=False) ** 2
    else:
        # Tr_B keeps the entries whose B states agree.  Taken by ascending
        # row (the rest keeps its natural order, so the rows of one A state
        # come in ascending B state), each rho_A entry is summed in that order.
        kept = []
        for fock, block in state.sectors:
            i, j = np.nonzero(b[fock][:, None] == b[fock])
            kept.append((fock[i], fock[j], block[i, j]))
        row, col, value = (np.concatenate(column) for column in zip(*kept))
        order = np.argsort(row, kind="stable")
        row, col, value = row[order], col[order], value[order]
        rho_a = np.zeros(dim_a**2, dtype=complex)
        np.add.at(rho_a, a[row] * dim_a + a[col], sign[row] * sign[col] * value)
        with one_blas_thread():
            lam = np.linalg.eigvalsh(rho_a.reshape(dim_a, dim_a))
    lam = np.clip(lam, 0.0, 1.0)
    lam = lam[lam > 1e-14]
    return float(-np.sum(lam * np.log(lam))) + 0.0  # a pure state gives +0.0, not -0.0

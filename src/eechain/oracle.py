"""Brute-force many-body cross-check at tiny system sizes.

Builds the 4^N-dimensional Fock space of the 2N fermionic modes
(site-major, chirality-minor Jordan-Wigner ordering) and the quadratic
Hamiltonian on it as one sparse matrix.  That Hamiltonian has no pairing
terms, so it conserves particle number and is block-diagonal by occupation
count; each particle-number sector (at most C(2N, N) states) is
diagonalized densely, and the exact ground or Gibbs state is one sparse
density matrix made of sector blocks.  Entropies of reduced density
matrices follow by partial trace.  All of it is independent of the
correlation-matrix pipeline, which it exists to validate.

Partial traces are taken in the occupation basis after relabeling sites so
the subsystem is a prefix of the Jordan-Wigner string; kept-mode operators
then act trivially on the traced factor and the spin-basis partial trace
is the fermionic one, signs included.  Relabeling permutes the bits of
each Fock index and multiplies by the sign of the permutation restricted
to the occupied modes, since a basis state is the product of its creation
operators in string order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateGroundState, InvalidParameter
from .lattice import LatticeSpec, build_mode_grid, validate_beta

# Fock dimension 4^6 = 4096, largest sector C(12, 6) = 924.  At 7 sites the
# sparse Gibbs rho would hold C(28, 14) = 40.1M entries, 642 MB of complex
# values, against 4.3 GB for a dense 4^7 x 4^7 rho.
MAX_SITES = 6
DEGENERACY_TOL = 1e-12

_SIGMA_Z_DIAG = np.array([1.0, -1.0])
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])  # <empty|c|occupied> = 1


@dataclass(frozen=True)
class FockState:
    """Exact many-body density matrix plus the context needed to rebuild it.

    rho is a sparse CSR matrix holding exactly its particle-number sector
    blocks: one for a ground state, all of them for a Gibbs state.
    site_order records the Jordan-Wigner site ordering it was built in.
    """

    spec: LatticeSpec
    beta: float
    site_order: tuple
    rho: sp.csr_matrix

    @property
    def dimension(self):
        return 4**self.spec.n_sites


def single_particle_hamiltonian(spec: LatticeSpec):
    """Position-space 2N x 2N Hermitian matrix, index (site, chirality).

    Fourier transform of h(k) = -(-keff)^z sigma3 + m sigma1 over the mode
    grid: h[(i,s),(j,s')] = (1/N) sum_kappa e^{i k_kappa (i-j) eps} h(k)_ss'.
    Spectrum is {+/- omega_kappa}.
    """
    n, z, m = spec.n_sites, spec.z_exponent, spec.mass
    grid = build_mode_grid(spec)
    sites = np.arange(n)
    # phase[kappa, i, j] = e^{i k (i - j) eps}
    diff = (sites[:, None] - sites[None, :]) * spec.spacing
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    for kappa in range(n):
        hk = np.array(
            [
                [-((-grid.effective_momenta[kappa]) ** z), m],
                [m, (-grid.effective_momenta[kappa]) ** z],
            ],
            dtype=complex,
        )
        phase = np.exp(1j * grid.momenta[kappa] * diff)
        h += np.kron(phase, hk)
    return h / n


def _jordan_wigner_ops(n_modes):
    """Sparse annihilators c_mu = Z^(mu) (x) lower (x) I^(rest)."""
    ops = []
    string = np.ones(1)  # diagonal of Z^(mu)
    for mu in range(n_modes):
        op = sp.kron(sp.diags(string), _LOWER)
        ops.append(sp.kron(op, sp.identity(2 ** (n_modes - mu - 1)), format="csr"))
        string = np.kron(string, _SIGMA_Z_DIAG)
    return ops


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

    pair = mu * n_modes + nu; each sign is +/-1 (the Jordan-Wigner string).
    """
    ops = _jordan_wigner_ops(n_modes)
    parts = []
    for mu, nu in itertools.product(range(n_modes), repeat=2):
        piece = (ops[mu].T @ ops[nu]).tocoo()
        pair = np.full(piece.nnz, mu * n_modes + nu)
        parts.append((pair, piece.row, piece.col, piece.data))
    return _read_only(np.concatenate(column) for column in zip(*parts))


@functools.cache
def _particle_sectors(n_modes):
    """Fock indices grouped by occupation count, the popcount of the index."""
    index = np.arange(2**n_modes)
    count = ((index[:, None] >> np.arange(n_modes)) & 1).sum(axis=1)
    return _read_only(np.flatnonzero(count == k) for k in range(n_modes + 1))


def _fock_hamiltonian(h):
    """Sparse sum_{mu,nu} h[mu,nu] c_mu^dag c_nu, in one COO -> CSR assembly."""
    n_modes = h.shape[0]
    pair, row, col, sign = _hopping_pieces(n_modes)
    data = h.ravel()[pair] * sign
    keep = data != 0
    dim = 2**n_modes
    return sp.coo_matrix(
        (data[keep], (row[keep], col[keep])), shape=(dim, dim)
    ).tocsr()


def _mode_permutation(site_order, n):
    """Mode indices (2i+s) listed in the given site order."""
    modes = []
    for site in site_order:
        modes.extend((2 * site, 2 * site + 1))
    assert len(modes) == 2 * n
    return modes


def _fock_relabeling(old_order, new_order):
    """(index, sign) with new amplitude i = sign[i] * old amplitude index[i].

    Both orders are site orders of the Jordan-Wigner string.  A basis state
    is prod c_mu^dag |0> in string order, so moving to another order
    permutes its occupation bits and reorders its creation operators: the
    sign is (-1)^(number of occupied mode pairs whose order flips).
    """
    n = len(old_order)
    n_modes = 2 * n
    old_position = {mode: j for j, mode in enumerate(_mode_permutation(old_order, n))}
    # source[j]: old string position of the mode at new position j
    source = np.array([old_position[mu] for mu in _mode_permutation(new_order, n)])
    shifts = n_modes - 1 - np.arange(n_modes)  # position j is bit shifts[j]
    bits = (np.arange(2**n_modes)[:, None] >> shifts) & 1
    index = (bits << shifts[source]).sum(axis=1)
    flips = np.zeros(2**n_modes, dtype=np.int64)
    for j, k in itertools.combinations(range(n_modes), 2):
        if source[j] > source[k]:
            flips += bits[:, j] & bits[:, k]
    return index, 1.0 - 2.0 * (flips & 1)


def _relabeled(state: FockState, site_order) -> FockState:
    """The same physical state, in the occupation basis of another site order."""
    index, sign = _fock_relabeling(state.site_order, site_order)
    signs = sp.diags(sign)
    rho = signs @ state.rho[index][:, index] @ signs
    return FockState(spec=state.spec, beta=state.beta, site_order=site_order, rho=rho)


def many_body_state(spec: LatticeSpec, beta, site_order=None) -> FockState:
    """Exact ground state (beta = inf) or Gibbs density matrix.

    site_order permutes the Jordan-Wigner string (default: natural order);
    the physical state is the same, only the occupation-basis labeling
    changes.  reduced_entropy brings a subsystem to the front of an
    existing state by relabeling it instead (see _relabeled).
    """
    beta = validate_beta(beta)
    n = spec.n_sites
    if n > MAX_SITES:
        raise InvalidParameter(f"oracle supports at most {MAX_SITES} sites, got {n}")
    if site_order is None:
        site_order = tuple(range(n))
    site_order = tuple(site_order)
    if sorted(site_order) != list(range(n)):
        raise InvalidParameter(f"site_order must permute 0..{n-1}, got {site_order}")

    h = single_particle_hamiltonian(spec)
    if math.isinf(beta):
        single_eigs = np.linalg.eigvalsh(h)
        if np.min(np.abs(single_eigs)) < DEGENERACY_TOL:
            raise DegenerateGroundState(
                "zero single-particle eigenvalue at beta=inf; "
                "use finite beta or mass > 0"
            )

    perm = _mode_permutation(site_order, n)
    h_many = _fock_hamiltonian(h[np.ix_(perm, perm)])
    # H conserves particle number, so it is block-diagonal by occupation count
    sectors = _particle_sectors(2 * n)
    blocks = [h_many[index][:, index].toarray() for index in sectors]
    if math.isinf(beta):
        lowest = [np.linalg.eigvalsh(block)[0] for block in blocks]
        k = int(np.argmin(lowest))
        psi = np.linalg.eigh(blocks[k])[1][:, 0]
        sectors, blocks = [sectors[k]], [np.outer(psi, psi.conj())]
    else:
        spectra = [np.linalg.eigh(block) for block in blocks]
        ground = min(energies[0] for energies, _ in spectra)
        weights = [np.exp(-beta * (energies - ground)) for energies, _ in spectra]
        partition = sum(w.sum() for w in weights)
        blocks = [
            (states * (w / partition)) @ states.conj().T
            for (_, states), w in zip(spectra, weights)
        ]
    # one COO -> CSR assembly of the (sector index, block) pairs
    row = np.concatenate([np.repeat(index, index.size) for index in sectors])
    col = np.concatenate([np.tile(index, index.size) for index in sectors])
    data = np.concatenate([block.ravel() for block in blocks])
    rho = sp.coo_matrix((data, (row, col)), shape=(4**n, 4**n)).tocsr()
    return FockState(spec=spec, beta=beta, site_order=site_order, rho=rho)


def mode_correlators(state: FockState):
    """<c_mu^dag c_nu> over all mode pairs, in NATURAL site order.

    Comparable entrywise with build_correlation_matrix over the full
    system (same (site, chirality) indexing).
    """
    n = state.spec.n_sites
    n_modes = 2 * n
    pair, row, col, sign = _hopping_pieces(n_modes)
    # Tr(c_mu^dag c_nu rho) = sum of sign * rho[col, row] over the pair's nonzeros
    terms = sign * np.asarray(state.rho[col, row]).ravel()
    corr_perm = (
        np.bincount(pair, terms.real, n_modes**2)
        + 1j * np.bincount(pair, terms.imag, n_modes**2)
    ).reshape(n_modes, n_modes)
    # undo the site_order permutation so indices are (2*site + chirality)
    perm = _mode_permutation(state.site_order, n)
    corr = np.zeros_like(corr_perm)
    corr[np.ix_(perm, perm)] = corr_perm
    return corr


def reduced_entropy(state: FockState, subsystem):
    """Von Neumann entropy of a site subsystem of the exact state."""
    n = state.spec.n_sites
    sites = [int(s) for s in subsystem]
    if len(set(sites)) != len(sites) or any(not 0 <= s < n for s in sites):
        raise InvalidParameter(f"subsystem must be distinct sites in [0, {n})")

    if tuple(state.site_order[: len(sites)]) != tuple(sites):
        rest = [s for s in range(n) if s not in sites]
        state = _relabeled(state, tuple(sites) + tuple(rest))

    dim_a = 4 ** len(sites)
    dim_b = state.dimension // dim_a
    # Tr_B keeps the entries whose B states agree.  CSR yields them row by
    # row, so each rho_A entry is summed in ascending B state.
    rho = state.rho.tocoo()
    a_row, b_row = np.divmod(rho.row, dim_b)
    a_col, b_col = np.divmod(rho.col, dim_b)
    keep = b_row == b_col
    rho_a = np.zeros(dim_a**2, dtype=complex)
    np.add.at(rho_a, a_row[keep] * dim_a + a_col[keep], rho.data[keep])
    lam = np.linalg.eigvalsh(rho_a.reshape(dim_a, dim_a))
    lam = np.clip(lam, 0.0, None)
    lam = lam[lam > 1e-14]
    return float(-np.sum(lam * np.log(lam)))

"""Brute-force many-body cross-check at tiny system sizes.

Builds the full 4^N-dimensional Fock space of the 2N fermionic modes
(site-major, chirality-minor Jordan-Wigner ordering), the exact ground or
Gibbs state of the quadratic Hamiltonian, and entropies of reduced density
matrices — entirely independent of the correlation-matrix pipeline, which
it exists to validate.

Partial traces are taken in the occupation basis after relabeling sites so
the subsystem is a prefix of the Jordan-Wigner string; kept-mode operators
then act trivially on the traced factor and the spin-basis partial trace
is the fermionic one, signs included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateGroundState, InvalidParameter
from .lattice import LatticeSpec, build_mode_grid, validate_beta

MAX_SITES = 6  # Fock dimension 4^6 = 4096; dense algebra stays tractable
DEGENERACY_TOL = 1e-12

_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])  # <empty|c|occupied> = 1
_EYE2 = np.eye(2)


@dataclass(frozen=True)
class FockState:
    """Exact many-body state plus the context needed to rebuild it.

    Either `vector` (pure, beta = inf) or `rho` (Gibbs) is set.  site_order
    records the Jordan-Wigner site ordering the state was built in.
    """

    spec: LatticeSpec
    beta: float
    site_order: tuple
    vector: np.ndarray | None = None
    rho: np.ndarray | None = None

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
    for mu in range(n_modes):
        factors = [_SIGMA_Z] * mu + [_LOWER] + [_EYE2] * (n_modes - mu - 1)
        op = sp.csr_matrix(factors[0])
        for f in factors[1:]:
            op = sp.kron(op, sp.csr_matrix(f), format="csr")
        ops.append(op)
    return ops


def _mode_permutation(site_order, n):
    """Mode indices (2i+s) listed in the given site order."""
    modes = []
    for site in site_order:
        modes.extend((2 * site, 2 * site + 1))
    assert len(modes) == 2 * n
    return modes


def many_body_state(spec: LatticeSpec, beta, site_order=None) -> FockState:
    """Exact ground state (beta = inf) or Gibbs density matrix.

    site_order permutes the Jordan-Wigner string (default: natural order);
    the physical state is the same, only the occupation-basis labeling
    changes, which is what reduced_entropy uses to bring a subsystem to
    the front before tracing.
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
    h_perm = h[np.ix_(perm, perm)]
    ops = _jordan_wigner_ops(2 * n)
    dim = 4**n
    h_many = sp.csr_matrix((dim, dim), dtype=complex)
    for mu in range(2 * n):
        c_mu_dag = ops[mu].conj().T
        for nu in range(2 * n):
            if h_perm[mu, nu] != 0.0:
                h_many = h_many + h_perm[mu, nu] * (c_mu_dag @ ops[nu])

    energies, states = np.linalg.eigh(h_many.toarray())
    if math.isinf(beta):
        return FockState(
            spec=spec, beta=beta, site_order=site_order, vector=states[:, 0]
        )
    weights = np.exp(-beta * (energies - energies[0]))
    weights /= weights.sum()
    rho = (states * weights) @ states.conj().T
    return FockState(spec=spec, beta=beta, site_order=site_order, rho=rho)


def mode_correlators(state: FockState):
    """<c_mu^dag c_nu> over all mode pairs, in NATURAL site order.

    Comparable entrywise with build_correlation_matrix over the full
    system (same (site, chirality) indexing).
    """
    n = state.spec.n_sites
    n_modes = 2 * n
    ops = _jordan_wigner_ops(n_modes)
    corr_perm = np.zeros((n_modes, n_modes), dtype=complex)
    if state.vector is not None:
        lowered = np.column_stack([ops[mu] @ state.vector for mu in range(n_modes)])
        corr_perm = lowered.conj().T @ lowered
    else:
        acted = [ops[nu] @ state.rho for nu in range(n_modes)]
        dense_ops = [ops[mu].toarray() for mu in range(n_modes)]
        for mu in range(n_modes):
            for nu in range(n_modes):
                corr_perm[mu, nu] = np.vdot(dense_ops[mu], acted[nu])
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
        state = many_body_state(
            state.spec, state.beta, site_order=tuple(sites) + tuple(rest)
        )

    dim_a = 4 ** len(sites)
    dim_b = state.dimension // dim_a
    if state.vector is not None:
        block = state.vector.reshape(dim_a, dim_b)
        rho_a = block @ block.conj().T
    else:
        rho_a = np.einsum(
            "abcb->ac", state.rho.reshape(dim_a, dim_b, dim_a, dim_b)
        )
    lam = np.linalg.eigvalsh(rho_a)
    lam = np.clip(lam, 0.0, None)
    lam = lam[lam > 1e-14]
    return float(-np.sum(lam * np.log(lam)))

"""Entanglement entropy from correlation-matrix eigenvalues.

For a Gaussian fermionic state the von Neumann entropy of a subsystem is

    S = -sum_n [(1 - c_n) ln(1 - c_n) + c_n ln c_n]

over the eigenvalues c_n of the two-point function restricted to the
subsystem.  Natural logarithm throughout (nats), so the saturation bound
for N_A sites with two chiralities is 2*N_A*ln 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .errors import EigenvalueOutOfRange, InvalidParameter, NotHermitian
from .lattice import CorrelationMatrix, LatticeSpec, build_correlation_matrix

HERMITICITY_TOL = 1e-9
CLAMP_TOL = 1e-9
# Eigenvalues this close to 0 or 1 are pure modes; they contribute exactly 0.
PURE_SNAP = 1e-15


@dataclass(frozen=True)
class EntropyPoint:
    """One evaluated entropy with the parameters that produced it."""

    entropy: float
    params: dict
    eigenvalues: np.ndarray | None = None


def hermitian_eigenvalues(matrix):
    """Ascending real eigenvalues of a Hermitian matrix.

    Accepts a CorrelationMatrix or a plain square ndarray.  Raises
    NotHermitian when the maximum asymmetry |M - M^dag| exceeds 1e-9.
    Uses the native complex Hermitian solver (LAPACK heevd).
    """
    m = matrix.entries if isinstance(matrix, CorrelationMatrix) else np.asarray(matrix)
    asym = np.max(np.abs(m - m.conj().T))
    if asym > HERMITICITY_TOL:
        raise NotHermitian(f"max asymmetry {asym:.3e} exceeds {HERMITICITY_TOL}")
    return np.linalg.eigvalsh(m)


def entanglement_entropy(eigs):
    """Entropy functional of correlation eigenvalues, in nats.

    Accepts a 1-D array of eigenvalues, a CorrelationMatrix, or a square
    matrix (the latter two are diagonalized first).  Values outside
    [0, 1] by at most 1e-9 are clamped; anything further out raises
    EigenvalueOutOfRange.  Eigenvalues within 1e-15 of 0 or 1 contribute
    exactly zero (pure modes), avoiding ln(0) noise.
    """
    if isinstance(eigs, CorrelationMatrix):
        eigs = hermitian_eigenvalues(eigs)
    else:
        arr = np.asarray(eigs)
        if arr.ndim == 2:
            eigs = hermitian_eigenvalues(arr)
    c = np.asarray(eigs, dtype=float)
    if c.size and (c.min() < -CLAMP_TOL or c.max() > 1.0 + CLAMP_TOL):
        bad = c[(c < -CLAMP_TOL) | (c > 1.0 + CLAMP_TOL)]
        raise EigenvalueOutOfRange(
            f"correlation eigenvalues outside [0,1] beyond clamp tolerance: {bad}"
        )
    c = np.clip(c, 0.0, 1.0)
    mixed = (c > PURE_SNAP) & (c < 1.0 - PURE_SNAP)
    c = c[mixed]
    return float(-np.sum(xlogy(c, c) + xlogy(1.0 - c, 1.0 - c))) + 0.0


def _params(spec: LatticeSpec, beta, na):
    return {
        "n": spec.n_sites,
        "na": na,
        "z": spec.z_exponent,
        "mass": spec.mass,
        "beta": float(beta),
        "epsilon": spec.spacing,
    }


def entropy_of(spec: LatticeSpec, beta, subsystem, keep_eigenvalues=False):
    """Correlation-matrix entropy of a site subsystem: build, solve, sum."""
    corr = build_correlation_matrix(spec, beta, subsystem)
    eigs = hermitian_eigenvalues(corr)
    return EntropyPoint(
        entropy=entanglement_entropy(eigs),
        params=_params(spec, beta, len(corr.subsystem)),
        eigenvalues=eigs if keep_eigenvalues else None,
    )


def _entropies_of_blocks(spec: LatticeSpec, beta, nas):
    """Entropies of the contiguous blocks range(na), one point per na in nas.

    The matrix for range(max(nas)) is assembled once; each block's matrix
    is its leading 2na x 2na principal submatrix, copied to a contiguous
    array, so every value equals entropy_of(spec, beta, range(na)) bit
    for bit at the same BLAS thread count.  Repeated na values are solved
    once; no nas, no points.
    """
    if not nas:
        return []
    if min(nas) < 1:
        raise InvalidParameter(f"subsystem sizes must be >= 1, got {list(nas)}")
    entries = build_correlation_matrix(spec, beta, range(max(nas))).entries
    values = {
        na: entanglement_entropy(
            hermitian_eigenvalues(np.ascontiguousarray(entries[: 2 * na, : 2 * na]))
        )
        for na in sorted(set(nas))
    }
    return [
        EntropyPoint(entropy=values[na], params=_params(spec, beta, na)) for na in nas
    ]

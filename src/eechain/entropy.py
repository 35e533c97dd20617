"""Entanglement entropy from correlation-matrix eigenvalues.

For a Gaussian fermionic state the von Neumann entropy of a subsystem is

    S = -sum_n [(1 - c_n) ln(1 - c_n) + c_n ln c_n]

over the eigenvalues c_n of the two-point function restricted to the
subsystem.  Natural logarithm throughout (nats), so the saturation bound
for N_A sites with two chiralities is 2*N_A*ln 2.

The lattice's 2N_A x 2N_A matrix is M = 1/2 + H with
H = P (x) sigma_z + C (x) sigma_x, where P and C are Hermitian N_A x N_A
blocks (see lattice.CorrelationMatrix).  Y = 1 (x) sigma_y anticommutes
with H, so the spectrum of H is symmetric about 0, and

    H^2 = (P^2 + C^2) (x) 1 + i[P, C] (x) sigma_y,

whose sigma_y = -1 and +1 sectors are (P + iC)(P + iC)^dag and
(P + iC)^dag (P + iC).  Both have the squared singular values s_j^2 of
P + iC as eigenvalues, so the spectrum of M is exactly {1/2 +- s_j}: one
N_A x N_A singular-value solve instead of a 2N_A x 2N_A eigensolve.

At theta in {0, 1/2} the weights obey F(-k) = (-1)^z F(k) and
G(-k) = G(k), so P is imaginary for odd z and real for even z, and C is
real; the lattice builds those parts as exact zeros on every profile path
with a mode grid.  The solve is picked from exact zeros of the blocks:

* Re P = 0 and Im C = 0: P + iC = i(Im P + Re C), and a unit factor
  leaves the singular values alone, so s_j are those of the real matrix
  Im P + Re C (odd z, massive or massless);
* C = 0 and Im P = 0: M = 1/2 + P (x) sigma_z has the eigenvalues
  1/2 +- lambda_j of the real symmetric P, so s_j = |lambda_j| from a real
  eigvalsh (even z, massless);
* otherwise the complex singular values of P + iC.

Every evaluated entropy is an EntropyPoint: the entropy with the model
point that produced it.  Its fields are the columns of the CSV/JSON
tables, in their order (see eechain.output).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blas import one_blas_thread
from .errors import EigenvalueOutOfRange, InvalidParameter, NotHermitian
from .lattice import (
    CorrelationMatrix, LatticeSpec, build_correlation_matrix, validate_integer, validate_real_array
)

HERMITICITY_TOL = 1e-9
CLAMP_TOL = 1e-9
# Eigenvalues this close to 0 or 1 are pure modes; they contribute exactly 0.
PURE_SNAP = 1e-15


@dataclass(frozen=True)
class EntropyPoint:
    """One evaluated entropy with the model point that produced it.

    The fields are the table columns, in CSV order; the output module
    derives the header, the JSON keys and the parse types from them.
    """

    z: int
    beta: float
    n: int
    na: int
    epsilon: float
    mass: float
    entropy: float

    @classmethod
    def of(cls, spec: LatticeSpec, beta, na, entropy):
        """The point of an N_A = na subsystem of spec at beta."""
        z, n = spec.z_exponent, spec.n_sites
        return cls(z, float(beta), n, na, spec.spacing, spec.mass, entropy)

    def sort_key(self):
        return (self.z, self.beta, self.na, self.n, self.mass, self.epsilon)


def _check_hermitian(*blocks):
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, and np.max keeps a NaN
        asym = np.max([np.max(np.abs(b - b.conj().T)) for b in blocks])
    if not asym <= HERMITICITY_TOL:
        raise NotHermitian(f"max asymmetry {asym:.3e} exceeds {HERMITICITY_TOL}")


def hermitian_eigenvalues(corr: CorrelationMatrix):
    """Ascending real eigenvalues of a correlation matrix, from its blocks.

    Raises NotHermitian when the maximum asymmetry |B - B^dag| of block P
    or C is NaN or over 1e-9.  The 2N_A eigenvalues are 1/2 +- s_j, with s_j
    the singular values of P + iC.  Where Re P and Im C are exactly 0 they
    come from a real SVD of Im P + Re C; where C and Im P are, as
    |eigvalsh(P)|; else from the complex SVD (see the module docstring for
    why each is exact).  The checks read the blocks alone, and every solve
    runs on one BLAS thread, so no eigenvalue depends on the core count.
    """
    same, cross = corr.same, corr.cross
    _check_hermitian(same, cross)
    with one_blas_thread():
        if not same.real.any() and not cross.imag.any():
            s = np.linalg.svd(same.imag + cross.real, compute_uv=False)
        elif not cross.any() and not same.imag.any():
            s = np.sort(np.abs(np.linalg.eigvalsh(same.real)))[::-1]
        else:
            s = np.linalg.svd(same + 1j * cross, compute_uv=False)
    # s is descending
    return np.concatenate((0.5 - s, 0.5 + s[::-1]))


def entanglement_entropy(eigs):
    """Entropy functional of a 1-D array of correlation eigenvalues, in nats.

    Anything but a 1-D array of real numbers raises InvalidParameter.  Values
    outside [0, 1] by at most 1e-9 are clamped; anything further out, NaN
    included, raises EigenvalueOutOfRange.  Eigenvalues within 1e-15 of 0
    or 1 contribute exactly zero (pure modes), avoiding ln(0) noise.
    """
    c = validate_real_array("eigs", eigs)
    if c.ndim != 1:
        raise InvalidParameter(f"eigs must be a 1-d array, got shape {c.shape}")
    bad = c[~((c >= -CLAMP_TOL) & (c <= 1.0 + CLAMP_TOL))]  # NaN fails both
    if bad.size:
        raise EigenvalueOutOfRange(f"eigenvalues outside [0,1] beyond clamp tolerance: {bad}")
    c = np.clip(c, 0.0, 1.0)
    mixed = (c > PURE_SNAP) & (c < 1.0 - PURE_SNAP)
    c = c[mixed]
    return float(-np.sum(c * np.log(c) + (1.0 - c) * np.log(1.0 - c))) + 0.0


def entropy_of(spec: LatticeSpec, beta, subsystem) -> EntropyPoint:
    """Correlation-matrix entropy of a site subsystem: build, solve, sum."""
    corr = build_correlation_matrix(spec, beta, subsystem)
    entropy = entanglement_entropy(hermitian_eigenvalues(corr))
    return EntropyPoint.of(spec, beta, corr.dim // 2, entropy)


def _entropies_of_blocks(spec: LatticeSpec, beta, nas):
    """Entropies of the contiguous blocks range(na), one point per na in nas.

    The blocks for range(max(nas)) are built once; each smaller block's P
    and C are their leading na x na submatrices.  hermitian_eigenvalues
    forms P + iC from them as a fresh contiguous array, so every value
    equals entropy_of(spec, beta, range(na)) bit for bit.  Repeated na
    values are solved once; no nas, no points.
    """
    if not nas:
        return []
    nas = [validate_integer("subsystem size", na, 1) for na in nas]
    corr = build_correlation_matrix(spec, beta, range(max(nas)))
    values = {
        na: entanglement_entropy(
            hermitian_eigenvalues(
                CorrelationMatrix(same=corr.same[:na, :na], cross=corr.cross[:na, :na])
            )
        )
        for na in sorted(set(nas))
    }
    return [EntropyPoint.of(spec, beta, na, values[na]) for na in nas]

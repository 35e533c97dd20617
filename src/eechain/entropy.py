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

The blocks' exact zeros pick the solve.  On an even-length chain (every
short chain included) p[d] vanishes unless (-1)^d = (-1)^z, and q[d]
unless d is even (see eechain.lattice).  Let D = diag(+-1) over the site
parities of the subsystem.  Then:

* even z: P and C join only sites of one parity, so P + iC is block
  diagonal over the even and the odd sites, and s_j are the singular
  values of its two blocks.  Two equal blocks (a contiguous subsystem
  with even N_A) are solved once.
* odd z, massive: P joins only sites of opposite parity, so DP = -PD
  while DC = CD, and (P + iC)D is anti-Hermitian.  D is unitary, so
  s_j = |eigvalsh(i(P + iC)D)|: a Hermitian eigensolve of the same size
  in place of the singular-value solve.
* odd z, massless (C = 0): over the two parities P = [[0, B], [B^dag, 0]],
  and the eigenvalues of that matrix are +- the singular values of B
  (Golub and Kahan).  So s_j are B's singular values, each twice, and one
  0 for each site by which one parity outnumbers the other (one for a
  contiguous subsystem with odd N_A).

The two classes come from the blocks alone, never from N or the sites,
and a split runs only where every entry it drops is exactly 0 (see
_sublattices).  The even and the odd sites are taken wherever they pass
that test, their blocks strided views; elsewhere site 0's class grows
along the blocks' nonzero entries.  So a sparse subsystem splits by site
parity too, and odd N on the N-site chain, which has no such zeros,
takes the whole solve.  Whatever the solve, the s_j are sorted once, and
the spectrum is 1/2 - s_j descending, then 1/2 + s_j ascending.

At theta in {0, 1/2} the weights obey F(-k) = (-1)^z F(k) and
G(-k) = G(k), so P is imaginary for odd z and real for even z, and C is
real; the lattice builds those parts as exact zeros on every profile path
with a mode grid.  The short chain, which gives the entries at d < 512 of
a massive or thermal point at large N, is untwisted, so its reflection
zeros hold at every theta: by Poisson summation its entries are the
infinite chain's, whose P and C do not depend on theta (see
eechain.lattice).  So each solve is real where the blocks allow, with B
the block of P between the classes, and R marking the reflection zeros
(theta in {0, 1/2}, or any theta on the short chain):

    split           solve                        where
    even z          each block as unsplit, below
    odd z, C = 0    svd(Im B), each value twice  Re P = 0 (R)
                    svd(B), each value twice     otherwise
    odd z, C != 0   eigvalsh((Im P + Re C)D)     Re P = 0 and Im C = 0 (R)
                    eigvalsh(i(P + iC)D)         otherwise
    diagonal        |P_jj + iC_jj|
    unsplit         svd(Im P + Re C)             Re P = 0 and Im C = 0 (R)
                    |eigvalsh(P)|                C = 0 and Im P = 0
                    svd(P + iC)                  otherwise

Where Re P = 0 and Im C = 0, P + iC = i(Im P + Re C) and
i(P + iC)D = -(Im P + Re C)D: a unit factor leaves a real matrix.  Where
C = 0 and Im P = 0, M = 1/2 + P (x) sigma_z has the eigenvalues
1/2 +- lambda_j of the real symmetric P.  Diagonal P and C (the even-z
massless ground state) are N_A blocks of one site each, and are not
split further.

Every evaluated entropy is an EntropyPoint: the entropy with the model
point that produced it.  Its fields are the columns of the CSV/JSON
tables, in their order (see eechain.output).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blas import one_blas_thread
from .errors import EigenvalueOutOfRange, InvalidParameter
from .lattice import (
    CorrelationMatrix, LatticeSpec, build_correlation_matrix, validate_integer,
    validate_real_array,
)

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


def _is_diagonal(block):
    """Whether a block is diagonal; row 0 alone refuses most blocks."""
    return not block[0, 1:].any() and np.count_nonzero(block) == np.count_nonzero(block.diagonal())


def _singular_values(same, cross):
    """Singular values of P + iC, by the solve its exact zeros allow."""
    with one_blas_thread():
        if not same.real.any() and not cross.imag.any():
            return np.linalg.svd(same.imag + cross.real, compute_uv=False)
        if not cross.any() and not same.imag.any():
            return np.abs(np.linalg.eigvalsh(same.real))
        return np.linalg.svd(same + 1j * cross, compute_uv=False)


def _sublattices(same, cross):
    """The two classes of a split of the sites that the blocks' exact zeros allow.

    Where P's diagonal is 0 the split is bipartite (odd z): P may join only
    sites of two classes, and C only sites of one.  Otherwise neither block
    may join the classes (even z).  A split is exact wherever every entry
    it drops is 0 (_keeps_apart).  The even and the odd sites are taken
    wherever that holds, as slices, so that their blocks are views.
    Elsewhere site 0's class is the sites two steps from it along nonzero
    entries, a P step changing class where the split is bipartite (a far
    entry of row 0 can round to exactly 0, and the second step still
    places its site), and that split, as index arrays, is kept where it
    passes the same test.  Returns (site 0's class, the other, bipartite),
    or None.
    """
    bipartite = not same.diagonal().any()
    alternating = slice(0, None, 2), slice(1, None, 2)
    if len(same) > 1 and _keeps_apart(same, cross, *alternating, bipartite):
        return *alternating, bipartite
    p, c = same != 0, cross != 0
    if bipartite:
        first = p[p[0]].any(0) | c[0]
    else:
        joins = p | c
        first = joins[joins[0]].any(0)
    first[0] = True
    if first.all():
        return None
    one, two = np.flatnonzero(first), np.flatnonzero(~first)
    return (one, two, bipartite) if _keeps_apart(p, c, one, two, bipartite) else None


def _keeps_apart(same, cross, one, two, bipartite):
    """Whether every entry that the split into classes one and two drops is
    0: P within a class and C across them where the split is bipartite, both
    across them elsewhere.  The classes are slices or index arrays, and the
    blocks may be P and C or their nonzero masks.
    """
    within = [(one, one), (two, two)] if bipartite else [(one, two), (two, one)]
    dropped = [(same, i, j) for i, j in within] + [(cross, one, two), (cross, two, one)]
    return not any(block[i][:, j].any() for block, i, j in dropped)


def hermitian_eigenvalues(corr: CorrelationMatrix):
    """Ascending real eigenvalues of a correlation matrix, from its blocks.

    The 2N_A eigenvalues are 1/2 +- s_j, with s_j the singular values of
    P + iC.  Where P and C are diagonal they are |P_jj + iC_jj|.  Where the
    blocks' exact zeros part the sites into two classes (_sublattices), s_j
    come from the smaller solves of the split: one per class for even z,
    the singular values of P's block between the classes for massless odd
    z, and |eigvalsh(i(P + iC)D)| for massive odd z, with D = +1 on site
    0's class and -1 on the other.  Elsewhere they come from the real SVD
    of Im P + Re C, |eigvalsh(P)| or the complex SVD, by the blocks' zero
    parts (see the module docstring for the table, and why each solve is
    exact).  The s_j are sorted once, whatever solve gave them.  The zero
    tests read the blocks alone, and every solve runs on one BLAS thread,
    so no eigenvalue depends on the core count.
    """
    same, cross = corr.same, corr.cross
    if _is_diagonal(same) and _is_diagonal(cross):
        s = np.abs(same.diagonal() + 1j * cross.diagonal())
    elif (split := _sublattices(same, cross)) is None:
        s = _singular_values(same, cross)
    else:
        one, two, bipartite = split
        if not bipartite:
            blocks = [(same[i][:, i], cross[i][:, i]) for i in (one, two)]
            s = _singular_values(*blocks[0])
            equal = all(map(np.array_equal, *blocks))
            s = np.concatenate((s, s if equal else _singular_values(*blocks[1])))
        elif not cross.any():
            b = same[one][:, two]
            with one_blas_thread():
                s = np.linalg.svd(b if b.real.any() else b.imag, compute_uv=False)
            s = np.concatenate((s, s, np.zeros(abs(len(same) - 2 * len(s)))))
        else:
            if not same.real.any() and not cross.imag.any():
                h = same.imag + cross.real
            else:
                h = 1j * same
                h -= cross
            h[:, two] *= -1.0
            with one_blas_thread():
                s = np.abs(np.linalg.eigvalsh(h))
    s = np.sort(s)
    return np.concatenate((0.5 - s[::-1], 0.5 + s))


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

    The blocks for range(max(nas)) are built once; each smaller block is
    their leading na x na sub-block (CorrelationMatrix._leading), whose
    bits are those of build_correlation_matrix(spec, beta, range(na)).
    The views are read-only, so hermitian_eigenvalues writes none of them:
    its split reads their zeros, and each solve works on a fresh array or
    on numpy's linalg copy.  So every value equals entropy_of(spec, beta,
    range(na)) bit for bit.  Repeated na values are solved once; no nas,
    no points.
    """
    if not nas:
        return []
    nas = [validate_integer("subsystem size", na, 1) for na in nas]
    corr = build_correlation_matrix(spec, beta, range(max(nas)))
    values = {}
    for na in sorted(set(nas)):
        values[na] = entanglement_entropy(hermitian_eigenvalues(corr._leading(na)))
    return [EntropyPoint.of(spec, beta, na, values[na]) for na in nas]

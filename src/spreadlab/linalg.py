"""Exact dense linear algebra over F_p on numpy int64 matrices.

Row reduction uses partial pivoting by first nonzero entry in a fixed
scan order, so every result is deterministic.  Elimination is applied
to whole matrices at a time.  Every int64 accumulation is a sum of at
most ``terms`` products of two residues, so it is exact while
terms * (p - 1)^2 < 2^63; each operation checks that bound for its own
shape with :func:`check_modulus` and refuses larger primes with
ValueError instead of wrapping around.  Row reduction delays the
modular reduction (Dumas, Giorgi and Pernet, FFLAS-FFPACK, ACM TOMS
2008): each pivot reduces only its factor column and its pivot row,
subtracts its rank-1 update without reducing, and the trailing block is
brought back to residues in [0, p) once :func:`reduction_budget` updates
are pending and once at the end.  Between reductions an entry is a
residue minus at most ``budget`` products of residues, and a pivot row
entry times an inverse stays below 2^63 in magnitude.  A product of
matrices sums one product per inner index.
"""

from __future__ import annotations

import numpy as np

_INT64_MAX = 2**63 - 1


def check_modulus(p: int, terms: int = 1) -> None:
    """Refuse p when a sum of ``terms`` residue products can overflow int64."""
    if terms * (p - 1) ** 2 > _INT64_MAX:
        raise ValueError(
            f"modulus {p} is too large for exact int64 arithmetic "
            f"over {terms} accumulated products"
        )


def reduction_budget(p: int) -> int:
    """Rank-1 updates row reduction may leave unreduced: the largest k
    with (p + k (p - 1)^2)(p - 1) < 2^63, and at least 1.

    An entry p + k (p - 1)^2 in magnitude, scaled by an inverse below p,
    then stays in int64.  The budget is about 281000 at p = 32003 and
    falls to 1, a reduction after every pivot, above about 1.66e6.
    """
    if p <= 1:
        return _INT64_MAX
    k = (_INT64_MAX // (p - 1) - p) // (p - 1) ** 2
    return max(k, 1)


def rref_modp(A: np.ndarray, p: int):
    """Reduced row echelon form and pivot columns of A over F_p."""
    check_modulus(p)
    budget = reduction_budget(p)
    R = np.array(A, dtype=np.int64) % p
    rows, cols = R.shape
    pivots = []
    pending = 0
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        factors = R[:, c] % p
        nz = factors[r:].nonzero()[0]
        if nz.size == 0:
            continue
        pivot = r + int(nz[0])
        # rows r.. are zero mod p left of column c, so the pivot row is too
        # and every row operation below only touches columns c..
        if pivot != r:
            R[[r, pivot], c:] = R[[pivot, r], c:]
            factors[[r, pivot]] = factors[[pivot, r]]
        inv = pow(int(factors[r]), -1, p)
        R[r, c:] = R[r, c:] * inv % p
        factors[r] = 0
        R[:, c:] -= factors[:, None] * R[r, c:]
        pivots.append(c)
        r += 1
        pending += 1
        if pending == budget:
            R[:, c + 1:] %= p
            pending = 0
    return R[:r] % p, tuple(pivots)


def rank_modp(A: np.ndarray, p: int) -> int:
    if A.size == 0:
        return 0
    return rref_modp(A, p)[0].shape[0]


def nullspace_modp(A: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel as rows, one per free column.

    Free columns are visited in ascending order and the corresponding
    basis vector has a 1 in that position, so the output is canonical.
    """
    A = np.asarray(A)
    rows, cols = A.shape
    if rows == 0 or A.size == 0:
        return np.eye(cols, dtype=np.int64)
    R, pivots = rref_modp(A, p)
    pivots = list(pivots)
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-R[:, free].T) % p
    return basis


def reduce_rows(P: np.ndarray, R: np.ndarray, pivots, p: int) -> np.ndarray:
    """Residues of the rows of P modulo the row space of an RREF R."""
    if P.size == 0 or R.size == 0:
        return P % p if P.size else P
    check_modulus(p, R.shape[0])
    coeffs = P[:, list(pivots)] % p
    return (P - coeffs @ R) % p


def span_rows(P: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis (RREF rows) of the row space of P."""
    if P.size == 0:
        return P
    return rref_modp(P, p)[0]

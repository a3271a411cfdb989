"""Exact rational linear algebra on small dense matrices.

Matrices are lists of lists of ``Fraction``.  Sizes here are tiny (at most the
total rank of the Lie algebra), so plain Gaussian elimination is both fast
enough and exact.  Integer matrices get fraction-free Bareiss elimination.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]
Vector = List[Fraction]


def _as_matrix(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows: Sequence[Sequence]) -> tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (rref, pivot column indices)."""
    m = _as_matrix(rows)
    if not m:
        return m, []
    n_rows, n_cols = len(m), len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def solve(rows: Sequence[Sequence], rhs: Sequence, n_cols: int) -> Optional[Tuple[Vector, List[Vector]]]:
    """(x, basis) from one elimination of [A | b]: a solution of A x = b and a basis of {x : A x = 0}.

    A has n_cols columns and may have no rows.  The free entries of x are
    zero, and the basis has one vector per free column, in column order,
    with a 1 there and 0 at the other free columns.  None when the system is
    inconsistent: a pivot in the rhs column.
    """
    red, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n_cols]
    basis: List[Vector] = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return x, basis


def form(rows: Sequence[Sequence], u: Sequence, v: Sequence):
    """u^T A v for the matrix A given by its rows."""
    return sum(x * sum(map(mul, row, v)) for x, row in zip(u, rows))


def bareiss(rows: Sequence[Sequence[int]]) -> Tuple[List[int], Optional[List[List[int]]]]:
    """Leading principal minors and adjugate of a square integer matrix.

    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968)
    of ``[M | I]`` without row exchanges: the k-th pivot is the k-th leading
    principal minor, every division is exact, and the right half ends as
    ``adj(M) = det(M) * M^-1``.  Stops at the first zero pivot, returning the
    minors so far and no adjugate.
    """
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    minors: List[int] = []
    prev = 1
    for k in range(n):
        piv = m[k][k]
        if piv == 0:
            return minors, None
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(piv * x - f * y) // prev for x, y in zip(m[i], m[k])]
        minors.append(piv)
        prev = piv
    return minors, [row[n:] for row in m]

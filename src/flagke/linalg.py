"""Exact integer linear algebra on small dense matrices.

Matrices are lists of lists of ints.  Sizes here are tiny (at most the total
rank of the Lie algebra), and every elimination is fraction-free (Bareiss,
Math. Comp. 22, 1968): each entry it produces is a minor of the input, so
every division is exact and no ``Fraction`` is built.
"""

from __future__ import annotations

from operator import mul
from typing import List, Optional, Sequence, Tuple


def _eliminate(m: List[List[int]], k: int, c: int, prev: int) -> int:
    """One fraction-free Gauss-Jordan step: clear column c outside row k; returns the pivot m[k][c].

    Every other row becomes (piv * row - row[c] * m[k]) / prev, an exact
    division by the previous pivot; the earlier pivots become piv too.
    """
    piv, pivot_row = m[k][c], m[k]
    for i, row in enumerate(m):
        if i != k:
            f = row[c]
            m[i] = [(piv * x - f * y) // prev for x, y in zip(row, pivot_row)]
    return piv


def solve(rows: Sequence[Sequence[int]], rhs: Sequence[int],
          n_cols: int) -> Optional[Tuple[List[int], int, List[List[int]]]]:
    """(x, den, basis) from one elimination of the integer [A | b]: A (x / den) = b, and A v = 0 for v in basis.

    A has n_cols columns and may have no rows.  Each step pivots on the first
    nonzero entry, in the rows not yet used, of the leftmost column that has
    one, and swaps that row up: the pivots of the reduced row echelon form.
    So x / den is that form's solution: den > 0 is the absolute value of the
    last pivot, and the free entries of x are zero.  The basis has one vector
    per free column, in column order: the echelon form's vector (a 1 there
    and 0 at the other free columns) times den.  None when the system is
    inconsistent: a pivot in the rhs column.
    """
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots: List[int] = []
    prev = 1
    for c in range(n_cols + 1):
        k = next((i for i in range(len(pivots), len(m)) if m[i][c]), None)
        if k is None:
            continue
        if c == n_cols:
            return None
        r = len(pivots)
        m[r], m[k] = m[k], m[r]
        prev = _eliminate(m, r, c, prev)
        pivots.append(c)
    sign, den = (1, prev) if prev > 0 else (-1, -prev)
    x = [0] * n_cols
    for row, pc in zip(m, pivots):
        x[pc] = sign * row[n_cols]
    basis: List[List[int]] = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        v = [0] * n_cols
        v[fc] = den
        for row, pc in zip(m, pivots):
            v[pc] = -sign * row[fc]
        basis.append(v)
    return x, den, basis


def form(rows: Sequence[Sequence], u: Sequence, v: Sequence):
    """u^T A v for the matrix A given by its rows."""
    return sum(x * sum(map(mul, row, v)) for x, row in zip(u, rows))


def bareiss(rows: Sequence[Sequence[int]]) -> Tuple[List[int], Optional[List[List[int]]]]:
    """Leading principal minors and adjugate of a square integer matrix.

    Fraction-free Gauss-Jordan elimination of ``[M | I]`` without row
    exchanges: the k-th pivot is the k-th leading principal minor, and the
    right half ends as ``adj(M) = det(M) * M^-1``.  Stops at the first zero
    pivot, returning the minors so far and no adjugate.
    """
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    minors: List[int] = []
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            return minors, None
        prev = _eliminate(m, k, k, prev)
        minors.append(prev)
    return minors, [row[n:] for row in m]

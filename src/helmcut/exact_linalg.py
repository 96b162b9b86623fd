"""Exact integer linear algebra on lists of integer rows: the product
`matmul` and the Smith normal form.

Everything here uses Python's arbitrary-precision integers; no floating
point.  The Smith normal form uses smallest-nonzero-absolute-value pivoting
with (row, col) index tiebreak, so results are deterministic.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence


class IntegerMatrix:
    """A dense integer matrix, checked entry by entry, as the Smith normal
    form takes it: its width survives when it has no rows."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence[int]]):
        if rows < 0 or cols < 0 or len(entries) != rows:
            raise ValueError("bad matrix shape")
        ent = []
        for r in entries:
            if len(r) != cols:
                raise ValueError("ragged matrix rows")
            if not all(type(x) is int for x in r):
                raise ValueError(f"matrix entries must be ints, not bools or other types: {r!r}")
            ent.append(tuple(r))
        self.rows = rows
        self.cols = cols
        self.entries = tuple(ent)


def matmul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    n = len(A)
    m = len(B[0]) if B else 0
    out = [[0] * m for _ in range(n)]
    for i, row in enumerate(A):
        oi = out[i]
        for k, a in enumerate(row):
            if a:
                Bk = B[k]
                for j in range(m):
                    if Bk[j]:
                        oi[j] += a * Bk[j]
    return out


class SmithDecomposition(NamedTuple):
    """U M V is the m x n matrix with `diagonal` leading and zeros elsewhere;
    U, V are unimodular with inverses U_inv, V_inv.  `diagonal` holds the
    nonzero invariant factors d_i > 0, d_i | d_{i+1}, so the rank is its
    length."""

    diagonal: tuple[int, ...]
    U: list[list[int]]
    V: list[list[int]]
    U_inv: list[list[int]]
    V_inv: list[list[int]]


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def smith_normal_form(M: IntegerMatrix) -> SmithDecomposition:
    m, n = M.rows, M.cols
    D = [list(r) for r in M.entries]
    U, Ui = _identity(m), _identity(m)
    V, Vi = _identity(n), _identity(n)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]
        for r in Ui:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        Vi[i], Vi[j] = Vi[j], Vi[i]

    def add_row(src, dst, k):  # row dst += k * row src
        if k == 0:
            return
        D[dst] = [a + k * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + k * b for a, b in zip(U[dst], U[src])]
        for r in Ui:  # inverse: col src -= k * col dst
            r[src] -= k * r[dst]

    def add_col(src, dst, k):  # col dst += k * col src
        if k == 0:
            return
        for r in D:
            r[dst] += k * r[src]
        for r in V:
            r[dst] += k * r[src]
        Vi[src] = [a - k * b for a, b in zip(Vi[src], Vi[dst])]

    def negate_row(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]
        for r in Ui:
            r[i] = -r[i]

    t = 0
    limit = min(m, n)
    while t < limit:
        # pivot: smallest nonzero |entry| in the trailing submatrix,
        # tiebreak by (row, col)
        pivot = None
        best = None
        for i in range(t, m):
            row = D[i]
            for j in range(t, n):
                a = row[j]
                if a:
                    v = abs(a)
                    if best is None or v < best:
                        best, pivot = v, (i, j)
                        if v == 1:
                            break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            swap_rows(pi, t)
        if pj != t:
            swap_cols(pj, t)
        while True:
            # Euclidean clearing of column t
            col_done = False
            while not col_done:
                col_done = True
                for i in range(t + 1, m):
                    if D[i][t]:
                        q = D[i][t] // D[t][t]
                        add_row(t, i, -q)
                        if D[i][t]:  # remainder strictly smaller: new pivot
                            swap_rows(i, t)
                            col_done = False
            # Euclidean clearing of row t
            row_done = True
            for j in range(t + 1, n):
                if D[t][j]:
                    q = D[t][j] // D[t][t]
                    add_col(t, j, -q)
                    if D[t][j]:
                        swap_cols(j, t)
                        row_done = False
            if not row_done:
                continue  # the column may be dirty again
            # divisibility: pivot must divide every remaining entry
            d = D[t][t]
            culprit = None
            for i in range(t + 1, m):
                row = D[i]
                for j in range(t + 1, n):
                    if row[j] % d:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            add_row(culprit, t, 1)
        if D[t][t] < 0:
            negate_row(t)
        t += 1
    return SmithDecomposition(tuple(D[i][i] for i in range(t)), U, V, Ui, Vi)

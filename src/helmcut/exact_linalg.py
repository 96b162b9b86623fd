"""Exact integer linear algebra: matrices and Smith normal form.

Everything here uses Python's arbitrary-precision integers; no floating
point.  The Smith normal form uses smallest-nonzero-absolute-value pivoting
with (row, col) index tiebreak, so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class IntegerMatrix:
    """Immutable dense integer matrix."""

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

    @staticmethod
    def identity(n: int) -> "IntegerMatrix":
        return IntegerMatrix(n, n, [[int(i == j) for j in range(n)] for i in range(n)])

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry {ij} out of bounds")
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntegerMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        return IntegerMatrix(self.rows, other.cols, matmul(self.to_lists(), other.to_lists()))

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(self.cols, self.rows, [list(c) for c in zip(*self.entries)] if self.rows and self.cols else [[] for _ in range(self.cols)])

    def rank(self) -> int:
        return smith_normal_form(self).rank

    def __repr__(self) -> str:
        return f"IntegerMatrix({self.rows}x{self.cols})"


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


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ M @ V == D with U, V unimodular and D diagonal, d_i | d_{i+1}."""

    D: IntegerMatrix
    U: IntegerMatrix
    V: IntegerMatrix
    U_inv: IntegerMatrix
    V_inv: IntegerMatrix

    @property
    def rank(self) -> int:
        return sum(1 for i in range(min(self.D.rows, self.D.cols)) if self.D[i, i] != 0)

    @property
    def diagonal(self) -> tuple[int, ...]:
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D[i, i] for i in range(n))

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d > 1)


def smith_normal_form(M: IntegerMatrix) -> SmithDecomposition:
    m, n = M.rows, M.cols
    D = M.to_lists()
    U = IntegerMatrix.identity(m).to_lists()
    Ui = IntegerMatrix.identity(m).to_lists()
    V = IntegerMatrix.identity(n).to_lists()
    Vi = IntegerMatrix.identity(n).to_lists()

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
    return SmithDecomposition(
        IntegerMatrix(m, n, D),
        IntegerMatrix(m, m, U),
        IntegerMatrix(n, n, V),
        IntegerMatrix(m, m, Ui),
        IntegerMatrix(n, n, Vi),
    )

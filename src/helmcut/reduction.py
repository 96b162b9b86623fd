"""Exact reduction of simplicial integer chain complexes.

Elementary reductions (Gaussian elimination on a +-1 incidence) shrink a
chain complex while preserving its integral homology on the nose.  The
sequence of reductions is logged so chains can be transported both ways:

  project:  C(original) -> C(residual)   (chain map)
  include:  C(residual) -> C(original)   (chain map)
  homotopy: id - include.project = d H + H d   (for witness extraction)

Free faces and coreductions (Mrozek and Batko, "Coreduction homology
algorithm", Discrete Comput. Geom. 41, 2009) cause no fill-in, so which of
them go, and in what order, depends only on how many live faces and
cofaces each cell has.  They are cascaded first, first in, first out,
on integer counters over the face index.  The survivors are the critical
cells of an acyclic matching (Harker, Mischaikow, Mrozek and Nanda, Found.
Comput. Math. 14, 2014).  Only they get sparse rows, which one lazy heap
of Markowitz pivots (least fill-in first) reduces further.  Every +-1
pair of the rows waits in that heap: a zero-cost pair that fill-in makes
is pushed with its row at cost 0, and a pair whose cost only fell is
taken when its older, higher entry pops, so the cascade is the one
zero-cost rule.

Every removed pair, cascade and Markowitz alike, is logged once, as two
integers, and both its cells get the pair's index in the log as their
removal rank.  A cascade pair's rows are read back through the index;
only a Markowitz pair keeps its fill-in rows.  All arithmetic is exact
integer arithmetic.
"""

from __future__ import annotations

import bisect
import heapq
from array import array
from collections import deque
from itertools import accumulate
from operator import sub
from typing import Hashable, Iterable, Mapping

from .complexes import FaceIndex

Cell = Hashable
Chain = dict  # Cell -> int

LIVE = 2**31 - 1  # the rank of a cell that no pair has removed


def add_scaled(target: Chain, source: Mapping, factor: int) -> None:
    if not factor:
        return
    for cell, coeff in source.items():
        new = target.get(cell, 0) + factor * coeff
        if new:
            target[cell] = new
        else:
            target.pop(cell, None)


class ChainComplexData:
    """The chain complex of a simplicial complex, read through its face
    index: face k of a simplex has sign (-1)**k (vertex-deletion order).
    Simplex p of layer d is numbered offsets[d] + p, and every simplex is
    a cell except the given non-cells.

    rank[c] is the index of the pair that removed cell c: LIVE while c is
    live, -1 if c is not a cell; len(dim) is the number of live cells.  The
    reduction writes into bd the boundary rows of the cells that survive
    its zero-cost cascade, and leaves the residual rows there.
    """

    def __init__(self, index: FaceIndex, non_cells: Iterable[int]):
        self.index = index
        self.offsets = [0, *accumulate(len(start) - 1 for start in index.coface_start)]
        self.rank = array("i", [LIVE]) * self.offsets[4]
        for c in non_cells:
            self.rank[c] = -1
        self.dim = _LiveCells(self.rank)
        self.bd: dict[int, Chain] = {}


class _LiveCells:
    """len() is the number of cells of rank LIVE."""

    def __init__(self, rank: array):
        self._rank = rank

    def __len__(self) -> int:
        return self._rank.count(LIVE)


class ReducedComplex:
    """Residual complex plus transport maps to/from the original.

    Pair r removed cells a = pairs[0][r] and b = pairs[1][r], b a coface
    of a, and r is the rank of both.  A Markowitz pair's rows at removal
    are _fill[r] = (boundary of b, coboundary of a); a cascade pair has no
    fill entry.  `heap_pops` counts the Markowitz heap pops the reduction
    made."""

    def __init__(self, data: ChainComplexData, pairs: tuple[array, array],
                 fill: dict[int, tuple[Chain, Chain]], heap_pops: int):
        self._data = data
        self.pairs = pairs
        self._fill = fill
        self.heap_pops = heap_pops
        off = data.offsets
        self.cells_by_dim = [[c for c in data.bd if off[d] <= c < off[d + 1]] for d in range(4)]

    def cells(self, dim: int) -> list[Cell]:
        if not 0 <= dim < len(self.cells_by_dim):
            return []
        return self.cells_by_dim[dim]

    def boundary(self, cell: Cell) -> Chain:
        return dict(self._data.bd[cell])

    # -- transport ---------------------------------------------------------

    def project(self, chain: Mapping[Cell, int], dim: int) -> Chain:
        """Push a chain of the original complex into the residual complex."""
        return self._forward(chain, dim, {})

    def include(self, chain: Mapping[Cell, int], dim: int) -> Chain:
        """Lift a residual chain back to the original complex."""
        return self._backward(chain, dim, {})

    def project_with_homotopy(self, chain: Mapping[Cell, int], dim: int) -> tuple[Chain, Chain]:
        """(projection, H(chain)) where id - include.project = d H + H d."""
        terms: dict[int, int] = {}
        proj = self._forward(chain, dim, terms)
        return proj, self._backward({}, dim + 1, terms)

    def _forward(self, chain: Mapping[Cell, int], dim: int, terms: dict[int, int]) -> Chain:
        """Apply the pairs in order, recording in terms the homotopy term of
        each pair that acts: rank -> coefficient of that pair's b.

        A pair acts only on a chain that holds its a or its b, so the pairs
        are visited in the order of the ranks of the cells the chain
        reaches."""
        out = {c: v for c, v in chain.items() if v}
        rank, off = self._data.rank, self._data.offsets
        A, B = self.pairs
        todo = [r for r in {rank[c] for c in out} if 0 <= r < LIVE]
        heapq.heapify(todo)
        last = -1
        while todo:
            r = heapq.heappop(todo)
            if r == last:
                continue
            last = r
            a, b = A[r], B[r]
            p = bisect.bisect_right(off, a) - 1
            if p == dim - 1:
                out.pop(b, None)
                continue
            ca = out.get(a) if p == dim else None
            if not ca:
                continue
            bd_b = self._boundary_at(r)
            lam = bd_b[a]
            terms[r] = lam * ca
            add_scaled(out, bd_b, -lam * ca)
            for f in bd_b:
                if f != a and rank[f] < LIVE:
                    heapq.heappush(todo, rank[f])
        return out

    def _boundary_at(self, r: int) -> Chain:
        """The boundary of b of pair r when the pair was removed: for a
        cascade pair, the faces of b of rank at least r."""
        if r in self._fill:
            return self._fill[r][0]
        b, rank, off = self.pairs[1][r], self._data.rank, self._data.offsets
        d = bisect.bisect_right(off, b) - 1
        row = {}
        for k, q in enumerate(self._data.index.faces_of(d, b - off[d])):
            if rank[off[d - 1] + q] >= r:
                row[off[d - 1] + q] = -1 if k & 1 else 1
        return row

    def _backward(self, chain: Mapping[Cell, int], dim: int, terms: Mapping[int, int]) -> Chain:
        """Undo the pairs in reverse order, adding terms[r] to pair r's b
        after its step has read the chain, which assembles
        H(chain) = sum_r include_{<r}(h_r(project_{<r}(chain))).

        A cascade pair's coboundary of a is the cofaces of a that are live
        at its rank, so it acts only if a is a face of a cell of the chain
        or the pair has a homotopy term: the pairs are visited by the ranks
        of the faces of the cells the chain reaches, and of the Markowitz
        pairs, whose fill-in cofaces the index does not hold."""
        out = {c: v for c, v in chain.items() if v}
        if not 1 <= dim <= 3:  # no pair has its b there
            return out
        A, B, fill = *self.pairs, self._fill
        rank, index, off = self._data.rank, self._data.index, self._data.offsets
        lo, hi, top = off[dim - 1], off[dim], off[dim + 1]  # the layers of a and b

        def push_faces(c: int, below: int) -> None:
            for q in index.faces_of(dim, c - hi):
                if 0 <= rank[lo + q] < below:
                    heapq.heappush(todo, -rank[lo + q])

        todo = [-r for r in terms] + [-r for r in fill if lo <= A[r] < hi]
        heapq.heapify(todo)
        for c in out:
            if hi <= c < top:
                push_faces(c, LIVE)
        last = -1
        while todo:
            r = -heapq.heappop(todo)
            if r == last:
                continue
            last = r
            a, b = A[r], B[r]
            if not lo <= a < hi:
                continue
            s = 0
            if r in fill:
                cb_a = fill[r][1]
                for e, coeff in cb_a.items():
                    v = out.get(e)
                    if v:
                        s += v * coeff
                lam = cb_a[b]
            else:  # signs only for the cofaces the chain holds
                for q in index.cofaces_of(dim - 1, a - lo):
                    v = out.get(hi + q)
                    if v and rank[hi + q] >= r:
                        s += v * (-1) ** index.faces_of(dim, q).index(a - lo)
                lam = (-1) ** index.faces_of(dim, b - hi).index(a - lo) if s else 0
            delta = terms.get(r, 0) - lam * s
            if delta:
                new = out.get(b, 0) + delta
                if new:
                    out[b] = new
                else:
                    del out[b]
                push_faces(b, r)
        return out


def _cascade(data: ChainComplexData) -> tuple[array, array]:
    """Remove every zero-cost pair, first in, first out, on counts of live
    faces and cofaces; each removed cell gets its pair's index as rank.
    The pairs (a, b), in removal order.

    The state is kept per layer, by position, in lists, which index
    faster than arrays: rank[d][p], and nf[d][p] and nc[d][p], the
    numbers of live faces and cofaces of simplex p of layer d."""
    faces, start, cofaces = data.index
    off = data.offsets
    # a fifth, empty layer stands above the tetrahedra
    rank = [data.rank[off[d]:off[d + 1]].tolist() for d in range(4)] + [[]]
    nf = [[d + 1 if d else 0] * (off[d + 1] - off[d]) for d in range(4)] + [[]]
    nc = [list(map(sub, st[1:], st)) for st in start] + [[]]
    for d in range(4):
        for p, r in enumerate(rank[d]):
            if r < 0:
                for q in data.index.faces_of(d, p):
                    nc[d - 1][q] -= 1
                for q in data.index.cofaces_of(d, p):
                    nf[d + 1][q] -= 1
    queue: deque[tuple[int, int, int]] = deque()  # (d, a, b): a in layer d, b in d + 1
    push = queue.append

    def free(d: int, p: int) -> None:
        st, ranks = start[d], rank[d + 1]
        for q in cofaces[d][st[p]:st[p + 1]]:
            if ranks[q] == LIVE:
                push((d, p, q))
                return

    def core(d: int, p: int) -> None:
        ranks = rank[d - 1]
        for q in faces[d][(d + 1) * p:(d + 1) * p + d + 1]:
            if ranks[q] == LIVE:
                push((d - 1, q, p))
                return

    for d in range(1, 4):
        for p, n in enumerate(nf[d]):
            if n == 1 and rank[d][p] == LIVE:
                core(d, p)
    for d in range(3):
        for p, n in enumerate(nc[d]):
            if n == 1 and rank[d][p] == LIVE:
                free(d, p)
    A, B = array("i"), array("i")
    while queue:
        d, pa, pb = queue.popleft()
        ra, rb = rank[d], rank[d + 1]
        if ra[pa] != LIVE or rb[pb] != LIVE or (nc[d][pa] != 1 and nf[d + 1][pb] != 1):
            continue
        ra[pa] = rb[pb] = len(A)
        A.append(off[d] + pa)
        B.append(off[d + 1] + pb)
        # the faces of a lose a coface
        if d:
            ranks, count = rank[d - 1], nc[d - 1]
            for q in faces[d][(d + 1) * pa:(d + 1) * pa + d + 1]:
                if ranks[q] == LIVE:
                    count[q] -= 1
                    if count[q] == 1:
                        free(d - 1, q)
        # so do the other faces of b, which are checked last
        count = nc[d]
        rest = [q for q in faces[d + 1][(d + 2) * pb:(d + 2) * pb + d + 2] if ra[q] == LIVE]
        for q in rest:
            count[q] -= 1
        # the cofaces of b and the other cofaces of a lose a face
        st, ranks, count2 = start[d + 1], rank[d + 2], nf[d + 2]
        for q in cofaces[d + 1][st[pb]:st[pb + 1]]:
            if ranks[q] == LIVE:
                count2[q] -= 1
                if count2[q] == 1:
                    core(d + 2, q)
        st, count2 = start[d], nf[d + 1]
        for q in cofaces[d][st[pa]:st[pa + 1]]:
            if rb[q] == LIVE:
                count2[q] -= 1
                if count2[q] == 1:
                    core(d + 1, q)
        for q in rest:
            if count[q] == 1:
                free(d, q)
    for d in range(4):
        data.rank[off[d]:off[d + 1]] = array("i", rank[d])
    return A, B


def reduce_complex(data: ChainComplexData) -> ReducedComplex:
    # phase 1: exhaust the zero-cost pairs on the face index
    A, B = pairs = _cascade(data)
    # sparse rows for the survivors, of which no zero-cost pair is left
    bd, rank, off = data.bd, data.rank, data.offsets
    faces = data.index.faces
    cb: dict[int, Chain] = {}
    for d in range(4):
        o = off[d - 1]
        for p, r in enumerate(rank[off[d]:off[d + 1]]):
            if r == LIVE:
                c = off[d] + p
                bd[c] = row = {}
                cb[c] = {}
                for k, q in enumerate(faces[d][(d + 1) * p:(d + 1) * p + d + 1]):
                    if rank[o + q] == LIVE:
                        row[o + q] = cb[o + q][c] = -1 if k & 1 else 1
    # phase 2: Markowitz heap on the (much smaller) survivor complex
    fill: dict[int, tuple[Chain, Chain]] = {}
    heap: list[tuple[int, Cell, Cell]] = []

    def execute(a: Cell, b: Cell) -> None:
        # the log keeps the rows themselves: nothing below writes to them,
        # and both leave bd and cb at the end
        bd_b = bd[b]
        cb_a = cb[a]
        lam = bd_b[a]
        rank[a] = rank[b] = len(A)
        fill[len(A)] = bd_b, cb_a
        A.append(a)
        B.append(b)
        for f in bd[a]:
            del cb[f][a]
        for f in bd_b:
            if f != a:
                del cb[f][b]
        for e in cb[b]:
            del bd[e][b]
        # fold boundary of b into the other cofaces of a
        for e, coeff in cb_a.items():
            if e == b:
                continue
            row = bd[e]
            factor = -lam * coeff
            for f, c in bd_b.items():
                if f == a:
                    continue
                new = row.get(f, 0) + factor * c
                if new:
                    row[f] = new
                    cb[f][e] = new
                else:
                    row.pop(f, None)
                    cb[f].pop(e, None)
            row.pop(a, None)
        del bd[a], cb[a], bd[b], cb[b]

    def cost(a: Cell, b: Cell) -> int:
        return (len(cb[a]) - 1) * (len(bd[b]) - 1)

    def push_pairs_of(b: Cell) -> None:
        row = bd[b]
        nb = len(row) - 1
        for a, coeff in row.items():
            if coeff in (1, -1):
                heapq.heappush(heap, ((len(cb[a]) - 1) * nb, a, b))

    for b, row in bd.items():
        if row:
            push_pairs_of(b)
    pops = 0
    while heap:
        c0, a, b = heapq.heappop(heap)
        pops += 1
        if a not in bd or b not in bd or bd[b].get(a, 0) not in (1, -1):
            continue
        current = cost(a, b)
        if current > c0:
            heapq.heappush(heap, (current, a, b))
            continue
        cb_b_cells = list(cb[b])
        changed = [e for e in cb[a] if e != b]
        execute(a, b)
        for e in changed:
            if e in bd:
                push_pairs_of(e)
        for e in cb_b_cells:
            if e in bd:
                push_pairs_of(e)
    return ReducedComplex(data, pairs, fill, pops)

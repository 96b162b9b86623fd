"""Exact reduction of based integer chain complexes.

Elementary reductions (Gaussian elimination on a +-1 incidence) shrink a
chain complex while preserving its integral homology on the nose.  The
sequence of reductions is logged so chains can be transported both ways:

  project:  C(original) -> C(residual)   (chain map)
  include:  C(residual) -> C(original)   (chain map)
  homotopy: id - include.project = d H + H d   (for witness extraction)

Pivots are chosen by a lazy-heap Markowitz rule (least fill-in first), which
makes free-face collapses and coreductions zero-cost and keeps fill-in low
elsewhere.  All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Hashable, Mapping

Cell = Hashable
Chain = dict  # Cell -> int


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
    """Mutable based chain complex with sparse boundary and coboundary.

    The given boundary becomes the working `bd` that the reduction mutates,
    so the caller must not use it afterwards.  It must map every cell to its
    boundary chain, with no zero coefficients and only cells as faces; this
    is not checked.
    """

    def __init__(self, cells_by_dim: list[list[Cell]], boundary: dict[Cell, Chain]):
        self.cells_by_dim = cells_by_dim
        self.dim: dict[Cell, int] = {}
        for d, cells in enumerate(cells_by_dim):
            for c in cells:
                self.dim[c] = d
        self.bd = boundary
        self.cb: dict[Cell, Chain] = {c: {} for c in self.dim}
        for cell, row in boundary.items():
            for face, coeff in row.items():
                self.cb[face][cell] = coeff


class ReductionRule:
    __slots__ = ("p", "a", "b", "lam", "bd_b", "cb_a")

    def __init__(self, p, a, b, lam, bd_b, cb_a):
        self.p = p          # dim of a; b has dim p + 1
        self.a = a
        self.b = b
        self.lam = lam      # +1 or -1; its own inverse
        self.bd_b = bd_b    # boundary of b at removal time
        self.cb_a = cb_a    # coboundary of a at removal time


class ReducedComplex:
    """Residual complex plus transport maps to/from the original.
    `heap_pops` counts the Markowitz heap pops the reduction made."""

    def __init__(self, data: ChainComplexData, rules: list[ReductionRule], heap_pops: int):
        self._data = data
        self.rules = rules
        self.heap_pops = heap_pops
        alive = set(data.dim)
        self.cells_by_dim = [
            [c for c in cells if c in alive] for cells in data.cells_by_dim
        ]

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
        """Apply the rules in order, recording in terms the homotopy term of
        each rule that acts: rule index -> coefficient of that rule's b."""
        out = {c: v for c, v in chain.items() if v}
        for i, rule in enumerate(self.rules):
            if dim == rule.p:
                ca = out.get(rule.a, 0)
                if ca:
                    terms[i] = rule.lam * ca
                    add_scaled(out, rule.bd_b, -rule.lam * ca)
            elif dim == rule.p + 1:
                out.pop(rule.b, None)
        return out

    def _backward(self, chain: Mapping[Cell, int], dim: int, terms: Mapping[int, int]) -> Chain:
        """Undo the rules in reverse order, adding terms[i] to rule i's b
        after its step has read the chain, which assembles
        H(chain) = sum_i include_{<i}(h_i(project_{<i}(chain)))."""
        out = {c: v for c, v in chain.items() if v}
        for i in range(len(self.rules) - 1, -1, -1):
            rule = self.rules[i]
            if dim != rule.p + 1:
                continue
            s = 0
            for e, coeff in rule.cb_a.items():
                v = out.get(e, 0)
                if v:
                    s += v * coeff
            delta = terms.get(i, 0) - rule.lam * s
            if delta:
                new = out.get(rule.b, 0) + delta
                if new:
                    out[rule.b] = new
                else:
                    out.pop(rule.b, None)
        return out


def reduce_complex(data: ChainComplexData) -> ReducedComplex:
    bd, cb, dim = data.bd, data.cb, data.dim
    rules: list[ReductionRule] = []
    # zero-cost pairs (free faces and coreductions) are cascaded first in,
    # first out, so the cascade sweeps outward from where it started; only
    # pairs with genuine fill-in pay for a heap
    queue: deque[tuple[Cell, Cell]] = deque()
    heap: list[tuple[int, Cell, Cell]] = []

    def maybe_free(a: Cell) -> None:
        co = cb[a]
        if len(co) == 1:
            b, coeff = next(iter(co.items()))
            if coeff in (1, -1):
                queue.append((a, b))

    def maybe_core(b: Cell) -> None:
        row = bd[b]
        if len(row) == 1:
            a, coeff = next(iter(row.items()))
            if coeff in (1, -1):
                queue.append((a, b))

    def execute(a: Cell, b: Cell, lam: int) -> None:
        # the rule keeps the rows themselves: nothing below writes to them,
        # and both leave bd and cb at the end
        bd_b = bd[b]
        cb_a = cb[a]
        rules.append(ReductionRule(dim[a], a, b, lam, bd_b, cb_a))
        for f in bd[a]:
            del cb[f][a]
            maybe_free(f)
        for f in bd_b:
            if f != a:
                del cb[f][b]
        for e in cb[b]:
            del bd[e][b]
            maybe_core(e)
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
                    co = cb[f]
                    co.pop(e, None)
                    maybe_free(f)
            row.pop(a, None)
            maybe_core(e)
        for f in bd_b:
            if f != a and f in cb:
                maybe_free(f)
        del bd[a], cb[a], bd[b], cb[b]
        del dim[a], dim[b]

    def cascade() -> None:
        while queue:
            a, b = queue.popleft()
            if a not in bd or b not in bd:
                continue
            lam = bd[b].get(a, 0)
            if lam not in (1, -1):
                continue
            if len(cb[a]) != 1 and len(bd[b]) != 1:
                continue
            execute(a, b, lam)

    # phase 1: exhaust all zero-cost reductions
    for b, row in bd.items():
        if row:
            maybe_core(b)
    for a in cb:
        maybe_free(a)
    cascade()

    # phase 2: Markowitz heap on the (much smaller) survivor complex
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
        if a not in bd or b not in bd:
            continue
        lam = bd[b].get(a, 0)
        if lam not in (1, -1):
            continue
        current = cost(a, b)
        if current > c0:
            heapq.heappush(heap, (current, a, b))
            continue
        cb_b_cells = list(cb[b])
        changed = [e for e in cb[a] if e != b]
        execute(a, b, lam)
        cascade()
        for e in changed:
            if e in bd:
                push_pairs_of(e)
        for e in cb_b_cells:
            if e in bd:
                push_pairs_of(e)
    return ReducedComplex(data, rules, pops)

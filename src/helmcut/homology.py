"""Integral homology of simplicial complexes and pairs, with generators.

Each connected component that does not meet the dropped subcomplex is
rooted first: its smallest vertex leaves the chain complex, which changes
homology only in degree 0 (Mrozek and Batko, "Coreduction homology
algorithm", Discrete Comput. Geom. 41, 2009).  H0 is then free on the
roots, and the coreductions cascade from each root along a spanning tree
and its dual.  The rest is shrunk by exact chain-complex reductions
(reduction.py), and the small residual complex is finished off with dense
Smith normal form.  Each degree's basis is fixed once per complex and
reused by every caller, so induced-map matrices are stable: it is read
once into coordinate rows, generator chains lifted into K once, and
witness columns (see _DimData).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Container, Mapping, Sequence

from .complexes import (
    ComplexError,
    Simplex,
    SimplicialComplex,
    _position,
    chain_boundary,
    derived,
    face_index,
    vertex_roots,
)
from .exact_linalg import IntegerMatrix, matmul, smith_normal_form
from .reduction import Chain, ChainComplexData, ReducedComplex, add_scaled, reduce_complex


class NotACycleError(ValueError):
    """The given chain is not a cycle."""


class InternalConsistencyError(RuntimeError):
    """Two routes that must agree by theorem disagreed: a toolkit bug."""


@dataclass(frozen=True)
class HomologyGroup:
    rank: int
    torsion: tuple[int, ...]  # divisibility chain, entries > 1

    def __str__(self) -> str:
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion


class _DimData:
    """Degree n of a reduced complex, read once into integer matrices.

    With U_A d_n V_A and U_B (V_A^-1[r:] d_{n+1}) V_B in Smith form, of
    ranks r and r2: cycle_rows = V_A^-1[:r] vanish on a cycle; coord_rows
    = U_B V_A^-1[r:] read its class (d_i-residues, then free coordinates);
    the residual generators are V_A[:, r:] U_B^-1[:, positions] (torsion,
    then free); bounding_cols = V_B[:, :r2] turn the quotients y_i / d_i of
    a boundary into an (n+1)-chain it bounds.
    """

    def __init__(self, cells_prev: list, cells: list, cells_next: list, boundary_of):
        self.cells = cells
        self.index = {c: i for i, c in enumerate(cells)}
        A = _boundary_matrix(cells_prev, cells, boundary_of)
        snfA = smith_normal_form(IntegerMatrix(len(cells_prev), len(cells), A))
        r = snfA.rank
        Vi = snfA.V_inv.to_lists()
        self.cycle_rows = Vi[:r]
        kernel_rows = Vi[r:]
        k = len(kernel_rows)
        Bp = matmul(kernel_rows, _boundary_matrix(cells, cells_next, boundary_of))
        snfB = smith_normal_form(IntegerMatrix(k, len(cells_next), Bp))
        self.r2 = snfB.rank
        self.d = snfB.diagonal[: self.r2]
        self.group = HomologyGroup(k - self.r2, tuple(d for d in self.d if d > 1))
        self.coord_rows = matmul(snfB.U.to_lists(), kernel_rows)
        positions = [i for i in range(self.r2) if self.d[i] > 1] + list(range(self.r2, k))
        Ui_cols = snfB.U_inv.transpose().to_lists()
        kernel_basis = snfA.V.transpose().to_lists()[r:]
        self.gens_residual: list[Chain] = [
            {c: v for c, v in zip(cells, vec) if v}
            for vec in matmul([Ui_cols[p] for p in positions], kernel_basis)
        ]
        self.bounding_cols = [row[: self.r2] for row in snfB.V.to_lists()]

    def homology_coords(self, res_chain: Chain) -> list[int]:
        """Coordinates y (length k) of a residual cycle, in the SNF basis."""
        x = [0] * len(self.cells)
        for c, v in res_chain.items():
            x[self.index[c]] = v
        if any(_dot(row, x) for row in self.cycle_rows):
            raise NotACycleError("chain is not a cycle")
        return [_dot(row, x) for row in self.coord_rows]


def _boundary_matrix(rows: list, cols: list, boundary_of) -> list[list[int]]:
    """The dense matrix of the boundary from the cells `cols` to the cells
    `rows` of a residual complex."""
    index = {c: i for i, c in enumerate(rows)}
    M = [[0] * len(cols) for _ in rows]
    for j, c in enumerate(cols):
        for f, coeff in boundary_of(c).items():
            M[index[f]][j] = coeff
    return M


def _dot(row: Sequence[int], x: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(row, x) if a and b)


class ComplexHomology:
    """Homology of K relative to the simplices in `dropped` (a subcomplex).

    The cells are the simplices of K not in `dropped`.  A cell is numbered
    by its position in K's sorted layers (see complexes.FaceIndex) plus the
    sizes of the layers below, so every homology of K shares one
    numbering; all public chains are keyed by the simplices.  The
    reduction reads K's face index and writes integer rows only for the
    cells that survive its zero-cost cascade: only the reduced complex is
    kept.

    The root of each component that does not meet `dropped` (see the
    module docstring) is left out of the cells too; degree 0 comes from
    the roots, and a 0-chain's class is its sum on each rooted component.
    """

    def __init__(self, K: SimplicialComplex, dropped: Container[Simplex]):
        root = vertex_roots(K)
        met = {root[v] for v in K.vertices if (v,) in dropped}
        self.roots: list[int] = [v for v, r in root.items() if v == r and r not in met]
        self._root_of = root
        self._root_index = {r: i for i, r in enumerate(self.roots)}
        # the layers, not K: a value derived from K must not refer back to it
        self._layers = tuple(K.simplices(d) for d in range(4))
        self._offsets = [0, *accumulate(len(layer) for layer in self._layers[:3])]
        # the dropped simplices and the roots are not cells
        non_cells = [
            self._offsets[d] + p
            for d, layer in enumerate(self._layers)
            for p, s in enumerate(layer)
            if s in dropped or (not d and s[0] in self._root_index)
        ]
        data = ChainComplexData(face_index(K), non_cells)
        self._rank = data.rank  # -1 marks a simplex that is not a cell
        self.reduced: ReducedComplex = reduce_complex(data)
        R = self.reduced
        self.dims: list[_DimData] = [
            _DimData(R.cells(n - 1), R.cells(n), R.cells(n + 1), R.boundary) for n in range(4)
        ]
        # every component meets dropped + roots, so nothing is left in degree 0
        if not self.dims[0].group.is_trivial:
            raise InternalConsistencyError("relative H0 survived the rooting")
        self._generators: dict[int, list[Chain]] = {0: [{(r,): 1} for r in self.roots]}

    def _cell(self, s) -> int | None:
        """The cell number of simplex s, or None if s is not a cell."""
        d = len(s) - 1
        p = _position(self._layers[d], s) if 0 <= d <= 3 else -1
        if p >= 0 and self._rank[self._offsets[d] + p] >= 0:
            return self._offsets[d] + p
        return None

    # -- public queries ----------------------------------------------------

    def group(self, n: int) -> HomologyGroup:
        if n == 0:
            return HomologyGroup(len(self.roots), ())
        if not 0 < n <= 3:
            return HomologyGroup(0, ())
        return self.dims[n].group

    def groups(self) -> list[HomologyGroup]:
        return [self.group(n) for n in range(4)]

    def betti(self, n: int) -> int:
        return self.group(n).rank

    def _to_ids(self, chain: Mapping) -> Chain:
        """The chain renumbered; root vertices are not cells and drop out."""
        out: Chain = {}
        for c, v in chain.items():
            if v:
                i = self._cell(c)
                if i is not None:
                    out[i] = v
                elif len(c) != 1 or c[0] not in self._root_index:
                    raise ComplexError(f"cell not in complex: {c}")
        return out

    def _to_cells(self, chain: Chain) -> Chain:
        out: Chain = {}
        for i, v in chain.items():
            d = bisect.bisect_right(self._offsets, i) - 1
            out[self._layers[d][i - self._offsets[d]]] = v
        return out

    def _cycle_ids(self, chain: Mapping, n: int) -> Chain:
        """The chain renumbered, once checked to be a (relative) n-cycle:
        its simplices have n + 1 vertices, and its boundary in K may only
        have faces outside the cells."""
        if not 0 <= n <= 3 or any(len(c) != n + 1 for c in chain):
            raise ComplexError(f"chain is not a {n}-chain of a complex of dimension at most 3")
        ids = self._to_ids(chain)
        if any(self._cell(f) is not None for f in chain_boundary(chain)):
            raise NotACycleError("chain has nonzero boundary")
        return ids

    def generators(self, n: int) -> list[Chain]:
        """Generator cycles in the original complex (torsion first, then
        free); in degree 0 the root vertices, and none outside 0..3.  Each
        degree is lifted once, and every call returns that shared list:
        the chains must not be mutated."""
        if not 0 <= n <= 3:
            return []
        if n not in self._generators:
            gens = self.dims[n].gens_residual
            self._generators[n] = [self._to_cells(self.reduced.include(g, n)) for g in gens]
        return self._generators[n]

    def free_generators(self, n: int) -> list[Chain]:
        return self.generators(n)[len(self.group(n).torsion):]

    def class_coords(self, chain: Mapping, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(free coordinates, torsion residues) of a cycle's homology class;
        in degree 0 the coefficient sum on each rooted component."""
        ids = self._cycle_ids(chain, n)
        if n == 0:
            sums = [0] * len(self.roots)
            for c, v in chain.items():
                if v:
                    i = self._root_index.get(self._root_of[c[0]])
                    if i is not None:
                        sums[i] += v
            return tuple(sums), ()
        d = self.dims[n]
        y = d.homology_coords(self.reduced.project(ids, n))
        free = tuple(y[d.r2:])
        torsion = tuple(y[i] % d.d[i] for i in range(d.r2) if d.d[i] > 1)
        return free, torsion

    def solve_boundary(self, chain: Mapping, n: int):
        """Return a (n+1)-chain w with dw = chain, or None if the class is
        nonzero.  In degree 0, w solves the problem relative to the roots,
        which is checked to solve it outright."""
        if n == 0 and any(self.class_coords(chain, 0)[0]):
            return None
        ids = self._cycle_ids(chain, n)
        d = self.dims[n]
        proj, hchain = self.reduced.project_with_homotopy(ids, n)
        y = d.homology_coords(proj)
        if any(y[i] % d.d[i] for i in range(d.r2)) or any(y[d.r2:]):
            return None
        coeffs = [y[i] // d.d[i] for i in range(d.r2)]
        cells_next = self.reduced.cells(n + 1)
        res_w = {c: v for c, row in zip(cells_next, d.bounding_cols) if (v := _dot(row, coeffs))}
        witness = self.reduced.include(res_w, n + 1)
        add_scaled(witness, hchain, 1)
        w = self._to_cells(witness)
        if n == 0:
            # dw - chain may only have faces in dropped: no cells, no roots
            rest = chain_boundary(w)
            add_scaled(rest, chain, -1)
            if any(self._cell(f) is not None or f[0] in self._root_index for f in rest):
                raise InternalConsistencyError("degree-0 boundary lift failed")
        return w


# -- factories -------------------------------------------------------------


@derived
def homology_of(K: SimplicialComplex) -> ComplexHomology:
    return ComplexHomology(K, frozenset())


@derived
def homology_of_pair(K: SimplicialComplex, A: SimplicialComplex) -> ComplexHomology:
    if not K.contains(A):
        raise ComplexError("A is not a subcomplex of K")
    return ComplexHomology(K, set(A.all_simplices()))


# -- spec-level operations -------------------------------------------------


def homology_groups(K: SimplicialComplex) -> list[HomologyGroup]:
    """H_n(K; Z) for n = 0..3."""
    return homology_of(K).groups()


def relative_homology(K: SimplicialComplex, A: SimplicialComplex) -> list[HomologyGroup]:
    """H_n(K, A; Z) for n = 0..3 via the quotient chain complex."""
    return homology_of_pair(K, A).groups()


@dataclass(frozen=True)
class InducedMap:
    """Inclusion-induced map H_n(L) -> H_n(K) on the SNF-fixed bases."""

    matrix: IntegerMatrix  # rows: free basis of H_n(K); cols: generators of H_n(L)
    image_rank: int
    image_is_zero: bool


def induced_map_image(K: SimplicialComplex, L: SimplicialComplex, n: int) -> InducedMap:
    if not K.contains(L):
        raise ComplexError("L is not a subcomplex of K")
    HL = homology_of(L)
    HK = homology_of(K)
    gens = HL.generators(n)
    cols = [HK.class_coords(g, n)[0] for g in gens]
    # exact vanishing test, torsion included: every generator must bound in K
    zero = all(HK.solve_boundary(g, n) is not None for g in gens)
    rows = HK.betti(n)
    M = IntegerMatrix(rows, len(cols), [[c[i] for c in cols] for i in range(rows)])
    rank = smith_normal_form(M).rank if rows and cols else 0
    return InducedMap(M, rank, zero)


@dataclass(frozen=True)
class BoundaryWitness:
    bounds: bool
    chain: Chain | None  # 2-chain with boundary z, when bounds
    obstruction: tuple[tuple[int, ...], tuple[int, ...]] | None  # (free, torsion) class


def is_boundary_witness(K: SimplicialComplex, z: Mapping[Simplex, int]) -> BoundaryWitness:
    """Integer 2-chain bounding the 1-cycle z, or its obstruction class."""
    H = homology_of(K)
    z = {tuple(c): v for c, v in z.items() if v}
    for c in z:
        if len(c) != 2 or not K.has_simplex(c):
            raise ComplexError(f"not an edge of the complex: {c}")
    if chain_boundary(z):
        raise NotACycleError("1-chain has nonzero boundary")
    w = H.solve_boundary(z, 1)
    if w is None:
        return BoundaryWitness(False, None, H.class_coords(z, 1))
    _verify_boundary(K, w, z)
    return BoundaryWitness(True, w, None)


def _verify_boundary(K: SimplicialComplex, w: Chain, z: Mapping) -> None:
    if any(len(t) != 3 or not K.has_simplex(t) for t in w) or chain_boundary(w) != z:
        raise InternalConsistencyError("boundary witness verification failed")


def betti_numbers(K: SimplicialComplex) -> tuple[int, int, int, int]:
    return tuple(g.rank for g in homology_groups(K))  # type: ignore[return-value]

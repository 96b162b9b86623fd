"""Surface systems, the cut/open operation, and cut-system classification.

A surface system lives in a domain complex K, one that passes
complexes.check_domain (see helmcut.domains); every entry point here runs
that check first.  A surface system in K is a finite family of disjoint,
connected, two-sided, properly embedded surfaces; K is orientable, and in
an orientable K a properly embedded surface is two-sided exactly when it
is orientable, so sidedness is read from the surface's own orientation.
Cutting K along the system is realized combinatorially in a derived
subdivision K'' of K near the surfaces S (Rourke-Sanderson, Introduction
to PL topology, ch. 3, derived neighbourhoods): star each simplex of K
that has a vertex in S at its barycenter, in decreasing dimension, and
leave every other simplex whole.  The derived S'' of S is full in K'', so
K minus S deformation-retracts onto the complement of the open simplicial
neighbourhood of S'', the full subcomplex on the vertices off S''.  So the
pieces are homotopy equivalent to the components of K minus the surfaces,
which fixes their homology; they need not be 3-manifolds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .complexes import (
    ComplexError,
    MarkedComplex,
    Simplex,
    SimplicialComplex,
    as_domain,
    boundary_subcomplex,
    connected_components,
    face_index,
    last_vertex_map,
    orient_surface,
    push_cycle,
)
from .exact_linalg import IntegerMatrix, smith_normal_form
from .homology import (
    Chain,
    InternalConsistencyError,
    homology_of,
    homology_of_pair,
    is_boundary_witness,
)


class SurfaceSystemError(ComplexError):
    """A proposed surface system violates an invariant."""

    def __init__(self, diagnostic: str, message: str):
        super().__init__(f"{diagnostic}: {message}")
        self.diagnostic = diagnostic


@dataclass(frozen=True)
class SurfaceSystem:
    """Named disjoint surfaces, each given by its generating triangles."""

    names: tuple[str, ...]
    triangles: tuple[tuple[Simplex, ...], ...]

    def __len__(self) -> int:
        return len(self.names)


def surface_system_from_marks(M: MarkedComplex, names: Sequence[str] | None = None) -> SurfaceSystem:
    if names is None:
        names = sorted(M.marks)
    tris = []
    for i, name in enumerate(names):
        if name not in M.marks:
            raise ComplexError(f"unknown marked subcomplex: {name!r}")
        if name in names[:i]:
            raise ComplexError(f"marked subcomplex named twice: {name!r}")
        tris.append(tuple(M.marks[name]))
    return SurfaceSystem(tuple(names), tuple(tris))


# -- validation ------------------------------------------------------------


def validate_surface_system(K, F: SurfaceSystem) -> list[SimplicialComplex]:
    """Check all surface-system invariants; returns the surfaces as
    subcomplexes.  Raises NotADomainError (complexes.check_domain), then
    SurfaceSystemError with a diagnostic tag (overlap, disconnected,
    non-surface, one-sided, boundary-leak) on the first violated invariant."""
    KC = as_domain(K)
    bd = boundary_subcomplex(KC)
    bd_edges, bd_tris = set(bd.simplices(1)), set(bd.simplices(2))

    surfaces = []
    seen: dict[Simplex, str] = {}
    for name, tris in zip(F.names, F.triangles):
        if not tris:
            raise SurfaceSystemError("non-surface", f"{name} has no triangles")
        S = KC.subcomplex(tris)
        if S.dimension != 2 or S.simplices(3):
            raise SurfaceSystemError("non-surface", f"{name} is not 2-dimensional")
        if len(connected_components(S)) != 1:
            raise SurfaceSystemError("disconnected", f"{name} is not connected")
        # every simplex belongs to at most one surface
        for dim in range(3):
            for s in S.simplices(dim):
                if s in seen:
                    raise SurfaceSystemError(
                        "overlap", f"{name} and {seen[s]} share {s}"
                    )
                seen[s] = name
        # manifold condition and boundary behaviour
        s_index = face_index(S)
        counts = [len(s_index.cofaces_of(1, q)) for q in range(len(S.simplices(1)))]
        for e, c in zip(S.simplices(1), counts):
            if not 1 <= c <= 2:
                raise SurfaceSystemError("non-surface", f"edge {e} of {name} has {c} triangles")
        for e, c in zip(S.simplices(1), counts):
            if c == 1 and e not in bd_edges:
                raise SurfaceSystemError(
                    "boundary-leak", f"boundary edge {e} of {name} is not on the domain boundary"
                )
            if c == 2 and e in bd_edges:
                raise SurfaceSystemError(
                    "boundary-leak", f"interior edge {e} of {name} lies on the domain boundary"
                )
        rim = {v for e, c in zip(S.simplices(1), counts) if c == 1 for v in e}
        for (v,) in S.simplices(0):
            if v not in rim and bd.has_simplex((v,)):
                raise SurfaceSystemError(
                    "boundary-leak", f"interior vertex {v} of {name} lies on the domain boundary"
                )
        for t in S.simplices(2):
            if t in bd_tris:
                raise SurfaceSystemError(
                    "boundary-leak", f"triangle {t} of {name} is not interior to the domain"
                )
        # K is orientable, and in an orientable 3-manifold a properly
        # embedded surface S is two-sided exactly when it is orientable:
        # TK|S = TS + the normal line bundle, so w1 of that bundle is w1(S)
        if orient_surface(S) is None:
            raise SurfaceSystemError("one-sided", f"{name} has no consistent transverse orientation")
        surfaces.append(S)
    return surfaces


# -- cut/open --------------------------------------------------------------


@dataclass(frozen=True)
class CutResult:
    components: tuple[SimplicialComplex, ...]
    vertex_map: dict  # vertex of the cut complex -> last vertex of its simplex of K

    @property
    def component_count(self) -> int:
        return len(self.components)


def cut_open(K, F: SurfaceSystem) -> CutResult:
    """Cut a domain complex along a validated surface system.

    The cut complex is the full subcomplex of the derived subdivision K''
    of K near the surfaces on the vertices off the derived surfaces, each
    labelled by the index of its simplex in K.all_simplices().  Its
    components are homotopy equivalent to the components of K minus the
    surfaces (see the module docstring), but need not be 3-manifolds.  The
    returned vertex map, the last-vertex simplicial approximation of the
    identity K'' -> K, carries cut cycles back into K.
    """
    surfaces = validate_surface_system(K, F)
    return _cut(as_domain(K), surfaces)


def _cut(KC: SimplicialComplex, surfaces: Sequence[SimplicialComplex]) -> CutResult:
    if not surfaces:
        # cutting a domain, which is connected, along nothing is the identity
        return CutResult((KC,), {v: v for v in KC.vertices})
    all_simplices = KC.all_simplices()
    label = {s: i for i, s in enumerate(all_simplices)}
    near = {v for S in surfaces for v in S.vertices}
    # below[s]: the top simplices of K'' inside s; a simplex that meets S
    # is starred at its barycenter over the pieces of its facets
    below: dict[Simplex, list[tuple[int, ...]]] = {}
    for s in all_simplices:  # sorted by dim, so faces come first
        if len(s) > 1 and not near.isdisjoint(s):
            below[s] = [p + (label[s],) for f in combinations(s, len(s) - 1) for p in below[f]]
        else:
            below[s] = [tuple(label[(v,)] for v in s)]
    in_surfaces = {label[s] for S in surfaces for s in S.all_simplices()}
    # K'' is pure, so the full subcomplex off S'' is generated by the
    # surviving faces of its tetrahedra
    pieces = (p for t in KC.simplices(3) for p in below[t])
    cut = SimplicialComplex.from_simplices(
        kept for p in pieces if (kept := [v for v in p if v not in in_surfaces])
    )
    vertex_map = last_vertex_map({v: all_simplices[v] for v in cut.vertices})
    return CutResult(connected_components(cut), vertex_map)


# -- relative classes ------------------------------------------------------


@dataclass(frozen=True)
class RelativeClassData:
    matrix: IntegerMatrix  # columns: [Sigma_i]; rows: free basis of H2(K, dK)
    rank: int
    chains: tuple[Chain, ...]  # the oriented relative 2-cycles


def relative_surface_classes(K, F: SurfaceSystem) -> RelativeClassData:
    """Express each (oriented) surface of the system as a relative 2-cycle
    and report the coordinates in the fixed basis of H2(K, boundary), plus
    the rank of their span.

    Orientations are fixed by the smallest-triangle convention; flipping an
    orientation flips the sign of its column but never the rank.
    """
    surfaces = validate_surface_system(K, F)
    return _relative_classes(as_domain(K), surfaces)


def _relative_classes(
    KC: SimplicialComplex, surfaces: Sequence[SimplicialComplex]
) -> RelativeClassData:
    bd = boundary_subcomplex(KC)
    H = homology_of_pair(KC, bd)
    chains = [orient_surface(S) for S in surfaces]
    cols = [H.class_coords(chain, 2)[0] for chain in chains]
    rows = H.betti(2)
    Mx = IntegerMatrix(rows, len(cols), [[c[i] for c in cols] for i in range(rows)])
    rank = smith_normal_form(Mx).rank if rows and cols else 0
    return RelativeClassData(Mx, rank, tuple(chains))


# -- classification --------------------------------------------------------


@dataclass(frozen=True)
class CutVerdict:
    system_size: int
    component_count: int
    component_betti: tuple[tuple[int, int, int, int], ...]
    is_helmholtz_cut_system: bool
    is_weak_cut_system: bool
    is_minimal_weak: bool
    relative_class_matrix: IntegerMatrix
    relative_class_rank: int

    @property
    def independent(self) -> bool:
        return self.relative_class_rank == self.system_size

    @property
    def cut_connected(self) -> bool:
        return self.component_count == 1

    def to_json(self) -> dict:
        return {
            "system_size": self.system_size,
            "component_count": self.component_count,
            "component_betti": [list(b) for b in self.component_betti],
            "is_helmholtz_cut_system": self.is_helmholtz_cut_system,
            "is_weak_cut_system": self.is_weak_cut_system,
            "is_minimal_weak": self.is_minimal_weak,
            "relative_class_matrix": self.relative_class_matrix.to_lists(),
            "relative_class_rank": self.relative_class_rank,
        }


def classify_cut_system(K, F: SurfaceSystem) -> CutVerdict:
    """Classify a surface system:

    - Helmholtz cut-system: every cut component has b1 = 0.
    - weak cut-system: the relative classes span rank b1(K); cross-checked
      against the direct criterion that every cut component's H1 maps to
      zero in H1(K) (integrally, with witnesses).
    - minimal weak: weak with exactly b1(K) surfaces and connected cut.
    """
    return _classify(as_domain(K), validate_surface_system(K, F))


def _classify(KC: SimplicialComplex, surfaces: Sequence[SimplicialComplex]) -> CutVerdict:
    rel = _relative_classes(KC, surfaces)
    cut = _cut(KC, surfaces)
    betti = []
    beta4_vanishes = True
    for comp in cut.components:
        Hc = homology_of(comp)
        betti.append(tuple(Hc.betti(n) for n in range(4)))
        for gen in Hc.generators(1):
            pushed = push_cycle(gen, cut.vertex_map)
            if pushed and not is_boundary_witness(KC, pushed).bounds:
                beta4_vanishes = False
    b1 = homology_of(KC).betti(1)
    weak_by_rank = rel.rank == b1
    if weak_by_rank != beta4_vanishes:
        raise InternalConsistencyError(
            "relative-class rank criterion and direct component-H1 check disagree"
        )
    helmholtz = all(b[1] == 0 for b in betti)
    minimal = weak_by_rank and len(surfaces) == b1 and cut.component_count == 1
    return CutVerdict(
        len(surfaces),
        cut.component_count,
        tuple(betti),
        helmholtz,
        weak_by_rank,
        minimal,
        rel.matrix,
        rel.rank,
    )


_SUBSET_SEARCH_LIMIT = 6  # the search classifies up to C(|F|, b1) cuts


def find_minimal_weak_subsets(K, F: SurfaceSystem) -> list[tuple[str, ...]]:
    """Exhaustive search (|F| <= 6) for subsets of the system that are
    minimal weak cut-systems with connected cut.  The whole system is
    validated once, so every subset of it is valid too."""
    if len(F) > _SUBSET_SEARCH_LIMIT:
        raise ComplexError(f"subset search limited to systems of size <= {_SUBSET_SEARCH_LIMIT}")
    KC = as_domain(K)
    surfaces = validate_surface_system(KC, F)
    return [
        tuple(F.names[i] for i in idx)
        for idx in combinations(range(len(F)), homology_of(KC).betti(1))
        if _classify(KC, [surfaces[i] for i in idx]).is_minimal_weak
    ]

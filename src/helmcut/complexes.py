"""Finite abstract simplicial complexes of dimension <= 3.

Vertices are integer labels.  A simplex is a sorted tuple of distinct
vertices; the sorted tuple is the positive orientation.  All operations are
pure: complexes are immutable after construction.
"""

from __future__ import annotations

import bisect
import functools
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

Simplex = tuple[int, ...]


class ComplexError(ValueError):
    """Invalid input to a simplicial-complex operation."""


def _faces(simplex: Simplex) -> list[Simplex]:
    """All codimension-1 faces, in vertex-deletion order."""
    return [simplex[:i] + simplex[i + 1:] for i in range(len(simplex))]


_CacheInfo = namedtuple("CacheInfo", "hits misses")


def derived(fn):
    """Memoize fn(obj, *args) in obj._derived, so that the value lives
    exactly as long as obj.  Equal objects do not share values.
    cache_info() counts hits and misses over all objects."""
    counts = [0, 0]

    @functools.wraps(fn)
    def wrapper(obj, *args):
        key = (fn, args)
        if key in obj._derived:
            counts[0] += 1
        else:
            counts[1] += 1
            obj._derived[key] = fn(obj, *args)
        return obj._derived[key]

    wrapper.cache_info = lambda: _CacheInfo(*counts)
    return wrapper


class SimplicialComplex:
    """Immutable simplicial complex, closed under faces, dim <= 3."""

    __slots__ = ("_simplices", "_hash", "_derived")

    def __init__(self, simplices_by_dim: Sequence[Sequence[Simplex]]):
        # Trusted constructor: callers must pass face-closed, sorted data.
        self._simplices = tuple(tuple(s) for s in simplices_by_dim)
        self._hash = hash(self._simplices)
        self._derived: dict = {}  # see derived()

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_simplices(simplex_list: Iterable[Sequence[int]]) -> "SimplicialComplex":
        by_dim: list[set[Simplex]] = [set(), set(), set(), set()]
        for raw in simplex_list:
            verts = tuple(sorted(int(v) for v in raw))
            if len(verts) == 0 or len(verts) > 4:
                raise ComplexError(f"simplex must have 1-4 vertices: {raw!r}")
            if len(set(verts)) != len(verts):
                raise ComplexError(f"malformed simplex (repeated vertex): {raw!r}")
            by_dim[len(verts) - 1].add(verts)
        # face closure
        for dim in (3, 2, 1):
            for s in list(by_dim[dim]):
                for f in _faces(s):
                    by_dim[dim - 1].add(f)
        return SimplicialComplex([sorted(d) for d in by_dim])

    # -- basic queries -----------------------------------------------------

    def simplices(self, dim: int) -> tuple[Simplex, ...]:
        if not 0 <= dim <= 3:
            return ()
        return self._simplices[dim]

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(s[0] for s in self._simplices[0])

    @property
    def dimension(self) -> int:
        for dim in (3, 2, 1, 0):
            if self._simplices[dim]:
                return dim
        return -1  # empty complex

    def all_simplices(self) -> list[Simplex]:
        out: list[Simplex] = []
        for dim in range(4):
            out.extend(self._simplices[dim])
        return out

    def has_simplex(self, simplex: Sequence[int]) -> bool:
        s = tuple(sorted(simplex))
        k = len(s) - 1
        if not 0 <= k <= 3:
            return False
        # every layer is sorted (see __init__)
        layer = self._simplices[k]
        i = bisect.bisect_left(layer, s)
        return i < len(layer) and layer[i] == s

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self._simplices == other._simplices

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        counts = [len(d) for d in self._simplices]
        return f"SimplicialComplex(f-vector={counts})"

    # -- derived complexes -------------------------------------------------

    def subcomplex(self, generators: Iterable[Sequence[int]]) -> "SimplicialComplex":
        """Face closure of the given simplices; all must belong to self."""
        sub = SimplicialComplex.from_simplices(generators)
        for s in sub.all_simplices():
            if not self.has_simplex(s):
                raise ComplexError(f"simplex {s} not in ambient complex")
        return sub

    def contains(self, other: "SimplicialComplex") -> bool:
        return all(self.has_simplex(s) for s in other.all_simplices())


def build_complex(simplex_list: Iterable[Sequence[int]]) -> SimplicialComplex:
    """Face closure of the given simplices (1-4 distinct vertices each)."""
    return SimplicialComplex.from_simplices(simplex_list)


def euler_characteristic(K: SimplicialComplex) -> int:
    return sum((-1) ** d * len(K.simplices(d)) for d in range(4))


def chain_boundary(chain: Mapping[Simplex, int]) -> dict[Simplex, int]:
    """Boundary of a sparse chain, from its own simplices' faces: face f of
    simplex s gets (-1)**i where f omits the i-th vertex of s.  Vertices
    have no boundary; zero coefficients are dropped."""
    out: dict[Simplex, int] = {}
    for s, coeff in chain.items():
        if not coeff or len(s) < 2:
            continue
        for i, f in enumerate(_faces(s)):
            new = out.get(f, 0) + (coeff if i % 2 == 0 else -coeff)
            if new:
                out[f] = new
            else:
                del out[f]
    return out


def is_pure_3(K: SimplicialComplex) -> bool:
    tets = K.simplices(3)
    if not tets:
        return False
    # K is face-closed, so every simplex is covered iff the faces of faces
    # of the tetrahedra, layer by layer, number as many as the simplices.
    layer = set(tets)
    covered = len(layer)
    for _ in range(3):
        layer = {f for s in layer for f in _faces(s)}
        covered += len(layer)
    return covered == sum(len(K.simplices(d)) for d in range(4))


@derived
def boundary_subcomplex(K: SimplicialComplex) -> SimplicialComplex:
    """Subcomplex generated by triangles incident to exactly one tetrahedron."""
    if not is_pure_3(K):
        raise ComplexError("boundary_subcomplex requires a pure 3-complex")
    count: dict[Simplex, int] = {}
    for t in K.simplices(3):
        for f in _faces(t):
            count[f] = count.get(f, 0) + 1
    return build_complex([f for f, c in count.items() if c == 1])


@derived
def vertex_roots(K: SimplicialComplex) -> dict[int, int]:
    """Vertex -> the smallest vertex of its connected component (vertex-edge
    connectivity), in K's vertex order.  The roots are the vertices that
    map to themselves.  The result is shared, so it must not be mutated."""
    parent: dict[int, int] = {v: v for v in K.vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in K.simplices(1):
        ra, rb = find(a), find(b)
        if ra < rb:
            parent[rb] = ra
        elif rb < ra:
            parent[ra] = rb
    return {v: find(v) for v in parent}


@derived
def connected_components(K: SimplicialComplex) -> tuple[SimplicialComplex, ...]:
    """Partition by vertex-edge connectivity (sorted by smallest vertex)."""
    root = vertex_roots(K)
    groups: dict[int, list[list[Simplex]]] = {}
    for dim in range(4):
        for s in K.simplices(dim):
            groups.setdefault(root[s[0]], [[], [], [], []])[dim].append(s)
    # each group keeps K's sorted order and is closed under faces; the
    # vertices come first in sorted order, so the groups are keyed in
    # increasing order of their smallest vertex
    return tuple(SimplicialComplex(g) for g in groups.values())


# -- barycentric subdivision ----------------------------------------------


def barycentric_subdivide_with_map(
    K: SimplicialComplex,
) -> tuple[SimplicialComplex, dict[int, Simplex]]:
    """Barycentric subdivision plus the map new-vertex -> original simplex.

    New vertex labels are the indices of the original simplices in the
    (dimension, tuple)-sorted order, so the result is deterministic.
    """
    all_simplices = K.all_simplices()
    vid = {s: i for i, s in enumerate(all_simplices)}
    # Chains of the face poset ending at each simplex, memoized.
    chains_at: dict[Simplex, list[tuple[int, ...]]] = {}
    for s in all_simplices:  # sorted by dim, so faces come first
        own = (vid[s],)
        chains = [own]
        if len(s) > 1:
            for f in _proper_faces(s):
                for ch in chains_at[f]:
                    chains.append(ch + own)
        chains_at[s] = chains
    # A chain lists its labels in increasing order (faces come first) and
    # every face of a chain is a chain, so the layers need no face closure.
    by_dim: list[list[Simplex]] = [[], [], [], []]
    for chains in chains_at.values():
        for ch in chains:
            by_dim[len(ch) - 1].append(ch)
    return SimplicialComplex([sorted(d) for d in by_dim]), {i: s for s, i in vid.items()}


def _proper_faces(simplex: Simplex) -> list[Simplex]:
    """All proper nonempty faces."""
    out = []
    n = len(simplex)
    for mask in range(1, (1 << n) - 1):
        out.append(tuple(simplex[i] for i in range(n) if mask >> i & 1))
    return out


def barycentric_subdivide(K: SimplicialComplex) -> SimplicialComplex:
    return barycentric_subdivide_with_map(K)[0]


def last_vertex_map(vertex_to_simplex: Mapping[int, Simplex]) -> dict[int, int]:
    """Simplicial approximation of the identity K' -> K (barycenter -> max vertex)."""
    return {v: max(s) for v, s in vertex_to_simplex.items()}


def push_cycle(cycle: Mapping[Simplex, int], vertex_map: Mapping[int, int]) -> dict[Simplex, int]:
    """Push a 1-chain through a simplicial vertex map (degenerate edges drop)."""
    out: dict[Simplex, int] = {}
    for (a, b), coeff in cycle.items():
        ia, ib = vertex_map[a], vertex_map[b]
        if ia == ib:
            continue
        sign = 1 if ia < ib else -1
        e = (min(ia, ib), max(ia, ib))
        out[e] = out.get(e, 0) + sign * coeff
        if out[e] == 0:
            del out[e]
    return out


# -- closed surfaces -------------------------------------------------------


@dataclass(frozen=True)
class SurfaceComponentInfo:
    euler_characteristic: int
    orientable: bool
    genus: int | None  # (2 - chi) / 2 for orientable components, else None


@dataclass(frozen=True)
class SurfaceInfo:
    components: tuple[SurfaceComponentInfo, ...]

    @property
    def component_count(self) -> int:
        return len(self.components)

    @property
    def euler_characteristic(self) -> int:
        return sum(c.euler_characteristic for c in self.components)

    @property
    def orientable(self) -> bool:
        return all(c.orientable for c in self.components)

    @property
    def genus_list(self) -> tuple[int | None, ...]:
        return tuple(c.genus for c in self.components)


def _edge_triangles(S: SimplicialComplex) -> dict[Simplex, list[tuple[Simplex, int]]]:
    """Edge -> [(triangle, coefficient of the edge in the boundary of the
    triangle), ...] for every edge of S, in one pass over the triangles."""
    table: dict[Simplex, list[tuple[Simplex, int]]] = {e: [] for e in S.simplices(1)}
    for t in S.simplices(2):
        a, b, c = t
        table[(b, c)].append((t, 1))
        table[(a, c)].append((t, -1))
        table[(a, b)].append((t, 1))
    return table


def _check_closed_surface(S: SimplicialComplex) -> None:
    if S.simplices(3):
        raise ComplexError("not a surface: contains tetrahedra")
    for e, tris in _edge_triangles(S).items():
        if len(tris) != 2:
            raise ComplexError(f"not a closed surface: edge {e} has {len(tris)} triangles")


@derived
def orient_surface(S: SimplicialComplex) -> dict[Simplex, int] | None:
    """Consistent triangle orientations (sign per sorted triangle), or None.

    The component containing the smallest triangle gets that triangle with
    sign +1; other components likewise from their smallest triangle.
    Orientation propagates only across edges of exactly 2 triangles, so a
    surface may have boundary; callers that need a closed surface check it
    first.  The result is memoized on S and shared by every caller, so it
    must not be mutated.
    """
    at_edge = _edge_triangles(S)
    sign: dict[Simplex, int] = {}
    for t0 in S.simplices(2):
        if t0 in sign:
            continue
        sign[t0] = 1
        stack = [t0]
        while stack:
            t = stack.pop()
            for e in _faces(t):
                pair = at_edge[e]
                if len(pair) != 2:
                    continue
                (t1, c1), (t2, c2) = pair
                other = t2 if t == t1 else t1
                # opposite induced orientations on the shared edge
                want = -sign[t] * c1 * c2
                if other in sign:
                    if sign[other] != want:
                        return None
                else:
                    sign[other] = want
                    stack.append(other)
    return sign


@derived
def surface_info(S: SimplicialComplex) -> SurfaceInfo:
    """Per-component Euler characteristic, orientability and genus."""
    _check_closed_surface(S)
    infos = []
    for comp in connected_components(S):
        chi = euler_characteristic(comp)
        orientable = orient_surface(comp) is not None
        genus: int | None = None
        if orientable:
            if chi % 2:
                raise ComplexError("odd Euler characteristic on an orientable closed surface")
            genus = (2 - chi) // 2
        infos.append(SurfaceComponentInfo(chi, orientable, genus))
    return SurfaceInfo(tuple(infos))


# -- products and mapping tori --------------------------------------------


def _prism_pieces(simplex: Simplex, bottom: Callable[[int], int], top: Callable[[int], int]):
    """Staircase split of simplex x [0,1] into len(simplex) simplices."""
    k = len(simplex)
    for j in range(k):
        yield tuple(bottom(v) for v in simplex[: j + 1]) + tuple(top(v) for v in simplex[j:])


def _product_simplices(
    S: SimplicialComplex, steps: int, label: Callable[[int, int], int]
) -> list[Simplex]:
    out: list[Simplex] = []
    # prisms over every simplex, so lower-dim maximal simplices are covered
    # too; face closure removes duplicates.
    gens: list[Simplex] = []
    for d in range(4):
        gens.extend(S.simplices(d))
    for t in range(steps):
        for s in gens:
            for piece in _prism_pieces(s, lambda v: label(v, t), lambda v: label(v, t + 1)):
                out.append(piece)
    return out


class MarkedComplex:
    """A complex with named marked subcomplexes (given by generating simplices)."""

    __slots__ = ("complex", "marks")

    def __init__(self, complex: SimplicialComplex, marks: Mapping[str, Sequence[Simplex]]):
        self.complex = complex
        self.marks = {
            name: tuple(sorted(tuple(sorted(s)) for s in gens))
            for name, gens in marks.items()
        }

    def mark(self, name: str) -> SimplicialComplex:
        if name not in self.marks:
            raise ComplexError(f"unknown marked subcomplex: {name!r}")
        return self.complex.subcomplex(self.marks[name])


def product_with_interval(S: SimplicialComplex, steps: int = 1) -> MarkedComplex:
    """Triangulated S x [0,1] with marked copies "bottom" (S x 0) and "top" (S x 1)."""
    if S.dimension > 2:
        raise ComplexError("product_with_interval requires dim <= 2")
    if steps < 1:
        raise ComplexError("steps must be positive")
    verts = sorted(S.vertices)
    idx = {v: i for i, v in enumerate(verts)}

    def label(v: int, t: int) -> int:
        return idx[v] * (steps + 1) + t

    K = build_complex(_product_simplices(S, steps, label))
    marks = {
        "bottom": [tuple(label(v, 0) for v in s) for s in _maximal(S)],
        "top": [tuple(label(v, steps) for v in s) for s in _maximal(S)],
    }
    return MarkedComplex(K, marks)


def _maximal(S: SimplicialComplex) -> list[Simplex]:
    faces: set[Simplex] = set()
    for d in (3, 2, 1):
        for s in S.simplices(d):
            for f in _faces(s):
                faces.add(f)
    return [s for d in range(4) for s in S.simplices(d) if s not in faces]


def mapping_torus(
    S: SimplicialComplex, phi: Mapping[int, int], steps: int = 3
) -> MarkedComplex:
    """Triangulated (S x [0,1]) / ((x,1) ~ (phi(x),0)) with marked "fiber" S x 0.

    phi must be a simplicial automorphism of S; steps >= 3 keeps the glued
    triangulation simplicial for automorphisms without fixed simplices.
    """
    verts = sorted(S.vertices)
    if sorted(phi.keys()) != verts or sorted(phi.values()) != verts:
        raise ComplexError("phi is not a vertex bijection of S")
    for d in range(4):
        for s in S.simplices(d):
            if not S.has_simplex([phi[v] for v in s]):
                raise ComplexError(f"phi is not simplicial: image of {s} missing")
    if steps < 1:
        raise ComplexError("steps must be positive")
    idx = {v: i for i, v in enumerate(verts)}

    def label(v: int, t: int) -> int:
        if t == steps:
            return idx[phi[v]] * steps
        return idx[v] * steps + t

    pieces = _product_simplices(S, steps, label)
    for p in pieces:
        if len(set(p)) != len(p):
            raise ComplexError("mapping torus gluing is degenerate; increase steps")
    K = build_complex(pieces)
    dim = S.dimension
    expected = (dim + 1) * steps * len(S.simplices(dim))
    if len(K.simplices(dim + 1)) != expected:
        raise ComplexError("mapping torus gluing identified distinct simplices; increase steps")
    marks = {"fiber": [tuple(label(v, 0) for v in s) for s in _maximal(S)]}
    return MarkedComplex(K, marks)


# -- JSON complex format ---------------------------------------------------


def marked_complex_from_json(data: Mapping) -> MarkedComplex:
    """Parsed JSON {"simplices": [[v, ...], ...], "marked_subcomplexes":
    {name: [[v, ...], ...]}} with integer (not boolean) vertex labels; any
    other shape raises ComplexError."""
    if not isinstance(data, Mapping) or "simplices" not in data:
        raise ComplexError('JSON complex must have a "simplices" array')
    K = build_complex(_json_simplices(data["simplices"], '"simplices"'))
    marks_raw = data.get("marked_subcomplexes", {})
    if not isinstance(marks_raw, Mapping):
        raise ComplexError('"marked_subcomplexes" must be an object')
    marks = {}
    for name, gens in marks_raw.items():
        marks[name] = [tuple(sorted(s)) for s in _json_simplices(gens, f"mark {name!r}")]
        for s in marks[name]:
            if not K.has_simplex(s):
                raise ComplexError(f"marked simplex {s} of {name!r} not in complex")
    return MarkedComplex(K, marks)


def _json_simplices(raw, what: str) -> list[list[int]]:
    if not isinstance(raw, list) or not all(
        isinstance(s, list) and all(type(v) is int for v in s) for s in raw
    ):
        raise ComplexError(f"{what} must be an array of arrays of integer vertex labels")
    return raw


def marked_complex_to_json(M: MarkedComplex) -> dict:
    out: dict = {"simplices": [list(s) for s in _maximal(M.complex)]}
    if M.marks:
        out["marked_subcomplexes"] = {
            name: [list(s) for s in gens] for name, gens in sorted(M.marks.items())
        }
    return out

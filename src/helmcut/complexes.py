"""Finite abstract simplicial complexes of dimension <= 3.

Vertices are integer labels.  A simplex is a sorted tuple of distinct
vertices; the sorted tuple is the positive orientation.  All operations are
pure: complexes are immutable after construction.
"""

from __future__ import annotations

import bisect
import functools
from array import array
from collections import namedtuple
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

Simplex = tuple[int, ...]


class ComplexError(ValueError):
    """Invalid input to a simplicial-complex operation."""


def _faces(simplex: Simplex) -> list[Simplex]:
    """All codimension-1 faces, in vertex-deletion order."""
    return [simplex[:i] + simplex[i + 1:] for i in range(len(simplex))]


def _layer_faces(layer: Iterable[Simplex]) -> list[Iterable[Simplex]]:
    """The faces of every simplex of a layer of d-simplices, one iterator
    per deleted position k = 0..d, each in the order of the layer."""
    cols = list(zip(*layer))
    return [zip(*cols[:k], *cols[k + 1:]) for k in range(len(cols))]


def _position(layer: Sequence[Simplex], simplex: Simplex) -> int:
    """Index of simplex in a sorted layer, or -1 if it is not there."""
    i = bisect.bisect_left(layer, simplex)
    return i if i < len(layer) and layer[i] == simplex else -1


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
            verts = tuple(raw)
            if not all(type(v) is int for v in verts):
                raise ComplexError(f"vertex labels must be integers: {raw!r}")
            if len(verts) == 0 or len(verts) > 4:
                raise ComplexError(f"simplex must have 1-4 vertices: {raw!r}")
            if len(set(verts)) != len(verts):
                raise ComplexError(f"malformed simplex (repeated vertex): {raw!r}")
            by_dim[len(verts) - 1].add(tuple(sorted(verts)))
        # face closure, one layer at a time
        for dim in (3, 2, 1):
            by_dim[dim - 1].update(*_layer_faces(by_dim[dim]))
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
        # every layer is sorted (see __init__)
        return 1 <= len(s) <= 4 and _position(self._simplices[len(s) - 1], s) >= 0

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


class FaceIndex(NamedTuple):
    """Face incidence of a complex, by position in its sorted layers.

    faces[d][(d + 1) * p + k] is the position in layer d - 1 of the face of
    simplex p of layer d that omits its k-th vertex (vertex-deletion
    order).  The cofaces of simplex p of layer d are the positions
    cofaces[d][coface_start[d][p]:coface_start[d][p + 1]] in layer d + 1,
    in increasing order."""

    faces: tuple[array, ...]
    coface_start: tuple[array, ...]
    cofaces: tuple[array, ...]

    def faces_of(self, d: int, p: int) -> array:
        return self.faces[d][(d + 1) * p:(d + 1) * (p + 1)]

    def cofaces_of(self, d: int, p: int) -> array:
        start = self.coface_start[d]
        return self.cofaces[d][start[p]:start[p + 1]]


@derived
def face_index(K: SimplicialComplex) -> FaceIndex:
    """The face incidence of K, written once from its layers."""
    layers = [K.simplices(d) for d in range(4)]
    faces = [array("i")]
    for d, (below, layer) in enumerate(zip(layers, layers[1:]), 1):
        pos = {s: i for i, s in enumerate(below)}
        flat = array("i", [0]) * ((d + 1) * len(layer))
        for k, deleted in enumerate(_layer_faces(layer)):
            flat[k::d + 1] = array("i", map(pos.__getitem__, deleted))
        faces.append(flat)
    coface_start, cofaces = [], []
    for d, above in enumerate(faces[1:] + [array("i")]):
        count = [0] * (len(layers[d]) + 1)
        for p in above:
            count[p + 1] += 1
        coface_start.append(array("i", accumulate(count)))
        # a stable sort keeps each simplex's cofaces in increasing order
        order = sorted(range(len(above)), key=above.__getitem__)
        cofaces.append(array("i", [j // (d + 2) for j in order]))
    return FaceIndex(tuple(faces), tuple(coface_start), tuple(cofaces))


def is_pure_3(K: SimplicialComplex) -> bool:
    """K has tetrahedra and every simplex below dimension 3 has a coface."""
    # coface ranges are all nonempty iff the nondecreasing starts are distinct
    return bool(K.simplices(3)) and all(
        len(set(start)) == len(start) for start in face_index(K).coface_start[:3]
    )


@derived
def boundary_subcomplex(K: SimplicialComplex) -> SimplicialComplex:
    """Subcomplex generated by triangles incident to exactly one tetrahedron."""
    if not is_pure_3(K):
        raise ComplexError("boundary_subcomplex requires a pure 3-complex")
    index = face_index(K)
    start = index.coface_start[2]
    tris = [p for p in range(len(start) - 1) if start[p + 1] - start[p] == 1]
    edges = sorted({e for t in tris for e in index.faces_of(2, t)})
    verts = sorted({v for e in edges for v in index.faces_of(1, e)})
    # positions in increasing order keep K's sorted order
    return SimplicialComplex(
        [[K.simplices(d)[p] for p in ps] for d, ps in enumerate((verts, edges, tris))] + [[]]
    )


def _class_roots(items: Iterable, pairs: Iterable[Sequence]) -> dict:
    """Item -> the smallest item of its class under the equivalence that
    the pairs generate, in the order of items.  Every pair member must be
    an item."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra < rb:
            parent[rb] = ra
        elif rb < ra:
            parent[ra] = rb
    return {x: find(x) for x in parent}


@derived
def vertex_roots(K: SimplicialComplex) -> dict[int, int]:
    """Vertex -> the smallest vertex of its connected component (vertex-edge
    connectivity), in K's vertex order.  The roots are the vertices that
    map to themselves.  The result is shared, so it must not be mutated."""
    return _class_roots(K.vertices, K.simplices(1))


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
        for r in range(1, len(s)):  # the proper faces of s, by size
            for f in combinations(s, r):
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
    def orientable(self) -> bool:
        return all(c.orientable for c in self.components)

    @property
    def genus_list(self) -> tuple[int | None, ...]:
        return tuple(c.genus for c in self.components)


@derived
def _check_closed_surface(S: SimplicialComplex) -> array:
    """Raise ComplexError unless S is a closed surface: no tetrahedra, two
    triangles on every edge, and the link of every vertex one circle.

    Returns the edges at each vertex in the order of a walk around it, from
    its smallest edge through that edge's smallest triangle: at vertex p,
    walks[start[p]:start[p + 1]] with start = face_index(S).coface_start[0].
    Memoized on S, so each surface is checked once."""
    if S.simplices(3):
        raise ComplexError("not a surface: contains tetrahedra")
    index = face_index(S)
    for q, e in enumerate(S.simplices(1)):
        n = len(index.cofaces_of(1, q))
        if n != 2:
            raise ComplexError(f"not a closed surface: edge {e} has {n} triangles")
    # so the triangles of edge q are pair[2 * q] and pair[2 * q + 1]
    pair, faces, tris = index.cofaces[1], index.faces[2], S.simplices(2)
    walks = array("i")
    for p, (v,) in enumerate(S.simplices(0)):
        edges = index.cofaces_of(0, p)
        if not edges:
            raise ComplexError(f"not a closed surface: vertex {v} has no edges")
        # walk around v from an edge, through a triangle, to that triangle's
        # other edge at v: the face that is neither the edge nor the face
        # opposite v; with two triangles on every edge the walk closes, and
        # the link of v is one circle iff the walk meets every edge at v
        e, t, first = edges[0], -1, len(walks)
        while len(walks) == first or e != edges[0]:
            walks.append(e)
            t = pair[2 * e + 1] if pair[2 * e] == t else pair[2 * e]
            f = faces[3 * t:3 * t + 3]
            e = sum(f) - e - f[tris[t].index(v)]
        if len(walks) - first != len(edges):
            raise ComplexError(f"not a closed surface: link of vertex {v} is not a single circle")
    return walks


@derived
def orient_surface(S: SimplicialComplex) -> dict[Simplex, int] | None:
    """Consistent orientations of the top simplices (sign per sorted
    simplex), or None.  The top simplices are the tetrahedra if S has any,
    else the triangles.

    The component containing the smallest top simplex gets it with sign
    +1; other components likewise from their smallest top simplex.
    Orientation propagates only across faces of exactly 2 top simplices,
    so a surface may have boundary; callers that need a closed surface
    check it first.  The result is memoized on S and shared by every
    caller, so it must not be mutated.
    """
    d = 3 if S.simplices(3) else 2
    index = face_index(S)
    faces, start, cofaces = index.faces[d], index.coface_start[d - 1], index.cofaces[d - 1]
    sign = [0] * len(S.simplices(d))  # top simplex position -> sign, 0 if unset
    for t0 in range(len(sign)):
        if sign[t0]:
            continue
        sign[t0] = 1
        stack = [t0]
        while stack:
            t = stack.pop()
            for k in range(d + 1):
                e = faces[(d + 1) * t + k]
                a = start[e]
                if start[e + 1] - a != 2:
                    continue
                other = cofaces[a + 1] if t == cofaces[a] else cofaces[a]
                # opposite induced orientations on the shared face, whose
                # coefficient in the boundary of a top simplex is (-1) ** (its
                # position among that simplex's faces)
                j = faces.index(e, (d + 1) * other) - (d + 1) * other
                want = sign[t] if (k + j) % 2 else -sign[t]
                if sign[other]:
                    if sign[other] != want:
                        return None
                else:
                    sign[other] = want
                    stack.append(other)
    return dict(zip(S.simplices(d), sign))


@derived
def surface_info(S: SimplicialComplex) -> SurfaceInfo:
    """Per-component Euler characteristic, orientability and genus."""
    infos = []
    for comp in connected_components(S):
        _check_closed_surface(comp)
        chi = euler_characteristic(comp)
        orientable = orient_surface(comp) is not None
        genus: int | None = None
        if orientable:
            if chi % 2:
                raise ComplexError("odd Euler characteristic on an orientable closed surface")
            genus = (2 - chi) // 2
        infos.append(SurfaceComponentInfo(chi, orientable, genus))
    return SurfaceInfo(tuple(infos))


# -- domains ---------------------------------------------------------------


class NotADomainError(ComplexError):
    """Input is not a domain complex (see check_domain)."""


@derived
def check_domain(K: SimplicialComplex) -> None:
    """Raise NotADomainError at the first of these conditions that K fails:
    (1) pure 3-dimensional; (2) no triangle in more than two tetrahedra;
    (3) non-empty boundary; (4) connected; (5) every boundary component a
    closed surface; (6) orientable, so the boundary is too; (7) 2 chi(K) =
    chi(boundary), as for every compact 3-manifold.  After (1) and (2),
    2 chi(K) - chi(boundary) is the sum of the Euler defects of the vertex
    links (2 - chi(link) at an interior vertex), so (7) misses a
    non-manifold whose defects cancel.  Memoized on K."""
    if not is_pure_3(K):
        raise NotADomainError("domain complex must be pure 3-dimensional")
    start = face_index(K).coface_start[2]
    tets = [b - a for a, b in zip(start, start[1:])]  # tetrahedra per triangle
    if max(tets) > 2:
        p = next(p for p, n in enumerate(tets) if n > 2)
        raise NotADomainError(f"triangle {K.simplices(2)[p]} lies in {tets[p]} tetrahedra, not at most 2")
    bd = boundary_subcomplex(K)
    if not bd.simplices(2):
        raise NotADomainError("domain complex must have non-empty boundary")
    if len(set(vertex_roots(K).values())) != 1:
        raise NotADomainError("domain complex must be connected")
    try:
        surface_info(bd)  # each component a closed surface, or ComplexError
    except ComplexError as e:
        raise NotADomainError(str(e)) from None
    if orient_surface(K) is None:
        raise NotADomainError("domain complex is not orientable")
    chi, chi_bd = euler_characteristic(K), euler_characteristic(bd)
    if 2 * chi != chi_bd:
        raise NotADomainError(f"domain complex is not a 3-manifold: chi {chi}, boundary chi {chi_bd}")


def as_domain(K) -> SimplicialComplex:
    """K, or the complex of a marked complex K, once check_domain passes it."""
    if isinstance(K, MarkedComplex):
        K = K.complex
    check_domain(K)
    return K


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
    for s in S.all_simplices():
        for t in range(steps):
            out.extend(_prism_pieces(s, lambda v: label(v, t), lambda v: label(v, t + 1)))
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


def product_with_interval(S: SimplicialComplex) -> MarkedComplex:
    """Triangulated S x [0,1], one prism layer thick, with marked copies
    "bottom" (S x 0) and "top" (S x 1)."""
    if S.dimension > 2:
        raise ComplexError("product_with_interval requires dim <= 2")
    verts = sorted(S.vertices)
    idx = {v: i for i, v in enumerate(verts)}

    def label(v: int, t: int) -> int:
        return idx[v] * 2 + t

    K = build_complex(_product_simplices(S, 1, label))
    marks = {
        "bottom": [tuple(label(v, 0) for v in s) for s in _maximal(S)],
        "top": [tuple(label(v, 1) for v in s) for s in _maximal(S)],
    }
    return MarkedComplex(K, marks)


def _maximal(S: SimplicialComplex) -> list[Simplex]:
    """The simplices of S with no coface, layer by layer."""
    starts = face_index(S).coface_start
    return [
        s
        for d in range(4)
        for p, s in enumerate(S.simplices(d))
        if starts[d][p] == starts[d][p + 1]
    ]


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
    for s in S.all_simplices():
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
    other shape, an unknown key included, raises ComplexError."""
    if not isinstance(data, Mapping) or "simplices" not in data:
        raise ComplexError('JSON complex must have a "simplices" array')
    for key in data:
        if key not in ("simplices", "marked_subcomplexes"):
            raise ComplexError(f"unknown key in JSON complex: {key!r}")
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

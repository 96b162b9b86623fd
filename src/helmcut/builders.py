"""Deterministic generators for the corpus of test complexes.

Most solids are unions of unit lattice cubes, each triangulated by the
ordered (Kuhn) split into 6 tetrahedra; this is globally consistent across
neighbouring cubes, so any set of cubes yields a valid simplicial complex.
The simplices of a split cube are exactly the chains of its corner lattice
{0,1}^3 under the coordinatewise order (Kuhn, 1960), so a cube set is
written face-closed and sorted from one table of chains.  Lattice points
are encoded as single integers so vertex labels stay plain ints.

cubes_to_complex returns a CubeComplex, which writes those layers only on
first use: its domain check, boundary and Euler characteristic are read
off its cubes.  A union of closed unit cubes is a 3-manifold iff at every
lattice vertex the cubes in the set, and those not in it, are each
face-connected: the set is well-composed (Latecki, "3D well-composed
pictures", Graphical Models and Image Processing 59, 1997).  One
256-entry table, _vertex, holds that verdict for each set of the 8
cubes at a vertex, with the vertex's share of V - E + F - C and the
push-offs of the cells at it: a boundary vertex v moves to v + n(v)/16,
n(v) the sum of the side vectors of the cubes at v outside the set, and
an edge runs through its midpoint, pushed alike.  So the push-off of a
boundary cycle misses the cubes (CubeComplex.pushed_point says why), as
the linking route of helmcut.domains needs.  The boundary is the unit
squares between a cube in the set and one outside, 2 Kuhn triangles each.
"""

from __future__ import annotations

import importlib.resources
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations, permutations, product
from typing import Iterable, Iterator, NamedTuple, Sequence

from .complexes import (
    ComplexError,
    MarkedComplex,
    NotADomainError,
    Simplex,
    SimplicialComplex,
    _class_roots,
    barycentric_subdivide_with_map,
    boundary_subcomplex,
    build_complex,
    connected_components,
    derived,
    mapping_torus,
    product_with_interval,
    surface_info,
    vertex_roots,
)


class BuildError(ComplexError):
    """A builder could not produce a complex with the promised shape."""


# -- lattice point encoding ------------------------------------------------

_OFF = 100
_SPAN = 256

Point = tuple[int, int, int]
Cube = tuple[int, int, int]  # min corner


def encode_point(p: Point) -> int:
    x, y, z = p
    if not all(type(c) is int for c in p):
        raise BuildError(f"lattice point must have integer coordinates: {p}")
    if not all(-_OFF < c < _SPAN - _OFF for c in p):
        raise BuildError(f"lattice point out of supported range: {p}")
    return _encode(x, y, z)


def _encode(x: int, y: int, z: int) -> int:
    """encode_point((x, y, z)) of a point already checked."""
    return ((x + _OFF) * _SPAN + (y + _OFF)) * _SPAN + (z + _OFF)


def _decode_point(label: int) -> Point:
    """The lattice point that encode_point encodes as label."""
    xy, z = divmod(label, _SPAN)
    x, y = divmod(xy, _SPAN)
    return (x - _OFF, y - _OFF, z - _OFF)


# The 8 corners of a cube as offsets from its encoded min corner: corner
# 4x + 2y + z is the min corner plus (x, y, z).
_CORNERS = tuple((x * _SPAN + y) * _SPAN + z for x, y, z in product((0, 1), repeat=3))
# the label steps along x, y and z
_STRIDES = _CORNERS[4], _CORNERS[2], _CORNERS[1]

# The chains of the corner lattice {0,1}^3, as tuples of corner numbers, by
# dimension: 8 vertices, 19 edges, 18 triangles, and the 6 maximal chains
# (one per axis permutation, in the order of permutations) that are the
# tetrahedra of the Kuhn split.  Corner numbers and encoded labels both
# grow with each coordinate, so every chain is a sorted simplex.
_TETS = tuple(
    tuple(accumulate((4 >> a for a in perm), initial=0)) for perm in permutations(range(3))
)
_KUHN = tuple(sorted({c for t in _TETS for c in combinations(t, n)}) for n in (1, 2, 3)) + (_TETS,)

# The 2 triangles of the square between a cube and the next cube along each
# axis, as offsets from the cube's encoded min corner: the last three
# corners of the 2 tetrahedra of the cube whose walk starts along that
# axis, so the diagonal runs from the smallest to the largest corner of
# the square.
_SQUARES = tuple(
    tuple(tuple(_CORNERS[c] for c in tet[1:]) for tet in _TETS[2 * axis:2 * axis + 2])
    for axis in range(3)
)


def cubes_to_complex(cubes: Iterable[Cube]) -> CubeComplex:
    """The union of the Kuhn-split cubes, as a CubeComplex; the layers are
    written on first use.  The coordinates of the whole set are checked
    at once: the min and max corners of every cube in range, and then so
    are the 6 between them.  Only a set that fails is walked cube by cube,
    min corner then max corner, to raise encode_point's error for the
    first bad corner in sorted order."""
    cubes = sorted(set(cubes))
    coords = [c for cube in cubes for c in cube]
    if not (
        all(type(c) is int for c in coords)
        and -_OFF < min(coords, default=0)
        and max(coords, default=0) < _SPAN - _OFF - 1
    ):
        for cube in cubes:
            encode_point(cube)
            encode_point(tuple(x + 1 for x in cube))
    return CubeComplex(tuple(_encode(x, y, z) for x, y, z in cubes))


def _kuhn_layers(cubes: Sequence[int]) -> tuple[tuple[Simplex, ...], ...]:
    """The layers of the Kuhn-split cubes of the given sorted encoded min
    corners, face-closed and sorted.

    Every simplex of a cube holds the cube's own 8 label ints, not new
    ones, so the layers take no more memory than a face closure that
    slices the tetrahedra.  One layer is built and sorted at a time.
    Distinct cubes have distinct tetrahedra, whose smallest vertex is the
    cube's min corner, so the tetrahedra of the sorted cubes, each cube's
    in sorted order, need neither a set nor a sort."""
    labels = [[base + o for o in _CORNERS] for base in cubes]
    verts, edges, tris = _KUHN[:3]
    tets = sorted(_KUHN[3])
    # the list is filled in order, so each set is freed once it is sorted
    return tuple(tuple(layer) for layer in [
        sorted({(c[i],) for c in labels for (i,) in verts}),
        sorted({(c[i], c[j]) for c in labels for i, j in edges}),
        sorted({(c[i], c[j], c[k]) for c in labels for i, j, k in tris}),
        [(c[i], c[j], c[k], c[m]) for c in labels for i, j, k, m in tets],
    ])


def square_face_triangles(cube: Cube, axis: int) -> list[Simplex]:
    """The 2 triangles of the face between cube and cube + e_axis (see
    _SQUARES)."""
    lo = list(cube)
    lo[axis] += 1
    # range-check the smallest and largest corners of the square; the min
    # corner of cube itself may lie below the range
    base = encode_point(tuple(lo)) - _STRIDES[axis]
    encode_point(tuple(x + 1 for x in cube))
    return [tuple(base + o for o in tri) for tri in _SQUARES[axis]]


# -- cube complexes --------------------------------------------------------

# The 8 cubes at a lattice vertex v are its octants: octant 4x + 2y + z is
# the cube with min corner v + (x - 1, y - 1, z - 1), on side (2x - 1,
# 2y - 1, 2z - 1) of v.  Octants b and b ^ 1, b ^ 2, b ^ 4 share a face,
# and a cube is octant 7 - k of its corner k.  The cell of the cube grid
# with min corner v that spans the axes of f (numbered like corners: 0 the
# vertex, 4 the edge along x, 6 the square in x and y) lies in octant b
# iff b & f == f.
_SIDES = tuple(tuple(2 * c - 1 for c in corner) for corner in product((0, 1), repeat=3))


def _face_connected(octants: list[int]) -> bool:
    reached, todo = set(octants[:1]), octants[:1]
    while todo:
        b = todo.pop()
        for n in (b ^ 1, b ^ 2, b ^ 4):
            if n in octants and n not in reached:
                reached.add(n)
                todo.append(n)
    return len(reached) == len(octants)


class _Vertex(NamedTuple):
    """What the set of octants in a cube set tells of their vertex."""

    manifold: bool  # the octants in the set, and those not, each face-connected
    chi: int  # the signed count of cells with min corner v: its share of V - E + F - C
    pushes: tuple[Point, ...]  # by cell f: the sum over octants outside the set
    # that hold the cell of twice the vector from the cell's center to theirs


@lru_cache(maxsize=256)
def _vertex(mask: int) -> _Vertex:
    """The vertex table, by the mask of the octants in the set: bit b for
    octant b.  A union of closed cubes is a 3-manifold iff every vertex is
    a manifold entry: 255, or one of 126 masks of a boundary vertex (mask
    0 passes too, but is no vertex of the set).  Each entry is worked out
    on first use, so an import builds none."""
    ins = [b for b in range(8) if mask >> b & 1]
    outs = [b for b in range(8) if not mask >> b & 1]
    chi = sum((-1) ** bin(f).count("1") for f in range(8) if any(b & f == f for b in ins))
    pushes = tuple(
        tuple(sum(_SIDES[b][a] - (f >> 2 - a & 1) for b in outs if b & f == f) for a in range(3))
        for f in range(8)
    )
    return _Vertex(_face_connected(ins) and _face_connected(outs), chi, pushes)


@derived
def _vertex_masks(K: CubeComplex) -> dict[int, int]:
    """Vertex -> the mask of its octants in the cubes of K."""
    masks: dict[int, int] = {}
    for base in K.cubes:
        for k, o in enumerate(_CORNERS):
            masks[base + o] = masks.get(base + o, 0) | 1 << 7 - k
    return masks


class CubeComplex(SimplicialComplex):
    """The union of a set of unit lattice cubes, Kuhn-split.  It keeps its
    cubes, the sorted encoded min corners, and writes its layers on first
    use; its domain check, boundary and Euler characteristic come from the
    cubes and the vertex table, so they write no layer."""

    __slots__ = ("cubes", "_layers")

    def __init__(self, cubes: tuple[int, ...]):
        # the layers and their hash wait for first use
        self.cubes = cubes
        self._layers = None
        self._derived: dict = {}

    @property
    def _simplices(self) -> tuple[tuple[Simplex, ...], ...]:
        if self._layers is None:
            self._layers = _kuhn_layers(self.cubes)
        return self._layers

    def __hash__(self) -> int:
        return hash(self._simplices)

    def _euler_characteristic(self) -> int:
        return sum(_vertex(mask).chi for mask in _vertex_masks(self).values())

    def _boundary(self) -> SimplicialComplex:
        """The unit squares between a cube of K and one outside."""
        if not self.cubes:
            raise ComplexError("boundary_subcomplex requires a pure 3-complex")
        cubes = set(self.cubes)
        tris = []
        for c in self.cubes:
            for stride, square in zip(_STRIDES, _SQUARES):
                for lo, out in ((c, c + stride), (c - stride, c - stride)):
                    if out not in cubes:
                        tris.extend(tuple(lo + o for o in tri) for tri in square)
        tris.sort()
        edges = sorted({e for x, y, z in tris for e in ((x, y), (x, z), (y, z))})
        verts = sorted({(v,) for e in edges for v in e})
        return SimplicialComplex([verts, edges, tris, []])

    def _check_domain(self) -> None:
        """Every vertex a manifold entry of the vertex table, then the cubes
        face-connected.  Cubes that share only an edge or a vertex fail the
        table there, so once it passes, connected means face-connected."""
        if not self.cubes:
            raise NotADomainError("domain complex must be pure 3-dimensional")
        bad = [v for v, mask in _vertex_masks(self).items() if not _vertex(mask).manifold]
        if bad:
            raise NotADomainError(f"domain complex is not a 3-manifold at vertex {_decode_point(min(bad))}")
        cubes = set(self.cubes)
        pairs = ((c, c + s) for c in self.cubes for s in _STRIDES if c + s in cubes)
        if len(set(_class_roots(self.cubes, pairs).values())) != 1:
            raise NotADomainError("domain complex must be connected")

    def pushed_point(self, cell: Simplex) -> Point:
        """16 times the point that a boundary vertex (v,) or edge (v, w) is
        pushed to, off the cubes: the cell's center plus 1/16 of its push
        in the vertex table.

        The push-off lies off the closed cubes, and so does the segment
        from a vertex's push-off to the push-off of an edge at it.  Both
        depend only on the table entries at the edge's two ends, and
        tests/test_builders.py checks them exactly over every pair of
        manifold entries at an edge along x and at a square diagonal in x
        and y; the table is symmetric under permutations of the axes.  A
        straight segment from one end's push-off to the other's would not
        do: where the octants at both ends are symmetric under a
        reflection that fixes the edge, their pushes have a zero component
        and the segment runs along a face of a cube of the set."""
        lo, hi = _decode_point(cell[0]), _decode_point(cell[-1])
        f = 4 * (hi[0] - lo[0]) + 2 * (hi[1] - lo[1]) + hi[2] - lo[2]
        push = _vertex(_vertex_masks(self)[cell[0]]).pushes[f]
        return tuple(8 * (a + b) + n for a, b, n in zip(lo, hi, push))


# -- elementary solids -----------------------------------------------------


def ball() -> SimplicialComplex:
    """Cone on a refinement (barycentric subdivision) of the tetrahedron sphere."""
    sphere = build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    refined, _ = barycentric_subdivide_with_map(sphere)
    apex = max(refined.vertices) + 1
    return build_complex([t + (apex,) for t in refined.simplices(2)])


def _handlebody_cubes(g: int) -> list[Cube]:
    if g < 0:
        raise BuildError("genus must be non-negative")
    width = max(2 * g + 1, 1)
    holes = {(2 * i + 1, 1) for i in range(g)}
    return [(x, y, 0) for x in range(width) for y in range(3) if (x, y) not in holes]


def handlebody(g: int) -> SimplicialComplex:
    """Flat plate of cubes with g holes: a genus-g handlebody."""
    return cubes_to_complex(_handlebody_cubes(g))


def solid_torus() -> SimplicialComplex:
    return handlebody(1)


def shell() -> SimplicialComplex:
    """3x3x3 cube block with the central cube removed (ball minus ball)."""
    cubes = [
        (x, y, z)
        for x in range(3)
        for y in range(3)
        for z in range(3)
        if (x, y, z) != (1, 1, 1)
    ]
    return cubes_to_complex(cubes)


def surface_shell(g: int) -> MarkedComplex:
    """(closed genus-g surface) x [0,1]."""
    surface = boundary_subcomplex(handlebody(g))
    if surface_info(surface) != (g,):
        raise BuildError("handlebody boundary is not the expected surface")
    return product_with_interval(surface)


# -- lattice paths and link box-domains ------------------------------------


@dataclass(frozen=True)
class LatticePath:
    """A closed lattice path: unit steps from each point to the next and
    from the last back to the first.  Its points are distinct and at least
    4, so no edge repeats."""

    points: tuple[Point, ...]

    def __post_init__(self):
        pts = self.points
        if len(pts) < 4:
            raise BuildError("lattice path too short")
        if len(set(pts)) != len(pts):
            raise BuildError("lattice path repeats a vertex")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            d = tuple(x - y for x, y in zip(b, a))
            if sorted(map(abs, d)) != [0, 0, 1]:
                raise BuildError(f"non-unit step {a} -> {b}")


def _parse_point(chunk: str) -> Point:
    """x,y,z: integers, each an optional sign and ASCII digits."""
    coords = chunk.split(",")
    if len(coords) != 3 or not all(re.fullmatch(r"\s*[+-]?[0-9]+\s*", c) for c in coords):
        raise BuildError(f"bad lattice point: {chunk!r}")
    return tuple(int(c) for c in coords)


def _data_lines(text: str) -> Iterator[str]:
    """The stripped lines of text, blank lines and # comments left out."""
    for line in map(str.strip, text.splitlines()):
        if line and not line.startswith("#"):
            yield line


def parse_cubes(text: str) -> list[Cube]:
    """One cube per line, the x,y,z of its min corner as in
    parse_lattice_paths; blank lines and lines starting with # are
    skipped."""
    return [_parse_point(line) for line in _data_lines(text)]


def parse_lattice_paths(text: str) -> list[LatticePath]:
    """One closed component per line; semicolon-separated x,y,z triples of
    integers, each an optional sign and ASCII digits, the last point
    repeating the first.  A line that does not return to its first point
    raises BuildError.
    """
    paths = []
    for line in _data_lines(text):
        pts = [_parse_point(chunk) for chunk in map(str.strip, line.split(";")) if chunk]
        if len(pts) < 2 or pts[0] != pts[-1]:
            raise BuildError("lattice path does not return to its first point")
        paths.append(LatticePath(tuple(pts[:-1])))
    return paths


def _path_cubes(path: LatticePath) -> set[Cube]:
    """All unit cubes whose closure touches the path."""
    cubes: set[Cube] = set()
    for x, y, z in path.points:
        for dx in (-1, 0):
            for dy in (-1, 0):
                for dz in (-1, 0):
                    cubes.add((x + dx, y + dy, z + dz))
    return cubes


def _dilate(cubes: set[Cube]) -> set[Cube]:
    """Add the face-neighbours: one layer of cube padding."""
    out = set(cubes)
    for c in cubes:
        for axis in range(3):
            for d in (-1, 1):
                q = list(c)
                q[axis] += d
                out.add(tuple(q))
    return out


def lattice_link_complement(paths: Sequence[LatticePath]) -> MarkedComplex:
    """Box-domain of a lattice link: a cube box minus tubes around each path.

    The tube around a path is the union of closed unit cubes touching it,
    plus one layer of cube padding taken from the complement (this keeps the
    tube boundary an embedded torus).  The box leaves one layer of cubes
    around the tubes.  Each mark is one component of the domain's boundary,
    named by an anchor vertex on it: "outer", a sphere, holds the box's min
    corner, and "tube_i", a torus, the min corner of the least cube of tube
    i.  That corner lies on the face shared with the cube before it along x,
    a domain cube: it is less than the least cube of tube i, the collision
    check keeps it out of every other tube, and the box has a one-cube
    margin.  A boundary that does not split into these surfaces, one per
    anchor, raises BuildError.  The boundary is read off the box's squares
    (CubeComplex), so no layer is written.
    """
    excluded = [_dilate(_path_cubes(path)) for path in paths]
    for i in range(len(excluded)):
        for j in range(i + 1, len(excluded)):
            if _dilate(excluded[i]) & excluded[j]:  # overlapping or face to face
                raise BuildError(f"thickenings of components {i} and {j} collide")
    all_excluded = set().union(*excluded) if excluded else set()
    if not all_excluded:
        raise BuildError("need at least one path")
    los = [min(c[a] for c in all_excluded) - 1 for a in range(3)]
    his = [max(c[a] for c in all_excluded) + 1 for a in range(3)]
    # the box corners bound every vertex, so check them before building
    encode_point(tuple(los))
    encode_point(tuple(h + 1 for h in his))
    domain = {
        (x, y, z)
        for x in range(los[0], his[0] + 1)
        for y in range(los[1], his[1] + 1)
        for z in range(los[2], his[2] + 1)
        if (x, y, z) not in all_excluded
    }
    K = cubes_to_complex(domain)
    anchors = {"outer": encode_point(tuple(los))}
    anchors.update((f"tube_{i}", encode_point(min(cubes))) for i, cubes in enumerate(excluded))
    bd = boundary_subcomplex(K)
    # each boundary component and its genus, by its smallest vertex: the
    # root that vertex_roots gives every vertex of the component
    surfaces = {
        S.vertices[0]: (S, genus)
        for S, genus in zip(connected_components(bd), surface_info(bd))
    }
    roots = [vertex_roots(bd).get(v) for v in anchors.values()]
    if set(roots) != surfaces.keys() or len(roots) != len(surfaces):
        raise BuildError("a boundary component does not fill exactly one mark")
    marks = dict(zip(anchors, map(surfaces.get, roots)))
    if marks["outer"][1] != 0:
        raise BuildError("outer box boundary is not a sphere")
    for i in range(len(paths)):
        if marks[f"tube_{i}"][1] != 1:
            raise BuildError(f"tube_{i} boundary is not a torus")
    return MarkedComplex(K, {name: S.simplices(2) for name, (S, _) in marks.items()})


def _load_paths(name: str) -> list[LatticePath]:
    text = (importlib.resources.files("helmcut") / "data" / f"{name}.path").read_text()
    return parse_lattice_paths(text)


# -- fibered trefoil mapping torus ----------------------------------------


def punctured_torus_with_monodromy() -> tuple[SimplicialComplex, dict[int, int]]:
    """7-vertex torus minus the open star of vertex 0, with the order-6
    simplicial automorphism x -> 3x (mod 7) as monodromy."""
    tris = []
    for i in range(7):
        tris.append(tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))))
        tris.append(tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7))))
    fiber = build_complex([t for t in tris if 0 not in t])
    phi = {v: 3 * v % 7 for v in range(1, 7)}
    return fiber, phi


def trefoil_mapping_torus() -> MarkedComplex:
    fiber, phi = punctured_torus_with_monodromy()
    return mapping_torus(fiber, phi)


# -- preset catalog --------------------------------------------------------


def _meridian_disk_marks(positions: Sequence[Cube]) -> dict[str, list[Simplex]]:
    marks = {}
    for i, cube in enumerate(positions):
        marks[f"disk_{i}" if len(positions) > 1 else "disk"] = square_face_triangles(
            cube, 0
        )
    return marks


def _preset_ball() -> MarkedComplex:
    return MarkedComplex(ball(), {})


def _preset_solid_torus() -> MarkedComplex:
    return MarkedComplex(solid_torus(), {})


def _preset_handlebody2() -> MarkedComplex:
    # meridian disks: vertical squares cutting the two bottom bridges
    return MarkedComplex(
        handlebody(2), _meridian_disk_marks([(0, 0, 0), (3, 0, 0)])
    )


def _preset_shell() -> MarkedComplex:
    return MarkedComplex(shell(), {})


def _preset_torus_shell() -> MarkedComplex:
    return surface_shell(1)


def _preset_trefoil_box() -> MarkedComplex:
    return lattice_link_complement(_load_paths("trefoil"))


def _preset_hopf_box() -> MarkedComplex:
    return lattice_link_complement(_load_paths("hopf"))


def _preset_solid_torus_with_meridian_disk() -> MarkedComplex:
    return MarkedComplex(solid_torus(), _meridian_disk_marks([(0, 0, 0)]))


_PRESETS = {
    "ball": _preset_ball,
    "solid_torus": _preset_solid_torus,
    "handlebody2": _preset_handlebody2,
    "shell": _preset_shell,
    "torus_shell": _preset_torus_shell,
    "trefoil_box": _preset_trefoil_box,
    "hopf_box": _preset_hopf_box,
    "trefoil_mapping_torus": trefoil_mapping_torus,
    "solid_torus_with_meridian_disk": _preset_solid_torus_with_meridian_disk,
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


@lru_cache(maxsize=None)
def preset(name: str) -> MarkedComplex:
    if name not in _PRESETS:
        raise BuildError(f"unknown preset {name!r}; known: {', '.join(preset_names())}")
    return _PRESETS[name]()


def unknot_box() -> MarkedComplex:
    """Box-domain of a square unknot (used by the extended domain corpus)."""
    square = LatticePath(
        tuple(
            [(x, 0, 0) for x in range(0, 5)]
            + [(5, y, 0) for y in range(0, 5)]
            + [(x, 5, 0) for x in range(5, 0, -1)]
            + [(0, y, 0) for y in range(5, 0, -1)]
        )
    )
    return lattice_link_complement([square])


@lru_cache(maxsize=None)
def domain_corpus() -> list[tuple[str, MarkedComplex]]:
    """Named compact 3-dimensional domains used by the identity test suite."""
    corpus = [(name, preset(name)) for name in preset_names()]
    corpus.append(("unknot_box", unknot_box()))
    corpus.append(("surface_shell2", surface_shell(2)))
    return corpus

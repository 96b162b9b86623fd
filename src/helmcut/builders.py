"""Deterministic generators for the corpus of test complexes.

Most solids are unions of unit lattice cubes, each triangulated by the
ordered (Kuhn) split into 6 tetrahedra; this is globally consistent across
neighbouring cubes, so any set of cubes yields a valid simplicial complex.
The simplices of a split cube are exactly the chains of its corner lattice
{0,1}^3 under the coordinatewise order (Kuhn, 1960), so a cube set is
written face-closed and sorted from one table of chains.  Lattice points
are encoded as single integers so vertex labels stay plain ints.
"""

from __future__ import annotations

import importlib.resources
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations, permutations, product
from typing import Iterable, Sequence

from .complexes import (
    ComplexError,
    MarkedComplex,
    Simplex,
    SimplicialComplex,
    barycentric_subdivide_with_map,
    boundary_subcomplex,
    build_complex,
    connected_components,
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
    return ((x + _OFF) * _SPAN + (y + _OFF)) * _SPAN + (z + _OFF)


def decode_point(label: int) -> Point:
    """The lattice point that encode_point encodes as label."""
    xy, z = divmod(label, _SPAN)
    x, y = divmod(xy, _SPAN)
    return (x - _OFF, y - _OFF, z - _OFF)


# The 8 corners of a cube as offsets from its encoded min corner: corner
# 4x + 2y + z is the min corner plus (x, y, z).
_CORNERS = tuple((x * _SPAN + y) * _SPAN + z for x, y, z in product((0, 1), repeat=3))

# The chains of the corner lattice {0,1}^3, as tuples of corner numbers, by
# dimension: 8 vertices, 19 edges, 18 triangles, and the 6 maximal chains
# (one per axis permutation, in the order of permutations) that are the
# tetrahedra of the Kuhn split.  Corner numbers and encoded labels both
# grow with each coordinate, so every chain is a sorted simplex.
_TETS = tuple(
    tuple(accumulate((4 >> a for a in perm), initial=0)) for perm in permutations(range(3))
)
_KUHN = tuple(sorted({c for t in _TETS for c in combinations(t, n)}) for n in (1, 2, 3)) + (_TETS,)


def _corner_labels(cube: Cube) -> list[int]:
    """The encoded corners of cube by corner number, once its min and max
    corners are in range (then so are the 6 between them)."""
    base = encode_point(cube)
    encode_point(tuple(x + 1 for x in cube))
    return [base + o for o in _CORNERS]


def cubes_to_complex(cubes: Iterable[Cube]) -> SimplicialComplex:
    """The union of the Kuhn-split cubes, written face-closed and sorted.

    Every simplex of a cube holds the cube's own 8 label ints, not new
    ones, so the layers take no more memory than a face closure that
    slices the tetrahedra.  One layer is built and sorted at a time.
    Distinct cubes have distinct tetrahedra, whose smallest vertex is the
    cube's min corner, so the tetrahedra of the sorted cubes, each cube's
    in sorted order, need neither a set nor a sort."""
    labels = [_corner_labels(cube) for cube in sorted(set(cubes))]
    verts, edges, tris = _KUHN[:3]
    tets = sorted(_KUHN[3])
    # the list is filled in order, so each set is freed once it is sorted
    return SimplicialComplex([
        sorted({(c[i],) for c in labels for (i,) in verts}),
        sorted({(c[i], c[j]) for c in labels for i, j in edges}),
        sorted({(c[i], c[j], c[k]) for c in labels for i, j, k in tris}),
        [(c[i], c[j], c[k], c[m]) for c in labels for i, j, k, m in tets],
    ])


def square_face_triangles(cube: Cube, axis: int) -> list[Simplex]:
    """The 2 triangles of the face between cube and cube + e_axis.

    They are the last three corners of the 2 tetrahedra of cube whose walk
    starts along axis, so the Kuhn triangulation puts the diagonal from
    the smallest to the largest corner of the square.
    """
    lo = list(cube)
    lo[axis] += 1
    # range-check the smallest and largest corners of the square; the min
    # corner of cube itself may lie below the range
    base = encode_point(tuple(lo)) - _CORNERS[4 >> axis]
    encode_point(tuple(x + 1 for x in cube))
    c = [base + o for o in _CORNERS]
    return [(c[j], c[k], c[m]) for _, j, k, m in _KUHN[3][2 * axis:2 * axis + 2]]


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


def parse_lattice_paths(text: str) -> list[LatticePath]:
    """One closed component per line; semicolon-separated x,y,z triples of
    integers, each an optional sign and ASCII digits, the last point
    repeating the first.  A line that does not return to its first point
    raises BuildError.
    """
    paths = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        pts = []
        for chunk in line.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            coords = chunk.split(",")
            if len(coords) != 3 or not all(re.fullmatch(r"\s*[+-]?[0-9]+\s*", c) for c in coords):
                raise BuildError(f"bad lattice point: {chunk!r}")
            pts.append(tuple(int(c) for c in coords))
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


class LinkBox(MarkedComplex):
    """The box-domain of a lattice link, made by lattice_link_complement,
    with the link's components: the cores of its tubes, in mark order."""

    __slots__ = ("cores",)

    def __init__(self, complex, marks, cores: tuple[LatticePath, ...]):
        super().__init__(complex, marks)
        self.cores = cores


def lattice_link_complement(paths: Sequence[LatticePath]) -> LinkBox:
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
    anchor, raises BuildError.  The paths are kept as the box's cores.
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
    return LinkBox(K, {name: S.simplices(2) for name, (S, _) in marks.items()}, tuple(paths))


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


def _preset_trefoil_box() -> LinkBox:
    return lattice_link_complement(_load_paths("trefoil"))


def _preset_hopf_box() -> LinkBox:
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


def unknot_box() -> LinkBox:
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

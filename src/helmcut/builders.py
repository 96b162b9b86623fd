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
    euler_characteristic,
    mapping_torus,
    product_with_interval,
    surface_info,
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


def cube_tetrahedra(cube: Cube) -> list[tuple[int, int, int, int]]:
    """Kuhn triangulation: one tetrahedron per axis permutation."""
    c = _corner_labels(cube)
    return [(c[i], c[j], c[k], c[m]) for i, j, k, m in _KUHN[3]]


def cubes_to_complex(cubes: Iterable[Cube]) -> SimplicialComplex:
    """The union of the Kuhn-split cubes, written face-closed and sorted.

    Every simplex of a cube holds the cube's own 8 label ints, not new
    ones, so the layers take no more memory than a face closure that
    slices the tetrahedra."""
    labels = [_corner_labels(cube) for cube in sorted(set(cubes))]
    verts, edges, tris, tets = _KUHN
    layers = (
        {(c[i],) for c in labels for (i,) in verts},
        {(c[i], c[j]) for c in labels for i, j in edges},
        {(c[i], c[j], c[k]) for c in labels for i, j, k in tris},
        {(c[i], c[j], c[k], c[m]) for c in labels for i, j, k, m in tets},
    )
    return SimplicialComplex([sorted(layer) for layer in layers])


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
    info = surface_info(surface)
    if info.component_count != 1 or info.genus_list != (g,):
        raise BuildError("handlebody boundary is not the expected surface")
    return product_with_interval(surface)


# -- lattice paths and link box-domains ------------------------------------


@dataclass(frozen=True)
class LatticePath:
    points: tuple[Point, ...]
    closed: bool

    def __post_init__(self):
        pts = self.points
        if len(pts) < (4 if self.closed else 2):
            raise BuildError("lattice path too short")
        if len(set(pts)) != len(pts):
            raise BuildError("lattice path repeats a vertex")
        steps = list(zip(pts, pts[1:] + ((pts[0],) if self.closed else ())))
        seen_edges = set()
        for a, b in steps:
            d = tuple(x - y for x, y in zip(b, a))
            if sorted(map(abs, d)) != [0, 0, 1]:
                raise BuildError(f"non-unit step {a} -> {b}")
            edge = (min(a, b), max(a, b))
            if edge in seen_edges:
                raise BuildError("lattice path repeats an edge")
            seen_edges.add(edge)


def parse_lattice_paths(text: str) -> list[LatticePath]:
    """One component per line; semicolon-separated x,y,z triples of
    integers, each an optional sign and ASCII digits.

    A line whose last point repeats its first denotes a closed path.
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
        closed = len(pts) > 1 and pts[0] == pts[-1]
        if closed:
            pts = pts[:-1]
        paths.append(LatticePath(tuple(pts), closed))
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
    around the tubes.  Boundary tori are marked "tube_i"; the outer box
    boundary is marked "outer".
    """
    excluded: list[set[Cube]] = []
    for path in paths:
        if not path.closed:
            raise BuildError("link components must be closed paths")
        excluded.append(_dilate(_path_cubes(path)))
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
    owner = {c: i for i, cubes in enumerate(excluded) for c in cubes}
    marks: dict[str, list[Simplex]] = {"outer": []}
    for i in range(len(paths)):
        marks[f"tube_{i}"] = []
    for cube in domain:
        for axis in range(3):
            for d in (-1, 1):
                n = list(cube)
                n[axis] += d
                n = tuple(n)
                if n in domain:
                    continue
                face_cube = cube if d == 1 else n
                tris = square_face_triangles(face_cube, axis)
                if n in owner:
                    marks[f"tube_{owner[n]}"].extend(tris)
                else:
                    marks["outer"].extend(tris)
    result = MarkedComplex(K, marks)
    _validate_link_box(result, len(paths))
    return result


def _validate_link_box(M: MarkedComplex, n_tubes: int) -> None:
    """The boundary components are a sphere marked "outer" and one torus
    per tube marked "tube_i", each filling its mark.  Checked on the
    boundary of the domain, whose orientations analyze_domain reuses."""
    bd = boundary_subcomplex(M.complex)
    mark_of = {t: name for name, tris in M.marks.items() for t in tris}
    genus: dict[str, int | None] = {}
    for S, comp in zip(connected_components(bd), surface_info(bd).components):
        names = {mark_of.get(t) for t in S.simplices(2)}
        if len(names) != 1 or None in names or names & genus.keys():
            raise BuildError("a boundary component does not fill exactly one mark")
        genus[names.pop()] = comp.genus
    if sum(map(len, M.marks.values())) != len(bd.simplices(2)):
        raise BuildError("a mark holds triangles off the boundary")
    if genus.get("outer") != 0:
        raise BuildError("outer box boundary is not a sphere")
    for i in range(n_tubes):
        if genus.get(f"tube_{i}") != 1:
            raise BuildError(f"tube_{i} boundary is not a torus")


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
    return mapping_torus(fiber, phi, steps=3)


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
        ),
        closed=True,
    )
    return lattice_link_complement([square])


@lru_cache(maxsize=None)
def domain_corpus() -> list[tuple[str, MarkedComplex]]:
    """Named compact 3-dimensional domains used by the identity test suite."""
    corpus = [(name, preset(name)) for name in preset_names()]
    corpus.append(("unknot_box", unknot_box()))
    corpus.append(("surface_shell2", surface_shell(2)))
    return corpus

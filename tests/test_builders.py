from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from helmcut import builders
from helmcut.builders import (
    BuildError,
    LatticePath,
    cube_tetrahedra,
    cubes_to_complex,
    domain_corpus,
    encode_point,
    lattice_link_complement,
    parse_lattice_paths,
    preset,
    preset_names,
    square_face_triangles,
    surface_shell,
    unknot_box,
)
from helmcut.complexes import (
    ComplexError,
    boundary_subcomplex,
    build_complex,
    euler_characteristic,
    surface_info,
)
from helmcut.homology import betti_numbers, homology_groups
from test_complexes import _assert_trusted

EXPECTED = {
    # preset -> (betti, boundary genus list)
    "ball": ((1, 0, 0, 0), (0,)),
    "solid_torus": ((1, 1, 0, 0), (1,)),
    "solid_torus_with_meridian_disk": ((1, 1, 0, 0), (1,)),
    "handlebody2": ((1, 2, 0, 0), (2,)),
    "shell": ((1, 0, 1, 0), (0, 0)),
    "torus_shell": ((1, 2, 1, 0), (1, 1)),
    "trefoil_mapping_torus": ((1, 1, 0, 0), (1,)),
    "trefoil_box": ((1, 1, 1, 0), (0, 1)),
    "hopf_box": ((1, 2, 2, 0), (0, 1, 1)),
}


def test_preset_names_catalog():
    assert sorted(EXPECTED) == preset_names()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_preset_homology_and_boundary(name):
    betti, genera = EXPECTED[name]
    M = preset(name)
    assert betti_numbers(M.complex) == betti
    bd = boundary_subcomplex(M.complex)
    # built with the trusted constructor: sorted and face-closed
    assert bd == build_complex(bd.all_simplices())
    info = surface_info(bd)
    assert tuple(sorted(info.genus_list)) == tuple(sorted(genera))
    # domains of this corpus are torsion-free in every degree
    assert all(not g.torsion for g in homology_groups(M.complex))


def test_unknown_preset():
    with pytest.raises(BuildError):
        preset("nosuch")


def test_point_encoding_round_trip():
    # distinct points get distinct labels, out to the ends of the range
    grid = list(product((-99, -98, -1, 0, 1, 154, 155), repeat=3))
    assert len({encode_point(p) for p in grid}) == len(grid)
    for p in [(500, 0, 0), (0, -100, 0), (0, 0, 156)]:
        with pytest.raises(BuildError):
            encode_point(p)
    # cube complexes go to the trusted constructor, so no float or bool
    # coordinate may reach a vertex label
    for cube in [(0.5, 0, 0), (0, True, 0), (0, 0, 1.0)]:
        with pytest.raises(BuildError, match="lattice point must have integer coordinates"):
            cubes_to_complex([cube])


def test_cube_tetrahedralization_is_compatible():
    # two adjacent cubes agree on the triangles of their shared face
    K = cubes_to_complex([(0, 0, 0), (1, 0, 0)])
    assert len(K.simplices(3)) == 12
    assert betti_numbers(K) == (1, 0, 0, 0)
    shared = square_face_triangles((0, 0, 0), 0)
    for t in shared:
        assert K.has_simplex(t)
        # interior triangles: two incident tetrahedra
        tets = [tet for tet in K.simplices(3) if set(t) <= set(tet)]
        assert len(tets) == 2
    assert len(cube_tetrahedra((3, 4, 5))) == 6


def _permutation_split(cube):
    """The Kuhn split written out: one tetrahedron per axis permutation,
    walking from the min corner one axis at a time."""
    out = []
    for perm in permutations(range(3)):
        p = list(cube)
        verts = [encode_point(tuple(p))]
        for axis in perm:
            p[axis] += 1
            verts.append(encode_point(tuple(p)))
        out.append(tuple(verts))
    return out


def _square_split(cube, axis):
    """The 2 triangles of the face between cube and cube + e_axis, the
    diagonal from the smallest to the largest corner of the square."""
    lo = list(cube)
    lo[axis] += 1
    a, b = [i for i in range(3) if i != axis]
    corner = {}
    for da, db in product((0, 1), repeat=2):
        q = list(lo)
        q[a] += da
        q[b] += db
        corner[da, db] = encode_point(tuple(q))
    return [
        tuple(sorted((corner[0, 0], corner[1, 0], corner[1, 1]))),
        tuple(sorted((corner[0, 0], corner[0, 1], corner[1, 1]))),
    ]


def test_kuhn_table_gives_the_permutation_split():
    # marks and the cut disks depend on these tuples and their order
    for cube in [(3, 4, 5)] + list(product((-99, -1, 0, 2, 154), repeat=3)):
        assert cube_tetrahedra(cube) == _permutation_split(cube)
        for axis in range(3):
            assert square_face_triangles(cube, axis) == _square_split(cube, axis)
    # a square on the lowest plane of the range, of a cube below it
    assert square_face_triangles((-100, 0, 0), 0) == _square_split((-100, 0, 0), 0)


_coords = st.integers(-99, -97) | st.integers(-2, 2) | st.integers(152, 154)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_coords, _coords, _coords), max_size=8))
def test_cubes_to_complex_equals_the_closure_of_its_tetrahedra(cubes):
    K = cubes_to_complex(cubes)
    assert K == build_complex([t for c in sorted(set(cubes)) for t in cube_tetrahedra(c)])
    _assert_trusted(K)


def test_cube_out_of_range_at_either_corner():
    for cube in [(155, 0, 0), (0, 0, 155), (-100, 0, 0)]:
        with pytest.raises(BuildError, match="lattice point out of supported range"):
            cubes_to_complex([(0, 0, 0), cube])
        with pytest.raises(BuildError, match="lattice point out of supported range"):
            cube_tetrahedra(cube)


def test_lattice_path_parsing():
    paths = parse_lattice_paths("0,0,0; 1,0,0; 1,1,0; 0,1,0; 0,0,0\n# comment\n")
    assert len(paths) == 1 and paths[0].closed
    assert len(paths[0].points) == 4
    open_path = parse_lattice_paths("0,0,0; 1,0,0; 2,0,0")[0]
    assert not open_path.closed
    with pytest.raises(BuildError):
        parse_lattice_paths("0,0,0; 2,0,0; 0,0,0")  # non-unit step
    with pytest.raises(BuildError):
        parse_lattice_paths("0,0,0; 1,0,0; 0,0,0")  # repeated edge
    assert parse_lattice_paths(" +1, -0 ,0; 1,1,0")[0].points == ((1, 0, 0), (1, 1, 0))


@pytest.mark.parametrize(
    "chunk", ["1,a,0", "1.5,0,0", "1_0,0,0", "1,0", "1,0,0,0", ",0,0", "1,0,\u0661", "0x1,0,0"]
)
def test_lattice_path_rejects_malformed_point(chunk):
    with pytest.raises(BuildError, match="bad lattice point") as err:
        parse_lattice_paths(f"0,0,0;{chunk}")
    assert repr(chunk) in str(err.value)


def test_link_complement_marks_and_validation():
    M = unknot_box()
    assert set(M.marks) == {"outer", "tube_0"}
    assert surface_info(M.mark("outer")).genus_list == (0,)
    assert surface_info(M.mark("tube_0")).genus_list == (1,)
    assert betti_numbers(M.complex) == (1, 1, 1, 0)


def test_link_complement_rejects_touching_components():
    a = parse_lattice_paths("0,0,0; 1,0,0; 1,1,0; 0,1,0; 0,0,0")[0]
    b = parse_lattice_paths("0,0,2; 1,0,2; 1,1,2; 0,1,2; 0,0,2")[0]
    with pytest.raises(BuildError):
        lattice_link_complement([a, b])


def _rectangle(x0, x1, y, z0, z1):
    """Closed lattice path around the rectangle [x0,x1] x {y} x [z0,z1]."""
    pts = (
        [(x, y, z0) for x in range(x0, x1)]
        + [(x1, y, z) for z in range(z0, z1)]
        + [(x, y, z1) for x in range(x1, x0, -1)]
        + [(x0, y, z) for z in range(z1, z0, -1)]
    )
    return LatticePath(tuple(pts), closed=True)


def _square(n):
    """Closed lattice path around the square [0,n] x [0,n] x {0}."""
    pts = (
        [(x, 0, 0) for x in range(n)]
        + [(n, y, 0) for y in range(n)]
        + [(x, n, 0) for x in range(n, 0, -1)]
        + [(0, y, 0) for y in range(n, 0, -1)]
    )
    return LatticePath(tuple(pts), closed=True)


def test_link_complement_rejects_face_to_face_tubes():
    # the padded tubes do not overlap but touch along a layer of cube faces
    with pytest.raises(BuildError, match="thickenings of components 0 and 1 collide"):
        lattice_link_complement([_square(8), _rectangle(4, 13, 4, -5, 5)])
    # the hopf.path layout keeps a free layer of cubes between the tubes
    M = lattice_link_complement([_square(10), _rectangle(5, 15, 5, -5, 5)])
    assert set(M.marks) == {"outer", "tube_0", "tube_1"}


def test_link_complement_rejects_out_of_range_box_before_building(monkeypatch):
    # a box reaching x = 20,000 would hold millions of cubes
    def fail(cubes):
        raise AssertionError("the box was built")

    monkeypatch.setattr(builders, "cubes_to_complex", fail)
    far = LatticePath(tuple((x + 20_000, y, z) for x, y, z in _square(4).points), closed=True)
    with pytest.raises(BuildError, match="lattice point out of supported range"):
        lattice_link_complement([_square(4), far])


@st.composite
def _closed_walks(draw):
    """Text of one or two closed lattice walks near the origin: random unit
    steps, then back to the start one axis at a time."""
    lines = []
    for _ in range(draw(st.integers(1, 2))):
        start = draw(st.tuples(*[st.integers(-3, 3)] * 3))
        pts = [start]
        moves = st.tuples(st.integers(0, 2), st.sampled_from((-1, 1)))
        for axis, d in draw(st.lists(moves, min_size=1, max_size=6)):
            p = list(pts[-1])
            p[axis] += d
            pts.append(tuple(p))
        for axis in draw(st.permutations(range(3))):
            while pts[-1][axis] != start[axis]:
                p = list(pts[-1])
                p[axis] += 1 if start[axis] > p[axis] else -1
                pts.append(tuple(p))
        lines.append(";".join(",".join(map(str, p)) for p in pts))
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="0123456789+-,; \n#", max_size=60) | _closed_walks())
def test_lattice_link_input_raises_only_complex_errors(text):
    # BuildError is a ComplexError
    try:
        lattice_link_complement(parse_lattice_paths(text))
    except ComplexError:
        pass


def test_surface_shell_structure():
    M = surface_shell(2)
    assert euler_characteristic(M.complex) == 2 - 2 * 2  # chi(surface x interval)
    info = surface_info(boundary_subcomplex(M.complex))
    assert tuple(sorted(info.genus_list)) == (2, 2)
    assert betti_numbers(M.complex) == (1, 4, 1, 0)


def test_corpus_size_and_names_unique():
    corpus = domain_corpus()
    names = [n for n, _ in corpus]
    assert len(names) == len(set(names)) >= 10


def test_lattice_path_validation_direct():
    with pytest.raises(BuildError):
        LatticePath(((0, 0, 0),), closed=True)
    with pytest.raises(BuildError):
        LatticePath(((0, 0, 0), (1, 0, 0), (0, 0, 0)), closed=False)

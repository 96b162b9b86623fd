import re
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from helmcut import builders
from helmcut.builders import (
    BuildError,
    LatticePath,
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
    MarkedComplex,
    NotADomainError,
    SimplicialComplex,
    boundary_subcomplex,
    build_complex,
    check_domain,
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
    assert tuple(sorted(surface_info(bd))) == tuple(sorted(genera))
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
    assert len(cubes_to_complex([(3, 4, 5)]).simplices(3)) == 6


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
    # marks and the cut disks depend on these tuples, and the square
    # triangles on the order of the table's tetrahedra
    for cube in [(3, 4, 5)] + list(product((-99, -1, 0, 2, 154), repeat=3)):
        assert cubes_to_complex([cube]).simplices(3) == tuple(sorted(_permutation_split(cube)))
        for axis in range(3):
            assert square_face_triangles(cube, axis) == _square_split(cube, axis)
    # a square on the lowest plane of the range, of a cube below it
    assert square_face_triangles((-100, 0, 0), 0) == _square_split((-100, 0, 0), 0)


_coords = st.integers(-99, -97) | st.integers(-2, 2) | st.integers(152, 154)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_coords, _coords, _coords), max_size=8))
def test_cubes_to_complex_equals_the_closure_of_its_tetrahedra(cubes):
    K = cubes_to_complex(cubes)
    assert K == build_complex([t for c in sorted(set(cubes)) for t in _permutation_split(c)])
    _assert_trusted(K)


def test_cube_out_of_range_at_either_corner():
    for cube in [(155, 0, 0), (0, 0, 155), (-100, 0, 0)]:
        with pytest.raises(BuildError, match="lattice point out of supported range"):
            cubes_to_complex([(0, 0, 0), cube])
        with pytest.raises(BuildError, match="lattice point out of supported range"):
            cubes_to_complex([cube])


def test_cube_set_errors_name_the_first_bad_corner():
    # the whole set is checked at once, and a bad set is walked cube by cube
    # in sorted order to name its first bad corner
    with pytest.raises(BuildError) as e:
        cubes_to_complex([(0, 0, 0), (155, 0, 0), (-100, 0, 0)])
    assert str(e.value) == "lattice point out of supported range: (-100, 0, 0)"
    with pytest.raises(BuildError) as e:
        cubes_to_complex([(0, 0, 0), (155, 0, 0)])
    assert str(e.value) == "lattice point out of supported range: (156, 1, 1)"
    with pytest.raises(BuildError) as e:
        cubes_to_complex([(0, 1, 300), (0, True, 0)])
    assert str(e.value) == "lattice point must have integer coordinates: (0, True, 0)"


def test_lattice_path_parsing():
    paths = parse_lattice_paths("0,0,0; 1,0,0; 1,1,0; 0,1,0; 0,0,0\n# comment\n")
    assert [p.points for p in paths] == [((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0))]
    with pytest.raises(BuildError):
        parse_lattice_paths("0,0,0; 2,0,0; 0,0,0")  # non-unit step
    with pytest.raises(BuildError):
        parse_lattice_paths("0,0,0; 1,0,0; 0,0,0")  # one edge there and back
    square = parse_lattice_paths(" +1, -0 ,0; 1,1,0; 2,1,0; 2,0,0; 1,0,0")[0]
    assert square.points == ((1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 0, 0))


@pytest.mark.parametrize(
    "text",
    [
        "0,0,0; 1,0,0; 2,0,0",
        "0,0,0; 1,0,0; 1,1,0; 0,1,0",
        "0,0,0",
        ";",
        # a closed line, then an open one
        "0,0,0; 1,0,0; 1,1,0; 0,1,0; 0,0,0\n5,0,0; 6,0,0",
    ],
)
def test_lattice_path_rejects_an_open_line(text):
    with pytest.raises(BuildError, match="^lattice path does not return to its first point$"):
        parse_lattice_paths(text)


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
    assert surface_info(M.complex.subcomplex(M.marks["outer"])) == (0,)
    assert surface_info(M.complex.subcomplex(M.marks["tube_0"])) == (1,)
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
    return LatticePath(tuple(pts))


def _square(n):
    """Closed lattice path around the square [0,n] x [0,n] x {0}."""
    pts = (
        [(x, 0, 0) for x in range(n)]
        + [(n, y, 0) for y in range(n)]
        + [(x, n, 0) for x in range(n, 0, -1)]
        + [(0, y, 0) for y in range(n, 0, -1)]
    )
    return LatticePath(tuple(pts))


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
    far = LatticePath(tuple((x + 20_000, y, z) for x, y, z in _square(4).points))
    with pytest.raises(BuildError, match="lattice point out of supported range"):
        lattice_link_complement([_square(4), far])


@st.composite
def _closed_walks(draw, scale=1):
    """Text of one or two closed lattice walks near the origin: random
    moves of scale unit steps each, then back to the start one axis at a
    time."""
    lines = []
    for _ in range(draw(st.integers(1, 2))):
        start = draw(st.tuples(*[st.integers(-3, 3)] * 3))
        pts = [start]
        moves = st.tuples(st.integers(0, 2), st.sampled_from((-1, 1)))
        for axis, d in draw(st.lists(moves, min_size=1, max_size=6)):
            for _ in range(scale):
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


def _walked_marks(paths):
    """The marks of the box of paths by a walk over every cube face: a face
    between a domain cube and a cube of tube i goes to "tube_i", every
    other boundary face to "outer"."""
    excluded = [builders._dilate(builders._path_cubes(path)) for path in paths]
    owner = {c: i for i, cubes in enumerate(excluded) for c in cubes}
    spans = [range(min(c[a] for c in owner) - 1, max(c[a] for c in owner) + 2) for a in range(3)]
    domain = {c for c in product(*spans) if c not in owner}
    marks = {"outer": [], **{f"tube_{i}": [] for i in range(len(paths))}}
    for cube in domain:
        for axis in range(3):
            for d in (-1, 1):
                n = list(cube)
                n[axis] += d
                n = tuple(n)
                if n not in domain:
                    name = f"tube_{owner[n]}" if n in owner else "outer"
                    marks[name] += square_face_triangles(cube if d == 1 else n, axis)
    return marks


# every BuildError a link box could raise before its marks were read off
# its boundary
_BOX_ERRORS = re.compile(
    r"thickenings of components \d+ and \d+ collide|need at least one path"
    r"|lattice point out of supported range: .*"
    r"|a boundary component does not fill exactly one mark"
    r"|outer box boundary is not a sphere|tube_\d+ boundary is not a torus"
)


def _assert_marks_are_walked(paths):
    try:
        M = lattice_link_complement(paths)
    except BuildError as e:
        assert _BOX_ERRORS.fullmatch(str(e)), str(e)
        return
    except ComplexError:  # a boundary that is not a closed surface
        return
    assert M.marks == MarkedComplex(M.complex, _walked_marks(paths)).marks


def test_walked_marks_of_the_link_presets():
    for M, paths in [
        (unknot_box(), [_square(5)]),
        (preset("hopf_box"), builders._load_paths("hopf")),
        (preset("trefoil_box"), builders._load_paths("trefoil")),
    ]:
        assert M.marks == MarkedComplex(M.complex, _walked_marks(paths)).marks


def _moved(path, axis, by):
    return LatticePath(tuple(p[:axis] + (p[axis] + by,) + p[axis + 1:] for p in path.points))


# a square or rectangle with a hole, and a second one moved off it along an
# axis, near enough for some pairs to collide
_holed = st.builds(_square, st.integers(5, 7)) | st.builds(
    lambda w, h: _rectangle(0, w, 0, 0, h), st.integers(5, 7), st.integers(5, 7)
)
_apart = st.tuples(_holed, st.builds(_moved, _holed, st.integers(0, 2), st.integers(6, 12)))
# a square pierced by a rectangle, as in hopf.path, whose arms pass at
# distance 4 (a collision) to 6 from the square's plane
_pierced = st.builds(
    lambda w, lo, hi: (_square(10), _rectangle(5, 5 + w, 5, -lo, hi)),
    st.integers(10, 11), st.integers(4, 6), st.integers(4, 6),
)


@settings(max_examples=12, deadline=None)
@given(_apart | _pierced)
def test_link_box_marks_are_the_walked_faces_of_two_rectangles(paths):
    _assert_marks_are_walked(list(paths))


@settings(max_examples=100, deadline=None)
@given(_closed_walks() | _closed_walks(scale=5))
def test_link_box_marks_are_the_walked_faces_of_closed_walks(text):
    try:
        paths = parse_lattice_paths(text)
    except BuildError:  # a walk that meets itself or has no area
        return
    _assert_marks_are_walked(paths)


def test_surface_shell_structure():
    M = surface_shell(2)
    assert euler_characteristic(M.complex) == 2 - 2 * 2  # chi(surface x interval)
    assert surface_info(boundary_subcomplex(M.complex)) == (2, 2)
    assert betti_numbers(M.complex) == (1, 4, 1, 0)


def test_corpus_size_and_names_unique():
    corpus = domain_corpus()
    names = [n for n, _ in corpus]
    assert len(names) == len(set(names)) >= 10


def test_lattice_path_validation_direct():
    with pytest.raises(BuildError, match="lattice path too short"):
        LatticePath(((0, 0, 0),))
    with pytest.raises(BuildError, match="lattice path too short"):
        LatticePath(((0, 0, 0), (1, 0, 0), (0, 0, 0)))
    with pytest.raises(BuildError, match="lattice path repeats a vertex"):
        LatticePath(((0, 0, 0), (1, 0, 0), (0, 0, 0), (1, 0, 0)))
    # the step from the last point back to the first is checked too
    with pytest.raises(BuildError, match=re.escape("non-unit step (1, 2, 0) -> (0, 0, 0)")):
        LatticePath(((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0)))


# -- cube complexes: the vertex table and the push-offs ---------------------


def _plain(K):
    """A plain copy of a complex: the same layers, checked simplex by simplex."""
    return SimplicialComplex([K.simplices(d) for d in range(4)])


def _is_domain(K):
    try:
        check_domain(K)
    except NotADomainError:
        return False
    return True


# octant b of a vertex v is the cube with min corner v + _OCTANTS[b] - 1
_OCTANTS = list(product((0, 1), repeat=3))


def _mask(v, cubes):
    return sum(1 << b for b, o in enumerate(_OCTANTS) if tuple(a + c - 1 for a, c in zip(v, o)) in cubes)


def test_vertex_table_agrees_with_the_domain_check_at_one_vertex():
    # all 255 nonempty sets of the 8 cubes at the vertex (1, 1, 1); a set
    # that fails at another vertex fails at (1, 1, 1) too
    for mask in range(1, 256):
        K = cubes_to_complex(o for b, o in enumerate(_OCTANTS) if mask >> b & 1)
        verdict = builders._vertex(mask).manifold
        assert _is_domain(K) == verdict and K._layers is None, mask
        assert _is_domain(_plain(K)) == verdict, mask
    assert sum(entry.manifold for entry in map(builders._vertex, range(1, 255))) == 126


@settings(max_examples=60, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)), min_size=1))
def test_cube_complexes_agree_with_plain_copies(cubes):
    # the domain check, the Euler characteristic and the boundary read off
    # the cubes, against the simplicial ones of the same layers
    K = cubes_to_complex(cubes)
    read = _is_domain(K), euler_characteristic(K), boundary_subcomplex(K)
    assert K._layers is None
    P = _plain(K)
    assert read == (_is_domain(P), euler_characteristic(P), boundary_subcomplex(P))


def test_a_pinched_cube_pair_names_its_vertex():
    K = cubes_to_complex([(0, 0, 0), (1, 1, 1)])
    with pytest.raises(NotADomainError) as e:
        check_domain(K)
    assert str(e.value) == "domain complex is not a 3-manifold at vertex (1, 1, 1)"
    with pytest.raises(NotADomainError, match="^domain complex must be connected$"):
        check_domain(cubes_to_complex([(0, 0, 0), (2, 0, 0)]))
    with pytest.raises(NotADomainError, match="^domain complex must be pure 3-dimensional$"):
        check_domain(cubes_to_complex([]))


def test_vertex_table_commutes_with_permutations_of_the_axes():
    # so an edge along x and a square diagonal in x and y stand for all the
    # boundary edges of a cube complex below
    table = list(map(builders._vertex, range(256)))
    for perm in permutations(range(3)):
        def moved(b):
            bits = [b >> 2 - a & 1 for a in range(3)]
            return sum(bits[a] << 2 - perm[a] for a in range(3))

        for mask in range(256):
            image = table[sum(1 << moved(b) for b in range(8) if mask >> b & 1)]
            entry = table[mask]
            assert (image.manifold, image.chi) == (entry.manifold, entry.chi)
            for f in range(8):
                push = [0, 0, 0]
                for a in range(3):
                    push[perm[a]] = entry.pushes[f][a]
                assert image.pushes[moved(f)] == tuple(push)


def _meets_cube(S, T, cube):
    """The segment from S to T meets the closed cube, coordinates scaled by
    16: no separating axis among the 3 face normals and their products
    with the segment."""
    D = [t - s for s, t in zip(S, T)]
    C = [s + t - 32 * c - 16 for s, t, c in zip(S, T, cube)]  # twice midpoint minus center
    if any(abs(C[i]) > 16 + abs(D[i]) for i in range(3)):
        return False
    return all(
        abs(C[j] * D[k] - C[k] * D[j]) <= 16 * (abs(D[j]) + abs(D[k]))
        for j, k in ((1, 2), (2, 0), (0, 1))
    )


@pytest.mark.parametrize("f, count", [(4, 836), (6, 1250)])
def test_push_offs_miss_the_cubes(f, count):
    # every set of the cubes at the two ends of a boundary edge from v to
    # v + f that both ends' table entries pass: the half-segments of the
    # push-off (CubeComplex.pushed_point) miss every closed cube of the
    # set.  A push moves a point by at most 1/4, so only these cubes matter.
    table = list(map(builders._vertex, range(256)))
    v, w = (0, 0, 0), _OCTANTS[f]
    cubes = sorted({tuple(a + c - 1 for a, c in zip(p, o)) for p in (v, w) for o in _OCTANTS})
    around = [c for c in cubes if all(c[a] <= min(v[a], w[a]) and c[a] + 1 >= max(v[a], w[a]) for a in range(3))]
    seen = straight = 0
    for bits in range(1 << len(cubes)):
        inset = {c for k, c in enumerate(cubes) if bits >> k & 1}
        if len({c in inset for c in around}) == 1:
            continue  # not a boundary edge
        ev, ew = table[_mask(v, inset)], table[_mask(w, inset)]
        if not (ev.manifold and ew.manifold):
            continue
        seen += 1
        P, Q = ev.pushes[0], tuple(16 * a + n for a, n in zip(w, ew.pushes[0]))
        M = tuple(8 * a + n for a, n in zip(w, ev.pushes[f]))
        assert not any(_meets_cube(S, T, c) for S, T in ((P, M), (M, Q)) for c in inset), inset
        straight += any(_meets_cube(P, Q, c) for c in inset)
    assert seen == count
    # a straight segment from one end's push-off to the other's would not do
    assert straight == 8


def test_pushed_point_of_a_unit_cube():
    K = cubes_to_complex([(0, 0, 0)])
    o, x = encode_point((0, 0, 0)), encode_point((1, 0, 0))
    assert K.pushed_point((o,)) == (-1, -1, -1)
    assert K.pushed_point((x,)) == (17, -1, -1)
    assert K.pushed_point((o, x)) == (8, -1, -1)

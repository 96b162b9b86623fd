import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from helmcut.builders import (
    ball,
    cubes_to_complex,
    encode_point,
    preset,
    preset_names,
    square_face_triangles,
)
from helmcut.complexes import (
    ComplexError,
    MarkedComplex,
    NotADomainError,
    SimplicialComplex,
    _class_roots,
    _position,
    _surface_walks,
    barycentric_subdivide_with_map,
    build_complex,
    connected_components,
    euler_characteristic,
    face_index,
    last_vertex_map,
    mapping_torus,
    marked_complex_from_json,
    orient_surface,
    surface_info,
)
from helmcut.cuts import (
    CutResult,
    SurfaceSystem,
    SurfaceSystemError,
    classify_cut_system,
    cut_open,
    find_minimal_weak_subsets,
    surface_system_from_marks,
    validate_surface_system,
)
from helmcut.homology import betti_numbers, homology_of

from test_domains import minus_identity_mapping_torus


def two_cube_ball_with_disk() -> MarkedComplex:
    """Two stacked unit cubes with the shared square face marked: cutting
    the ball along this disk gives two balls."""
    K = cubes_to_complex([(0, 0, 0), (1, 0, 0)])
    return MarkedComplex(K, {"disk": square_face_triangles((0, 0, 0), 0)})


# -- validation diagnostics ------------------------------------------------


def test_valid_systems():
    for name in ("solid_torus_with_meridian_disk", "handlebody2", "trefoil_mapping_torus"):
        M = preset(name)
        validate_surface_system(M, surface_system_from_marks(M))


def diagnostic_of(M, F):
    with pytest.raises(SurfaceSystemError) as e:
        validate_surface_system(M, F)
    return e.value.diagnostic


def test_overlap_diagnostic():
    M = two_cube_ball_with_disk()
    tris = tuple(M.marks["disk"])
    F = SurfaceSystem(("a", "b"), (tris, tris))
    assert diagnostic_of(M, F) == "overlap"


def test_disconnected_diagnostic():
    M = preset("handlebody2")
    tris = tuple(M.marks["disk_0"]) + tuple(M.marks["disk_1"])
    F = SurfaceSystem(("both",), (tris,))
    assert diagnostic_of(M, F) == "disconnected"


def test_non_surface_diagnostic():
    # three triangles sharing one edge: a "book", not a surface
    M = preset("solid_torus_with_meridian_disk")
    K = M.complex
    for e in K.simplices(1):
        tris = [t for t in K.simplices(2) if set(e) <= set(t)]
        if len(tris) >= 3:
            F = SurfaceSystem(("bad",), (tuple(tris[:3]),))
            assert diagnostic_of(M, F) == "non-surface"
            return
    raise AssertionError("no edge with three incident triangles found")


# the interior diagonal of the Kuhn cube at (1, 0, 0), from (1, 0, 0) to (2, 1, 1)
WHISKER = (6644836, 6710629)


def meridian_disk_with_whisker() -> MarkedComplex:
    """The solid torus's meridian disk mark with one more generator: an
    edge that lies in no triangle of the mark."""
    M = preset("solid_torus_with_meridian_disk")
    return MarkedComplex(M.complex, {"disk": tuple(M.marks["disk"]) + (WHISKER,)})


def test_bare_edge_is_not_a_surface():
    # cutting along it would remove an arc along with the disk
    M = meridian_disk_with_whisker()
    with pytest.raises(SurfaceSystemError) as e:
        validate_surface_system(M, surface_system_from_marks(M))
    assert e.value.diagnostic == "non-surface"
    assert str(e.value) == f"non-surface: disk: edge {WHISKER} has 0 triangles"


def test_boundary_leak_diagnostic():
    # a boundary triangle of the domain is not properly embedded
    M = two_cube_ball_with_disk()
    from helmcut.complexes import boundary_subcomplex

    t = boundary_subcomplex(M.complex).simplices(2)[0]
    F = SurfaceSystem(("leak",), ((t,),))
    assert diagnostic_of(M, F) == "boundary-leak"
    # b1 = 0, so the subset search classifies only the empty subset, but
    # it validates the whole system first
    K = ball()
    F = SurfaceSystem(("leak",), ((K.simplices(2)[0],),))
    with pytest.raises(SurfaceSystemError, match="boundary-leak"):
        find_minimal_weak_subsets(K, F)


# the corner (1, 1, 1) of the cube removed from the 2x2x2 block
PINCH = 6645093


def pinched_disk() -> MarkedComplex:
    """A ball, the 2x2x2 block of unit cubes without the cube at (1, 1, 1),
    with the hexagonal disk coned from (1, 1, 1): every edge of the disk
    passes the edge checks, but its interior vertex (1, 1, 1) lies on the
    boundary of the ball."""
    cubes = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    K = cubes_to_complex(cubes[:-1])
    # (1,0,0) (1,1,0) (0,1,0) (0,1,1) (0,0,1) (1,0,1)
    hexagon = (6644836, 6645092, 6579556, 6579557, 6579301, 6644837)
    disk = [tuple(sorted((PINCH, a, b))) for a, b in zip(hexagon, hexagon[1:] + hexagon[:1])]
    return MarkedComplex(K, {"disk": tuple(disk)})


def test_surface_touching_the_boundary_at_an_interior_vertex_leaks():
    M = pinched_disk()
    with pytest.raises(SurfaceSystemError) as e:
        validate_surface_system(M, surface_system_from_marks(M))
    assert e.value.diagnostic == "boundary-leak"
    assert str(e.value) == f"boundary-leak: interior vertex {PINCH} of disk lies on the domain boundary"


def section_and_cone() -> tuple[SimplicialComplex, list, list]:
    """The 4x4x2 block of unit cubes, its section z = 1, and the disk coned
    from (2, 2, 1) to the unit square on the top face above it.  Each is a
    properly embedded disk, and they share only the vertex (2, 2, 1)."""
    K = cubes_to_complex([(x, y, z) for x in range(4) for y in range(4) for z in range(2)])
    section = [t for x in range(4) for y in range(4) for t in square_face_triangles((x, y, 0), 2)]
    square = [encode_point(p) for p in [(2, 2, 2), (3, 2, 2), (3, 3, 2), (2, 3, 2)]]
    apex = encode_point((2, 2, 1))
    cone = [tuple(sorted((apex, square[i - 1], square[i]))) for i in range(4)]
    return K, section, cone


def test_surface_pinched_at_a_vertex_is_not_a_surface():
    # every edge passes the edge checks, but the link of the shared vertex
    # is two circles; as two marks, the surfaces overlap there
    K, section, cone = section_and_cone()
    apex = encode_point((2, 2, 1))
    with pytest.raises(SurfaceSystemError) as e:
        classify_cut_system(K, SurfaceSystem(("m",), (tuple(section + cone),)))
    assert str(e.value) == f"non-surface: m: link of vertex {apex} is not a single circle"
    assert diagnostic_of(K, SurfaceSystem(("a", "b"), (tuple(section), tuple(cone)))) == "overlap"
    for disk in (section, cone):
        v = classify_cut_system(K, SurfaceSystem(("d",), (tuple(disk),)))
        assert v.component_count == 2 and v.is_helmholtz_cut_system


@pytest.mark.parametrize(
    "shape, abstract, block",
    [
        # two tetrahedron boundaries; the section and the cone
        ("circle", [t for a in (0, 4) for t in combinations((0, a + 1, a + 2, a + 3), 3)],
         lambda section, cone: section + cone),
        # a tetrahedron boundary and a triangle; the section and a cone triangle
        ("arc", list(combinations((0, 1, 2, 3), 3)) + [(0, 4, 5)],
         lambda section, cone: section + cone[:1]),
        # two triangles; two opposite cone triangles
        ("arc", [(0, 1, 2), (0, 3, 4)], lambda section, cone: cone[::2]),
    ],
)
def test_a_vertex_whose_link_is_two_pieces_is_rejected(shape, abstract, block):
    # the link of vertex 0, and of the apex in the block, is two circles,
    # an arc and a circle, or two arcs
    S = build_complex(abstract)
    with pytest.raises(ComplexError) as e:
        _surface_walks(S)
    assert str(e.value) == f"link of vertex 0 is not a single {shape}"
    with pytest.raises(ComplexError, match="^not a closed surface: "):
        surface_info(S)
    K, section, cone = section_and_cone()
    F = SurfaceSystem(("m",), (tuple(block(section, cone)),))
    with pytest.raises(SurfaceSystemError) as e:
        validate_surface_system(K, F)
    apex = encode_point((2, 2, 1))
    assert str(e.value) == f"non-surface: m: link of vertex {apex} is not a single {shape}"


def grid_disk(symmetry):
    """3x3 grid square disk and a simplicial automorphism of it: the
    180-degree "rotation", the "transpose" 3i+j -> 3j+i or the "identity".
    The middle row is invariant under the rotation and the identity."""
    def v(i, j):
        return 3 * i + j

    tris = []
    for i in range(2):
        for j in range(2):
            tris.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            tris.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    disk = build_complex(tris)
    image = {
        "rotation": lambda i, j: v(2 - i, 2 - j),
        "transpose": lambda i, j: v(j, i),
        "identity": v,
    }[symmetry]
    return disk, {v(i, j): image(i, j) for i in range(3) for j in range(3)}


def middle_row_surface(symmetry):
    """The mapping torus of the grid disk under the symmetry, with
    the sub-mapping-torus of the middle row: a Moebius band in a solid
    torus for the rotation, an annulus for the identity."""
    disk, phi = grid_disk(symmetry)
    M = mapping_torus(disk, phi)
    idx = {vtx: i for i, vtx in enumerate(sorted(disk.vertices))}
    row = {idx[d] for d in (3, 4, 5)}  # middle row of the grid
    # label = idx * 3 + t, with three prism layers
    band = tuple(t for t in M.complex.simplices(2) if all(lab // 3 in row for lab in t))
    return M, band


def assert_walks_go_around(S):
    """Each vertex's walk in _surface_walks(S) meets every edge at the
    vertex once, each step through a triangle of S; it starts at the
    smallest rim edge, an edge of one triangle, and ends at the other, or,
    at a vertex off the rim, starts at the smallest edge and closes up."""
    index, edges, tris = face_index(S), S.simplices(1), S.simplices(2)
    walks, start = _surface_walks(S), index.coface_start[0]
    rim = {e for q, e in enumerate(edges) if len(index.cofaces_of(1, q)) == 1}
    for p, (v,) in enumerate(S.simplices(0)):
        walk = [edges[q] for q in walks[start[p]:start[p + 1]]]
        at_v = sorted(e for e in edges if v in e)
        assert sorted(walk) == at_v
        ends = [e for e in at_v if e in rim]
        assert ends in ([], [walk[0], walk[-1]])
        if not ends:
            assert walk[0] == at_v[0]
            walk.append(walk[0])
        fan = [tuple(sorted(set(a) | set(b))) for a, b in zip(walk, walk[1:])]
        assert set(fan) <= set(tris)
        assert fan[0] == min(t for t in tris if set(walk[0]) <= set(t))


def test_rim_walks_go_around_disk_annulus_and_moebius_band():
    disk, _ = grid_disk("identity")
    surfaces = [disk]
    for symmetry in ("identity", "rotation"):  # an annulus, a Moebius band
        M, band = middle_row_surface(symmetry)
        surfaces.append(M.complex.subcomplex(band))
    for S in surfaces:
        assert_walks_go_around(S)
    assert [orient_surface(S) is not None for S in surfaces] == [True, True, False]
    # by hand on the grid disk: corner 0 from its rim edge (0, 1) to (0, 3),
    # centre 4 from (0, 4) through the triangle (0, 1, 4) and back
    walks, start = _surface_walks(disk), face_index(disk).coface_start[0]
    walk = {v: [disk.simplices(1)[q] for q in walks[start[v]:start[v + 1]]] for v in (0, 4)}
    assert walk == {0: [(0, 1), (0, 4), (0, 3)], 4: [(0, 4), (1, 4), (4, 5), (4, 8), (4, 7), (3, 4)]}


def test_closed_surface_check_names_a_rim_edge():
    disk, _ = grid_disk("identity")
    with pytest.raises(ComplexError) as e:
        surface_info(disk)
    assert str(e.value) == "not a closed surface: edge (0, 1) is a rim edge, of one triangle"


def test_one_sided_diagnostic_moebius_band_in_solid_torus():
    # mapping torus of a disk with a half-turn is a solid torus; the
    # sub-mapping-torus of the invariant diameter is a one-sided Moebius band
    M, band = middle_row_surface("rotation")
    assert betti_numbers(M.complex) == (1, 1, 0, 0)
    F = SurfaceSystem(("moebius",), (band,))
    assert diagnostic_of(M, F) == "one-sided"


def fan_two_sided(KC, S) -> bool:
    """Two-sidedness of a properly embedded surface S in KC, read from
    tetrahedron fans alone, as an oracle independent of orientations.  A
    side of a triangle of S is one of its two tetrahedra; walking the fan
    of KC around an interior edge of S from one side of a triangle reaches
    a side of the next triangle of S, and the two face each other.  S is
    two-sided iff no triangle has both its sides in one class."""
    index = face_index(KC)
    s_tris = {_position(KC.simplices(2), t) for t in S.simplices(2)}
    linked = []
    for e in S.simplices(1):
        e_K = _position(KC.simplices(1), e)
        pair = [t for t in index.cofaces_of(1, e_K) if t in s_tris]
        if len(pair) != 2:
            continue
        for start_tet in index.cofaces_of(2, pair[0]):
            tri, tet = pair[0], start_tet
            while True:
                # the other face of tet that contains e
                tri = next(
                    f for f in index.faces_of(3, tet) if f != tri and e_K in index.faces_of(2, f)
                )
                if tri in s_tris:
                    break
                (tet,) = [x for x in index.cofaces_of(2, tri) if x != tet]
            linked.append(((pair[0], start_tet), (tri, tet)))
    side = _class_roots([(t, x) for t in s_tris for x in index.cofaces_of(2, t)], linked)
    return all(side[(t, a)] != side[(t, b)] for t in s_tris for a, b in [index.cofaces_of(2, t)])


def plate_disks(genus):
    """The thinnest genus-g plate (3 x (2g + 1) squares, holes at (2i + 1, 1))
    and every disk between two of its squares that runs from boundary to
    boundary, as a cuts benchmark round places them."""
    squares = {(x, y) for x in range(2 * genus + 1) for y in range(3)}
    return square_disks(squares - {(2 * i + 1, 1) for i in range(genus)})


def square_disks(squares):
    """The plate of the given squares and every disk between two of its
    squares that runs from boundary to boundary."""
    K = cubes_to_complex([(x, y, 0) for x, y in sorted(squares)])
    disks = []
    for x, y in sorted(squares):
        for axis in (0, 1):
            if (x + (axis == 0), y + (axis == 1)) not in squares:
                continue
            ends = ((x + 1, y), (x + 1, y + 1)) if axis == 0 else ((x, y + 1), (x + 1, y + 1))
            if all(
                sum((a - dx, b - dy) in squares for dx in (0, 1) for dy in (0, 1)) < 4
                for a, b in ends
            ):
                disks.append(square_face_triangles((x, y, 0), axis))
    return K, disks


def test_fan_sides_agree_with_surface_orientation():
    cases = [(*middle_row_surface("rotation"), False), (*middle_row_surface("identity"), True)]
    cases.append((*thick_plate_layer(10), True))
    # the preset marks that are cut surfaces; the others lie in the boundary
    for name in preset_names():
        M = preset(name)
        index, tris_K = face_index(M.complex), M.complex.simplices(2)
        for tris in M.marks.values():
            if all(len(index.cofaces_of(2, _position(tris_K, t))) == 2 for t in tris):
                cases.append((M, tris, True))
    assert len(cases) == 3 + 4
    K, disks = plate_disks(2)
    assert len(disks) >= 3
    cases.extend((K, tris, True) for tris in disks)
    for M, tris, two_sided in cases:
        KC = M.complex if isinstance(M, MarkedComplex) else M
        S = KC.subcomplex(tris)
        assert fan_two_sided(KC, S) == (orient_surface(S) is not None) == two_sided
        if two_sided:
            validate_surface_system(M, SurfaceSystem(("s",), (tuple(tris),)))


def solid_klein_bottle():
    """The mapping torus of the grid disk under the transpose, a reflection,
    with its marked fiber disk: not orientable, so not a domain."""
    disk, phi = grid_disk("transpose")
    return mapping_torus(disk, phi)


# a triangle in three tetrahedra, and the triangle (1, 2, 3) marked
TRIANGLE_IN_THREE_TETS = {
    "simplices": [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5], [1, 2, 3, 6]],
    "marked_subcomplexes": {"t": [[1, 2, 3]]},
}


@pytest.mark.parametrize(
    "build, message",
    [
        (solid_klein_bottle, "domain complex is not orientable"),
        (
            lambda: marked_complex_from_json(TRIANGLE_IN_THREE_TETS),
            "triangle (0, 1, 2) lies in 3 tetrahedra, not at most 2",
        ),
    ],
)
def test_non_domains_are_rejected_before_sidedness(build, message):
    M = build()
    assert homology_of(M.complex).betti(0) == 1
    # the empty system too: the domain check does not wait for a surface
    for F in (surface_system_from_marks(M), SurfaceSystem((), ())):
        for check in (validate_surface_system, classify_cut_system, find_minimal_weak_subsets):
            with pytest.raises(ComplexError) as e:
                check(M, F)
            assert type(e.value) is NotADomainError and str(e.value) == message


# -- cut/open and classification -------------------------------------------


def test_cut_solid_torus_along_meridian_disk():
    M = preset("solid_torus_with_meridian_disk")
    v = classify_cut_system(M, surface_system_from_marks(M))
    assert v.component_count == 1
    assert v.component_betti == ((1, 0, 0, 0),)
    assert v.is_helmholtz_cut_system and v.is_weak_cut_system and v.is_minimal_weak
    assert v.relative_class_rank == 1


def test_cut_handlebody2_along_two_disks():
    M = preset("handlebody2")
    v = classify_cut_system(M, surface_system_from_marks(M))
    assert v.component_count == 1
    assert v.component_betti[0][1] == 0
    assert v.is_helmholtz_cut_system and v.is_minimal_weak
    assert v.relative_class_rank == 2


def test_cut_trefoil_mapping_torus_along_fiber():
    t0 = time.time()
    M = preset("trefoil_mapping_torus")
    v = classify_cut_system(M, surface_system_from_marks(M))
    assert v.component_count == 1
    assert v.component_betti[0][1] == 2
    assert not v.is_helmholtz_cut_system
    assert v.is_weak_cut_system and v.is_minimal_weak
    assert v.relative_class_rank == 1
    assert time.time() - t0 < 60.0


def test_cut_minus_identity_mapping_torus_along_fiber():
    # the piece's H1 generators are torsion in H1(K) = Z + Z/2 + Z/2: they
    # bound only twice over, and weak is a rational criterion
    M = minus_identity_mapping_torus()
    F = surface_system_from_marks(M)
    v = classify_cut_system(M, F)
    assert v.component_betti == ((1, 2, 0, 0),)
    assert v.is_weak_cut_system and v.is_minimal_weak and not v.is_helmholtz_cut_system
    assert find_minimal_weak_subsets(M, F) == [("fiber",)]


def test_surface_system_checks_its_shape():
    F = surface_system_from_marks(preset("handlebody2"))
    with pytest.raises(ComplexError, match="2 surface names for 1 triangle lists"):
        SurfaceSystem(F.names, F.triangles[:1])
    with pytest.raises(ComplexError, match="surface named twice: 'disk_0'"):
        SurfaceSystem(F.names[:1] * 2, F.triangles[:1] * 2)


def test_empty_system_on_solid_torus_is_not_weak():
    M = preset("solid_torus")
    v = classify_cut_system(M, SurfaceSystem((), ()))
    assert v.relative_class_rank == 0
    assert not v.is_weak_cut_system and not v.is_minimal_weak


def test_disconnecting_disk_in_ball():
    M = two_cube_ball_with_disk()
    v = classify_cut_system(M, surface_system_from_marks(M))
    assert v.component_count == 2
    assert v.component_betti == ((1, 0, 0, 0), (1, 0, 0, 0))
    # b1 = 0 so the (redundant) disk still yields Helmholtz and weak
    assert v.is_helmholtz_cut_system and v.is_weak_cut_system
    assert not v.is_minimal_weak  # cut not connected / |F| != b1
    assert v.relative_class_rank == 0  # the disk bounds relative to the sphere


def test_connectivity_vs_independence_equivalence():
    # cut connected  <=>  classes independent and spanning (on the corpus)
    cases = [
        ("solid_torus_with_meridian_disk", None),
        ("handlebody2", None),
        ("trefoil_mapping_torus", None),
    ]
    for name, _ in cases:
        M = preset(name)
        v = classify_cut_system(M, surface_system_from_marks(M))
        lhs = v.component_count == 1
        rhs = (v.relative_class_rank == v.system_size
               and v.relative_class_rank == homology_of(M.complex).betti(1))
        assert lhs == rhs, name
    # and the disconnecting direction
    M = two_cube_ball_with_disk()
    v = classify_cut_system(M, surface_system_from_marks(M))
    assert v.relative_class_rank != v.system_size and v.component_count != 1


def test_mayer_vietoris_identity_on_handlebody_cuts():
    for name in ("solid_torus_with_meridian_disk", "handlebody2"):
        M = preset(name)
        F = surface_system_from_marks(M)
        v = classify_cut_system(M, F)
        b1 = homology_of(M.complex).betti(1)
        b1_cut = sum(b[1] for b in v.component_betti)
        assert b1 == b1_cut + v.system_size - (v.component_count - 1), name


def test_relative_classes_orientation_and_empty():
    M = preset("solid_torus_with_meridian_disk")
    F = surface_system_from_marks(M)
    v = classify_cut_system(M, F)
    assert v.relative_class_rank == 1 and len(v.relative_class_matrix[0]) == 1
    empty = classify_cut_system(M, SurfaceSystem((), ()))
    assert empty.relative_class_rank == 0
    # orientation signs are +-1 and consistent
    S = M.complex.subcomplex(F.triangles[0])
    ori = orient_surface(S)
    assert set(ori.values()) <= {1, -1}
    assert len(ori) == len(S.simplices(2))


def test_cut_invariant_under_subdivision():
    # cutting K along F and K' along the triangles of K' carried by F agree
    M = two_cube_ball_with_disk()
    F = surface_system_from_marks(M)
    sub, v2s = barycentric_subdivide_with_map(M.complex)
    disk = set(M.complex.subcomplex(F.triangles[0]).all_simplices())
    carried = tuple(t for t in sub.simplices(2) if all(v2s[v] in disk for v in t))
    r = cut_open(M, F)
    r1 = cut_open(sub, SurfaceSystem(F.names, (carried,)))
    assert r.component_count == r1.component_count == 2
    assert sorted(betti_numbers(c) for c in r.components) == sorted(
        betti_numbers(c) for c in r1.components
    )


def marked_cut_inputs():
    return [two_cube_ball_with_disk()] + [
        preset(name)
        for name in ("solid_torus_with_meridian_disk", "handlebody2", "trefoil_mapping_torus")
    ]


def test_cut_subdivides_only_the_tetrahedra_near_the_surfaces():
    # a tetrahedron with a vertex on a surface splits into at most 24
    # pieces; every other tetrahedron stays whole
    for M in marked_cut_inputs():
        F = surface_system_from_marks(M)
        near = {v for tris in F.triangles for t in tris for v in t}
        tets = M.complex.simplices(3)
        meeting = sum(not near.isdisjoint(t) for t in tets)
        r = cut_open(M, F)
        cut_tets = sum(len(c.simplices(3)) for c in r.components)
        assert 0 < cut_tets <= len(tets) - meeting + 24 * meeting


def full_subdivision_cut(KC, surfaces):
    """The cut in the full barycentric subdivision K' of K, as an oracle:
    the full subcomplex of K' on the barycenters of the simplices that do
    not lie in the surfaces, with the last-vertex map K' -> K."""
    in_surfaces = {s for S in surfaces for s in S.all_simplices()}
    sub, v2s = barycentric_subdivide_with_map(KC)
    survivors = {v for v, s in v2s.items() if s not in in_surfaces}
    cut = SimplicialComplex(
        [[s for s in sub.simplices(d) if all(v in survivors for v in s)] for d in range(4)]
    )
    vertex_map = last_vertex_map({v: v2s[v] for v in cut.vertices})
    return CutResult(connected_components(cut), vertex_map)


def assert_cut_matches_full_subdivision(M, F):
    KC = M.complex if isinstance(M, MarkedComplex) else M
    got = cut_open(M, F)
    want = full_subdivision_cut(KC, validate_surface_system(M, F))
    assert got.component_count == want.component_count
    # both label a vertex by the index of its simplex in K.all_simplices()
    assert [c.vertices[0] for c in got.components] == [c.vertices[0] for c in want.components]
    assert [betti_numbers(c) for c in got.components] == [
        betti_numbers(c) for c in want.components
    ]
    for c in got.components:
        for s in c.all_simplices():
            assert KC.has_simplex(sorted({got.vertex_map[v] for v in s}))


def test_cut_matches_full_subdivision_on_marked_inputs():
    for M in marked_cut_inputs():
        assert_cut_matches_full_subdivision(M, surface_system_from_marks(M))


@st.composite
def plate_systems(draw):
    """A strip one square high, or a plate three squares high with holes in
    its middle row that share no vertex, possibly transposed, and a system
    of disks between two of its squares that share no vertex."""
    w = draw(st.integers(2, 7))
    holes: set = set()
    if w > 2 and draw(st.booleans()):
        for x in draw(st.lists(st.integers(1, w - 2), min_size=1, max_size=3)):
            if all(abs(x - hole) >= 2 for hole in holes):
                holes.add(x)
    squares = {(x, y) for x in range(w) for y in range(3 if holes else 1)}
    squares -= {(x, 1) for x in holes}
    if draw(st.booleans()):
        squares = {(y, x) for x, y in squares}
    K, candidates = square_disks(squares)
    picks = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=4))
    disks, used = [], set()
    for tris in picks:
        verts = {v for t in tris for v in t}
        if used.isdisjoint(verts):
            disks.append(tuple(tris))
            used |= verts
    return K, SurfaceSystem(tuple(f"disk_{i}" for i in range(len(disks))), tuple(disks))


@settings(max_examples=25, deadline=None)
@given(plate_systems())
def test_cut_matches_full_subdivision_on_plates(plate_system):
    assert_cut_matches_full_subdivision(*plate_system)


def test_cut_along_nothing_keeps_a_connected_domain():
    M = preset("solid_torus")
    r = cut_open(M, SurfaceSystem((), ()))
    assert len(r.components) == 1 and r.components[0] is M.complex


def thick_plate_layer(n):
    """An n x n x 2 box and the triangles of its z=1 layer, a properly
    embedded disk."""
    K = cubes_to_complex([(i, j, k) for i in range(n) for j in range(n) for k in range(2)])
    layer = tuple(t for i in range(n) for j in range(n) for t in square_face_triangles((i, j, 0), 2))
    return K, layer


def test_two_sided_layer_of_a_thick_plate():
    n = 10
    K, layer = thick_plate_layer(n)
    (S,) = validate_surface_system(K, SurfaceSystem(("layer",), (layer,)))
    assert len(S.simplices(2)) == 2 * n * n
    assert euler_characteristic(S) == 1 and orient_surface(S) is not None


def test_subset_search_finds_minimal_weak_systems():
    M = preset("handlebody2")
    F = surface_system_from_marks(M)
    hits = find_minimal_weak_subsets(M, F)
    assert hits == [("disk_0", "disk_1")]
    M2 = two_cube_ball_with_disk()
    # b1 = 0: the empty subset is the minimal weak system
    assert find_minimal_weak_subsets(M2, surface_system_from_marks(M2)) == [()]


def test_verdict_implications():
    # helmholtz => weak, minimal => weak, on every corpus verdict
    for name in ("solid_torus_with_meridian_disk", "handlebody2", "trefoil_mapping_torus"):
        M = preset(name)
        v = classify_cut_system(M, surface_system_from_marks(M))
        if v.is_helmholtz_cut_system:
            assert v.is_weak_cut_system
        if v.is_minimal_weak:
            assert v.is_weak_cut_system

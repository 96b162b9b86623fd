import time

import pytest

from helmcut.builders import cubes_to_complex, preset, square_face_triangles
from helmcut.complexes import (
    MarkedComplex,
    barycentric_subdivide_with_map,
    build_complex,
    euler_characteristic,
    mapping_torus,
    orient_surface,
)
from helmcut.cuts import (
    SurfaceSystem,
    SurfaceSystemError,
    classify_cut_system,
    cut_open,
    find_minimal_weak_subsets,
    relative_surface_classes,
    surface_system_from_marks,
    validate_surface_system,
)
from helmcut.homology import betti_numbers, homology_of


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


def test_boundary_leak_diagnostic():
    # a boundary triangle of the domain is not properly embedded
    M = two_cube_ball_with_disk()
    from helmcut.complexes import boundary_subcomplex

    t = boundary_subcomplex(M.complex).simplices(2)[0]
    F = SurfaceSystem(("leak",), ((t,),))
    assert diagnostic_of(M, F) == "boundary-leak"


def grid_disk_with_rotation():
    """3x3 grid square disk with the 180-degree rotation as a simplicial
    automorphism; the middle row is an invariant diameter."""
    def v(i, j):
        return 3 * i + j

    tris = []
    for i in range(2):
        for j in range(2):
            tris.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            tris.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    disk = build_complex(tris)
    rot = {v(i, j): v(2 - i, 2 - j) for i in range(3) for j in range(3)}
    return disk, rot


def test_one_sided_diagnostic_moebius_band_in_solid_torus():
    # mapping torus of a disk with a half-turn is a solid torus; the
    # sub-mapping-torus of the invariant diameter is a one-sided Moebius band
    disk, rot = grid_disk_with_rotation()
    M = mapping_torus(disk, rot, steps=4)
    assert betti_numbers(M.complex) == (1, 1, 0, 0)
    diameter = {3, 4, 5}  # middle row of the grid
    idx = {vtx: i for i, vtx in enumerate(sorted(disk.vertices))}
    diameter_idx = {idx[d] for d in diameter}
    band = tuple(
        t
        for t in M.complex.simplices(2)
        if all((lab // 4) in diameter_idx for lab in t)  # label = idx * steps + t
    )
    F = SurfaceSystem(("moebius",), (band,))
    assert diagnostic_of(M, F) == "one-sided"


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
        lhs = v.cut_connected
        rhs = v.independent and v.relative_class_rank == homology_of(M.complex).betti(1)
        assert lhs == rhs, name
    # and the disconnecting direction
    M = two_cube_ball_with_disk()
    v = classify_cut_system(M, surface_system_from_marks(M))
    assert (not v.independent) and (not v.cut_connected)


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
    rel = relative_surface_classes(M, F)
    assert rel.rank == 1 and rel.matrix.cols == 1
    empty = relative_surface_classes(M, SurfaceSystem((), ()))
    assert empty.rank == 0
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


def test_cut_pieces_come_from_one_subdivision():
    for M in (
        two_cube_ball_with_disk(),
        preset("solid_torus_with_meridian_disk"),
        preset("handlebody2"),
        preset("trefoil_mapping_torus"),
    ):
        r = cut_open(M, surface_system_from_marks(M))
        tets = sum(len(c.simplices(3)) for c in r.components)
        assert 0 < tets <= 24 * len(M.complex.simplices(3))


def test_cut_along_nothing_keeps_a_connected_domain():
    M = preset("solid_torus")
    r = cut_open(M, SurfaceSystem((), ()))
    assert len(r.components) == 1 and r.components[0] is M.complex


def test_two_sided_layer_of_a_thick_plate():
    # the z=1 layer of a 10 x 10 x 2 box is a properly embedded disk
    n = 10
    K = cubes_to_complex([(i, j, k) for i in range(n) for j in range(n) for k in range(2)])
    layer = tuple(t for i in range(n) for j in range(n) for t in square_face_triangles((i, j, 0), 2))
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

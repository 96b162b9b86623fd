import json
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from helmcut.complexes import (
    ComplexError,
    MarkedComplex,
    _check_closed_surface,
    _class_roots,
    _surface_walks,
    barycentric_subdivide_with_map,
    boundary_subcomplex,
    build_complex,
    chain_boundary,
    connected_components,
    euler_characteristic,
    face_index,
    is_pure_3,
    last_vertex_map,
    mapping_torus,
    marked_complex_from_json,
    marked_complex_to_json,
    orient_surface,
    product_with_interval,
    push_cycle,
    surface_info,
)
from helmcut.builders import cubes_to_complex, preset, preset_names
from helmcut.cuts import _cut
from helmcut.homology import betti_numbers

TORUS7 = [((i % 7), ((i + 1) % 7), ((i + 3) % 7)) for i in range(7)] + [
    ((i % 7), ((i + 2) % 7), ((i + 3) % 7)) for i in range(7)
]
# 6-vertex projective plane (antipodal quotient of the icosahedron)
RP2_6 = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
    (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
]


def test_face_closure_and_counts():
    K = build_complex([(0, 1, 2, 3)])
    assert len(K.simplices(0)) == 4
    assert len(K.simplices(1)) == 6
    assert len(K.simplices(2)) == 4
    assert len(K.simplices(3)) == 1
    assert euler_characteristic(K) == 1
    assert K.has_simplex((2, 0))  # order-insensitive


def test_has_simplex_and_subcomplex_membership():
    K = build_complex([(0, 1, 2, 3), (3, 4, 5), (5, 6)])
    for s in K.all_simplices():
        assert K.has_simplex(s) and K.has_simplex(tuple(reversed(s)))
    assert K.has_simplex((3, 1, 0, 2)) and K.has_simplex((5, 3, 4))
    for s in [(7,), (0, 4), (1, 2, 4), (2, 4, 6), (0, 1, 2, 4), (6, 7), (-1,)]:
        assert not K.has_simplex(s)
    assert not K.has_simplex(()) and not K.has_simplex((0, 1, 2, 3, 4))
    assert K.subcomplex([(3, 5, 4), (6, 5)]).simplices(2) == ((3, 4, 5),)
    assert K.contains(K.subcomplex([(2, 0, 1), (3, 4)]))
    assert not K.contains(build_complex([(0, 4)]))
    for foreign in ([(0, 4)], [(3, 4, 5), (1, 2, 5)], [(7,)]):
        with pytest.raises(ComplexError, match="not in ambient complex"):
            K.subcomplex(foreign)


def test_degenerate_simplex_rejected():
    with pytest.raises(ComplexError):
        build_complex([(0, 0, 1)])


def test_boundary_squares_to_zero():
    K = build_complex([(0, 1, 2, 3), (1, 2, 3, 4)])
    assert chain_boundary({(0, 1, 2, 3): 1}) == {
        (1, 2, 3): 1, (0, 2, 3): -1, (0, 1, 3): 1, (0, 1, 2): -1
    }
    # the shared triangle cancels; vertices and zero coefficients add nothing
    assert (1, 2, 3) not in chain_boundary({(0, 1, 2, 3): 1, (1, 2, 3, 4): 1})
    assert chain_boundary({(0,): 5, (0, 1): 0}) == {}
    for d in (1, 2, 3):
        for s in K.simplices(d):
            assert chain_boundary(chain_boundary({s: 3})) == {}


def test_boundary_subcomplex_of_tetrahedron_is_sphere():
    K = build_complex([(0, 1, 2, 3)])
    S = boundary_subcomplex(K)
    assert surface_info(S) == (0,)
    assert is_pure_3(K)
    # a simplex of lower dimension that is no face of a tetrahedron
    for extra in [(3, 4), (2, 3, 4), (5,)]:
        assert not is_pure_3(build_complex([(0, 1, 2, 3), extra]))
    assert not is_pure_3(build_complex([(0, 1, 2)]))


def _simplices(size: int):
    return st.lists(st.integers(0, 7), min_size=size, max_size=size, unique=True)


@st.composite
def _tets_and_extras(draw):
    """A few tetrahedra plus a few simplices of any dimension."""
    tets = draw(st.lists(_simplices(4), min_size=1, max_size=5))
    extras = draw(st.lists(st.integers(1, 4).flatmap(_simplices), max_size=3))
    return build_complex(tets + extras)


def _deletions(s):
    """The faces of s in vertex-deletion order."""
    return [s[:k] + s[k + 1:] for k in range(len(s))]


def _assert_trusted(K):
    """K, built by the trusted constructor, is sorted and face-closed."""
    assert K == build_complex(K.all_simplices())


@settings(max_examples=30, deadline=None)
@given(_tets_and_extras(), st.data())
def test_trusted_constructions_are_sorted_and_face_closed(K, data):
    _assert_trusted(barycentric_subdivide_with_map(K)[0])
    for comp in connected_components(K):
        _assert_trusted(comp)
    gens = data.draw(st.lists(st.sampled_from(K.all_simplices()), min_size=1, max_size=4))
    S = K.subcomplex(gens)
    for piece in _cut(K, [S]).components:
        _assert_trusted(piece)
    # pure iff every simplex below the top lies in a tetrahedron
    covered = build_complex(K.simplices(3))
    assert is_pure_3(K) == (covered == K)
    if covered == K:
        bd = boundary_subcomplex(K)
        _assert_trusted(bd)
        once = [t for t in K.simplices(2) if sum(t in _deletions(x) for x in K.simplices(3)) == 1]
        assert bd == build_complex(once)


def _assert_face_index(K):
    """face_index(K) lists each simplex's faces in vertex-deletion order
    and its cofaces in increasing position."""
    index = face_index(K)
    for d in range(1, 4):
        below, layer = K.simplices(d - 1), K.simplices(d)
        cofaces = {f: [] for f in below}
        for p, s in enumerate(layer):
            assert [below[f] for f in index.faces_of(d, p)] == _deletions(s)
            for f in _deletions(s):
                cofaces[f].append(s)
        for p, f in enumerate(below):
            assert [layer[q] for q in index.cofaces_of(d - 1, p)] == cofaces[f]
    assert not index.faces_of(0, 0) and not index.cofaces_of(3, 0)


@settings(max_examples=30, deadline=None)
@given(_tets_and_extras())
def test_face_index_lists_faces_and_cofaces_by_position(K):
    _assert_face_index(K)


def test_face_index_on_encoded_cube_layers():
    # a 3x3x2 block of cubes minus one, and its subdivision: encoded
    # lattice labels and layers of thousands of simplices
    block = [(x, y, z) for x in range(3) for y in range(3) for z in range(2)]
    K = cubes_to_complex(c for c in block if c != (1, 1, 1))
    K1, _ = barycentric_subdivide_with_map(K)
    assert len(K.simplices(3)) == 102 and len(K1.simplices(2)) > 4000
    for L in (K, K1):
        _assert_face_index(L)


def test_build_complex_rejects_labels_that_are_not_ints():
    for bad in ([(0, 1.7, 2)], ["123"], [(0, True, 2)], [(False,)]):
        with pytest.raises(ComplexError, match="vertex labels must be integers"):
            build_complex(bad)


def test_connected_components():
    K = build_complex([(0, 1, 2), (5, 6, 7)])
    assert len(connected_components(K)) == 2


def test_barycentric_subdivision_preserves_euler_characteristic():
    for top in ([(0, 1, 2, 3)], TORUS7):
        K = build_complex(top)
        K1 = barycentric_subdivide_with_map(K)[0]
        assert euler_characteristic(K1) == euler_characteristic(K)


def test_subdivision_map_and_last_vertex():
    K = build_complex([(0, 1, 2)])
    K1, v2s = barycentric_subdivide_with_map(K)
    assert set(v2s.values()) == set(K.all_simplices())
    lv = last_vertex_map(v2s)
    # the last-vertex map is simplicial: edges map to edges or vertices of K
    for e in K1.simplices(1):
        img = tuple(sorted({lv[v] for v in e}))
        if len(img) == 2:
            assert K.has_simplex(img)


def test_push_cycle_collapses_degenerate_edges():
    z = {(0, 1): 1, (1, 2): 1, (0, 2): -1}
    # both surviving edges map to (0,5) with opposite signs and cancel
    pushed = push_cycle(z, {0: 0, 1: 0, 2: 5})
    assert pushed == {}
    pushed = push_cycle(z, {0: 0, 1: 1, 2: 2})
    assert pushed == z


def test_surface_info_torus():
    assert surface_info(build_complex(TORUS7)) == (1,)
    assert orient_surface(build_complex(TORUS7)) is not None


def test_surface_info_projective_plane_nonorientable():
    S = build_complex(RP2_6)
    assert surface_info(S) == (None,)
    assert orient_surface(S) is None


def test_surface_info_follows_the_order_of_connected_components():
    # torus, sphere and RP2 relabelled apart: one genus per component, in
    # the order of connected_components, which lattice_link_complement
    # zips the genera with
    sphere = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    parts = [(TORUS7, 0), (sphere, 10), (RP2_6, 20)]
    S = build_complex([tuple(v + shift for v in t) for tris, shift in parts for t in tris])
    assert surface_info(S) == (1, 0, None)
    comps = connected_components(S)
    assert [euler_characteristic(c) for c in comps] == [0, 2, 1]
    assert tuple(surface_info(c)[0] for c in comps) == (1, 0, None)


def test_orient_surface_orients_the_tetrahedra_of_a_3_complex():
    # oriented tetrahedra of a domain: their boundary is carried exactly by
    # the boundary triangles, each interior triangle cancelling
    for K in (build_complex([(0, 1, 2, 3)]), cubes_to_complex([(0, 0, 0), (1, 0, 0), (1, 1, 0)])):
        ori = orient_surface(K)
        assert sorted(ori) == list(K.simplices(3))
        assert set(chain_boundary(ori)) == set(boundary_subcomplex(K).simplices(2))


def test_surface_info_rejects_a_surface_pinched_at_a_vertex():
    # two or three tetrahedron boundaries sharing vertex 0: every edge has
    # two triangles, but the link of vertex 0 is two or three circles
    for tets in ([(0, 1, 2, 3), (0, 4, 5, 6)], [(0, 1, 2, 3), (0, 4, 5, 6), (0, 7, 8, 9)]):
        with pytest.raises(ComplexError, match="link of vertex 0 is not a single circle"):
            surface_info(boundary_subcomplex(build_complex(tets)))
    with pytest.raises(ComplexError, match="vertex 9 has no edges"):
        surface_info(build_complex(TORUS7 + [(9,)]))


def closed_surface_walks(S):
    """An oracle for _check_closed_surface, written apart from the walker of
    closed and cut surfaces: with two triangles on every edge, each vertex
    is walked from its smallest edge through that edge's smallest triangle,
    back to that edge.  Raises ComplexError with the same messages."""
    index = face_index(S)
    for q, e in enumerate(S.simplices(1)):
        n = len(index.cofaces_of(1, q))
        if n != 2:
            raise ComplexError(f"not a closed surface: edge {e} has {n} triangles")
    pair, faces, tris = index.cofaces[1], index.faces[2], S.simplices(2)
    walks = array("i")
    for p, (v,) in enumerate(S.simplices(0)):
        edges = index.cofaces_of(0, p)
        if not edges:
            raise ComplexError(f"not a closed surface: vertex {v} has no edges")
        e, t, first = edges[0], -1, len(walks)
        while len(walks) == first or e != edges[0]:
            walks.append(e)
            t = pair[2 * e + 1] if pair[2 * e] == t else pair[2 * e]
            f = faces[3 * t:3 * t + 3]
            e = sum(f) - e - f[tris[t].index(v)]
        if len(walks) - first != len(edges):
            raise ComplexError(f"not a closed surface: link of vertex {v} is not a single circle")
    return walks


def _assert_closed_walks_match_the_oracle(S):
    try:
        want = closed_surface_walks(S)
    except ComplexError as e:
        with pytest.raises(ComplexError) as got:
            _check_closed_surface(S)
        assert str(got.value) == str(e)
        return
    assert _check_closed_surface(S) == _surface_walks(S) == want


def test_closed_walks_equal_the_oracle_on_preset_boundaries():
    surfaces = [build_complex(TORUS7), build_complex(RP2_6)]
    for name in preset_names():
        surfaces.extend(connected_components(boundary_subcomplex(preset(name).complex)))
    assert len(surfaces) > 2 + len(preset_names())
    for S in surfaces:
        closed_surface_walks(S)  # each is a closed surface
        _assert_closed_walks_match_the_oracle(S)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)), min_size=1))
@example({(0, 0, 0), (1, 1, 0)})
@example({(0, 0, 0), (1, 1, 1)})
def test_closed_walks_equal_the_oracle_on_cube_domains(cubes):
    # boundaries pinched at an edge or a vertex, as in the two examples,
    # must fail with the oracle's message too
    for S in connected_components(boundary_subcomplex(cubes_to_complex(sorted(cubes)))):
        _assert_closed_walks_match_the_oracle(S)


@st.composite
def _items_and_pairs(draw):
    """Distinct items in any order, and pairs of them with self-pairs and
    repeats."""
    items = draw(st.lists(st.integers(-5, 20), min_size=1, max_size=12, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(items), st.sampled_from(items)), max_size=15))
    return items, pairs + pairs[: draw(st.integers(0, len(pairs)))]


@settings(max_examples=100, deadline=None)
@given(_items_and_pairs())
def test_class_roots_equal_a_naive_search(case):
    items, pairs = case
    nbrs = {x: set() for x in items}
    for a, b in pairs:
        nbrs[a].add(b)
        nbrs[b].add(a)
    naive = {}
    for x in items:
        seen, todo = {x}, [x]
        while todo:
            for y in nbrs[todo.pop()] - seen:
                seen.add(y)
                todo.append(y)
        naive[x] = min(seen)
    assert list(_class_roots(items, pairs).items()) == list(naive.items())


def test_product_with_interval_marks():
    S = build_complex(TORUS7)
    M = product_with_interval(S)
    assert set(M.marks) == {"bottom", "top"}
    bottom = M.complex.subcomplex(M.marks["bottom"])
    assert surface_info(bottom) == (1,)
    assert is_pure_3(M.complex)


def test_mapping_torus_identity_is_product():
    S = build_complex(TORUS7)
    ident = {v: v for v in S.vertices}
    M = mapping_torus(S, ident)
    assert "fiber" in M.marks
    assert euler_characteristic(M.complex) == 0
    # T^3, which two prism layers would not give
    assert betti_numbers(M.complex) == (1, 3, 3, 1)


def test_mapping_torus_rejects_non_simplicial_map():
    S = build_complex(TORUS7)
    bad = {v: 0 for v in S.vertices}
    with pytest.raises(ComplexError):
        mapping_torus(S, bad)


def test_json_round_trip():
    M = MarkedComplex(
        build_complex([(0, 1, 2, 3)]), {"face": [(0, 1, 2)]}
    )
    data = marked_complex_to_json(M)
    text = json.dumps(data, sort_keys=True)
    M2 = marked_complex_from_json(json.loads(text))
    assert M2.complex == M.complex
    assert M2.marks == M.marks
    assert json.dumps(marked_complex_to_json(M2), sort_keys=True) == text


def test_json_rejects_garbage():
    with pytest.raises(ComplexError):
        marked_complex_from_json({"simplices": [[0, 0, 1]]})
    with pytest.raises(ComplexError):
        marked_complex_from_json({"simplices": [[0, 1, 2]], "marked_subcomplexes": {"m": [[7, 8]]}})

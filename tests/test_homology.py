import gc
import itertools
import random
import time
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import zeros
from sympy.matrices.normalforms import invariant_factors

from helmcut.builders import cubes_to_complex, preset
from helmcut.complexes import (
    ComplexError,
    boundary_subcomplex,
    build_complex,
    chain_boundary,
    connected_components,
    euler_characteristic,
)
from helmcut.domains import analyze_domain
from helmcut.exact_linalg import IntegerMatrix, smith_normal_form
from helmcut.homology import (
    ComplexHomology,
    HomologyGroup,
    InternalConsistencyError,
    NotACycleError,
    betti_numbers,
    homology_groups,
    homology_of,
    homology_of_pair,
    is_boundary_witness,
)
from helmcut.reduction import LIVE, add_scaled

from test_complexes import RP2_6, TORUS7

SPHERE = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def groups_str(K):
    return [str(g) for g in homology_groups(K)]


def _image_rank(K, L, n):
    """Rank of the inclusion-induced map H_n(L) -> H_n(K): the free class
    coordinates in K of the generators of H_n(L), read by Smith form."""
    HK = homology_of(K)
    rows = [HK.class_coords(g, n)[0] for g in homology_of(L).generators(n)]
    return len(smith_normal_form(IntegerMatrix(len(rows), HK.betti(n), rows)).diagonal)


def test_sphere_torus_projective_plane_oracles():
    t0 = time.time()
    assert groups_str(build_complex(SPHERE)) == ["Z", "0", "Z", "0"]
    assert groups_str(build_complex(RP2_6)) == ["Z", "Z/2", "0", "0"]
    assert groups_str(build_complex(TORUS7)) == ["Z", "Z + Z", "Z", "0"]
    assert time.time() - t0 < 3.0


def test_solid_ball_betti():
    ball = build_complex([(0, 1, 2, 3)])
    assert betti_numbers(ball) == (1, 0, 0, 0)


def test_generators_are_cycles():
    K = build_complex(TORUS7)
    H = homology_of(K)
    for gen in H.generators(1):
        assert chain_boundary(gen) == {}
    # the two torus generators have independent classes
    coords = [H.class_coords(g, 1)[0] for g in H.generators(1)]
    assert sorted(coords) == [(0, 1), (1, 0)]


def test_homology_lives_as_long_as_its_complex():
    K = build_complex(TORUS7)
    misses = homology_of.cache_info().misses
    H = homology_of(K)
    assert homology_of(K) is H
    assert homology_of.cache_info().misses == misses + 1
    ref = weakref.ref(H)
    del H, K
    gc.collect()
    assert ref() is None
    # a domain and everything derived from it hold no reference cycle, so
    # reference counting alone frees them
    K = cubes_to_complex([(x, y, 0) for x in range(3) for y in range(3) if (x, y) != (1, 1)])
    report = analyze_domain(K)
    assert report.betti == (1, 1, 0, 0)
    refs = [weakref.ref(x) for x in (homology_of(K), homology_of_pair(K, boundary_subcomplex(K)))]
    gc.disable()
    try:
        del K, report
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_class_coords_rejects_non_cycle():
    K = build_complex(TORUS7)
    H = homology_of(K)
    with pytest.raises(NotACycleError):
        H.class_coords({(0, 1): 1}, 1)


@pytest.mark.parametrize("n", [0, 2, 3, 5, -1])
def test_chain_of_the_wrong_degree_is_rejected(n):
    H = homology_of(preset("solid_torus").complex)
    g = H.generators(1)[0]
    for query in (H.class_coords, H.solve_boundary):
        with pytest.raises(ComplexError, match=f"not a {n}-chain"):
            query(g, n)
        if not 1 <= n <= 3:
            with pytest.raises(ComplexError):
                query({}, n)  # no simplex to tell the degree by


def test_boundary_witness_round_trip():
    K = build_complex(SPHERE)
    # any 1-cycle on a sphere bounds; the witness is verified internally
    z = {(0, 1): 1, (1, 2): 1, (0, 2): -1}
    w = is_boundary_witness(K, z)
    assert w.bounds and w.chain is not None
    K2 = build_complex(TORUS7)
    gen = homology_of(K2).generators(1)[0]
    w2 = is_boundary_witness(K2, gen)
    assert not w2.bounds
    assert any(w2.obstruction[0])


def test_boundary_witness_is_verified(monkeypatch):
    K = build_complex(SPHERE)
    z = {(0, 1): 1, (1, 2): 1, (0, 2): -1}
    # a 2-chain of K with the wrong boundary, then one with the right
    # boundary but a triangle outside K
    for wrong in ({(0, 1, 2): 2}, {(0, 1, 2): 1, (7, 8, 9): 1}):
        monkeypatch.setattr(ComplexHomology, "solve_boundary", lambda self, c, n: wrong)
        with pytest.raises(InternalConsistencyError):
            is_boundary_witness(K, z)


def test_degree_0_comes_from_one_root_per_component():
    K = build_complex([(0, 1, 2), (3, 4, 5)])
    H = homology_of(K)
    assert H.group(0) == HomologyGroup(2, ())
    assert H.generators(0) == [{(0,): 1}, {(3,): 1}]
    # classes and bounding chains are read in degrees 1..3 only
    for query in (H.class_coords, H.solve_boundary):
        for chain in ({(0,): 1}, {(0,): 1, (1,): -1}):
            with pytest.raises(ComplexError, match="not a 0-chain with 1 <= 0 <= 3"):
                query(chain, 0)


def test_degree_0_relative_to_a_subcomplex_meeting_one_component():
    K = build_complex([(0, 1, 2), (3, 4, 5)])
    A = build_complex([(1, 2)])
    H = homology_of_pair(K, A)
    assert H.group(0) == HomologyGroup(1, ())
    assert H.generators(0) == [{(3,): 1}]


def test_cube_block_boundaries_reduce_without_heap_pops():
    # rooted, a sphere collapses by coreductions alone
    for n in (2, 4):
        S = boundary_subcomplex(cubes_to_complex(set(itertools.product(range(n), repeat=3))))
        H = homology_of(S)
        assert [str(g) for g in H.groups()] == ["Z", "0", "Z", "0"]
        assert H.reduced.heap_pops == 0


def test_relative_homology_disk_boundary():
    disk = build_complex([(0, 1, 2)])
    circle = build_complex([(0, 1), (1, 2), (0, 2)])
    rel = homology_of_pair(disk, circle).groups()
    assert [str(g) for g in rel[:3]] == ["0", "0", "Z"]
    pair = homology_of_pair(disk, circle)
    coords = pair.class_coords({(0, 1, 2): 1}, 2)
    assert coords[0] in ((1,), (-1,))
    # a square of two triangles relative to its boundary circle: one
    # triangle alone has the diagonal (0, 2) in its boundary, outside A
    square = build_complex([(0, 1, 2), (0, 2, 3)])
    rim = build_complex([(0, 1), (1, 2), (2, 3), (0, 3)])
    pair = homology_of_pair(square, rim)
    with pytest.raises(NotACycleError):
        pair.class_coords({(0, 1, 2): 1}, 2)
    with pytest.raises(NotACycleError):
        pair.solve_boundary({(0, 1, 2): 1}, 2)
    assert pair.class_coords({(0, 1, 2): 1, (0, 2, 3): 1}, 2)[0] in ((1,), (-1,))


def test_induced_map_torus_into_solid_torus():
    from helmcut.builders import solid_torus
    from helmcut.complexes import boundary_subcomplex

    V = solid_torus()
    T = boundary_subcomplex(V)
    # H1(T^2) = Z^2 maps onto H1(V) = Z with a 1-dimensional kernel
    assert homology_of(V).betti(1) == 1 and len(homology_of(T).generators(1)) == 2
    assert _image_rank(V, T, 1) == 1


@pytest.mark.parametrize("n", [-2, -1, 4, 5])
def test_no_generators_outside_degrees_0_to_3(n):
    S = build_complex(SPHERE)
    H = homology_of(S)
    assert H.generators(n) == []
    assert H.betti(n) == 0 and _image_rank(S, S, n) == 0


def _random_2_complexes():
    return st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)),
        min_size=1,
        max_size=12,
    ).map(
        lambda tris: [t for t in tris if len(set(t)) == 3]
    ).filter(bool).map(build_complex)


@settings(max_examples=40, deadline=None)
@given(_random_2_complexes())
def test_euler_characteristic_equals_alternating_betti(K):
    chi = sum((-1) ** d * len(K.simplices(d)) for d in range(4))
    groups = homology_groups(K)
    assert chi == sum((-1) ** d * g.rank for d, g in enumerate(groups))


@settings(max_examples=25, deadline=None)
@given(_random_2_complexes())
def test_subdivision_invariance_of_homology(K):
    from helmcut.complexes import barycentric_subdivide_with_map

    assert groups_str(K) == groups_str(barycentric_subdivide_with_map(K)[0])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_relative_euler_characteristic(data):
    K = data.draw(_random_2_complexes())
    simplices = K.all_simplices()
    A = K.subcomplex(data.draw(st.lists(st.sampled_from(simplices), max_size=6)))
    groups = homology_of_pair(K, A).groups()
    assert sum((-1) ** d * g.rank for d, g in enumerate(groups)) == (
        euler_characteristic(K) - euler_characteristic(A)
    )


def _smith_groups(K, A):
    """H_n(K, A) for n = 0..3 from sympy's Smith form of the unreduced
    relative boundary matrices."""
    cells = [[s for s in K.simplices(d) if not A.has_simplex(s)] for d in range(4)]
    factors = [()]
    for n in range(1, 4):
        row = {f: i for i, f in enumerate(cells[n - 1])}
        M = zeros(len(cells[n - 1]), len(cells[n]))
        for j, s in enumerate(cells[n]):
            for k in range(len(s)):
                i = row.get(s[:k] + s[k + 1:])
                if i is not None:
                    M[i, j] = (-1) ** k
        factors.append(tuple(abs(int(f)) for f in invariant_factors(M)))
    factors.append(())
    groups = []
    for n in range(4):
        rank = len(cells[n]) - sum(1 for f in factors[n] if f) - sum(1 for f in factors[n + 1] if f)
        groups.append(HomologyGroup(rank, tuple(sorted(f for f in factors[n + 1] if f > 1))))
    return groups


def _random_complexes():
    # up to 10 simplices of dimension 0-3 on 10 labels, often disconnected
    return st.lists(
        st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True),
        min_size=1,
        max_size=10,
    ).map(build_complex)


@settings(max_examples=60, deadline=None)
@given(_random_complexes(), st.lists(st.integers(0, 999), max_size=4))
@example(build_complex(RP2_6 + [(20, 21), (22,)]), [])
@example(build_complex(RP2_6 + [(20, 21), (22,)]), [0])
def test_homology_matches_smith_form_of_the_boundary_matrices(K, picks):
    simplices = K.all_simplices()
    A = K.subcomplex([simplices[i % len(simplices)] for i in picks])
    assert homology_groups(K) == _smith_groups(K, build_complex([]))
    assert homology_of_pair(K, A).groups() == _smith_groups(K, A)


@settings(max_examples=60, deadline=None)
@given(_random_complexes(), st.lists(st.integers(0, 999), max_size=4))
@example(build_complex(RP2_6), [])
@example(build_complex(RP2_6 + [(20, 21), (22,)]), [0])
@example(build_complex(TORUS7), [])
@example(build_complex(TORUS7), [3])
def test_generators_read_back_as_unit_vectors(K, picks):
    """class_coords reads the i-th generator as the i-th unit vector,
    torsion residues first; d_i times the i-th torsion generator bounds,
    the generator itself does not."""
    simplices = K.all_simplices()
    A = K.subcomplex([simplices[i % len(simplices)] for i in picks])
    for H in (homology_of(K), homology_of_pair(K, A)):
        for n in range(1, 4):
            gens, torsion = H.generators(n), H.group(n).torsion
            for i, z in enumerate(gens):
                free, residues = H.class_coords(z, n)
                assert residues + free == tuple(int(j == i) for j in range(len(gens)))
                if i < len(torsion):
                    assert H.solve_boundary(z, n) is None
                    dz = {c: torsion[i] * v for c, v in z.items()}
                    rest = chain_boundary(H.solve_boundary(dz, n))
                    add_scaled(rest, dz, -1)
                    assert all(H._cell(f) is None for f in rest)


def test_generators_are_lifted_once_per_complex(monkeypatch):
    from helmcut.reduction import ReducedComplex

    K = preset("torus_shell").complex
    comps = connected_components(boundary_subcomplex(K))
    torus = next(S for S in comps if not euler_characteristic(S))
    S = build_complex(torus.simplices(2))  # a new complex, so nothing is cached yet
    lifts = []
    include = ReducedComplex.include
    monkeypatch.setattr(
        ReducedComplex, "include", lambda R, chain, dim: lifts.append(dim) or include(R, chain, dim)
    )
    H = homology_of(S)
    first = H.generators(1)
    assert H.generators(1) is first and len(first) == 2
    assert lifts == [1, 1]


def _cell_boundary(H, chain):
    """Boundary of a chain of H's cell numbers in the chain complex of H:
    faces that are not cells (dropped simplices, roots) drop out."""
    out = {}
    for f, v in chain_boundary(H._to_cells(chain)).items():
        i = H._cell(f)
        if i is not None:
            out[i] = v
    return out


def _residual_boundary(R, chain):
    out = {}
    for c, v in chain.items():
        add_scaled(out, R.boundary(c), v)
    return out


def _assert_one_ranked_log(H):
    """Both cells of logged pair r have rank r, every residual cell is live,
    every cell is in one pair or residual, and no residual boundary
    coefficient is +-1: the reduction leaves no pair it could remove."""
    R = H.reduced
    A, B = R.pairs
    assert all(H._rank[a] == H._rank[b] == r for r, (a, b) in enumerate(zip(A, B)))
    residual = [c for cells in R.cells_by_dim for c in cells]
    assert all(H._rank[c] == LIVE for c in residual)
    assert sum(r >= 0 for r in H._rank) == 2 * len(A) + len(residual)
    assert all(v not in (1, -1) for c in residual for v in R.boundary(c).values())


def _random_chain(rng, cells):
    return {c: v for c in rng.sample(cells, min(len(cells), 4)) if (v := rng.randint(-3, 3))}


@settings(max_examples=60, deadline=None)
@given(_random_complexes(), st.lists(st.integers(0, 999), max_size=4), st.integers(0, 2**32))
@example(build_complex(RP2_6 + [(20, 21), (22,)]), [], 0)
@example(build_complex(TORUS7), [3], 1)
def test_transport_is_a_chain_homotopy_equivalence(K, picks, seed):
    # c - include(project(c)) = dH(c) + H(dc), with project and include
    # chain maps, on the cascade pairs and the Markowitz rules alike
    rng = random.Random(seed)
    simplices = K.all_simplices()
    A = K.subcomplex([simplices[i % len(simplices)] for i in picks])
    for H in (homology_of(K), homology_of_pair(K, A)):
        _assert_one_ranked_log(H)
        R = H.reduced
        for n in range(4):
            cells = [i for i in map(H._cell, K.simplices(n)) if i is not None]
            c = _random_chain(rng, cells)
            dc = _cell_boundary(H, c)
            proj, h = R.project_with_homotopy(c, n)
            assert _residual_boundary(R, proj) == R.project(dc, n - 1)
            x = _random_chain(rng, R.cells(n))
            assert _cell_boundary(H, R.include(x, n)) == R.include(_residual_boundary(R, x), n - 1)
            rest = dict(c)
            add_scaled(rest, R.include(proj, n), -1)
            homotopy = _cell_boundary(H, h)
            add_scaled(homotopy, R.project_with_homotopy(dc, n - 1)[1], 1)
            assert rest == homotopy


# preset -> (heap pops, residual cells by dimension) of its homology and of
# its homology relative to its boundary; trefoil_box's relative reduction
# takes seconds, so only its absolute one is pinned
PRESET_REDUCTIONS = {
    "ball": ((0, (0, 0, 0, 0)), (0, (0, 0, 0, 1))),
    "handlebody2": ((0, (0, 2, 0, 0)), (173, (0, 0, 2, 1))),
    "hopf_box": ((1338, (0, 2, 2, 0)), (180915, (0, 2, 2, 1))),
    "shell": ((0, (0, 0, 1, 0)), (2074, (0, 1, 0, 1))),
    "solid_torus": ((0, (0, 1, 0, 0)), (84, (0, 0, 1, 1))),
    "solid_torus_with_meridian_disk": ((0, (0, 1, 0, 0)), (84, (0, 0, 1, 1))),
    "torus_shell": ((94, (0, 2, 1, 0)), (3764, (0, 1, 2, 1))),
    "trefoil_box": ((1347, (0, 1, 1, 0)), None),
    "trefoil_mapping_torus": ((183, (0, 1, 0, 0)), (1514, (0, 0, 1, 1))),
}


@pytest.mark.parametrize("name", sorted(PRESET_REDUCTIONS))
def test_preset_reductions_keep_their_heap_pops_and_residues(name):
    K = preset(name).complex
    absolute, relative = PRESET_REDUCTIONS[name]
    homologies = [(homology_of(K), absolute)]
    if relative is not None:
        homologies.append((homology_of_pair(K, boundary_subcomplex(K)), relative))
    for H, (pops, residues) in homologies:
        assert H.reduced.heap_pops == pops
        assert tuple(len(cells) for cells in H.reduced.cells_by_dim) == residues
        _assert_one_ranked_log(H)

import json
import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from helmcut import builders
from helmcut.builders import (
    BuildError,
    LatticePath,
    cubes_to_complex,
    domain_corpus,
    handlebody,
    lattice_link_complement,
    preset,
    punctured_torus_with_monodromy,
    shell,
    surface_shell,
    unknot_box,
)
from helmcut.complexes import (
    ComplexError,
    MarkedComplex,
    SimplicialComplex,
    _check_closed_surface,
    _surface_walks,
    boundary_subcomplex,
    build_complex,
    chain_boundary,
    mapping_torus,
    orient_surface,
    product_with_interval,
    surface_info,
)
import helmcut.domains
from helmcut.domains import (
    NotADomainError,
    analyze_domain,
    boundary_components,
    intersection_form,
    intersection_pairing,
    is_simple,
    kernel_of_boundary_inclusion,
    lagrangian_obstruction,
)
from helmcut.exact_linalg import IntegerMatrix, smith_normal_form
from helmcut.homology import InternalConsistencyError, NotACycleError, homology_of

from test_builders import _moved, _rectangle, _square
from test_complexes import RP2_6, TORUS7


def test_identity_suite_over_corpus():
    t0 = time.time()
    for name, M in domain_corpus():
        report = analyze_domain(M)
        assert report.all_checks_pass, f"{name}: {report.identity_checks}"
        assert report.torsion_free, name
    assert time.time() - t0 < 30.0


def test_boundary_genera_come_from_h1_of_the_boundary(monkeypatch):
    # identity (ii) reads each boundary genus as b1(S)/2, counted from the
    # basis of H1(S), not from chi, so a basis of one boundary component
    # with two cycles too many makes it read false
    K = preset("torus_shell").complex
    S = boundary_components(K)[0]
    assert analyze_domain(K).all_checks_pass

    real = helmcut.domains._surface_basis
    monkeypatch.setattr(helmcut.domains, "_surface_basis", lambda X: real(X) * 2 if X is S else real(X))
    checks = dict(analyze_domain(K).identity_checks)
    assert not checks["chi_eq_components_minus_genus"]
    assert checks["chi_eq_1_minus_b1_plus_b2"]


def test_rejects_closed_and_low_dimensional_complexes():
    with pytest.raises(NotADomainError):
        analyze_domain(build_complex(TORUS7))  # not 3-dimensional


SIMPLE = {"ball": True, "shell": True, "solid_torus": False, "handlebody2": False,
          "torus_shell": False, "trefoil_box": False, "hopf_box": False,
          "trefoil_mapping_torus": False, "solid_torus_with_meridian_disk": False}


@pytest.mark.parametrize("name", sorted(SIMPLE))
def test_simplicity_classification(name):
    rep = is_simple(preset(name))
    assert rep.simple == SIMPLE[name], name
    if rep.simple:
        assert rep.b2 == rep.boundary_component_count - 1
        assert all(g == 0 for g in rep.genus_list)


def test_intersection_form_torus_and_genus2():
    T = build_complex(TORUS7)
    assert intersection_form(T) in (((0, 1), (-1, 0)), ((0, -1), (1, 0)))
    # genus-2 boundary of the 2-handlebody: rank-4 unimodular skew form
    S = boundary_components(preset("handlebody2").complex)[0]
    m2 = intersection_form(S)
    assert len(m2) == 4
    assert smith_normal_form(IntegerMatrix(4, 4, m2)).diagonal == (1, 1, 1, 1)


def test_intersection_pairing_bilinear_and_skew():
    T = build_complex(TORUS7)
    a, b = homology_of(T).generators(1)
    ab = {e: a.get(e, 0) + b.get(e, 0) for e in set(a) | set(b)}
    assert intersection_pairing(T, ab, a) == intersection_pairing(T, a, a) + intersection_pairing(T, b, a)
    assert intersection_pairing(T, a, b) == -intersection_pairing(T, b, a)
    assert intersection_pairing(T, a, a) == 0


@pytest.mark.parametrize("name", ["handlebody2", "torus_shell", "hopf_box"])
def test_intersection_form_reads_each_pair_as_intersection_pairing(name):
    # the form reads each basis cycle's strand ends once, the pairing per call
    for S in boundary_components(preset(name).complex):
        gens = helmcut.domains._surface_basis(S)
        want = tuple(tuple(intersection_pairing(S, z, w) for w in gens) for z in gens)
        assert intersection_form(S) == want


# -- the tree-cotree basis of H1 of a closed surface -----------------------


def _assert_surface_basis(S):
    """_surface_basis(S) is 2g cycles whose classes in the reduction's basis
    form a unimodular matrix, and intersection_form passes on them."""
    (g,) = surface_info(S)
    basis = helmcut.domains._surface_basis(S)
    assert len(basis) == 2 * g
    assert all(z and not chain_boundary(z) for z in basis)
    H = homology_of(S)
    assert H.betti(1) == 2 * g and not H.group(1).torsion
    coords = [list(H.class_coords(z, 1)[0]) for z in basis]
    if g:
        assert smith_normal_form(IntegerMatrix(2 * g, 2 * g, coords)).diagonal == (1,) * (2 * g)
    assert len(intersection_form(S)) == 2 * g


@settings(max_examples=10, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_surface_basis_on_relabelled_surfaces(rng, genus2):
    # new labels in a new order move both trees' roots and edge orders
    S = boundary_components(preset("handlebody2").complex)[0] if genus2 else build_complex(TORUS7)
    labels = rng.sample(range(10 * len(S.vertices)), len(S.vertices))
    new = dict(zip(S.vertices, labels))
    _assert_surface_basis(build_complex([tuple(new[v] for v in t) for t in S.simplices(2)]))


def test_surface_basis_needs_a_closed_connected_surface():
    two_tori = build_complex(TORUS7 + [tuple(v + 10 for v in t) for t in TORUS7])
    with pytest.raises(InternalConsistencyError, match="does not span the surface"):
        helmcut.domains._surface_basis(two_tori)
    with pytest.raises(ComplexError, match="not a closed surface: edge .* is a rim edge"):
        helmcut.domains._surface_basis(build_complex(TORUS7[1:]))


def test_intersection_pairing_rejects_foreign_edges_and_non_cycles():
    T = build_complex(TORUS7)
    a, b = homology_of(T).generators(1)
    assert abs(intersection_pairing(T, a, b)) == 1
    # the same edge off the surface in both cycles
    with pytest.raises(ComplexError):
        intersection_pairing(T, {**a, (100, 101): 1}, {**b, (100, 101): 1})
    # one edge of the torus is a chain of T but not a cycle
    e = next(iter(a))
    with pytest.raises(NotACycleError):
        intersection_pairing(T, {e: 1}, b)
    with pytest.raises(NotACycleError):
        intersection_pairing(T, a, {e: 1})


def test_each_boundary_component_is_oriented_once():
    # shell: two spheres; handlebody(2): one genus-2 surface; the unknot
    # box: a sphere and a torus, which lattice_link_complement orients to
    # read their genera, so the count starts before the build.  Each component is
    # also checked to be a closed surface, and walked, once; a plain copy
    # of a cube complex is oriented once more, by its domain check.
    for build in (shell, lambda: handlebody(2), lambda: unknot_box().complex):
        before = orient_surface.cache_info().misses
        checked = _check_closed_surface.cache_info().misses
        walked = _surface_walks.cache_info().misses
        K = build()
        analyze_domain(K)
        is_simple(K)
        lagrangian_obstruction(K)
        # and K itself not at all: the vertex table checks a cube complex
        assert orient_surface.cache_info().misses - before == len(boundary_components(K))
        assert _check_closed_surface.cache_info().misses - checked == len(boundary_components(K))
        assert _surface_walks.cache_info().misses - walked == len(boundary_components(K))
        before = orient_surface.cache_info().misses
        analyze_domain(_plain(K))
        assert orient_surface.cache_info().misses - before == len(boundary_components(K)) + 1


def test_non_orientable_boundary_is_rejected():
    # RP2 x [0,1] is bounded by two projective planes
    K = product_with_interval(build_complex(RP2_6)).complex
    for check in (analyze_domain, is_simple, kernel_of_boundary_inclusion, lagrangian_obstruction):
        with pytest.raises(NotADomainError, match="domain complex is not orientable"):
            check(K)
    with pytest.raises(ComplexError):
        intersection_form(build_complex(RP2_6))


def cone_over_torus():
    """The cone from apex 99 over the 7-vertex torus: its boundary is a
    closed orientable torus, but the link of the apex is a torus too."""
    return build_complex([t + (99,) for t in TORUS7])


def punctured_times_circle(S):
    """S x S1, the mapping torus of the identity, minus the open star of a
    vertex: a 3-manifold bounded by one sphere."""
    K = mapping_torus(S, {v: v for v in S.vertices}).complex
    return build_complex([t for t in K.simplices(3) if K.vertices[0] not in t])


def punctured_rp2_x_s1():
    """Not orientable, as RP2 is not."""
    return punctured_times_circle(build_complex(RP2_6))


def minus_identity_mapping_torus():
    """The punctured-torus bundle with monodromy -I, x -> 6x (mod 7) on the
    7-vertex torus: H1 = Z + Z/2 + Z/2, a domain with torsion."""
    fiber, _ = punctured_torus_with_monodromy()
    return mapping_torus(fiber, {v: 6 * v % 7 for v in fiber.vertices})


@pytest.mark.parametrize(
    "build, message",
    [
        (cone_over_torus, "domain complex is not a 3-manifold: chi 1, boundary chi 0"),
        (punctured_rp2_x_s1, "domain complex is not orientable"),
    ],
)
def test_pseudo_manifolds_and_non_orientable_manifolds_are_not_domains(build, message):
    K = build()
    for check in (analyze_domain, is_simple, kernel_of_boundary_inclusion, lagrangian_obstruction):
        with pytest.raises(NotADomainError) as e:
            check(K)
        assert str(e.value) == message


def test_orientable_manifolds_off_r3_pass_the_check():
    # the 3-torus minus a ball is an orientable 3-manifold bounded by a
    # sphere, so the domain check passes it; it does not embed in R^3, and
    # the identity b1(boundary) = 2 b1 says so
    report = analyze_domain(punctured_times_circle(build_complex(TORUS7)))
    assert report.betti == (1, 3, 3, 0) and report.genus_list == (0,)
    assert dict(report.identity_checks)["boundary_b1_eq_twice_b1"] is False


@settings(max_examples=40, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)), min_size=1))
def test_domain_check_passes_every_cube_domain(cubes):
    # a connected union of lattice cubes that is a 3-manifold is a domain,
    # so only connectivity and the vertex table may reject it, and every
    # identity holds
    K = cubes_to_complex(sorted(cubes))
    try:
        report = analyze_domain(K)
        is_simple(K)
        lagrangian_obstruction(K)
    except ComplexError as e:
        assert str(e) == "domain complex must be connected" or str(e).startswith(
            "domain complex is not a 3-manifold at vertex ("
        )
        return
    assert report.all_checks_pass


def test_disconnected_complex_is_not_a_domain():
    K = build_complex([(0, 1, 2, 3), (4, 5, 6, 7)])
    for check in (analyze_domain, is_simple, kernel_of_boundary_inclusion):
        with pytest.raises(NotADomainError, match="domain complex must be connected"):
            check(K)


KERNEL_RANKS = {"ball": 0, "solid_torus": 1, "handlebody2": 2, "shell": 0,
                "torus_shell": 2, "trefoil_box": 1, "hopf_box": 2,
                "trefoil_mapping_torus": 1, "solid_torus_with_meridian_disk": 1}


@pytest.mark.parametrize("name", sorted(KERNEL_RANKS))
def test_boundary_kernel_rank_equals_total_genus(name):
    K = preset(name).complex
    # raises InternalConsistencyError unless its kernel rank is the genus
    data = kernel_of_boundary_inclusion(K)
    # the kernel rank is m minus the rank of the free class coordinates of
    # the m boundary generators, as no preset has torsion in H1
    HK = homology_of(K)
    assert not HK.group(1).torsion
    gens = [g for S in data.components for g in homology_of(S).generators(1)]
    cols = [HK.class_coords(g, 1)[0] for g in gens]
    r = HK.betti(1)
    rows = [[c[i] for c in cols] for i in range(r)]
    diagonal = smith_normal_form(IntegerMatrix(r, len(cols), rows)).diagonal if r else ()
    genus = sum(surface_info(boundary_subcomplex(K)))
    assert len(gens) - len(diagonal) == KERNEL_RANKS[name] == genus
    # i_*: H1(boundary) -> H1(K) is onto the free part over the integers:
    # the free class coordinates of the boundary generators have unit
    # Smith normal form of full row rank
    assert diagonal == (1,) * r


OBSTRUCTED = {"torus_shell": True, "hopf_box": True, "ball": False, "shell": False,
              "solid_torus": False, "handlebody2": False, "trefoil_box": False,
              "trefoil_mapping_torus": False}


@pytest.mark.parametrize("name", sorted(OBSTRUCTED))
def test_lagrangian_obstruction(name):
    rep = lagrangian_obstruction(preset(name))
    assert rep.obstructed == OBSTRUCTED[name], name
    if rep.obstructed:
        v = next(v for v in rep.verdicts if not v.lagrangian)
        # the witness is a pair of kernel classes with nonzero pairing
        assert v.witness is not None and v.witness[2] != 0
        assert rep.to_json()["certificate"] is not None


def test_boundary_kernel_is_read_modulo_torsion():
    M = minus_identity_mapping_torus()
    report = analyze_domain(M)
    assert report.betti == (1, 1, 0, 0) and not report.torsion_free
    data = kernel_of_boundary_inclusion(M)
    (P,) = data.projections
    assert len(P) == 1 == sum(report.genus_list)
    assert not lagrangian_obstruction(M).obstructed
    # the oracle: the integral kernel, with one row per torsion factor of
    # H1(K) solved modulo it through a helper column, lies in the returned
    # lattice with the same rank, so with finite index
    HK = homology_of(M.complex)
    tors = HK.group(1).torsion
    assert tors == (2, 2)
    # the projections are read in the basis _surface_basis of each component
    gens = [g for S in data.components for g in helmcut.domains._surface_basis(S)]
    m, nt = len(gens), len(tors)
    free, residues = zip(*(HK.class_coords(g, 1) for g in gens))
    rows = [[c[i] for c in free] + [0] * nt for i in range(HK.betti(1))]
    rows += [
        [c[i] for c in residues] + [d if j == i else 0 for j in range(nt)]
        for i, d in enumerate(tors)
    ]
    integral = [vec[:m] for vec in _kernel_basis(rows, m + nt)]
    returned = list(map(list, P))
    assert len(integral) == len(returned)
    stacked = [
        smith_normal_form(IntegerMatrix(len(x), m, x)).diagonal
        for x in (returned, returned + integral)
    ]
    assert stacked[0] == stacked[1]


def test_surface_shell_not_simple_but_unobstructed_profile():
    M = surface_shell(2)
    rep = analyze_domain(M)
    assert rep.all_checks_pass
    assert rep.genus_list == (2, 2)
    assert not is_simple(M).simple


# -- cube complexes: the duality route against the reduction --------------


def _plain(K):
    """A plain copy of a complex: the same layers, so the reduction route."""
    return SimplicialComplex([K.simplices(d) for d in range(4)])


def _plain_marked(M):
    return MarkedComplex(_plain(M.complex), M.marks)


def _point(v):
    """The lattice point of an encoded vertex label (builders.encode_point)."""
    return (v // 65536 - 100, v // 256 % 256 - 100, v % 256 - 100)


def _disk_crossings(z, rect):
    """lk(z, rect) for a 1-cycle z off an axis-aligned lattice rectangle:
    the signed count of z's edges that cross the rectangle's flat disk,
    lifted off its plane by a little along the normal axis k.  An edge of
    a cube complex moves by at most 1 in k, so it crosses the lifted disk
    iff it runs between the plane and the level above from a point
    strictly inside the rectangle; it counts +1 going up along the
    right-hand normal of the rectangle's traversal."""
    pts = rect.points
    k = next(a for a in range(3) if len({p[a] for p in pts}) == 1)
    u, v = [a for a in range(3) if a != k]
    level = pts[0][k]
    (u0, u1), (v0, v1) = [(min(p[a] for p in pts), max(p[a] for p in pts)) for a in (u, v)]
    closed = list(zip(pts, pts[1:] + pts[:1]))
    area = sum(p[u] * q[v] - q[u] * p[v] for p, q in closed)
    # e_u x e_v is e_k for (u, v, k) in cyclic order, and -e_k for (0, 2, 1)
    sign = (1 if area > 0 else -1) * (-1 if k == 1 else 1)
    total = 0
    for e, c in z.items():
        for at, other, up in ((_point(e[0]), _point(e[1]), 1), (_point(e[1]), _point(e[0]), -1)):
            if at[k] == level and other[k] == level + 1 and u0 < at[u] < u1 and v0 < at[v] < v1:
                total += c * up * sign
    return total


def _kernel_basis(rows, m):
    """A basis of the integer kernel of the len(rows) x m matrix, as rows."""
    snf = smith_normal_form(IntegerMatrix(len(rows), m, rows))
    return [[snf.V[i][j] for i in range(m)] for j in range(len(snf.diagonal), m)]


def _same_lattice(a, b, m):
    """The row lattices of a and b in Z^m are equal: stacking them adds no
    invariant factor and no rank."""
    d = [smith_normal_form(IntegerMatrix(len(x), m, x)).diagonal for x in (a, b, a + b)]
    return d[0] == d[1] == d[2]


def _assert_routes_agree(M, rects):
    """The duality route of a marked cube complex M against the reduction
    of a plain copy, with the rectangles' disk crossings as the oracle of
    the linking classes when rects are the components of M's lattice link
    (None for a cube set)."""
    K, P = M.complex, _plain_marked(M)
    link, reduced = analyze_domain(M), analyze_domain(P)
    assert link.betti == reduced.betti
    G = link.betti[1]
    if rects is not None:
        assert link.betti == (1, len(rects), len(rects), 0)
    assert link.to_json() == reduced.to_json()
    assert is_simple(M).to_json() == is_simple(P).to_json()
    assert lagrangian_obstruction(M).obstructed == lagrangian_obstruction(P).obstructed
    gens = [g for S in boundary_components(K) for g in homology_of(S).generators(1)]
    m = len(gens)
    lk = helmcut.domains._linking_numbers(K, gens)
    HK = homology_of(P.complex)
    assert not HK.group(1).torsion
    coords = [[HK.class_coords(g, 1)[0][i] for g in gens] for i in range(G)]
    # the same kernel of H1(boundary) -> H1(K), from both matrices and from
    # both routes' projections
    assert _same_lattice(_kernel_basis(lk, m), _kernel_basis(coords, m), m)
    link_P, reduced_P = (kernel_of_boundary_inclusion(X).projections for X in (M, P))
    for A, B in zip(link_P, reduced_P):
        assert _same_lattice(list(map(list, A)), list(map(list, B)), len((A or B or [()])[0]))
    # the push-offs span H1 of the complement and the linking pairing is
    # perfect, so the rows of lk span the class coordinates' row lattice:
    # rank G, unit invariant factors
    assert smith_normal_form(IntegerMatrix(m, m, lk)).diagonal == (1,) * G
    assert _same_lattice(lk, coords, m)
    if rects is not None:
        cores = [[_disk_crossings(z, r) for z in gens] for r in rects]
        assert _same_lattice(cores, lk, m)


def test_linking_route_agrees_with_the_reduction_on_the_presets():
    _assert_routes_agree(unknot_box(), [_square(5)])
    # a square pierced by a rectangle
    _assert_routes_agree(preset("hopf_box"), builders._load_paths("hopf"))
    for name in ("solid_torus", "handlebody2", "shell"):
        _assert_routes_agree(preset(name), None)


def _turned(path, perm, reverse):
    """path with its axes permuted, traversed backwards if reverse."""
    pts = [tuple(p[a] for a in perm) for p in path.points]
    return LatticePath(tuple(pts[:1] + pts[:0:-1] if reverse else pts))


# linked: a square pierced by a rectangle as in hopf.path; unlinked: two
# rectangles in parallel planes 5 or 6 apart; then the axes permuted and
# each traversal reversed or not
_linked = st.builds(
    lambda w, lo, hi: (_square(10), _rectangle(5, 5 + w, 5, -lo, hi)),
    st.integers(10, 11), st.integers(5, 6), st.integers(5, 6),
)
_unlinked = st.builds(
    lambda w, h, gap: (_rectangle(0, w, 0, 0, h), _rectangle(1, 6, gap, -1, 5)),
    st.integers(5, 6), st.integers(5, 6), st.integers(5, 6),
)
_rectangle_pairs = st.builds(
    lambda pair, perm, rev: [_turned(p, perm, r) for p, r in zip(pair, rev)],
    _linked | _unlinked, st.permutations(range(3)), st.tuples(st.booleans(), st.booleans()),
)


@settings(max_examples=3, deadline=None)
@given(_rectangle_pairs)
def test_linking_route_agrees_with_the_reduction_on_rectangle_pairs(rects):
    _assert_routes_agree(lattice_link_complement(rects), rects)


# a lattice link's coordinates reach from -96 to 152: its box then spans
# encode_point's whole range -99..155 in that axis
_LOW, _HIGH = -96, 152


def _placed(paths, corner):
    """paths shifted to touch the given corner of the range, one side per
    axis: False for the low end, True for the high end."""
    pts = [p for path in paths for p in path.points]
    shift = [
        _HIGH - max(p[a] for p in pts) if high else _LOW - min(p[a] for p in pts)
        for a, high in enumerate(corner)
    ]
    return [
        LatticePath(tuple(tuple(c + s for c, s in zip(p, shift)) for p in path.points))
        for path in paths
    ]


@st.composite
def _tunnelled_boxes(draw):
    """A box of cubes with straight tunnels through it along the axes, at
    odd coordinates, and cavities: single cubes at even coordinates, none
    within a cube (face, edge or corner) of another removed cube."""
    size = draw(st.tuples(*[st.integers(3, 6)] * 3))
    removed = set()
    for axis, u, v in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)), max_size=3)):
        a, b = [i for i in range(3) if i != axis]
        if 2 * u + 1 < size[a] - 1 and 2 * v + 1 < size[b] - 1:
            for t in range(size[axis]):
                cube = [0, 0, 0]
                cube[axis], cube[a], cube[b] = t, 2 * u + 1, 2 * v + 1
                removed.add(tuple(cube))
    for cavity in draw(st.lists(st.tuples(*[st.integers(1, 2)] * 3), max_size=2)):
        c = tuple(2 * x for x in cavity)
        near = {tuple(x + d for x, d in zip(c, o)) for o in product((-1, 0, 1), repeat=3)}
        if all(x < n - 1 for x, n in zip(c, size)) and not near & removed:
            removed.add(c)
    return [c for c in product(*map(range, size)) if c not in removed]


@settings(max_examples=8, deadline=None)
@given(_tunnelled_boxes())
def test_linking_route_agrees_with_the_reduction_on_tunnelled_boxes(cubes):
    _assert_routes_agree(MarkedComplex(cubes_to_complex(cubes), {}), None)


@settings(max_examples=12, deadline=None)
@given(_tunnelled_boxes() | st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)), min_size=1))
def test_surface_basis_on_the_boundaries_of_cube_sets(cubes):
    # tunnelled boxes have boundaries of higher genus; small sets also
    # have sets that are no domain, whose boundary need not be closed
    K = cubes_to_complex(sorted(cubes))
    try:
        analyze_domain(K)
    except ComplexError:
        return
    for S in boundary_components(K):
        _assert_surface_basis(S)


def _assert_no_degenerate_crossing(paths, corner, betti, obstructed):
    placed = _placed(paths, corner)
    M = lattice_link_complement(placed)
    assert analyze_domain(M).betti == betti
    assert lagrangian_obstruction(M).obstructed is obstructed
    gens = [g for S in boundary_components(M.complex) for g in homology_of(S).generators(1)]
    lk = helmcut.domains._linking_numbers(M.complex, gens)
    cores = [[_disk_crossings(z, r) for z in gens] for r in placed]
    assert _same_lattice(cores, lk, len(gens))
    # one step further out leaves the range
    out = [2 * high - 1 for high in corner]
    beyond = [_moved(_moved(_moved(p, 0, out[0]), 1, out[1]), 2, out[2]) for p in placed]
    with pytest.raises(BuildError, match="out of supported range"):
        lattice_link_complement(beyond)


# _linking_numbers raises InternalConsistencyError at a degenerate crossing


@pytest.mark.parametrize("corner", list(product((False, True), repeat=3)))
def test_no_degenerate_crossing_at_the_corners_of_the_range(corner):
    _assert_no_degenerate_crossing([_square(5)], corner, (1, 1, 1, 0), False)


@pytest.mark.parametrize("corner", [(False,) * 3, (True,) * 3])
def test_no_degenerate_crossing_of_a_hopf_pair_at_the_ends_of_the_range(corner):
    paths = [_square(10), _rectangle(5, 15, 5, -5, 5)]
    _assert_no_degenerate_crossing(paths, corner, (1, 2, 2, 0), True)


def test_a_degenerate_crossing_outside_the_range_raises():
    # the point (B, A, -AB) projects onto the origin, as no two points of
    # the range do, so a push-off segment from it meets an edge from the
    # origin at both their ends
    A, B = helmcut.domains._A, helmcut.domains._B
    S, T = (B, A, -A * B), (B, A, 1 - A * B)
    P, Q = (0, 0, 0), (16, 0, 0)
    edge = (0, 1, P, Q, helmcut.domains._project(P), helmcut.domains._project(Q))
    with pytest.raises(InternalConsistencyError, match="degenerate crossing"):
        list(helmcut.domains._over_crossings(S, T, [edge]))


def _analyze_json(X):
    """The analyze command's output for a domain."""
    out = analyze_domain(X).to_json()
    out["simple"] = is_simple(X).to_json()
    out["lagrangian_obstruction"] = lagrangian_obstruction(X).to_json()
    return json.dumps(out, sort_keys=True)


def test_link_box_analysis_does_not_depend_on_call_order():
    # the duality route and the reduction of a plain copy keep separate
    # memo entries, and neither reads the other's
    first, second = unknot_box(), unknot_box()
    plain_first, plain_second = _plain_marked(first), _plain_marked(second)
    box_first = _analyze_json(first), _analyze_json(plain_first)
    bare_first = _analyze_json(plain_second), _analyze_json(second)
    assert box_first == bare_first[::-1]
    for M, P in ((first, plain_first), (second, plain_second)):
        kernel = kernel_of_boundary_inclusion(M)
        assert kernel is kernel_of_boundary_inclusion(M)
        assert kernel is not kernel_of_boundary_inclusion(P)


def test_a_linking_matrix_of_the_wrong_rank_raises(monkeypatch):
    # push-offs that link nothing: rank 0, not the boundary genus 1
    M = unknot_box()
    monkeypatch.setattr(helmcut.domains, "_linking_numbers", lambda K, gens: [[0] * len(gens) for _ in gens])
    for check in (analyze_domain, is_simple, kernel_of_boundary_inclusion):
        with pytest.raises(InternalConsistencyError, match="linking matrix of rank 0 with total boundary genus 1"):
            check(M)
    monkeypatch.undo()
    assert analyze_domain(unknot_box()).all_checks_pass


def test_a_link_box_is_analysed_without_a_3d_reduction(monkeypatch):
    # and so are a plate and a cavity box: no face index of a 3-D complex,
    # no homology_of at all, as the boundary surfaces take their H1 bases
    # from a tree and a cotree, and the layers never written
    from helmcut import complexes, cuts, homology

    indexed, reduced = [], []
    real_index, real_homology = complexes.face_index, homology.homology_of

    def face_index(K):
        indexed.append(K)
        return real_index(K)

    def homology_of(K):
        reduced.append(K)
        return real_homology(K)

    for mod in (complexes, homology, helmcut.domains, cuts):
        monkeypatch.setattr(mod, "face_index", face_index, raising=False)
    for mod in (homology, helmcut.domains):
        monkeypatch.setattr(mod, "homology_of", homology_of)
    for M in (unknot_box(), MarkedComplex(handlebody(2), {}), MarkedComplex(shell(), {})):
        K = M.complex
        misses = real_homology.cache_info().misses
        _analyze_json(M)
        # K first: the dimension of K would write its layers
        assert not any(X is K for X in indexed) and K._layers is None
        assert all(X.dimension < 3 for X in indexed)
        assert not reduced and real_homology.cache_info().misses == misses
        # a plain copy still reduces its 3-D complex, and only that
        P = _plain_marked(M)
        _analyze_json(P)
        assert reduced and all(X is P.complex for X in reduced)
        assert real_homology.cache_info().misses - misses == 1
        indexed.clear()
        reduced.clear()

import time

import pytest
from hypothesis import given, settings, strategies as st

from helmcut.builders import (
    cubes_to_complex,
    domain_corpus,
    handlebody,
    preset,
    shell,
    surface_shell,
    unknot_box,
)
from helmcut.complexes import (
    ComplexError,
    _check_closed_surface,
    boundary_subcomplex,
    build_complex,
    mapping_torus,
    orient_surface,
    product_with_interval,
)
import helmcut.domains
from helmcut.domains import (
    NotADomainError,
    analyze_domain,
    boundary_components,
    corank_bounds,
    intersection_form,
    intersection_pairing,
    is_simple,
    kernel_of_boundary_inclusion,
    lagrangian_obstruction,
)
from helmcut.homology import InternalConsistencyError, NotACycleError, homology_of

from test_complexes import RP2_6, TORUS7


def test_identity_suite_over_corpus():
    t0 = time.time()
    for name, M in domain_corpus():
        report = analyze_domain(M)
        assert report.all_checks_pass, f"{name}: {report.identity_checks}"
        assert report.torsion_free, name
    assert time.time() - t0 < 30.0


def test_boundary_genera_come_from_h1_of_the_boundary(monkeypatch):
    # identity (ii) reads each boundary genus as b1(S)/2, not from chi, so
    # a wrong H1 of one boundary component makes it read false
    K = preset("torus_shell").complex
    S = boundary_components(K)[0]
    assert analyze_domain(K).all_checks_pass

    class OffByTwo:
        def __init__(self, H):
            self.H = H

        def betti(self, n):
            return self.H.betti(n) + 2 * (n == 1)

    real = helmcut.domains.homology_of
    monkeypatch.setattr(helmcut.domains, "homology_of", lambda X: OffByTwo(real(X)) if X is S else real(X))
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
    form = intersection_form(T)
    m = form.matrix.to_lists()
    assert m in ([[0, 1], [-1, 0]], [[0, -1], [1, 0]])
    # genus-2 boundary of the 2-handlebody: rank-4 unimodular skew form
    S = boundary_components(preset("handlebody2").complex)[0]
    m2 = intersection_form(S).matrix
    assert m2.rows == 4
    from helmcut.exact_linalg import smith_normal_form

    assert smith_normal_form(m2).diagonal == (1, 1, 1, 1)


def test_intersection_pairing_bilinear_and_skew():
    T = build_complex(TORUS7)
    form = intersection_form(T)
    a, b = form.generators
    ab = {e: a.get(e, 0) + b.get(e, 0) for e in set(a) | set(b)}
    assert intersection_pairing(T, ab, a) == intersection_pairing(T, a, a) + intersection_pairing(T, b, a)
    assert intersection_pairing(T, a, b) == -intersection_pairing(T, b, a)
    assert intersection_pairing(T, a, a) == 0


def test_intersection_pairing_rejects_foreign_edges_and_non_cycles():
    T = build_complex(TORUS7)
    a, b = intersection_form(T).generators
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
    # box: a sphere and a torus, which lattice_link_complement's own check
    # orients, so the count starts before the build.  Each component is
    # also checked to be a closed surface once.
    for build in (shell, lambda: handlebody(2), lambda: unknot_box().complex):
        before = orient_surface.cache_info().misses
        checked = _check_closed_surface.cache_info().misses
        K = build()
        analyze_domain(K)
        is_simple(K)
        lagrangian_obstruction(K)
        # and K itself is oriented once, by the domain check
        assert orient_surface.cache_info().misses - before == len(boundary_components(K)) + 1
        assert _check_closed_surface.cache_info().misses - checked == len(boundary_components(K))


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


@pytest.mark.parametrize(
    "build, message",
    [
        (cone_over_torus, "domain complex is not a 3-manifold: chi 1, boundary chi 0"),
        (punctured_rp2_x_s1, "domain complex is not orientable"),
    ],
)
def test_pseudo_manifolds_and_non_orientable_manifolds_are_not_domains(build, message):
    K = build()
    for check in (analyze_domain, is_simple, kernel_of_boundary_inclusion, lagrangian_obstruction,
                  corank_bounds):
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
    # a pure subcomplex of a triangulated R^3 whose boundary is a closed
    # surface is a domain, so only connectivity and the boundary surface
    # may reject a union of lattice cubes, and every identity holds
    K = cubes_to_complex(sorted(cubes))
    try:
        report = analyze_domain(K)
        is_simple(K)
        lagrangian_obstruction(K)
    except ComplexError as e:
        assert str(e) == "domain complex must be connected" or str(e).startswith(
            "not a closed surface: "
        )
        return
    assert report.all_checks_pass


def test_disconnected_complex_is_not_a_domain():
    K = build_complex([(0, 1, 2, 3), (4, 5, 6, 7)])
    for check in (analyze_domain, is_simple, kernel_of_boundary_inclusion, corank_bounds):
        with pytest.raises(NotADomainError, match="domain complex must be connected"):
            check(K)


KERNEL_RANKS = {"ball": 0, "solid_torus": 1, "handlebody2": 2, "shell": 0,
                "torus_shell": 2, "trefoil_box": 1, "hopf_box": 2,
                "trefoil_mapping_torus": 1, "solid_torus_with_meridian_disk": 1}


@pytest.mark.parametrize("name", sorted(KERNEL_RANKS))
def test_boundary_kernel_rank_equals_total_genus(name):
    data = kernel_of_boundary_inclusion(preset(name))
    assert data.kernel_rank == KERNEL_RANKS[name] == sum(data.genus_list)
    assert data.inclusion_surjective


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


def test_corank_bounds_examples():
    M = preset("solid_torus_with_meridian_disk")
    from helmcut.cuts import surface_system_from_marks

    assert corank_bounds(M, surface_system_from_marks(M)) == (1, 1)
    M2 = preset("trefoil_mapping_torus")
    assert corank_bounds(M2, surface_system_from_marks(M2)) == (1, 1)
    assert corank_bounds(preset("torus_shell")) == (0, 2)


def test_surface_shell_not_simple_but_unobstructed_profile():
    M = surface_shell(2)
    rep = analyze_domain(M)
    assert rep.all_checks_pass
    assert rep.genus_list == (2, 2)
    assert not is_simple(M).simple

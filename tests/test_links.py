import pytest
from hypothesis import given, settings, strategies as st

from helmcut.links import (
    DiagramError,
    _trace,
    check_planar,
    diagram,
    diagram_names,
    link_helmholtz_verdict,
    linking_matrix,
    linking_number,
    mirror_diagram,
    parse_pd,
    remove_kinks,
    seifert_data,
)


def test_parse_examples():
    assert parse_pd("X(1,3,2,4) X(3,1,4,2)").component_count == 2
    assert parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)").component_count == 1
    assert parse_pd("").component_count == 0
    assert parse_pd("U(1) U(2)").component_count == 2
    assert parse_pd("# just a comment\n").component_count == 0


@pytest.mark.parametrize("name", diagram_names())
def test_bundled_diagrams_are_planar(name):
    D = diagram(name)
    for E in (D, mirror_diagram(D), remove_kinks(D)):
        check_planar(E)


def test_parse_rejects_malformed():
    with pytest.raises(DiagramError):
        parse_pd("X(1,2,3,4)")  # arcs appear once
    with pytest.raises(DiagramError):
        parse_pd("X(1,1,1,1)")  # arc appears four times
    with pytest.raises(DiagramError):
        parse_pd("X(1,2,3)")  # wrong arity
    with pytest.raises(DiagramError):
        parse_pd("Y(1,2,3,4) X(1,2,3,4)")  # unknown token
    with pytest.raises(DiagramError):
        parse_pd("U(1) X(1,2,2,1)")  # unknot arc reused
    with pytest.raises(DiagramError, match="^inconsistent orientation at arc 1$"):
        parse_pd("X(1,2,3,4) X(1,4,3,2)")  # arc 1 passes under both ways


def test_linking_matrix_hopf_and_whitehead():
    hopf = diagram("hopf")
    m = linking_matrix(hopf)
    assert abs(m[0][1]) == 1 and m[0][1] == m[1][0]
    wh = diagram("whitehead")
    assert wh.component_count == 2
    assert linking_number(wh, 0, 1) == 0
    split = diagram("unlink2")
    assert linking_matrix(split) == [[0, 0], [0, 0]]


def test_linking_matrix_symmetric_and_mirror_negates():
    hopf = diagram("hopf")
    assert linking_matrix(mirror_diagram(hopf))[0][1] == -linking_matrix(hopf)[0][1]
    tre = diagram("trefoil")
    assert mirror_diagram(tre).writhes[0] == -tre.writhes[0]


def test_seifert_data_values():
    t = seifert_data(diagram("trefoil"))
    assert (t.seifert_circles, t.crossing_count, t.link_components, t.genus) == (2, 3, 1, 1)
    h = seifert_data(diagram("hopf"))
    assert (h.seifert_circles, h.crossing_count, h.link_components, h.genus) == (2, 2, 2, 0)
    u = seifert_data(parse_pd("U(7)"))
    assert (u.seifert_circles, u.crossing_count, u.genus) == (1, 0, 0)
    # split diagrams report genus per part
    s = seifert_data(parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3) U(9)"))
    assert len(s.parts) == 2 and s.genus == 1


def test_reidemeister_smoke_two_trefoil_diagrams():
    t3, t4 = diagram("trefoil"), diagram("trefoil4")
    assert t3.component_count == t4.component_count == 1
    assert remove_kinks(t4).crossings == t3.crossings
    assert seifert_data(remove_kinks(t4)).genus == seifert_data(t3).genus


def test_remove_kinks_keeps_a_kink_free_diagram():
    for name in ("hopf", "trefoil", "whitehead", "unlink2"):
        D = diagram(name)
        assert remove_kinks(D) is D
    t4 = diagram("trefoil4")
    assert len(remove_kinks(t4).crossings) == len(t4.crossings) - 1


def test_kink_removal_reduces_unknots():
    assert not remove_kinks(parse_pd("X(1,1,2,2)")).crossings
    assert not remove_kinks(parse_pd("X(1,2,2,3) X(3,4,4,1)")).crossings


def test_verdicts():
    assert link_helmholtz_verdict(parse_pd("U(1) U(2)")).helmholtz == "yes"
    v = link_helmholtz_verdict(diagram("hopf"))
    assert v.helmholtz == "no" and v.weakly_helmholtz == "no"
    assert v.certificates[0]["type"] == "linking_number"
    w = link_helmholtz_verdict(diagram("whitehead"))
    assert w.helmholtz == "no" and w.weakly_helmholtz == "no"
    assert w.certificates[0]["type"] == "milnor_mubar"
    t = link_helmholtz_verdict(diagram("trefoil"))
    assert t.weakly_helmholtz == "yes"  # knots are weakly Helmholtz
    assert t.helmholtz in ("unknown", "no")  # never yes for a crossing diagram


def test_verdict_no_always_certified():
    for name in diagram_names():
        v = link_helmholtz_verdict(diagram(name))
        for prop in (v.helmholtz, v.weakly_helmholtz):
            if prop == "no":
                assert v.certificates


def test_orientation_data_consistency():
    # every arc has exactly one successor; components partition the arcs
    for name in diagram_names():
        D = diagram(name)
        arcs = [a for comp in D.components for a in comp]
        assert len(arcs) == len(set(arcs))
        for comp in D.components:
            for arc in comp:
                assert D.successor(arc) in comp


def test_linking_number_checks_component_indices():
    hopf = diagram("hopf")
    assert linking_number(hopf, 0, 1) == linking_number(hopf, 1, 0) == 1
    for i, j in [(-1, 0), (0, -1), (5, 0), (0, 2)]:
        with pytest.raises(DiagramError, match="component indices must be in 0..1"):
            linking_number(hopf, i, j)


@st.composite
def _slot_pairings(draw):
    """1-6 crossings whose 4n slots carry 2n labels exactly twice each,
    optionally with one zero-crossing component."""
    n = draw(st.integers(1, 6))
    labels = draw(st.permutations([arc for arc in range(1, 2 * n + 1) for _ in range(2)]))
    crossings = [tuple(labels[4 * k : 4 * k + 4]) for k in range(n)]
    return crossings, draw(st.sampled_from([[], [2 * n + 1]]))


@settings(max_examples=400, deadline=None)
@given(_slot_pairings())
def test_trace_orients_every_slot_pairing(pairing):
    crossings, unknots = pairing
    try:
        D = _trace(crossings, unknots)
    except DiagramError as e:
        assert str(e).startswith("inconsistent orientation at arc")
        return
    arcs = [arc for comp in D.components for arc in comp]
    assert sorted(arcs) == sorted({arc for x in crossings for arc in x} | set(unknots))
    assert len(D.signs) == len(crossings) and set(D.signs) <= {-1, 1}
    for k, (a, b, c, d) in enumerate(D.crossings):
        assert D.successor(a) == c
        over_in, over_out = D.over_direction(k)
        assert D.successor(over_in) == over_out
    assert _trace(D.crossings, D.unknot_arcs) == D


# components and signs as traced before the one-walk-per-strand rewrite; the
# first two PD literals are bench braid closures (bench/inputs.braid_pd): the
# Borromean rings (s1 s2^-1)^3 and the knot s1 s1 s2^-1 s1 s2 s2; in the
# other three the component (2) or (4, ...) never passes under
_PINNED = {
    "hopf": (((1, 2), (3, 4)), (1, 1)),
    "trefoil": (((1, 2, 3, 4, 5, 6),), (-1, -1, -1)),
    "trefoil4": (((1, 2, 3, 4, 5, 6, 7, 8),), (-1, -1, -1, 1)),
    "whitehead": (((1, 2, 3, 4), (5, 6, 7, 8, 9, 10)), (-1, -1, 1, 1, -1)),
    "unlink2": (((1,), (2,)), ()),
    "X(2,5,4,1) X(5,3,7,6) X(6,9,8,4) X(9,7,11,10) X(10,12,1,8) X(12,11,3,2)": (
        ((1, 5, 7, 10), (2, 4, 9, 11), (3, 6, 8, 12)),
        (1, -1, 1, -1, 1, -1),
    ),
    "X(2,5,4,1) X(5,7,6,4) X(7,3,9,8) X(8,10,1,6) X(9,12,11,10) X(12,3,2,11)": (
        ((1, 5, 6, 10, 12, 2, 4, 7, 9, 11, 3, 8),),
        (1, 1, -1, 1, 1, 1),
    ),
    "X(1,2,1,2)": (((1,), (2,)), (-1,)),
    "X(1,3,2,4) X(2,4,1,3)": (((1, 2), (3, 4)), (-1, -1)),
    "X(1,4,2,6) X(2,5,3,4) X(3,6,1,5)": (((1, 2, 3), (4, 5, 6)), (1, 1, 1)),
}


@pytest.mark.parametrize("source", list(_PINNED))
def test_traced_components_and_signs_are_pinned(source):
    D = diagram(source) if source in diagram_names() else parse_pd(source)
    assert (D.components, D.signs) == _PINNED[source]

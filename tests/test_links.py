import re

import pytest
from hypothesis import given, settings, strategies as st

from helmcut.links import (
    DiagramError,
    _arc_components,
    _kink_free,
    _trace,
    check_planar,
    diagram,
    diagram_names,
    link_helmholtz_verdict,
    linking_matrix,
    parse_pd,
    seifert_data,
)

from test_groups import BORROMEAN_PD, _mirror


def _successor(D, arc):
    comp = next(c for c in D.components if arc in c)
    return comp[(comp.index(arc) + 1) % len(comp)]


def test_parse_examples():
    assert parse_pd("X(1,3,2,4) X(3,1,4,2)").component_count == 2
    assert parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)").component_count == 1
    assert parse_pd("").component_count == 0
    assert parse_pd("U(1) U(2)").component_count == 2
    assert parse_pd("# just a comment\n").component_count == 0


@pytest.mark.parametrize("name", diagram_names())
def test_bundled_diagrams_are_planar(name):
    D = diagram(name)
    for E in (D, _mirror(D), _trace(_kink_free(D.crossings), ())):
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
    # labels are ASCII digits, though int() reads other decimal digits:
    # Arabic-Indic and fullwidth X(1,2,2,1), and U(1)
    for text in ("X(\u0661,\u0662,\u0662,\u0661)", "X(\uff11,\uff12,\uff12,\uff11)", "U(\u0661)"):
        with pytest.raises(DiagramError, match="^unrecognized PD input near: "):
            parse_pd(text)


def test_linking_matrix_hopf_and_whitehead():
    hopf = diagram("hopf")
    m = linking_matrix(hopf)
    assert abs(m[0][1]) == 1 and m[0][1] == m[1][0]
    wh = diagram("whitehead")
    assert wh.component_count == 2
    assert linking_matrix(wh)[0][1] == 0
    split = diagram("unlink2")
    assert linking_matrix(split) == [[0, 0], [0, 0]]


def test_linking_matrix_symmetric_and_mirror_negates():
    hopf = diagram("hopf")
    assert linking_matrix(_mirror(hopf))[0][1] == -linking_matrix(hopf)[0][1]
    tre = diagram("trefoil")
    assert _mirror(tre).writhes[0] == -tre.writhes[0]


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
    assert _kink_free(t4.crossings) == list(t3.crossings)
    assert seifert_data(_trace(_kink_free(t4.crossings), ())).genus == seifert_data(t3).genus


def test_kink_free_keeps_a_kink_free_diagram():
    for name in ("hopf", "trefoil", "whitehead", "unlink2"):
        D = diagram(name)
        assert _kink_free(D.crossings) == list(D.crossings)
    t4 = diagram("trefoil4")
    assert len(_kink_free(t4.crossings)) == len(t4.crossings) - 1


def test_kink_removal_reduces_unknots():
    assert _kink_free(parse_pd("X(1,1,2,2)").crossings) == []
    assert _kink_free(parse_pd("X(1,2,2,3) X(3,4,4,1)").crossings) == []


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
                assert _successor(D, arc) in comp


def test_linking_number_checks_component_indices():
    # one row and one column per component
    m = linking_matrix(diagram("hopf"))
    assert len(m) == 2 and all(len(row) == 2 for row in m)
    assert m[0][1] == m[1][0] == 1


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
        assert _successor(D, a) == c
        over_in, over_out = D.over_direction(k)
        assert _successor(D, over_in) == over_out
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


def _parse_pd_by_regex(text: str):
    """Reference reader of the PD grammar, in separate regex passes: strip
    the comments, reject what the terms leave over, then find every term
    and split its labels at the commas."""
    stripped = re.sub(r"#[^\n]*", "", text)
    term = r"([XU])\(\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\)"
    consumed = re.sub(term, "", stripped)
    if re.search(r"[^\s,]", consumed):
        raise DiagramError(f"unrecognized PD input near: {consumed.strip()[:40]!r}")
    crossings, unknots = [], []
    for kind, args in re.findall(term, stripped):
        nums = tuple(int(x) for x in re.split(r"\s*,\s*", args))
        if kind == "X":
            if len(nums) != 4:
                raise DiagramError(f"crossing needs 4 arc labels, got {nums}")
            crossings.append(nums)
        else:
            if len(nums) != 1:
                raise DiagramError(f"unknot token needs 1 arc label, got {nums}")
            unknots.append(nums[0])
    return _trace(crossings, unknots)


_pd_spaces = st.sampled_from([" ", "\t", "\n", "\xa0", "", "  "])


@st.composite
def _pd_terms(draw):
    """An X( or U( term of 0-5 labels; an empty separator runs two labels
    together, and a lone space leaves a space between labels."""
    arity = draw(st.sampled_from([0, 1, 1, 1, 2, 4, 4, 4, 4, 5]))
    body = [draw(st.sampled_from(["1", "2", "2", "3", "12", "\u0663"])) for _ in range(arity)]
    seps = st.sampled_from([",", ",", ", ", " ,", "\t,\n", ",\xa0", "", " "])
    inside = "".join(label if k == 0 else draw(seps) + label for k, label in enumerate(body))
    closing = draw(st.sampled_from([")"] * 7 + [""]))
    kind = draw(st.sampled_from(["X(", "U("]))
    return kind + draw(_pd_spaces) + inside + draw(_pd_spaces) + closing


_pd_layout = st.one_of(_pd_spaces, st.sampled_from([",", " , ", "# X(1,2,3,4)\n", "# Y(\n", "#"]))
_pd_junk = st.sampled_from(["Y(1)", "x", "(", ")", ";"]) | st.text(max_size=2)
# half the texts hold no junk piece, so that some of them are diagrams
_pd_texts = st.one_of(
    st.lists(_pd_terms() | _pd_layout, max_size=8),
    st.lists(_pd_terms() | _pd_layout | _pd_junk, max_size=8),
).map("".join)


def _parsed(read, text):
    try:
        D = read(text)
    except DiagramError as e:
        return str(e)
    return D.crossings, D.unknot_arcs, D.components, D.signs


@settings(max_examples=400, deadline=None)
@given(_pd_texts)
def test_parse_pd_reads_the_regex_grammar(text):
    assert _parsed(parse_pd, text) == _parsed(_parse_pd_by_regex, text)


@pytest.mark.parametrize("source", ["whitehead", BORROMEAN_PD])
def test_each_invariant_reads_the_arc_table_once(source):
    D = diagram(source) if source in diagram_names() else parse_pd(source)
    for read in (linking_matrix, lambda D: D.writhes, seifert_data):
        before = sum(_arc_components.cache_info())
        read(D)
        assert sum(_arc_components.cache_info()) == before + 1

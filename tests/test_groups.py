from collections import Counter
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import helmcut.groups
from helmcut.groups import (
    GroupPresentation,
    MagnusSeries,
    _arc_reps,
    _longitudes,
    abelianize,
    longitude_word,
    magnus_expand,
    milnor_mu,
    milnor_mubar,
    wirtinger,
)
from helmcut.links import (
    DiagramError,
    diagram,
    link_helmholtz_verdict,
    linking_matrix,
    mirror_diagram,
    parse_pd,
)


def test_wirtinger_shapes():
    P = wirtinger(diagram("trefoil"))
    assert len(P.generators) == 3 and len(P.relators) == 3
    Ph = wirtinger(diagram("hopf"))
    assert len(Ph.generators) == 2 and len(Ph.relators) == 2
    Pu = wirtinger(parse_pd("U(1)"))
    assert Pu.generators == (1,) and Pu.relators == ()
    # each relation is a conjugation: exponent sum zero on the over generator
    for rel in P.relations:
        exps = {}
        for g, e in rel.relator:
            exps[g] = exps.get(g, 0) + e
        assert exps.get(rel.over, 0) == 0
        assert exps[rel.out] == -1 or rel.out == rel.inn


def test_abelianizations():
    assert str(abelianize(wirtinger(diagram("trefoil")))) == "Z"
    assert str(abelianize(wirtinger(diagram("hopf")))) == "Z + Z"
    assert str(abelianize(wirtinger(diagram("whitehead")))) == "Z + Z"
    assert str(abelianize(GroupPresentation((1,), (((1, 1), (1, 1)),)))) == "Z/2"
    # abelianize(wirtinger) = Z^components on the whole corpus
    from helmcut.links import diagram_names

    for name in diagram_names():
        D = diagram(name)
        g = abelianize(wirtinger(D))
        assert g.rank == D.component_count and not g.torsion


def test_magnus_examples():
    assert magnus_expand((), {}, 3).terms == {(): 1}
    s = magnus_expand(((1, 1), (2, 1), (1, -1), (2, -1)), {1: 1, 2: 2}, 3)
    assert s.coefficient((1, 2)) == 1 and s.coefficient((2, 1)) == -1
    for k in (-3, 0, 1, 7):
        assert magnus_expand(((1, k),), {1: 1}, 4).coefficient((1,)) == k
    with pytest.raises(ValueError):
        MagnusSeries(1)


def test_magnus_product_homomorphism():
    w1, w2 = ((1, 1), (2, -1)), ((2, 2), (1, -1))
    var = {1: 1, 2: 2}
    assert magnus_expand(w1 + w2, var, 4) == magnus_expand(w1, var, 4) * magnus_expand(w2, var, 4)
    s = magnus_expand(w1, var, 4)
    assert (s * s.inverse()).terms == {(): 1}


def test_longitudes():
    assert longitude_word(parse_pd("U(1)"), 0) == ()
    hopf = diagram("hopf")
    lk = linking_matrix(hopf)
    # abelianized longitude of component i: lk(i,j) on meridian j, 0 on its own
    P = wirtinger(hopf)
    comp = dict(P.component_of)
    for i in range(2):
        w = longitude_word(hopf, i)
        exps = {}
        for g, e in w:
            exps[comp[g]] = exps.get(comp[g], 0) + e
        assert exps.get(i, 0) == 0
        assert exps.get(1 - i, 0) == lk[i][1 - i]
    with pytest.raises(DiagramError):
        longitude_word(hopf, 2)


def test_milnor_length_two_equals_linking_number():
    for name in ("hopf", "whitehead", "unlink2"):
        D = diagram(name)
        lk = linking_matrix(D)
        for i in range(D.component_count):
            for j in range(D.component_count):
                if i != j:
                    assert milnor_mu(D, (i + 1, j + 1), 4) == lk[i][j], name


def test_milnor_input_validation():
    hopf = diagram("hopf")
    with pytest.raises(DiagramError):
        milnor_mu(hopf, (1,), 4)
    with pytest.raises(DiagramError):
        milnor_mu(hopf, (1, 2), 1)  # q must be at least the length
    with pytest.raises(DiagramError):
        milnor_mu(hopf, (1, 3), 4)  # component out of range


def test_whitehead_mubar_anchor():
    wh = diagram("whitehead")
    v = milnor_mubar(wh, (1, 1, 2, 2), 5)
    assert v.delta == 0
    assert abs(v.residue) == 1
    # cyclic symmetry of the exactly-defined invariant
    vals = {
        milnor_mubar(wh, I, 5).residue
        for I in [(1, 1, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1), (2, 1, 1, 2)]
    }
    assert len(vals) == 1


def test_milnor_search_builds_the_presentation_once(monkeypatch):
    calls = []

    def counting_wirtinger(D):
        calls.append(D)
        return wirtinger(D)

    monkeypatch.setattr(helmcut.groups, "wirtinger", counting_wirtinger)
    before = _arc_reps.cache_info().misses
    verdict = link_helmholtz_verdict(diagram("whitehead"))
    assert verdict.certificates[0]["type"] == "milnor_mubar"
    assert len(calls) == 1
    # the wirtinger call and every longitude share one set of arc classes
    assert _arc_reps.cache_info().misses - before == 1


def test_split_unlink_all_mu_vanish():
    D = diagram("unlink2")
    for I in [(1, 2), (2, 1), (1, 2, 2), (1, 1, 2, 2)]:
        assert milnor_mubar(D, I, 5).residue == 0


def test_vanishing_stability_across_truncation():
    wh = diagram("whitehead")
    for I in [(1, 2), (1, 1, 2, 2), (1, 2, 1, 2)]:
        assert milnor_mu(wh, I, 5) == milnor_mu(wh, I, 6)


def test_mirror_negates_linking_mu():
    hopf = diagram("hopf")
    m = mirror_diagram(hopf)
    assert milnor_mu(m, (1, 2), 4) == -milnor_mu(hopf, (1, 2), 4)
    assert linking_matrix(m)[0][1] == -linking_matrix(hopf)[0][1]


def test_mubar_json():
    out = milnor_mubar(diagram("hopf"), (1, 2), 4).to_json()
    assert set(out) == {"indices", "mu", "delta", "mubar"}


# closure of the 3-braid (s1 s2^-1)^3
BORROMEAN_PD = "X(2,5,4,1) X(5,3,7,6) X(6,9,8,4) X(9,7,11,10) X(10,12,1,8) X(12,11,3,2)"
# closure of the 5-braid s3^-1 s4^-1 s2 s1^-1 s2 s4 s2^-1 s1: three components,
# every linking number zero, and an in-arc series that changes on a pass where
# its over-arc series does not
BRAID5_PD = (
    "X(3,4,7,6) X(7,5,9,8) X(6,11,10,2) X(1,10,13,12) X(11,15,14,13) X(9,5,4,8) "
    "X(14,15,3,16) X(16,2,1,12)"
)


def _link(name):
    if name == "borromean":
        return parse_pd(BORROMEAN_PD)
    return parse_pd(BRAID5_PD) if name == "braid5" else diagram(name)


def _delta_by_definition(D, I, q):
    """gcd of mu over every cyclic permutation of every proper subsequence
    of I of length at least 2."""
    out = 0
    for r in range(2, len(I)):
        for pos in combinations(range(len(I)), r):
            J = tuple(I[i] for i in pos)
            for k in range(r):
                out = gcd(out, milnor_mu(D, J[k:] + J[:k], q))
    return out


@pytest.mark.parametrize("name", ["whitehead", "hopf", "unlink2", "borromean"])
def test_mubar_delta_matches_the_definition(name):
    D = _link(name)
    n = D.component_count
    for p in (2, 3, 4):
        for I in product(range(1, n + 1), repeat=p):
            v = milnor_mubar(D, I, 5)
            delta = _delta_by_definition(D, I, 5)
            mu = milnor_mu(D, I, 5)
            assert (v.mu, v.delta, v.residue) == (mu, delta, mu % delta if delta else mu), I


@pytest.mark.parametrize("name", ["whitehead", "hopf", "unlink2", "borromean"])
def test_mu_is_read_at_truncation_equal_to_its_length(name):
    # truncation is a ring map, so a coefficient of degree below |I| is
    # the same at truncation |I| as one degree above it
    D = _link(name)
    n = D.component_count
    for p in (2, 3, 4):
        for I in product(range(1, n + 1), repeat=p):
            assert milnor_mu(D, I, p) == milnor_mu(D, I, p + 1), I


@pytest.mark.parametrize("name", ["whitehead", "hopf", "unlink2", "borromean"])
def test_mubar_does_not_depend_on_the_truncation(name):
    # mu(I) depends only on the longitude modulo the |I|-th lower central
    # series term (Milnor 1957), so any truncation above |I| gives it
    D = _link(name)
    n = D.component_count
    for p in (2, 3, 4):
        for I in product(range(1, n + 1), repeat=p):
            assert milnor_mubar(D, I, p + 1) == milnor_mubar(D, I, 5) == milnor_mubar(D, I, 7), I


def test_borromean_rings_have_mubar_123():
    D = parse_pd(BORROMEAN_PD)
    assert linking_matrix(D) == [[0, 0, 0]] * 3
    v = link_helmholtz_verdict(D)
    assert v.weakly_helmholtz == "no"
    assert v.certificates[0]["indices"] == [1, 2, 3]
    assert abs(v.certificates[0]["residue"]) == 1


def _all_pairs_product(a, b):
    out = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            if len(w1) + len(w2) < a.q:
                out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


@st.composite
def _series_pair(draw):
    q = draw(st.integers(2, 6))
    word = st.lists(st.integers(1, draw(st.integers(1, 3))), max_size=q - 1).map(tuple)
    terms = st.dictionaries(word, st.integers(-5, 5), max_size=12)
    return MagnusSeries(q, draw(terms)), MagnusSeries(q, draw(terms))


@settings(max_examples=150, deadline=None)
@given(_series_pair())
def test_product_equals_the_all_pairs_product(pair):
    a, b = pair
    assert (a * b).terms == _all_pairs_product(a, b)
    unit = MagnusSeries(a.q, {**a.terms, (): 1})
    assert unit * unit.inverse() == MagnusSeries.one(a.q)
    assert unit.inverse() * unit == MagnusSeries.one(a.q)


def _geometric_inverse(s):
    """(1 + N)^-1 = sum_k (-N)^k, by full products."""
    minus_n = MagnusSeries(s.q, {w: -c for w, c in s.terms.items() if w})
    out = power = MagnusSeries.one(s.q)
    for _ in range(1, s.q):
        power = power * minus_n
        words = out.terms.keys() | power.terms.keys()
        out = MagnusSeries(s.q, {w: out.coefficient(w) + power.coefficient(w) for w in words})
    return out


def _full_rewriting_longitudes(D, q):
    """Longitudes from rewriting every relation on every pass, inverting
    afresh each time, until a pass changes nothing."""

    def power(s, e):
        return s if e == 1 else _geometric_inverse(s)

    P = wirtinger(D)
    comp = dict(P.component_of)
    series = {g: MagnusSeries.generator(comp[g] + 1, q) for g in P.generators}
    defining = {}
    for rel in P.relations:
        if rel.out not in P.meridians:
            defining.setdefault(rel.out, rel)
    for _ in range(2 * q + 4):
        before = dict(series)
        for g in sorted(defining):
            r = defining[g]
            o = series[r.over]
            series[g] = power(o, -r.eps) * series[r.inn] * power(o, r.eps)
        if series == before:
            break
    else:
        pytest.fail(f"the full rewriting of {D} did not stabilize at degree {q}")
    full = []
    for j in range(D.component_count):
        s = MagnusSeries.one(q)
        for g, e in longitude_word(D, j):
            s = s * power(series[g], e)
        full.append(s)
    return tuple(full)


@pytest.mark.parametrize(
    "name", ["hopf", "trefoil", "trefoil4", "whitehead", "unlink2", "borromean", "braid5"]
)
def test_longitudes_equal_a_full_rewriting(name):
    """The graded solve reaches the fixpoint of the full rewriting.  A
    mirror switches every crossing sign, so both conjugations of a
    Wirtinger relation get solved."""
    for D in (_link(name), mirror_diagram(_link(name))):
        for q in (3, 4, 5):
            assert _longitudes(D, q) == _full_rewriting_longitudes(D, q), q


def test_milnor_search_reads_each_mu_once(monkeypatch):
    calls = Counter()

    def counting_mu(D, I, q):
        calls[I, q] += 1
        return milnor_mu(D, I, q)

    monkeypatch.setattr(helmcut.groups, "milnor_mu", counting_mu)
    verdict = link_helmholtz_verdict(diagram("whitehead"))
    assert verdict.certificates[0]["type"] == "milnor_mubar"
    assert calls and max(calls.values()) == 1


def _search_oracle_certificates(D, max_len):
    """The verdict's certificates with the Milnor search written out: every
    multi-component sequence of length 3..max_len, shortest first, through
    milnor_mubar (which always takes Delta), up to the first nonzero residue."""
    n = D.component_count
    lk = linking_matrix(D)
    certs = [
        {"type": "linking_number", "components": [i + 1, j + 1], "value": lk[i][j]}
        for i in range(n)
        for j in range(i + 1, n)
        if lk[i][j]
    ]
    if certs or n < 2:
        return certs
    for p in range(3, max_len + 1):
        for I in product(range(1, n + 1), repeat=p):
            if len(set(I)) >= 2:
                v = milnor_mubar(D, I, max_len)
                if v.residue:
                    return [
                        {
                            "type": "milnor_mubar",
                            "indices": list(I),
                            "mu": v.mu,
                            "delta": v.delta,
                            "residue": v.residue,
                        }
                    ]
    return []


ALL_LINKS = ["hopf", "trefoil", "trefoil4", "whitehead", "unlink2", "borromean", "braid5"]


@pytest.mark.parametrize("name", ALL_LINKS)
def test_milnor_search_equals_the_written_out_search(name):
    for D in (_link(name), mirror_diagram(_link(name))):
        for max_len in (2, 3, 4, 5):
            verdict = link_helmholtz_verdict(D, max_len)
            assert list(verdict.certificates) == _search_oracle_certificates(D, max_len), max_len


@pytest.mark.parametrize("q", [3, 4, 5])
def test_milnor_search_takes_no_delta_where_every_mu_vanishes(monkeypatch, q):
    # the split unlink's longitudes are 1, so they have no term to read
    calls = Counter()

    def counting_mu(D, I, q):
        calls[I, q] += 1
        return milnor_mu(D, I, q)

    monkeypatch.setattr(helmcut.groups, "milnor_mu", counting_mu)
    verdict = link_helmholtz_verdict(diagram("unlink2"), q)
    assert verdict.certificates == ()
    assert sum(calls.values()) == 0


@pytest.mark.parametrize("name", ALL_LINKS)
def test_longitudes_have_no_term_in_their_own_variable_alone(name):
    # killing the other meridians leaves l_j = m_j^(self-linking) = 1; the
    # search's Delta(I) = 0 rests on this
    for D in (_link(name), mirror_diagram(_link(name))):
        for q in (5, 6):
            for j, longitude in enumerate(_longitudes(D, q), start=1):
                own = [w for w in longitude.terms if w and set(w) == {j}]
                assert own == [], (q, j)


def _longitude_word_by_scan(D, j):
    """longitude_word with every crossing scanned for every arc."""
    rep = _arc_reps(D)
    word = []
    for arc in D.components[j]:
        for k, (a, b, c, d) in enumerate(D.crossings):
            if a == arc:
                word.append((rep[D.over_direction(k)[0]], D.signs[k]))
    w = D.writhes[j]
    word += [(rep[D.components[j][0]], -1 if w > 0 else 1)] * abs(w)
    return tuple(word)


@pytest.mark.parametrize("name", ALL_LINKS)
def test_longitude_word_equals_a_scan_of_every_crossing(name):
    for D in (_link(name), mirror_diagram(_link(name))):
        for j in range(D.component_count):
            assert longitude_word(D, j) == _longitude_word_by_scan(D, j), j

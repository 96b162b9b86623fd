import pytest

import helmcut.groups
from helmcut.groups import (
    GroupPresentation,
    MagnusSeries,
    _arc_reps,
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
        milnor_mu(hopf, (1, 2), 2)  # q must exceed length
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

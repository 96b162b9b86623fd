"""Link groups and their nilpotent invariants.

Wirtinger presentations from diagrams, abelianization, preferred
longitudes, truncated Magnus expansion, and Milnor mu / mu-bar invariants
computed by rewriting arc generators as meridian words in the free
nilpotent quotient.

The rewriting solves one degree at a time: a Wirtinger relation fixes
the degree-k terms of an arc's series from its in-arc's and from terms of
lower degree, so each arc is solved after its in-arc.  The nonzero mu are
the longitudes' own terms, so the Milnor search of link verdicts takes
the first longitude term instead of reading every index sequence.

The series are graded lists of {word: coefficient} dicts whose words are
integers: with n components, z_i1...z_ik is the integer with base-(n+1)
digits i1...ik.  A longitude multiplies its letters into one running
product in place, and a letter of exponent -1 divides that product on the
right, degree by degree, so no inverse series is formed.  Only the
finished longitudes become MagnusSeries with tuple words.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .complexes import _class_roots, derived
from .homology import HomologyGroup, InternalConsistencyError
from .exact_linalg import IntegerMatrix, smith_normal_form
from .links import DiagramError, LinkDiagram

Word = tuple  # of (generator, ±1) letters


# -- Wirtinger presentation ------------------------------------------------


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple[int, ...]
    relators: tuple[Word, ...]


@derived
def _arc_reps(D: LinkDiagram) -> dict[int, int]:
    """Merge PD edge labels across over-passes: the over-strand is unbroken,
    so its two edge labels carry the same group generator.  Representative =
    smallest label in the merged class.  The result is shared, so it must
    not be mutated."""
    return _class_roots(
        [arc for comp in D.components for arc in comp],
        [D.over_direction(k) for k in range(len(D.crossings))],
    )


def wirtinger(D: LinkDiagram) -> GroupPresentation:
    """One generator per (over-)arc, the smallest arc label of its class,
    and one conjugation relator per crossing.

    Relator k is ((out, -1), (over, -eps), (in, 1), (over, eps)): the
    under-strand of crossing k runs from arc in to arc out beneath the
    over-strand's generator over, and eps is the crossing sign, so the
    relation reads g_out = g_over^-eps * g_in * g_over^eps (the exponent
    pairing that keeps longitude Magnus coefficients cyclically consistent
    with our right-handed-crossing-is-positive sign rule)."""
    rep = _arc_reps(D)
    relators = []
    for k, (a, b, c, d) in enumerate(D.crossings):
        over, eps = rep[D.over_direction(k)[0]], D.signs[k]
        relators.append(((rep[c], -1), (over, -eps), (rep[a], 1), (over, eps)))
    return GroupPresentation(tuple(sorted(set(rep.values()))), tuple(relators))


def abelianize(P: GroupPresentation) -> HomologyGroup:
    """Abelianization of the presented group from the Smith normal form of
    the relator exponent matrix."""
    idx = {g: i for i, g in enumerate(P.generators)}
    rows = []
    for rel in P.relators:
        row = [0] * len(P.generators)
        for g, e in rel:
            row[idx[g]] += e
        rows.append(row)
    d = smith_normal_form(IntegerMatrix(len(rows), len(P.generators), rows)).diagonal
    return HomologyGroup(len(P.generators) - len(d), tuple(x for x in d if x > 1))


def longitude_words(D: LinkDiagram) -> tuple[Word, ...]:
    """Preferred (Seifert-framed) longitude of every component, as a word
    in arc generators: the signed over-strand generators met when
    traversing the component from its lowest arc, times meridian^(-writhe),
    the meridian being the generator of that arc."""
    rep = _arc_reps(D)
    # _trace lets an arc be the incoming under-arc a of at most one
    # crossing; no arc of a component that never passes under is one
    under = {
        a: (rep[D.over_direction(k)[0]], D.signs[k]) for k, (a, b, c, d) in enumerate(D.crossings)
    }
    words = []
    for comp, w in zip(D.components, D.writhes):
        word = [under[arc] for arc in comp if arc in under]
        word.extend([(rep[comp[0]], -1 if w > 0 else 1)] * abs(w))
        words.append(tuple(word))
    return tuple(words)


# -- truncated Magnus expansion --------------------------------------------


class MagnusSeries:
    """Integer power series in non-commuting variables z_1..z_n, truncated
    to words of length < q."""

    __slots__ = ("q", "terms")

    def __init__(self, q: int, terms: dict[tuple[int, ...], int] | None = None):
        if q < 2:
            raise ValueError("truncation degree must be at least 2")
        self.q = q
        self.terms = {w: c for w, c in (terms or {}).items() if c and len(w) < q}

    def coefficient(self, word: tuple[int, ...]) -> int:
        return self.terms.get(tuple(word), 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, MagnusSeries) and self.q == other.q and self.terms == other.terms

    def __mul__(self, other: "MagnusSeries") -> "MagnusSeries":
        q = self.q
        # the right factor's terms by degree, so that a left term of degree
        # d meets only the terms of degree below q - d
        by_degree: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(q)]
        for w, c in other.terms.items():
            if len(w) < q:
                by_degree[len(w)].append((w, c))
        out: dict[tuple[int, ...], int] = {}
        for w1, c1 in self.terms.items():
            for d in range(q - len(w1)):
                for w2, c2 in by_degree[d]:
                    w = w1 + w2
                    out[w] = out.get(w, 0) + c1 * c2
        return MagnusSeries(q, out)

    def __repr__(self) -> str:
        items = sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))
        return "MagnusSeries(" + " + ".join(f"{c}*z{list(w)}" for w, c in items) + ")"


# -- Milnor invariants -----------------------------------------------------


def _add_word_products(out: dict, left: list, right: list, k: int, shift: list, sign: int) -> None:
    """Add to out sign times the degree-k terms of left * right over left
    degrees 0 < i < k, for graded series with integer words: shift[d] is
    (n+1)**d, so a word u times a word v of degree d is u * shift[d] + v."""
    for i in range(1, k):
        right_terms = right[k - i].items()
        if not right_terms:
            continue
        m = shift[k - i]
        for u, c in left[i].items():
            u *= m
            c *= sign
            for v, d in right_terms:
                out[u + v] = out.get(u + v, 0) + c * d


def _meridian_series(D: LinkDiagram, q: int) -> dict[int, list[dict[int, int]]]:
    """Every arc generator as a graded Magnus series in the component
    meridian variables z_1..z_n (components numbered from 1), truncated at
    degree q, with integer words as in _add_word_products.

    An arc that is not a meridian begins at a crossing whose relation
    out = O^-eps * in * O^eps reads O * out = in * O (eps = 1) or
    out * O = O * in (eps = -1).  As O and in and out all start with 1,
    the degree-k terms of out are those of in plus products of terms of
    degree below k: degrees 2..q-1 are solved in turn, each arc after its
    in-arc."""
    rep = _arc_reps(D)
    meridians = {rep[comp[0]] for comp in D.components}
    defining = {}  # out -> (in, over, eps) of its first relator
    for (out, _), _, (inn, _), (over, eps) in reversed(wirtinger(D).relators):
        if out not in meridians:
            defining[out] = (inn, over, eps)
    # along a traced component an under-pass leads from its in-arc into the
    # arc it defines, so first appearance puts every arc after its in-arc
    order: list[int] = []
    solved = set(meridians)
    for comp in D.components:
        for arc in comp:
            if (g := rep[arc]) not in solved:
                if defining[g][0] not in solved:
                    raise InternalConsistencyError(f"arc {g} comes before its in-arc in the trace")
                solved.add(g)
                order.append(g)
    shift = [(D.component_count + 1) ** d for d in range(q)]
    var = {rep[arc]: c + 1 for c, comp in enumerate(D.components) for arc in comp}
    # by degree; a meridian is 1 + z exactly
    a = {g: [{0: 1}, {z: 1}] + [{} for _ in range(2, q)] for g, z in var.items()}
    for k in range(2, q):
        for g in order:
            i, o, eps = defining[g]
            inn, out, b = a[i], a[g], a[o]
            t = dict(inn[k])
            if eps == 1:
                _add_word_products(t, inn, b, k, shift, 1)
                _add_word_products(t, b, out, k, shift, -1)
            else:
                _add_word_products(t, b, inn, k, shift, 1)
                _add_word_products(t, out, b, k, shift, -1)
            out[k] = {w: c for w, c in t.items() if c}
    return a


def _word(w: int, k: int, base: int) -> tuple[int, ...]:
    """The letters of the degree-k integer word w."""
    return tuple(w // base**p % base for p in range(k - 1, -1, -1))


@derived
def _longitudes(D: LinkDiagram, q: int) -> tuple[MagnusSeries, ...]:
    """Magnus expansion at truncation q of every component's longitude,
    with arc generators rewritten as meridian series.

    Each letter is multiplied into the running graded product s in place.
    A letter g^+1 runs from the top degree down, so that every s_i it reads
    is still the old one: s_k += g_k + sum_{0<i<k} s_i g_{k-i}.  A letter
    g^-1 divides on the right, solving t * g = s from degree 1 up, where
    each s_i of lower degree already holds t_i:
    s_k -= g_k + sum_{0<i<k} s_i g_{k-i}."""
    series = _meridian_series(D, q)
    base = D.component_count + 1
    shift = [base**d for d in range(q)]
    out = []
    for word in longitude_words(D):
        s: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(1, q)]
        for g, e in word:
            a = series[g]
            for k in range(q - 1, 0, -1) if e == 1 else range(1, q):
                t = s[k]
                for w, c in a[k].items():
                    t[w] = t.get(w, 0) + e * c
                _add_word_products(t, s, a, k, shift, e)
        terms = {_word(w, k, base): c for k in range(q) for w, c in s[k].items() if c}
        out.append(MagnusSeries(q, terms))
    return tuple(out)


def milnor_mu(D: LinkDiagram, I: tuple[int, ...], q: int) -> int:
    """Milnor mu(l_1,...,l_p): the coefficient of z_{l_1}...z_{l_p-1} in the
    Magnus expansion of the longitude of component l_p, with arc generators
    rewritten as meridian words at truncation degree q.

    Components are numbered from 1.  Requires 2 <= p <= q; any such q gives
    the same integer.  The raw integer depends on fixed conventions (base
    meridians, rewriting order); only its residue mod Delta(I) is invariant.
    """
    p = len(I)
    if p < 2:
        raise DiagramError("index sequence must have length at least 2")
    if q < p:
        raise DiagramError(f"truncation degree {q} is below the index length {p}")
    n = D.component_count
    for l in I:
        if not 1 <= l <= n:
            raise DiagramError(f"component index {l} out of range 1..{n}")
    return _longitudes(D, q)[I[-1] - 1].coefficient(I[:-1])


@dataclass(frozen=True)
class MubarValue:
    indices: tuple[int, ...]
    mu: int
    delta: int  # gcd of lower-order mu values; 0 when all vanish
    residue: int  # mu mod delta (mu itself when delta = 0)

    def to_json(self) -> dict:
        return {
            "indices": list(self.indices),
            "mu": self.mu,
            "delta": self.delta,
            "mubar": f"{self.residue} mod {self.delta}" if self.delta else str(self.residue),
        }


def milnor_mubar(D: LinkDiagram, I: tuple[int, ...], q: int) -> MubarValue:
    """mu-bar(I) = mu(I) modulo Delta(I), where Delta(I) is the gcd of the
    mu values of all cyclic permutations of proper subsequences of I
    (gcd of the empty set is 0).  Each of those mu is read once."""
    I = tuple(I)
    value = milnor_mu(D, I, q)
    lower = {J[k:] + J[:k] for r in range(2, len(I)) for J in combinations(I, r) for k in range(r)}
    d = gcd(*(milnor_mu(D, J, q) for J in lower))
    return MubarValue(I, value, d, value % d if d else value)


def milnor_search(D: LinkDiagram, q: int) -> MubarValue | None:
    """The first mu-bar with a nonzero residue among the index sequences of
    length 3..q that use two or more components, shortest first, or None;
    called only when every linking number is 0.  mu(w + (j,)) is the
    coefficient of w in longitude j, so that is the least I = w + (j,), by
    length and then lexicographic order, over the longitude terms with
    |w| >= 2 and an index of w other than j.  Every shorter mu of I is 0,
    as the linking numbers are and a Seifert-framed longitude has no term
    in its own variable alone, so Delta(I) = 0 (Milnor, "Isotopy of links",
    1957); milnor_mubar re-checks it.  Truncation q suffices: mu(I) depends
    only on the longitude modulo the |I|-th lower central series term."""
    terms = [
        w + (j,)
        for j, longitude in enumerate(_longitudes(D, q), start=1)
        for w in longitude.terms
        if len(w) >= 2 and any(i != j for i in w)
    ]
    if not terms:
        return None
    value = milnor_mubar(D, min(terms, key=lambda I: (len(I), I)), q)
    if value.delta:
        raise InternalConsistencyError(
            f"mu-bar{value.indices} has Delta {value.delta}, but every shorter mu vanishes"
        )
    return value

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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd

from .complexes import _class_roots, derived
from .homology import HomologyGroup, InternalConsistencyError
from .exact_linalg import IntegerMatrix, smith_normal_form
from .links import DiagramError, LinkDiagram

Word = tuple  # of (generator, ±1) letters


class RewriteDepthError(RuntimeError):
    """An arc's in-arcs cycle without reaching a meridian."""


# -- Wirtinger presentation ------------------------------------------------


@dataclass(frozen=True)
class WirtingerRelation:
    out: int
    over: int
    eps: int  # crossing sign; the relation is out = over^-eps * in * over^eps
    inn: int

    @property
    def relator(self) -> Word:
        return ((self.out, -1), (self.over, -self.eps), (self.inn, 1), (self.over, self.eps))


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple[int, ...]
    relators: tuple[Word, ...]
    # diagram bookkeeping (empty for hand-built presentations)
    relations: tuple[WirtingerRelation, ...] = ()
    meridians: tuple[int, ...] = ()  # one generator per link component
    component_of: tuple[tuple[int, int], ...] = ()  # generator -> component index


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
    """One generator per (over-)arc, one conjugation relation per crossing:
    g_out = g_over^-sign * g_in * g_over^sign (the exponent pairing that
    keeps longitude Magnus coefficients cyclically consistent with our
    right-handed-crossing-is-positive sign rule).  The meridian of a
    component is the generator of its lowest-labelled arc."""
    rep = _arc_reps(D)
    gens = tuple(sorted(set(rep.values())))
    rels = []
    for k, (a, b, c, d) in enumerate(D.crossings):
        o_in, _ = D.over_direction(k)
        rels.append(WirtingerRelation(rep[c], rep[o_in], D.signs[k], rep[a]))
    meridians = tuple(rep[comp[0]] for comp in D.components)
    comp_of = tuple(
        (rep[arc], i) for i, comp in enumerate(D.components) for arc in comp
    )
    return GroupPresentation(
        gens,
        tuple(r.relator for r in rels),
        tuple(rels),
        meridians,
        tuple(sorted(set(comp_of))),
    )


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
    if not rows:
        return HomologyGroup(len(P.generators), ())
    snf = smith_normal_form(IntegerMatrix(len(rows), len(P.generators), rows))
    torsion = tuple(d for d in snf.diagonal if d > 1)
    rank = len(P.generators) - snf.rank
    return HomologyGroup(rank, torsion)


def longitude_word(D: LinkDiagram, j: int) -> Word:
    """Preferred (Seifert-framed) longitude of component j, as a word in
    arc generators: the signed over-strand generators met when traversing
    the component from its lowest arc, times meridian^(-writhe)."""
    if not 0 <= j < D.component_count:
        raise DiagramError(f"component index {j} out of range")
    rep = _arc_reps(D)
    comp = D.components[j]
    # _trace lets an arc be the incoming under-arc a of at most one
    # crossing; no arc of a component that never passes under is one
    under = {a: k for k, (a, b, c, d) in enumerate(D.crossings)}
    ends = [under[arc] for arc in comp if arc in under]
    word = [(rep[D.over_direction(k)[0]], D.signs[k]) for k in ends]
    w = D.writhes[j]
    meridian = rep[comp[0]]
    word.extend([(meridian, -1 if w > 0 else 1)] * abs(w))
    return tuple(word)


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

    @staticmethod
    def one(q: int) -> "MagnusSeries":
        return MagnusSeries(q, {(): 1})

    @staticmethod
    def generator(i: int, q: int, exp: int = 1) -> "MagnusSeries":
        """Expansion of m_i^exp: (1 + z_i)^exp, with the geometric series
        for negative exponents."""
        if exp >= 0:
            return MagnusSeries(q, {(i,) * k: comb(exp, k) for k in range(min(exp, q - 1) + 1)})
        n = -exp
        # (1+z)^-n = sum_k (-1)^k C(n+k-1, k) z^k
        return MagnusSeries(
            q, {(i,) * k: (-1) ** k * comb(n + k - 1, k) for k in range(q)}
        )

    def coefficient(self, word: tuple[int, ...]) -> int:
        return self.terms.get(tuple(word), 0)

    @property
    def constant_term(self) -> int:
        return self.terms.get((), 0)

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

    def inverse(self) -> "MagnusSeries":
        """Degree by degree: y_k = -(a_k + sum_{0<i<k} a_i y_{k-i})."""
        if self.constant_term != 1:
            raise ValueError("only series with constant term 1 are inverted")
        a: list[dict] = [{} for _ in range(self.q)]
        for w, c in self.terms.items():
            a[len(w)][w] = c
        y = [{(): 1}]
        for k in range(1, self.q):
            t = dict(a[k])
            _add_products(t, a, y, k)
            y.append({w: -c for w, c in t.items() if c})
        return MagnusSeries(self.q, {w: c for part in y for w, c in part.items()})

    def __repr__(self) -> str:
        items = sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))
        return "MagnusSeries(" + " + ".join(f"{c}*z{list(w)}" for w, c in items) + ")"


def magnus_expand(word: Word, variable_of: dict[int, int], q: int) -> MagnusSeries:
    """Expand a word in meridian symbols: each letter (g, e) becomes
    (1 + z_{variable_of[g]})^e, multiplied with truncation at degree q."""
    out = MagnusSeries.one(q)
    for g, e in word:
        out = out * MagnusSeries.generator(variable_of[g], q, e)
    return out


# -- Milnor invariants -----------------------------------------------------


def _add_products(out: dict, left: list, right: list, k: int, sign: int = 1) -> None:
    """Add to out sign times the degree-k terms of left * right over left
    degrees 0 < i < k; a graded series is a list of {word: coefficient}
    dicts indexed by degree."""
    for i in range(1, k):
        for u, c in left[i].items():
            for v, d in right[k - i].items():
                out[u + v] = out.get(u + v, 0) + sign * c * d


def _meridian_series(D: LinkDiagram, q: int) -> dict[int, MagnusSeries]:
    """Every arc generator as a Magnus series in the component meridian
    variables z_1..z_n (components numbered from 1), truncated at degree q.

    An arc that is not a meridian begins at a crossing whose relation
    out = O^-eps * in * O^eps reads O * out = in * O (eps = 1) or
    out * O = O * in (eps = -1).  As O and in and out all start with 1,
    the degree-k terms of out are those of in plus products of terms of
    degree below k: degrees 2..q-1 are solved in turn, each arc after its
    in-arc."""
    P = wirtinger(D)
    defining = {rel.out: rel for rel in reversed(P.relations) if rel.out not in P.meridians}
    order: list[int] = []  # every arc after its in-arc
    for g in sorted(defining):
        chain: list[int] = []
        while g in defining and g not in order:
            if g in chain:
                raise RewriteDepthError(f"the in-arcs of arc {g} cycle without reaching a meridian")
            chain.append(g)
            g = defining[g].inn
        order.extend(reversed(chain))
    # by degree; a meridian is 1 + z exactly
    a = {g: [{(): 1}, {(c + 1,): 1}] + [{} for _ in range(2, q)] for g, c in P.component_of}
    for k in range(2, q):
        for g in order:
            rel = defining[g]
            inn, out, b = a[rel.inn], a[g], a[rel.over]
            t = dict(inn[k])
            if rel.eps == 1:
                _add_products(t, inn, b, k)
                _add_products(t, b, out, k, -1)
            else:
                _add_products(t, b, inn, k)
                _add_products(t, out, b, k, -1)
            out[k] = {w: c for w, c in t.items() if c}
    return {g: MagnusSeries(q, {w: c for part in a[g] for w, c in part.items()}) for g in a}


@derived
def _longitudes(D: LinkDiagram, q: int) -> tuple[MagnusSeries, ...]:
    """Magnus expansion at truncation q of every component's longitude,
    with arc generators rewritten as meridian series."""
    series = _meridian_series(D, q)
    inverses: dict[int, MagnusSeries] = {}
    out = []
    for j in range(D.component_count):
        s = MagnusSeries.one(q)
        for g, e in longitude_word(D, j):
            if e == -1 and g not in inverses:
                inverses[g] = series[g].inverse()
            s = s * (series[g] if e == 1 else inverses[g])
        out.append(s)
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

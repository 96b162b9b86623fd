"""Planar link diagrams in PD notation: parsing, orientation tracing,
crossing signs, linking matrix, Seifert-algorithm data, and link-level
Helmholtz verdicts.

Conventions (fixed so signs are reproducible):
  - A crossing "X(a,b,c,d)" lists its four arc labels counterclockwise
    starting from the incoming under-strand; the under-strand runs a -> c.
  - "U(a)" declares a closed zero-crossing component with arc label a.
  - Each strand is walked once through the crossings and oriented by its
    under-passes; a component never passing under is oriented from its
    lowest arc label toward its lower-labelled neighbour (ties go to the
    lower crossing index, and b = d runs b -> d).
  - A right-handed crossing has sign +1 (the over-strand runs d -> b).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import gcd

from .complexes import _class_roots, derived


class DiagramError(ValueError):
    """Malformed PD text or inconsistent diagram."""


_TOKEN = re.compile(r"([XU])\(\s*(\d+(?:\s*,\s*\d+)*)\s*\)")


@dataclass(frozen=True)
class LinkDiagram:
    crossings: tuple[tuple[int, int, int, int], ...]
    unknot_arcs: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]  # arcs of each component in trace order
    signs: tuple[int, ...]  # per crossing
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def component_count(self) -> int:
        return len(self.components)

    def component_of(self, arc: int) -> int:
        i = _arc_components(self).get(arc)
        if i is None:
            raise DiagramError(f"unknown arc {arc}")
        return i

    @property
    def writhes(self) -> tuple[int, ...]:
        """Per-component writhe (signed self-crossings)."""
        w = [0] * self.component_count
        for k, (a, b, c, d) in enumerate(self.crossings):
            i, j = self.component_of(a), self.component_of(b)
            if i == j:
                w[i] += self.signs[k]
        return tuple(w)

    def over_direction(self, k: int) -> tuple[int, int]:
        """(incoming, outgoing) arc of the over-strand at crossing k."""
        a, b, c, d = self.crossings[k]
        return (b, d) if self.signs[k] == -1 else (d, b)

    def successor(self, arc: int) -> int:
        comp = self.components[self.component_of(arc)]
        return comp[(comp.index(arc) + 1) % len(comp)]


@derived
def _arc_components(D: LinkDiagram) -> dict[int, int]:
    """Arc -> index of its component.  The result is shared, so it must not
    be mutated."""
    return {arc: i for i, comp in enumerate(D.components) for arc in comp}


def parse_pd(text: str) -> LinkDiagram:
    """Parse PD text: whitespace/comma separated X(a,b,c,d) and U(a) tokens.

    Every arc label must occur exactly twice in crossings (or once in a U
    token); arcs are traced into closed oriented components.
    """
    stripped = re.sub(r"#[^\n]*", "", text)
    crossings: list[tuple[int, int, int, int]] = []
    unknots: list[int] = []
    consumed = re.sub(_TOKEN, "", stripped)
    if re.search(r"[^\s,]", consumed):
        raise DiagramError(f"unrecognized PD input near: {consumed.strip()[:40]!r}")
    for kind, args in _TOKEN.findall(stripped):
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


def _trace(crossings, unknots) -> LinkDiagram:
    # slot 4k + i holds label i of crossing k; a strand entering at slot s
    # leaves at s ^ 2, and other[s] is the other slot of the same arc
    labels = [arc for x in crossings for arc in x]
    slots: dict[int, list[int]] = {}
    for s, arc in enumerate(labels):
        slots.setdefault(arc, []).append(s)
    for arc in unknots:
        if arc in slots or unknots.count(arc) > 1:
            raise DiagramError(f"arc {arc} of a zero-crossing component reused")
    for arc, at in slots.items():
        if len(at) != 2:
            raise DiagramError(f"arc {arc} appears {len(at)} times (must be 2)")
    other = [0] * len(labels)
    for s, t in slots.values():
        other[s], other[t] = t, s

    components: list[tuple[int, ...]] = []
    signs = [0] * len(crossings)
    seen: set[int] = set()
    for start in sorted(slots):
        if start in seen:
            continue
        # walk the strand once, entering the second slot of its smallest arc
        entered = [slots[start][1]]
        while (s := other[entered[-1] ^ 2]) != entered[0]:
            entered.append(s)
        arcs = [labels[e] for e in entered]
        seen.update(arcs)
        # under-passes run a -> c, so entering at c (slot 2) means the walk
        # runs backwards; a strand that never passes under runs from its
        # smallest arc toward the lower-labelled neighbour, and the backward
        # neighbour wins ties since it sits at the lower slot
        unders = {e & 2 for e in entered if not e & 1}
        if len(unders) == 2:
            raise DiagramError(f"inconsistent orientation at arc {start}")
        flip = unders.pop() if unders else 2 * (arcs[-1] <= arcs[1 % len(arcs)])
        if flip:
            arcs[1:] = arcs[:0:-1]
        components.append(tuple(arcs))
        for e in entered:
            if e & 1:  # over-strand entering at b is left-handed, at d right-handed
                signs[e >> 2] = 1 if (e ^ flip) & 2 else -1
    for arc in sorted(unknots):
        components.append((arc,))
    return LinkDiagram(tuple(crossings), tuple(sorted(unknots)), tuple(components), tuple(signs))


# -- invariants ------------------------------------------------------------


def linking_matrix(D: LinkDiagram) -> list[list[int]]:
    """Symmetric matrix: entry (i,j), i != j, is lk(C_i, C_j) = half the
    signed count of crossings between components i and j; diagonal is the
    per-component writhe (a diagram quantity, not an invariant)."""
    n = D.component_count
    M = [[0] * n for _ in range(n)]
    for k, (a, b, c, d) in enumerate(D.crossings):
        i, j = D.component_of(a), D.component_of(b)
        if i == j:
            M[i][i] += D.signs[k]
        else:
            M[i][j] += D.signs[k]
            M[j][i] += D.signs[k]
    for i in range(n):
        for j in range(n):
            if i != j:
                if M[i][j] % 2:
                    raise DiagramError("odd inter-component crossing sum")
                M[i][j] //= 2
    return M


def check_planar(D: LinkDiagram) -> None:
    """Raise DiagramError unless the PD code is that of a planar diagram.

    Each crossing lists its arcs counterclockwise, so walking an arc to its
    other end and turning to the next slot there traces the corners of one
    face.  By Euler's formula a planar diagram of V crossings, whose
    crossing graph has C connected pieces, has F = V + 2C such faces (each
    piece counts its own outer face).
    """
    labels = [arc for x in D.crossings for arc in x]
    ends: dict[int, list[int]] = {}
    for s, arc in enumerate(labels):
        ends.setdefault(arc, []).append(s)
    other = [0] * len(labels)
    for s, t in ends.values():
        other[s], other[t] = t, s
    faces, seen = 0, [False] * len(labels)
    for start in range(len(labels)):
        faces += not seen[start]
        s = start
        while not seen[s]:
            seen[s] = True
            t = other[s]
            s = t - t % 4 + (t + 1) % 4
    V = len(D.crossings)
    C = len(set(_class_roots(range(V), [(s >> 2, t >> 2) for s, t in ends.values()]).values()))
    if faces != V + 2 * C:
        raise DiagramError(
            f"not a planar diagram: its corners trace {faces} faces, not V + 2C = {V + 2 * C}"
        )


def linking_number(D: LinkDiagram, i: int, j: int) -> int:
    n = D.component_count
    if not (0 <= i < n and 0 <= j < n):
        raise DiagramError(f"component indices must be in 0..{n - 1}, got {i} and {j}")
    if i == j:
        raise DiagramError("linking number needs two distinct components")
    return linking_matrix(D)[i][j]


@dataclass(frozen=True)
class SeifertPart:
    component_indices: tuple[int, ...]
    seifert_circles: int
    crossing_count: int
    link_components: int
    genus: int


@dataclass(frozen=True)
class SeifertData:
    seifert_circles: int
    crossing_count: int
    link_components: int
    genus: int  # total over split parts
    parts: tuple[SeifertPart, ...]

    def to_json(self) -> dict:
        return {
            "seifert_circles": self.seifert_circles,
            "crossing_count": self.crossing_count,
            "link_components": self.link_components,
            "genus": self.genus,
            "parts": [
                {
                    "components": list(p.component_indices),
                    "seifert_circles": p.seifert_circles,
                    "crossings": p.crossing_count,
                    "link_components": p.link_components,
                    "genus": p.genus,
                }
                for p in self.parts
            ],
        }


def seifert_data(D: LinkDiagram) -> SeifertData:
    """Seifert's algorithm on the oriented diagram: smooth every crossing
    coherently, count circles, and compute the genus of the resulting
    Seifert surface, per split part and in total."""
    # Seifert circles: orientation-coherent smoothing joins the incoming
    # under-arc with the outgoing over-arc and vice versa
    smoothing = []
    for k, (a, b, c, d) in enumerate(D.crossings):
        o_in, o_out = D.over_direction(k)
        smoothing += [(a, o_out), (o_in, c)]
    circle = _class_roots([arc for comp in D.components for arc in comp], smoothing)
    # split parts: components sharing a crossing belong to one part
    n = D.component_count
    part = _class_roots(
        range(n), [(D.component_of(a), D.component_of(b)) for a, b, c, d in D.crossings]
    )
    parts_map: dict[int, list[int]] = {}
    for i, root in part.items():
        parts_map.setdefault(root, []).append(i)
    parts = []
    for comp_idx in sorted(parts_map.values()):
        arcs = [arc for i in comp_idx for arc in D.components[i]]
        circles = len({circle[arc] for arc in arcs})
        cr = sum(
            1 for a, b, c, d in D.crossings if D.component_of(a) in comp_idx
        )
        mu = len(comp_idx)
        two_g = 2 - circles + cr - mu
        if two_g % 2:
            raise DiagramError("non-integral Seifert genus")
        parts.append(SeifertPart(tuple(comp_idx), circles, cr, mu, two_g // 2))
    total_circles = len(set(circle.values()))
    return SeifertData(
        total_circles,
        len(D.crossings),
        n,
        sum(p.genus for p in parts),
        tuple(parts),
    )


# -- Reidemeister-I reduction and verdicts ---------------------------------


def remove_kinks(D: LinkDiagram) -> LinkDiagram:
    """Greedily remove Reidemeister-I kinks (crossings where two cyclically
    adjacent slots carry the same arc) until none remain.  A diagram
    without kinks is returned itself."""
    crossings = list(D.crossings)
    unknots = list(D.unknot_arcs)
    changed = True
    while changed:
        changed = False
        for k, x in enumerate(crossings):
            a, b, c, d = x
            pairs = [(a, b), (b, c), (c, d), (d, a)]
            if not any(p == q for p, q in pairs):
                continue
            loop = next(p for p, q in pairs if p == q)
            rest = [arc for arc in x if arc != loop]
            del crossings[k]
            if not rest:  # 1-crossing unknot component
                unknots.append(loop)
            else:
                keep, drop = min(rest), max(rest)
                if keep == drop:  # figure-eight shaped single crossing
                    unknots.append(keep)
                else:
                    crossings = [
                        tuple(keep if arc == drop else arc for arc in x2)
                        for x2 in crossings
                    ]
                    if not any(keep in x2 for x2 in crossings):
                        unknots.append(keep)
            changed = True
            break
    if len(crossings) == len(D.crossings):
        return D
    return _trace(crossings, unknots)


@dataclass(frozen=True)
class LinkVerdict:
    helmholtz: str  # yes / no / unknown
    weakly_helmholtz: str
    certificates: tuple[dict, ...]

    def to_json(self) -> dict:
        return {
            "helmholtz": self.helmholtz,
            "weakly_helmholtz": self.weakly_helmholtz,
            "certificates": list(self.certificates),
        }


def link_helmholtz_verdict(D: LinkDiagram, mubar_max_length: int = 4) -> LinkVerdict:
    """Three-valued Helmholtz / weakly-Helmholtz verdicts for a link.

    "yes" for Helmholtz only when the diagram reduces to a zero-crossing
    split unlink by kink removal (unknot recognition is out of scope);
    "no" only with a certificate: a nonzero linking number, or else the first
    nonzero Milnor residue of length <= mubar_max_length, which the search
    in groups takes from the first longitude term.  Everything else is
    "unknown".  Raises DiagramError when mubar_max_length is below 2.
    """
    if mubar_max_length < 2:
        raise DiagramError(f"mu-bar length must be at least 2, got {mubar_max_length}")
    certs: list[dict] = []
    reduced = remove_kinks(D)
    trivial = not reduced.crossings
    lk = linking_matrix(D)
    n = D.component_count
    for i in range(n):
        for j in range(i + 1, n):
            if lk[i][j]:
                certs.append(
                    {"type": "linking_number", "components": [i + 1, j + 1], "value": lk[i][j]}
                )
    if not certs and n >= 2:
        from .groups import milnor_search

        if val := milnor_search(D, mubar_max_length):
            certs.append(
                {
                    "type": "milnor_mubar",
                    "indices": list(val.indices),
                    "mu": val.mu,
                    "delta": val.delta,
                    "residue": val.residue,
                }
            )
    if trivial:
        helm = "yes"
    elif certs:
        helm = "no"
    else:
        helm = "unknown"
    if n <= 1:
        weak = "yes"
    elif certs:
        weak = "no"
    elif trivial:
        weak = "yes"
    else:
        weak = "unknown"
    return LinkVerdict(helm, weak, tuple(certs))


_DIAGRAMS = ("hopf", "trefoil", "trefoil4", "whitehead", "unlink2")


def diagram_names() -> tuple[str, ...]:
    return _DIAGRAMS


def diagram(name: str) -> LinkDiagram:
    """Bundled diagram by name: hopf, trefoil, trefoil4 (kinked 4-crossing
    trefoil), whitehead, unlink2 (split 2-component unlink)."""
    if name not in _DIAGRAMS:
        raise DiagramError(f"unknown diagram {name!r}; have {', '.join(_DIAGRAMS)}")
    from importlib import resources

    text = resources.files("helmcut.data").joinpath(f"{name}.pd").read_text()
    return parse_pd(text)


def mirror_diagram(D: LinkDiagram) -> LinkDiagram:
    """Switch every crossing (over <-> under), keeping the projection: the
    PD tuple is rewritten to start at the old over-strand's incoming arc."""
    out = []
    for k, (a, b, c, d) in enumerate(D.crossings):
        if D.signs[k] == -1:  # over-strand runs b -> d
            out.append((b, c, d, a))
        else:  # over-strand runs d -> b
            out.append((d, a, b, c))
    return _trace(out, list(D.unknot_arcs))

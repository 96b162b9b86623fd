"""Seeded input descriptions for the three workloads.

Everything here is plain data made from a random.Random seeded by the
command line; nothing imports helmcut.  The same seed always gives the
same inputs, and every input within one run is distinct, so no cache of
the program is hit by a repeated input unless a workload repeats one on
purpose.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracles

Point = tuple[int, int, int]

# -- census: cube sets and lattice links --------------------------------------

PLATE_SIDE = 13  # 13 x 13 x 1 cubes, about 1000 tetrahedra
BOX_SIDES = (6, 6, 5)  # 180 cubes, about 1080 tetrahedra
TUBE_GAP = 5  # smallest lattice distance between two link components


@dataclass(frozen=True)
class DomainInput:
    kind: str  # "plate", "cavity_box" or "link_box"
    cubes: tuple[Point, ...] = ()  # cube-set description (min corners)
    paths_text: str = ""  # lattice-path description, one component a line
    rectangles: tuple[tuple[Point, ...], ...] = ()
    holes: int = 0
    cavities: int = 0

    @property
    def expected_betti(self) -> tuple[int, int, int, int]:
        k = len(self.rectangles)
        return (1, self.holes + k, self.cavities + k, 0)


def _separated(cells) -> bool:
    return all(
        max(abs(a - b) for a, b in zip(p, q)) >= 2
        for i, p in enumerate(cells)
        for q in cells[i + 1:]
    )


def _pick_separated(rng: random.Random, candidates: list, count: int) -> list:
    """count cells, pairwise at lattice distance >= 2, so the removed cubes
    share no vertex and the domain stays a manifold."""
    while True:
        cells = rng.sample(candidates, count)
        if _separated(cells):
            return sorted(cells)


def plate(rng: random.Random, holes: int) -> DomainInput:
    """13 x 13 plate with single-square holes: a genus-`holes` handlebody."""
    n = PLATE_SIDE
    inner = [(x, y) for x in range(1, n - 1) for y in range(1, n - 1)]
    removed = set(_pick_separated(rng, inner, holes))
    cubes = tuple((x, y, 0) for x in range(n) for y in range(n) if (x, y) not in removed)
    return DomainInput("plate", cubes=cubes, holes=holes)


def cavity_box(rng: random.Random, cavities: int) -> DomainInput:
    """6 x 6 x 5 box with unit cavities: a ball minus `cavities` balls."""
    sx, sy, sz = BOX_SIDES
    inner = [
        (x, y, z) for x in range(1, sx - 1) for y in range(1, sy - 1) for z in range(1, sz - 1)
    ]
    removed = set(_pick_separated(rng, inner, cavities))
    cubes = tuple(
        (x, y, z)
        for x in range(sx)
        for y in range(sy)
        for z in range(sz)
        if (x, y, z) not in removed
    )
    return DomainInput("cavity_box", cubes=cubes, cavities=cavities)


def rectangle(normal: int, level: int, u_span, v_span, reverse: bool) -> tuple[Point, ...]:
    """Closed unit-step path around an axis-aligned rectangle in the plane
    coordinate[normal] = level, spanning u_span x v_span in the other two
    axes (in increasing axis order)."""
    u, v = [a for a in range(3) if a != normal]
    (u0, u1), (v0, v1) = u_span, v_span
    corners = [(u0, v0), (u1, v0), (u1, v1), (u0, v1)]
    pts = []
    for (a0, b0), (a1, b1) in zip(corners, corners[1:] + corners[:1]):
        da, db = (a1 > a0) - (a1 < a0), (b1 > b0) - (b1 < b0)
        a, b = a0, b0
        while (a, b) != (a1, b1):
            p = [0, 0, 0]
            p[normal], p[u], p[v] = level, a, b
            pts.append(tuple(p))
            a, b = a + da, b + db
    if reverse:
        pts = pts[:1] + pts[:0:-1]
    return tuple(pts)


def _translate(path, offset):
    return tuple(tuple(c + o for c, o in zip(p, offset)) for p in path)


def _paths_text(paths) -> str:
    return "\n".join(
        ";".join(f"{x},{y},{z}" for x, y, z in list(path) + [path[0]]) for path in paths
    ) + "\n"


def link_box(rng: random.Random, linked: bool) -> DomainInput:
    """Box-domain of one rectangle (an unknot, 6 x 5) or of two rectangles
    forming a Hopf link (10 x 10 square pierced by a 10 x 10 rectangle).

    Orientation, traversal directions and position vary with the seed;
    sizes are fixed so every seed does the same amount of work.
    """
    normal = rng.randrange(3)
    offset = tuple(rng.randrange(0, 8) for _ in range(3))
    if not linked:
        spans = [(0, 6), (0, 5)]
        rng.shuffle(spans)
        rects = [rectangle(normal, 0, spans[0], spans[1], rng.random() < 0.5)]
    else:
        # square in the plane normal=0; the second rectangle lies in the
        # plane v=5 (v one of the square's in-plane axes) and passes
        # through the square's disk at u=5
        u, v = [a for a in range(3) if a != normal]
        if rng.random() < 0.5:
            u, v = v, u
        a = rectangle(normal, 0, (0, 10), (0, 10), rng.random() < 0.5)
        # rectangle() spans its in-plane axes in increasing axis order
        spans = {u: (5, 15), normal: (-5, 5)}
        lo, hi = sorted((u, normal))
        b = rectangle(v, 5, spans[lo], spans[hi], rng.random() < 0.5)
        rects = [a, b]
    shift = tuple(o + 6 for o in offset)  # keep coordinates positive
    rects = [_translate(r, shift) for r in rects]
    for i, p in enumerate(rects):
        for q in rects[i + 1:]:
            gap = min(max(abs(s - t) for s, t in zip(x, y)) for x in p for y in q)
            if gap < TUBE_GAP:
                raise AssertionError("generated tubes closer than the tube gap")
    return DomainInput("link_box", paths_text=_paths_text(rects), rectangles=tuple(rects))


def census_inputs(rng: random.Random) -> list[DomainInput]:
    """One round: 12 plates (genus 1-4) and 6 cavity boxes (1-3 cavities),
    two plates to a box, then one unknot box and one Hopf-link box.

    Boxes are the cheaper domains, so with twice as many plates the median
    falls inside the plates' spread rather than on the edge between the two
    kinds.  The order is fixed so that the memory the caches hold when the
    largest domain arrives is the same for every seed."""
    out: list[DomainInput] = []
    seen: set = set()
    for i in range(6):
        shapes = ((plate, 1 + (2 * i) % 4), (plate, 2 + (2 * i) % 4), (cavity_box, 1 + i % 3))
        for make, count in shapes:
            while True:
                d = make(rng, count)
                if d.cubes not in seen:
                    seen.add(d.cubes)
                    out.append(d)
                    break
    out.append(link_box(rng, linked=False))
    out.append(link_box(rng, linked=True))
    return out


def census_warmup() -> DomainInput:
    """A 3 x 3 x 1 ring (solid torus): not produced by census_inputs."""
    cubes = tuple((x, y, 0) for x in range(3) for y in range(3) if (x, y) != (1, 1))
    return DomainInput("plate", cubes=cubes, holes=1)


# -- cuts: plates with meridian disks ---------------------------------------


@dataclass(frozen=True)
class PlateSystem:
    squares: tuple[tuple[int, int], ...]
    disks: tuple[tuple[int, int, int], ...]  # (x, y, axis) square faces

    @property
    def genus(self) -> int:
        return oracles.plate_b1(self.squares)


def _handle_plate(genus: int, transpose: bool) -> list[tuple[int, int]]:
    """3 x (2g + 1) squares with holes at (2i + 1, 1): the thinnest genus-g
    plate."""
    holes = {(2 * i + 1, 1) for i in range(genus)}
    sq = [(x, y) for x in range(2 * genus + 1) for y in range(3) if (x, y) not in holes]
    return sorted((y, x) if transpose else (x, y) for x, y in sq)


def _disk_candidates(squares) -> list[tuple[int, int, int]]:
    """Faces between two plate squares whose shared edge runs from boundary
    to boundary: both its end points have fewer than four squares around."""
    sq = set(squares)

    def on_boundary(x, y):
        return sum((x - dx, y - dy) in sq for dx in (0, 1) for dy in (0, 1)) < 4

    out = []
    for x, y in sorted(sq):
        for axis in (0, 1):
            t = (x + (axis == 0), y + (axis == 1))
            if t not in sq:
                continue
            ends = _disk_ends((x, y, axis))
            if all(on_boundary(*e) for e in ends):
                out.append((x, y, axis))
    return out


def _disk_ends(face):
    x, y, axis = face
    if axis == 0:
        return ((x + 1, y), (x + 1, y + 1))
    return ((x, y + 1), (x + 1, y + 1))


def plate_system(rng: random.Random, genus: int, disks: int) -> PlateSystem:
    """Genus-g plate with `disks` seed-placed disks that share no vertex
    (surfaces of a system must be disjoint)."""
    squares = _handle_plate(genus, rng.random() < 0.5)
    candidates = _disk_candidates(squares)
    while True:
        chosen = rng.sample(candidates, disks)
        ends = [e for f in chosen for e in _disk_ends(f)]
        if len(set(ends)) == len(ends):
            return PlateSystem(tuple(squares), tuple(sorted(chosen)))


@dataclass(frozen=True)
class CutsRound:
    classify: tuple[PlateSystem, ...]  # classified once each
    search: PlateSystem  # subset search over more disks than the genus


def cuts_inputs(rng: random.Random) -> CutsRound:
    """One round: a genus-1 plate with two disks (classified, then searched
    for minimal weak subsets) and a genus-2 plate with three disks.  The
    trefoil fiber is added by the workload."""
    g1 = plate_system(rng, 1, 2)
    g2 = plate_system(rng, 2, 3)
    return CutsRound((g1, g2), g1)


# -- links: braid closures ----------------------------------------------------


@dataclass(frozen=True)
class BraidInput:
    strands: int
    word: tuple[int, ...]
    variant: str  # "base", "rotated" or "mirrored"
    family: int  # index of the base word this variant comes from

    @property
    def components(self) -> int:
        return max(oracles.braid_strand_components(self.strands, list(self.word))) + 1


def braid_pd(strands: int, word) -> tuple[str, dict[int, int]]:
    """PD code of the braid closure, plus the start position of the strand
    each arc label lies on.

    Strands run upwards; at a letter on positions i, i+1 the incoming arcs
    are bottom-left (BL) and bottom-right (BR), the outgoing ones top-left
    (TL) and top-right (TR).  Counterclockwise from BL the ends are BL, BR,
    TR, TL.  For +i the BL -> TR strand is over, so the tuple starts at the
    incoming under end BR: X(BR, TR, TL, BL).  For -i it is under:
    X(BL, BR, TR, TL).
    """
    pos = list(range(1, strands + 1))  # arc label at each position
    start = {p + 1: p for p in range(strands)}  # arc label -> strand start
    at = list(range(strands))  # strand start now at each position
    nxt = strands + 1
    crossings = []
    for letter in word:
        i = abs(letter) - 1
        bl, br = pos[i], pos[i + 1]
        tl, tr = nxt, nxt + 1
        nxt += 2
        crossings.append((br, tr, tl, bl) if letter > 0 else (bl, br, tr, tl))
        at[i], at[i + 1] = at[i + 1], at[i]
        start[tl], start[tr] = at[i], at[i + 1]
        pos[i], pos[i + 1] = tl, tr
    # closing the braid: the top arc at each position is the bottom arc
    closing = {top: bottom for top, bottom in zip(pos, range(1, strands + 1))}
    crossings = [tuple(closing.get(a, a) for a in x) for x in crossings]
    used = sorted({a for x in crossings for a in x})
    label = {a: k + 1 for k, a in enumerate(used)}
    text = " ".join("X({},{},{},{})".format(*(label[a] for a in x)) for x in crossings)
    return text, {label[a]: start[a] for a in used}


def _under_components(strands: int, word) -> set[int]:
    comp = oracles.braid_strand_components(strands, list(word))
    at = list(range(strands))
    out = set()
    for letter in word:
        i = abs(letter) - 1
        out.add(comp[at[i + 1] if letter > 0 else at[i]])
        at[i], at[i + 1] = at[i + 1], at[i]
    return out


def _acceptable(strands: int, word, family: str) -> bool:
    """Every generator is used (so every strand has a crossing and the
    closure has exactly `strands` Seifert circles) and every component
    passes under somewhere (a PD code orients a component by its
    under-passes)."""
    if {abs(x) for x in word} != set(range(1, strands)):
        return False
    comp = oracles.braid_strand_components(strands, list(word))
    k = max(comp) + 1
    if _under_components(strands, word) != set(range(k)):
        return False
    lk = oracles.braid_linking_matrix(strands, list(word))
    nonzero = any(any(row) for row in lk)
    if family == "knot":
        return k == 1
    if family == "linked":
        return k >= 2 and nonzero
    return k in (2, 3) and not nonzero  # "unlinked": every linking number zero


# (family, strands, word length); the "unlinked" words are the ones whose
# verdict needs the Milnor search, and are kept to 2-3 components and short
# words so that one verdict stays within about a second
# (a closure is a knot only if the word's parity matches an n-cycle's, n - 1)
_BASE_SHAPES = (
    [("knot", n, 3 * n - 1) for n in (2, 3, 4, 5)]
    + [("linked", n, 3 * n) for n in (2, 3, 4, 5)]
    + [("unlinked", n, length) for n, length in ((3, 8), (3, 10), (4, 10), (4, 12), (5, 8))]
)
BORROMEAN = (3, (1, -2) * 3)


def _variants(family: int, strands: int, word, rng: random.Random) -> list[BraidInput]:
    r = rng.randrange(1, len(word))
    return [
        BraidInput(strands, tuple(word), "base", family),
        BraidInput(strands, tuple(word[r:] + word[:r]), "rotated", family),
        BraidInput(strands, tuple(-x for x in word), "mirrored", family),
    ]


def links_inputs(rng: random.Random, repeats: int = 17) -> list[BraidInput]:
    """One round: `repeats` words of every base shape plus the Borromean
    rings, each as given, cyclically rotated and mirrored."""
    out: list[BraidInput] = []
    seen = {BORROMEAN[1]}
    out += _variants(0, *BORROMEAN, rng)
    for _ in range(repeats):
        for family, strands, length in _BASE_SHAPES:
            letters = [s * i for i in range(1, strands) for s in (1, -1)]
            for _ in range(100_000):
                word = tuple(rng.choice(letters) for _ in range(length))
                if word not in seen and _acceptable(strands, word, family):
                    break
            else:
                raise RuntimeError(f"no acceptable {family} word on {strands} strands")
            seen.add(word)
            out += _variants(len(out) // 3, strands, word, rng)
    return out


def links_warmup() -> BraidInput:
    """sigma_1 sigma_1^-1 sigma_2 sigma_2^-1: a three-component unlink
    drawn with crossings, so its verdict runs the whole Milnor search.
    Generated words are longer, so it is not in any round."""
    return BraidInput(3, (1, -1, 2, -2), "base", -1)

"""Reference answers computed without helmcut.

Each oracle works from the generator's own description of an input (a
braid word, a list of lattice rectangles, a plate of unit squares), never
from a helmcut object, so a check that compares against it tests the
program rather than agreeing with itself.
"""

from __future__ import annotations

from itertools import combinations

# -- braid closures ---------------------------------------------------------
#
# A braid word on n strands is a list of nonzero ints: +i is sigma_i (the
# strand at position i crosses over the strand at position i + 1, a positive
# crossing), -i is its inverse.  Positions are numbered 1..n.


def braid_strand_components(n: int, word: list[int]) -> list[int]:
    """Component index of the strand that starts at each position.

    Closing the braid joins the end of position p to the start of position
    p, so components are the cycles of the braid permutation; they are
    numbered in order of their smallest starting position.
    """
    perm = list(range(n))  # perm[p] = position where the strand starting at p ends
    at = list(range(n))  # at[q] = starting position of the strand now at q
    for letter in word:
        i = abs(letter) - 1
        at[i], at[i + 1] = at[i + 1], at[i]
    for q, p in enumerate(at):
        perm[p] = q
    comp = [-1] * n
    count = 0
    for p in range(n):
        if comp[p] >= 0:
            continue
        q = p
        while comp[q] < 0:
            comp[q] = count
            q = perm[q]
        count += 1
    return comp


def braid_linking_matrix(n: int, word: list[int]) -> list[list[int]]:
    """Pairwise linking numbers of the closure: half the signed count of the
    letters whose two strands belong to distinct components.  The diagonal
    is zero."""
    comp = braid_strand_components(n, word)
    k = max(comp) + 1
    twice = [[0] * k for _ in range(k)]
    at = list(range(n))
    for letter in word:
        i = abs(letter) - 1
        a, b = comp[at[i]], comp[at[i + 1]]
        if a != b:
            sign = 1 if letter > 0 else -1
            twice[a][b] += sign
            twice[b][a] += sign
        at[i], at[i + 1] = at[i + 1], at[i]
    for row in twice:
        for j, v in enumerate(row):
            if v % 2:
                raise ValueError("odd crossing count between two components")
            row[j] = v // 2
    return twice


# -- lattice rectangles ------------------------------------------------------


def _rectangle_frame(path: list[tuple[int, int, int]]):
    """(normal axis, plane level, in-plane axes, open box, orientation sign)
    of a closed lattice path that is the boundary of an axis-aligned
    rectangle."""
    normal = [a for a in range(3) if len({p[a] for p in path}) == 1]
    if len(normal) != 1:
        raise ValueError("path is not a planar rectangle")
    k = normal[0]
    u, v = [a for a in range(3) if a != k]
    us = [p[u] for p in path]
    vs = [p[v] for p in path]
    box = (min(us), max(us), min(vs), max(vs))
    for p in path:
        if p[u] not in box[:2] and p[v] not in box[2:]:
            raise ValueError("path point off the rectangle boundary")
    # shoelace area in the (u, v) plane; (u, v, k) is a cyclic order of the
    # axes exactly when v == (u + 1) % 3
    area2 = 0
    closed = list(path) + [path[0]]
    for p, q in zip(closed, closed[1:]):
        area2 += p[u] * q[v] - q[u] * p[v]
    sign = 1 if area2 > 0 else -1
    if v != (u + 1) % 3:
        sign = -sign
    return k, path[0][k], u, v, box, sign


def rectangle_linking_number(
    a: list[tuple[int, int, int]], b: list[tuple[int, int, int]]
) -> int:
    """Linking number of two closed lattice paths, the first of which bounds
    an axis-aligned rectangle: the signed count of the unit steps of b that
    pass through the flat disk spanned by a.

    A step of b counts when it leaves the disk's plane from a point strictly
    inside the rectangle (+1 along a's right-hand normal, -1 against it),
    so a path that touches the plane and returns counts zero.
    """
    k, level, u, v, (u0, u1, v0, v1), sign = _rectangle_frame(a)
    total = 0
    closed = list(b) + [b[0]]
    for p, q in zip(closed, closed[1:]):
        for at, other, direction in ((p, q, 1), (q, p, -1)):
            # a step from the plane level upwards (direction +1) or back
            # down onto it (direction -1)
            if at[k] == level and other[k] == level + 1:
                if u0 < at[u] < u1 and v0 < at[v] < v1:
                    total += direction * sign
    return total


# -- plates ------------------------------------------------------------------
#
# A plate is a set of unit squares (x, y); the domain is the plate times
# [0, 1].  A cut is a square face (x, y, axis) of the domain: the face
# between square (x, y) and its neighbour one step along axis (0 = x,
# 1 = y), which in the plate is the edge the two squares share.


def _find(parent: dict, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: dict, x, y) -> None:
    rx, ry = _find(parent, x), _find(parent, y)
    if rx != ry:
        parent[rx] = ry


def _corners(sq):
    x, y = sq
    return ((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1))


def plate_cut_pieces(squares, cuts=()) -> list[int]:
    """Sorted b1 of each piece of the plate cut along the given faces.

    The cut plate is the planar cell complex of the squares, glued along
    the shared edges that are not cut.  Pieces come from union-find over
    those gluings; a corner (edge) of the cut complex is a class of square
    corners (sides) identified through them.  For a planar piece b2 = 0,
    so b1 = 1 - chi with chi = V - E + F.
    """
    squares = set(squares)
    cut = {(x, y, axis) for x, y, axis in cuts}
    pieces = {s: s for s in squares}
    verts = {(s, c): (s, c) for s in squares for c in _corners(s)}
    edges = {(s, side): (s, side) for s in squares for side in range(4)}
    for s in squares:
        for axis in (0, 1):
            t = (s[0] + (axis == 0), s[1] + (axis == 1))
            if t not in squares or (s[0], s[1], axis) in cut:
                continue
            _union(pieces, s, t)
            # side 1 is x = x0 + 1, side 3 is y = y0 + 1; their opposites
            # on the neighbour are side 0 (x = x0) and side 2 (y = y0)
            _union(edges, (s, 1 if axis == 0 else 3), (t, 0 if axis == 0 else 2))
            shared = [c for c in _corners(s) if c in _corners(t)]
            for c in shared:
                _union(verts, (s, c), (t, c))
    chi: dict = {}
    for s in squares:
        root = _find(pieces, s)
        chi[root] = chi.get(root, 0) + 1
    for key in verts:
        if _find(verts, key) == key:
            root = _find(pieces, key[0])
            chi[root] += 1
    for key in edges:
        if _find(edges, key) == key:
            root = _find(pieces, key[0])
            chi[root] -= 1
    return sorted(1 - c for c in chi.values())


def plate_b1(squares) -> int:
    """b1 of the uncut (connected) plate."""
    (b1,) = plate_cut_pieces(squares)
    return b1


def plate_minimal_subsets(squares, cuts) -> list[tuple[int, ...]]:
    """Index tuples of the subsets of size b1 whose cut leaves one piece
    with b1 = 0 (one connected, simply connected piece)."""
    b1 = plate_b1(squares)
    return [
        idx
        for idx in combinations(range(len(cuts)), b1)
        if plate_cut_pieces(squares, [cuts[i] for i in idx]) == [0]
    ]

"""Domain-level invariants and verdicts for compact triangulated domains.

A "domain complex" stands for the closure of a bounded domain in R^3 with
smooth-enough boundary: a connected, orientable, compact 3-manifold with
non-empty boundary.  Every entry point here first runs the one domain
check, complexes.check_domain.  On a simplicial complex it is: pure
3-dimensional, at most two tetrahedra on a triangle, non-empty boundary,
connected, every boundary component a closed surface, orientable, and
2 chi(K) = chi(boundary), in this order; its docstring says what it
misses.  On a union of unit cubes (builders.CubeComplex) it is exact: a
vertex table and face-connectivity.

This module computes the boundary decomposition, the standard numerical
identities, the kernel of the boundary inclusion on first homology, the
skew intersection form on each boundary surface, and the Lagrangian
obstruction.

Helmholtz conditions concern curl-free fields, whose classes are real
(de Rham) classes, so every verdict here reads H1(K) modulo torsion.

The homology of the domain itself comes by one of two routes.  In general
it is homology_of(K), a reduction of the 3-dimensional complex.  A cube
complex K, which lies in R^3, reads it off its boundary instead.  Let E
be the closure of S^3 - K.  Each boundary component S_k bounds one
component E_k of E, of which it is the whole boundary, since K is
connected; so Alexander duality (Hatcher, "Algebraic Topology", 2002,
Thm. 3.44), H~_i(K) = H~^(2-i)(E), gives H_*(K) = (Z, Z^G, Z^h, 0),
torsion-free, where G is the total genus of the boundary and h + 1 the
number of its components.  Mayer-Vietoris for S^3 = K u E gives H1(dK) =
H1(K) + H1(E), so the push-offs into E of a basis of H1(dK) span H1(E),
and the linking pairing of H1(K) with H1(E) is perfect (Rolfsen, "Knots
and Links", 1976, ch. 5): a boundary cycle bounds in K iff it links no
push-off of the boundary generators.  _linking_numbers counts these
linking numbers as signed crossings in one integer projection; the
push-offs and the reason no crossing is degenerate are in its docstring.
The 2G x 2G linking matrix must have rank G, or
InternalConsistencyError, and its rank is b1(K).  chi(K) is counted
from the cubes' cells, V - E + F - C, apart from the boundary, so
identities (i)-(iii) of analyze_domain stay checks against the
boundary's genera and b1, while (iv) and (v) restate the theorem.

On either route, H1 of each boundary surface has the basis of
_surface_basis, read off a spanning tree and a dual spanning tree, and
no reduction: it serves the boundary's b1, the boundary classes and the
intersection forms.  So analyze reduces nothing on a cube complex; cuts
and the homology command keep the reduction.

The routes never share a memo entry: a cube complex takes the duality
route and a plain copy of it, SimplicialComplex([K.simplices(d) for d in
range(4)]), the reduction, in either order of calls.  They give the same
Betti numbers and the same kernel lattice, in possibly different bases,
so a Lagrangian witness may differ between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Iterator, Mapping, Sequence

from .builders import CubeComplex, _decode_point
from .complexes import (
    ComplexError,
    NotADomainError,  # raised by as_domain, and importable from here too
    Simplex,
    SimplicialComplex,
    _check_closed_surface,
    as_domain,
    boundary_subcomplex,
    chain_boundary,
    connected_components,
    derived,
    euler_characteristic,
    face_index,
    orient_surface,
    surface_info,
)
from .exact_linalg import IntegerMatrix, SmithDecomposition, matmul, smith_normal_form
from .homology import (
    Chain,
    InternalConsistencyError,
    NotACycleError,
    homology_groups,
    homology_of,
)


def boundary_components(K: SimplicialComplex) -> tuple[SimplicialComplex, ...]:
    return connected_components(boundary_subcomplex(K))


# -- domain report ---------------------------------------------------------


@dataclass(frozen=True)
class DomainReport:
    boundary_component_count: int          # h + 1
    genus_list: tuple[int | None, ...]     # per boundary component
    chi: int
    betti: tuple[int, int, int, int]
    torsion_free: bool
    identity_checks: tuple[tuple[str, bool], ...]

    @property
    def all_checks_pass(self) -> bool:
        return all(ok for _, ok in self.identity_checks)

    def to_json(self) -> dict:
        return {
            "boundary_component_count": self.boundary_component_count,
            "genus_list": list(self.genus_list),
            "chi": self.chi,
            "betti": list(self.betti),
            "torsion_free": self.torsion_free,
            "identity_checks": {name: ok for name, ok in self.identity_checks},
            "all_checks_pass": self.all_checks_pass,
        }


def analyze_domain(K) -> DomainReport:
    """Numerical profile of a domain plus the standard identity checks:

    (i)   chi = 1 - b1 + b2
    (ii)  chi = (h+1) - sum of boundary genera, each genus b1(S)/2
    (iii) b1(boundary) = 2 b1
    (iv)  homology torsion-free in all degrees
    (v)   b3 = 0

    On a cube complex, (iv) and (v) restate Alexander duality (see the
    module docstring).
    """
    K = as_domain(K)
    genus_list = surface_info(boundary_subcomplex(K))
    h1 = len(genus_list)
    if isinstance(K, CubeComplex):
        # b1 is the rank of the linking matrix, which must be the total genus
        betti, torsion_free = (1, len(_boundary_classes(K).diagonal), h1 - 1, 0), True
    else:
        groups = homology_groups(K)
        betti, torsion_free = tuple(g.rank for g in groups), all(not g.torsion for g in groups)
    chi = euler_characteristic(K)
    b1_bd = sum(len(_surface_basis(S)) for S in boundary_components(K))
    checks = (
        ("chi_eq_1_minus_b1_plus_b2", chi == 1 - betti[1] + betti[2]),
        ("chi_eq_components_minus_genus", 2 * chi == 2 * h1 - b1_bd),
        ("boundary_b1_eq_twice_b1", b1_bd == 2 * betti[1]),
        ("torsion_free", torsion_free),
        ("b3_zero", betti[3] == 0),
    )
    return DomainReport(h1, genus_list, chi, betti, torsion_free, checks)


@dataclass(frozen=True)
class SimplicityReport:
    simple: bool
    b1: int
    b2: int
    boundary_component_count: int
    genus_list: tuple[int | None, ...]

    @property
    def profile_consistent(self) -> bool:
        """When simple: b2 = h and every boundary component is a sphere."""
        if not self.simple:
            return True
        return self.b2 == self.boundary_component_count - 1 and all(
            g == 0 for g in self.genus_list
        )

    def to_json(self) -> dict:
        return {
            "simple": self.simple,
            "b1": self.b1,
            "b2": self.b2,
            "boundary_component_count": self.boundary_component_count,
            "genus_list": list(self.genus_list),
            "profile_consistent": self.profile_consistent,
        }


def is_simple(K) -> SimplicityReport:
    """A domain is simple iff b1 = 0 (equivalently, every curl-free field
    is a gradient); simple domains have b2 = h and spherical boundary."""
    d = analyze_domain(K)
    _, b1, b2, _ = d.betti
    report = SimplicityReport(b1 == 0, b1, b2, d.boundary_component_count, d.genus_list)
    if report.simple and not report.profile_consistent:
        raise InternalConsistencyError("simple domain with non-simple profile")
    return report


# -- intersection form on a closed oriented surface ------------------------


@derived
def _vertex_fans(S: SimplicialComplex) -> dict[int, dict[Simplex, int]]:
    """For each vertex of a closed oriented surface: edge -> position in
    the positively-ordered fan.

    Walking the fan from an edge through the positively-oriented triangle
    between them yields the next edge counterclockwise.  Each fan starts at
    the vertex's smallest edge and orients the walk of complexes._surface_walks.
    """
    walks = _check_closed_surface(S)
    orientation = orient_surface(S)
    if orientation is None:
        raise ComplexError("surface is not orientable")
    index = face_index(S)
    start, edges, tris = index.coface_start[0], S.simplices(1), S.simplices(2)
    fans: dict[int, dict[Simplex, int]] = {}
    for p, (v,) in enumerate(S.simplices(0)):
        walk = walks[start[p]:start[p + 1]]
        # the walk leaves its first edge (v, x) through that edge's first
        # triangle t, so it runs counterclockwise iff x follows v in the
        # positive cyclic order of t
        t = tris[index.cofaces_of(1, walk[0])[0]]
        x = sum(edges[walk[0]]) - v
        if ((t.index(x) - t.index(v)) % 3 == 1) != (orientation[t] == 1):
            walk = walk[:1] + walk[:0:-1]
        fans[v] = {edges[q]: i for i, q in enumerate(walk)}
    return fans


def intersection_pairing(
    S: SimplicialComplex,
    z: Mapping[Simplex, int],
    w: Mapping[Simplex, int],
) -> int:
    """Algebraic intersection number of two 1-cycles on a closed oriented
    surface.

    The second cycle is pushed off itself to the left and its transversal
    crossings with the first are counted with signs; per vertex this
    reduces to counting, for each strand of w through the vertex, the fan
    edges carried by z inside the sector swept by the strand.  Raises
    ComplexError for an edge off S and NotACycleError for a non-cycle.
    """
    fans = _vertex_fans(S)
    return _pairing(z, _strand_ends(fans, z), w, _strand_ends(fans, w))


def _pairing(
    z: Mapping[Simplex, int], z_out: Mapping[int, list[tuple[int, int]]],
    w: Mapping[Simplex, int], w_out: Mapping[int, list[tuple[int, int]]],
) -> int:
    """intersection_pairing(S, z, w) from the strand ends of z and w."""
    total = 0
    for v, outs in z_out.items():
        # w-flow away from v counts against, as w flows into v
        for pf, wf in w_out.get(v, ()):
            for pe, zf in outs:
                if pe < pf:
                    total -= zf * wf
    # shared edges: the pushoff runs parallel to w and never crosses the
    # strand it was pushed off from
    return total - sum(z.get(e, 0) * wc for e, wc in w.items())


def _strand_ends(
    fans: Mapping[int, Mapping[Simplex, int]], cycle: Mapping[Simplex, int]
) -> dict[int, list[tuple[int, int]]]:
    """Vertex -> [(fan position, flow away from the vertex)] over the edges
    of a 1-cycle on the surface of the given fans."""
    ends: dict[int, list[tuple[int, int]]] = {}
    for e, c in cycle.items():
        if not c:
            continue
        if e not in fans.get(e[0], ()):
            raise ComplexError(f"edge {e} of the cycle is not an edge of the surface")
        for v, flow in zip(e, (c, -c)):
            ends.setdefault(v, []).append((fans[v][e], flow))
    if chain_boundary(cycle):
        raise NotACycleError("intersection_pairing needs 1-cycles")
    return ends


@derived
def _surface_basis(S: SimplicialComplex) -> tuple[Chain, ...]:
    """A basis of H1 of a closed connected surface S, memoized on S.

    T is a breadth-first spanning tree of the 1-skeleton from the smallest
    vertex, and C one of the dual graph, across the edges off T, from the
    smallest triangle; both take edges in the order of the sorted layers.
    The edges in neither number 2 - chi(S), 2g on an orientable S, and
    their fundamental cycles in T, each run along its edge from the first
    vertex to the second, are a basis of H1(S) (Eppstein, "Dynamic
    generators of topologically embedded graphs", SODA 2003; Erickson and
    Whittlesey, "Greedy optimal homotopy and homology generators", SODA
    2005).  A surface that either tree does not span raises
    InternalConsistencyError; intersection_form certifies the basis by
    its unimodular pairing."""
    _check_closed_surface(S)  # ComplexError unless two triangles on every edge
    index = face_index(S)
    # vertex-deletion order: edge q runs from ends[2q + 1] to ends[2q]
    ends, sides, edges = index.faces[1], index.cofaces[1], S.simplices(1)
    nv = len(S.simplices(0))
    up, depth, queue = [-1] * nv, [0] + [-1] * (nv - 1), [0]
    for p in queue:
        for q in index.cofaces_of(0, p):
            o = ends[2 * q] + ends[2 * q + 1] - p
            if depth[o] < 0:
                up[o], depth[o] = q, depth[p] + 1
                queue.append(o)
    off = [True] * len(edges)  # edge position -> in neither tree
    for q in up[1:]:
        off[q] = False
    seen = [True] + [False] * (len(S.simplices(2)) - 1)
    tris = [0]
    for t in tris:
        for q in index.faces_of(2, t):
            u = sides[2 * q] + sides[2 * q + 1] - t
            if off[q] and not seen[u]:
                off[q], seen[u] = False, True
                tris.append(u)
    if len(queue) != len(depth) or len(tris) != len(seen):
        raise InternalConsistencyError("the tree or the cotree does not span the surface")

    def climb(z: Chain, p: int, sign: int) -> int:
        """Add T's edge from p to its parent to z, run away from p with the
        given sign, and return the parent."""
        q = up[p]
        z[edges[q]] = sign if ends[2 * q + 1] == p else -sign
        return ends[2 * q] + ends[2 * q + 1] - p

    basis = []
    for q in compress(range(len(edges)), off):
        z, b, a = {edges[q]: 1}, ends[2 * q], ends[2 * q + 1]
        # back from b to a through T: up from both to their common ancestor
        while a != b:
            if depth[b] >= depth[a]:
                b = climb(z, b, 1)
            else:
                a = climb(z, a, -1)
        basis.append(z)
    return tuple(basis)


@derived
def intersection_form(S: SimplicialComplex) -> tuple[tuple[int, ...], ...]:
    """Pairing matrix of the intersection form on H1 of a closed oriented
    connected surface, on the tree-cotree basis _surface_basis(S).

    Consistency requirements (skew-symmetry, unimodularity) are enforced;
    a unimodular pairing of 2g cycles certifies that they are a basis.
    """
    fans = _vertex_fans(S)  # closed and orientable, or ComplexError
    gens = _surface_basis(S)
    n = len(gens)
    # each generator's strand ends are read once, for its row and its column
    ends = [_strand_ends(fans, z) for z in gens]
    M = [[_pairing(z, ze, w, we) for w, we in zip(gens, ends)] for z, ze in zip(gens, ends)]
    if any(M[i][j] != -M[j][i] for i in range(n) for j in range(n)):
        raise InternalConsistencyError("intersection form is not skew-symmetric")
    if n and smith_normal_form(IntegerMatrix(n, n, M)).diagonal != (1,) * n:
        raise InternalConsistencyError("intersection form is not unimodular")
    return tuple(map(tuple, M))


# -- kernel of the boundary inclusion --------------------------------------


@dataclass(frozen=True)
class BoundaryKernelData:
    components: tuple[SimplicialComplex, ...]
    # P_j per boundary component S_j: the nonzero projections of the basis
    # of Ker(i_*) into H1(S_j), in the H1(S_j) basis, which generate it
    projections: tuple[tuple[tuple[int, ...], ...], ...]


def kernel_of_boundary_inclusion(K) -> BoundaryKernelData:
    """Integer kernel of i_*: H1(boundary) -> H1(domain) modulo torsion, with
    per-component projections P_j; the integral kernel has finite index in
    it.  The rank must equal the total boundary genus.  A cube complex
    reads i_* off linking numbers (see the module docstring)."""
    return _boundary_kernel(as_domain(K))


@derived
def _boundary_kernel(K: SimplicialComplex) -> BoundaryKernelData:
    comps = boundary_components(K)
    snf = _boundary_classes(K)
    kernel = [tuple(r[j] for r in snf.V) for j in range(len(snf.diagonal), len(snf.V))]
    genus = sum(surface_info(boundary_subcomplex(K)))
    if len(kernel) != genus:
        raise InternalConsistencyError(f"kernel rank {len(kernel)} != total boundary genus {genus}")
    # each component's generators are a slice of the columns
    ends = list(accumulate(len(_surface_basis(S)) for S in comps))
    projections = tuple(
        tuple(vec[start:stop] for vec in kernel if any(vec[start:stop]))
        for start, stop in zip([0] + ends, ends)
    )
    return BoundaryKernelData(comps, projections)


# -- boundary classes in H1(K) modulo torsion ------------------------------


@derived
def _boundary_classes(K: SimplicialComplex) -> SmithDecomposition:
    """Smith form of the classes in H1(K) modulo torsion of the H1 bases
    _surface_basis of the boundary components, concatenated, one column
    each.  On a cube complex they are the cycles' linking numbers with the
    push-offs of the same cycles, and a rank other than the total boundary
    genus raises InternalConsistencyError; otherwise they are the free
    coordinates of homology_of(K).class_coords."""
    gens = [g for S in boundary_components(K) for g in _surface_basis(S)]
    if isinstance(K, CubeComplex):
        rows = _linking_numbers(K, gens)
    else:
        HK = homology_of(K)
        cols = [HK.class_coords(g, 1)[0] for g in gens]
        rows = [[c[i] for c in cols] for i in range(HK.betti(1))]
    snf = smith_normal_form(IntegerMatrix(len(rows), len(gens), rows))
    genus = sum(surface_info(boundary_subcomplex(K)))
    if isinstance(K, CubeComplex) and len(snf.diagonal) != genus:
        raise InternalConsistencyError(f"linking matrix of rank {len(snf.diagonal)} with total boundary genus {genus}")
    return snf


# the projection (x, y, z) -> (_A x + z, _B y + z) of _linking_numbers
_A, _B = 1000003, 1000033


def _linking_numbers(K: CubeComplex, cycles: Sequence[Chain]) -> list[list[int]]:
    """lk(z_j, z_i^+) for 1-cycles z_i of the boundary of a cube complex
    K: row i, column j.

    The push-off z_i^+ takes each edge (v, w) of z_i to the two segments
    from the push-off of v to that of the edge and on to that of w
    (K.pushed_point), all off K.  Coordinates are scaled by 16, so every
    vertex of either curve is a lattice point.

    lk(z, w) is the signed count of the crossings where z passes over w in
    the projection pi(x, y, z) = (A x + z, B y + z), A = 1000003, B =
    1000033, with over meaning larger z; a crossing counts +1 where z's
    direction turns counterclockwise (seen from above), through less than
    a half turn, onto w's.  Cycles count by linearity, so a chain needs no
    splitting into loops.

    No crossing is degenerate, that is, no vertex of either curve projects
    onto a segment of the other (overlapping segments and vertex on vertex
    are cases of this).  A segment runs from a point Q to Q + f with
    |f_i| <= 16: an edge of z, or half an edge of z^+, whose ends move by
    at most 4.  pi is one-to-one except along d = (B, A, -AB), so a vertex
    P on pi([Q, Q + f]) means P - Q = s f + t d, 0 <= s <= 1.  Scaled
    coordinates lie within 4 of 16 times encode_point's range -99..155, so
    each component of P - Q is at most 16 * 254 + 8, and the z component
    gives |t| AB <= 4088.  If f_x = 0, then t B is an integer of size
    below 1, so t = 0; likewise if f_y = 0.  Otherwise f_y (P - Q)_x -
    f_x (P - Q)_y = t (B f_y - A f_x) is an integer of size at most
    4088 * 16 (1/A + 1/B) < 1, so it is 0, and as A and B are distinct
    primes above 16, t = 0.  With t = 0 the curves meet, but z lies on
    the boundary of K and z^+ off K.  So every crossing is transversal at
    inner points, and its two points differ by t d, t != 0.  An endpoint
    hit all the same raises InternalConsistencyError.

    The two points of a crossing differ by less than 1 in scaled x and in
    y, and all ends are integers, so a segment of z^+ can only cross an
    edge of z whose scaled x and y ranges meet its own.  Each edge of z is
    filed under the unit column (x, y) of its least vertex, and each
    segment looks up the columns its ranges meet.
    """
    points: dict = {}  # vertex -> its scaled point, cell -> its push-off

    def scaled(v: int) -> tuple[int, int, int]:
        if v not in points:
            points[v] = tuple(16 * c for c in _decode_point(v))
        return points[v]

    def push(cell: Simplex) -> tuple[int, int, int]:
        if cell not in points:
            points[cell] = K.pushed_point(cell)
        return points[cell]

    columns: dict[tuple[int, int], list] = {}
    for j, z in enumerate(cycles):
        for e, c in z.items():
            P, Q = map(scaled, e)
            columns.setdefault((P[0] >> 4, P[1] >> 4), []).append((j, c, P, Q, _project(P), _project(Q)))
    rows = [[0] * len(cycles) for _ in cycles]
    for row, w in zip(rows, cycles):
        for (a, b), c in w.items():
            mid = push((a, b))
            for S, T in ((push((a,)), mid), (mid, push((b,)))):
                x0, x1 = sorted((S[0], T[0]))
                y0, y1 = sorted((S[1], T[1]))
                for x in range((x0 - 1) >> 4, (x1 >> 4) + 1):
                    for y in range((y0 - 1) >> 4, (y1 >> 4) + 1):
                        for j, zc, sign in _over_crossings(S, T, columns.get((x, y), ())):
                            row[j] += zc * c * sign
    return rows


def _project(p: tuple[int, int, int]) -> tuple[int, int]:
    x, y, z = p
    return _A * x + z, _B * y + z


def _over_crossings(S, T, edges) -> Iterator[tuple[int, int, int]]:
    """(cycle, coefficient, sign) of each crossing where one of the given
    cycle edges passes over the segment from S to T, by exact integer
    cross products (see _linking_numbers)."""
    (s0, s1), (t0, t1) = _project(S), _project(T)
    u0, u1 = t0 - s0, t1 - s1
    for j, c, P, Q, (p0, p1), (q0, q1) in edges:
        r0, r1 = q0 - p0, q1 - p1
        den = r0 * u1 - r1 * u0
        if not den:
            continue  # parallel, and by the argument not overlapping
        sign = 1 if den > 0 else -1
        w0, w1 = s0 - p0, s1 - p1
        # the crossing is at P + (sn / den)(Q - P) and S + (un / den)(T - S)
        sn, un = sign * (w0 * u1 - w1 * u0), sign * (w0 * r1 - w1 * r0)
        den *= sign
        if not (0 <= sn <= den and 0 <= un <= den):
            continue
        if sn in (0, den) or un in (0, den):
            raise InternalConsistencyError(f"degenerate crossing of edge {P}-{Q} with a push-off")
        # den times (height of the edge - height of the push-off) there
        if (P[2] - S[2]) * den + sn * (Q[2] - P[2]) - un * (T[2] - S[2]) > 0:
            yield j, c, sign


# -- Lagrangian obstruction ------------------------------------------------


@dataclass(frozen=True)
class LagrangianVerdict:
    component: int
    lagrangian: bool
    witness: tuple[tuple[int, ...], tuple[int, ...], int] | None  # (u, v, <u,v>)


@dataclass(frozen=True)
class LagrangianReport:
    verdicts: tuple[LagrangianVerdict, ...]
    obstructed: bool  # True -> certified NOT weakly-Helmholtz

    def to_json(self) -> dict:
        return {
            "obstructed": self.obstructed,
            "certificate": "not weakly-Helmholtz" if self.obstructed else None,
            "components": [
                {
                    "component": v.component,
                    "lagrangian": v.lagrangian,
                    "witness": (
                        {
                            "u": list(v.witness[0]),
                            "v": list(v.witness[1]),
                            "pairing": v.witness[2],
                        }
                        if v.witness
                        else None
                    ),
                }
                for v in self.verdicts
            ],
        }


def lagrangian_obstruction(K) -> LagrangianReport:
    """Check, for each boundary component S_j, whether P_j (the projection
    of Ker(i_*)) is a Lagrangian submodule of H1(S_j) under the
    intersection form.  A non-Lagrangian P_j certifies that the domain is
    not weakly-Helmholtz.

    It suffices to test a generating set of P_j, by bilinearity.
    """
    data = kernel_of_boundary_inclusion(K)
    verdicts = []
    for j, (S, P) in enumerate(zip(data.components, data.projections)):
        # P B P^T, read in row order: the first pair (u, v) with <u, v> != 0
        pairings = matmul(matmul(P, intersection_form(S)), list(zip(*P)))
        witness = next(
            ((u, v, val) for u, row in zip(P, pairings) for v, val in zip(P, row) if val), None
        )
        verdicts.append(LagrangianVerdict(j, witness is None, witness))
    return LagrangianReport(tuple(verdicts), not all(v.lagrangian for v in verdicts))


"""Domain-level invariants and verdicts for compact triangulated domains.

A "domain complex" stands for the closure of a bounded domain in R^3 with
smooth-enough boundary: a connected, orientable, compact 3-manifold with
non-empty boundary.  Every entry point here first runs the one domain
check, complexes.check_domain: pure 3-dimensional, at most two tetrahedra
on a triangle, non-empty boundary, connected, every boundary component a
closed surface, orientable, and 2 chi(K) = chi(boundary), in this order.
Its docstring says what it misses.

This module computes the boundary decomposition, the standard numerical
identities, the kernel of the boundary inclusion on first homology, the
skew intersection form on each boundary surface, and the Lagrangian
obstruction.

Helmholtz conditions concern curl-free fields, whose classes are real
(de Rham) classes, so every verdict here reads H1(K) modulo torsion.

The homology of the domain itself comes by one of two routes.  In general
it is homology_of(K), a reduction of the 3-dimensional complex.  A link
box (builders.LinkBox: a lattice box minus open tubes around the n
components of a lattice link, which it keeps as its cores) reads it off
the link instead.  Alexander duality (Hatcher, "Algebraic Topology", 2002,
Thm. 3.44) gives H~^(2-i)(K) = H~_i(S^3 - K), and S^3 - K, the n open
tubes and the outside of the box (a ball), has the homology of n circles
and a point.  So H^1(K) = H^2(K) = Z^n and H^3(K) = 0, and by universal
coefficients H_*(K) = (Z, Z^n, Z^n, 0), torsion-free.  The duality is the
linking pairing, perfect between H1(K) and H1(S^3 - K), which is free on
the cores: a cycle's class in H1(K) = Z^n is its vector of linking
numbers with the cores (Rolfsen, "Knots and Links", 1976, ch. 5).
_linking_numbers counts them as signed crossings in one integer
projection, and says why no crossing there is degenerate.  The n x m
matrix of linking numbers of the m boundary generators must have rank n,
or InternalConsistencyError; that ties b1 = b2 = n to the data, so
identities (i)-(iii) of analyze_domain stay checks against chi(K) and the
boundary's b1, while (iv) and (v) restate the theorem.  Homology of the
boundary surfaces, their intersection forms, cuts and the homology
command keep the reduction.

The routes never share a memo entry: a LinkBox takes the linking route
and its bare complex the reduction, in either order of calls.  They
give the same Betti numbers and the same kernel lattice, in possibly
different bases, so a Lagrangian witness may differ between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Mapping, Sequence

from .builders import LatticePath, LinkBox, decode_point
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


def _cores(K) -> tuple[LatticePath, ...]:
    """The cores of a link box, or () for any other input."""
    return K.cores if isinstance(K, LinkBox) else ()


def analyze_domain(K) -> DomainReport:
    """Numerical profile of a domain plus the standard identity checks:

    (i)   chi = 1 - b1 + b2
    (ii)  chi = (h+1) - sum of boundary genera, each genus b1(S)/2
    (iii) b1(boundary) = 2 b1
    (iv)  homology torsion-free in all degrees
    (v)   b3 = 0

    On a link box, (iv) and (v) restate Alexander duality (see the module
    docstring).
    """
    cores = _cores(K)
    K = as_domain(K)
    if cores:
        _boundary_classes(K, cores)  # rank n, or InternalConsistencyError
        n = len(cores)
        betti, torsion_free = (1, n, n, 0), True
    else:
        groups = homology_groups(K)
        betti, torsion_free = tuple(g.rank for g in groups), all(not g.torsion for g in groups)
    chi = euler_characteristic(K)
    genus_list = surface_info(boundary_subcomplex(K))
    b1_bd = sum(homology_of(S).betti(1) for S in boundary_components(K))
    h1 = len(genus_list)
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
def intersection_form(S: SimplicialComplex) -> tuple[tuple[int, ...], ...]:
    """Pairing matrix of the intersection form on H1 of a closed oriented
    connected surface, on the basis homology_of(S).free_generators(1).

    Consistency requirements (skew-symmetry, unimodularity) are enforced.
    """
    fans = _vertex_fans(S)  # closed and orientable, or ComplexError
    gens = homology_of(S).free_generators(1)
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
    it.  The rank must equal the total boundary genus.  A link box reads
    i_* off its linking classes (see the module docstring)."""
    cores = _cores(K)
    return _boundary_kernel(as_domain(K), cores)


@derived
def _boundary_kernel(K: SimplicialComplex, cores: tuple[LatticePath, ...]) -> BoundaryKernelData:
    """The kernel by the linking route for the cores of a link box, and by
    the reduction for cores = (); each route has its own memo entry."""
    comps = boundary_components(K)
    snf = _boundary_classes(K, cores)
    kernel = [tuple(r[j] for r in snf.V) for j in range(len(snf.diagonal), len(snf.V))]
    genus = sum(surface_info(boundary_subcomplex(K)))
    if len(kernel) != genus:
        raise InternalConsistencyError(f"kernel rank {len(kernel)} != total boundary genus {genus}")
    # each component's generators are a slice of the columns
    ends = list(accumulate(homology_of(S).betti(1) for S in comps))
    projections = tuple(
        tuple(vec[start:stop] for vec in kernel if any(vec[start:stop]))
        for start, stop in zip([0] + ends, ends)
    )
    return BoundaryKernelData(comps, projections)


# -- boundary classes in H1(K) modulo torsion ------------------------------


@derived
def _boundary_classes(K: SimplicialComplex, cores: tuple[LatticePath, ...]) -> SmithDecomposition:
    """Smith form of the classes in H1(K) modulo torsion of the free H1
    generators of the boundary components, concatenated, one column each.
    For the n cores of a link box they are the generators' linking numbers
    with the cores, and a rank other than n raises
    InternalConsistencyError; for cores = () they are the free coordinates
    of homology_of(K).class_coords."""
    gens = [g for S in boundary_components(K) for g in homology_of(S).free_generators(1)]
    if cores:
        rows = _linking_numbers(gens, cores)
    else:
        HK = homology_of(K)
        cols = [HK.class_coords(g, 1)[0] for g in gens]
        rows = [[c[i] for c in cols] for i in range(HK.betti(1))]
    snf = smith_normal_form(IntegerMatrix(len(rows), len(gens), rows))
    if cores and len(snf.diagonal) != len(cores):
        raise InternalConsistencyError(
            f"linking matrix of rank {len(snf.diagonal)} with {len(cores)} cores"
        )
    return snf


# the projection (x, y, z) -> (_A x + z, _B y + z) of _linking_numbers
_A, _B = 1009, 1013


def _linking_numbers(cycles: Sequence[Chain], cores: Sequence[LatticePath]) -> list[list[int]]:
    """lk(z, L_j) for 1-cycles z on encoded lattice points, off the cores:
    row j, column z.

    lk(z, L) is the signed count of the crossings where z passes over L in
    the projection pi(x, y, z) = (A x + z, B y + z), A = 1009, B = 1013, with
    over meaning larger z; a crossing counts +1 where z's direction turns
    counterclockwise (seen from above), through less than a half turn,
    onto L's.  Cycles count by linearity, so a chain needs no splitting
    into loops.

    No crossing is degenerate, that is, no vertex of either curve projects
    onto a segment of the other (overlapping segments and vertex on vertex
    are cases of this).  Every segment runs from a lattice point Q to Q + f
    with f in {0,1}^3 up to sign: a unit step of a core, or an edge of a
    Kuhn-split cube.  pi is one-to-one except along d = (B, A, -AB), so a
    vertex P on pi([Q, Q + f]) means P - Q = s f + t d, 0 <= s <= 1.  The
    coordinates lie in encode_point's range -99..155, so each component of
    P - Q is at most 254, and the z component gives |t| AB <= 255.  Then
    |t| B and |t| A are less than 1, and the x and y components are integers:
    if f_x = 0 or f_y = 0, t = 0; if f_x = f_y = 1, P_x - P_y - Q_x + Q_y
    = t (B - A), less than 1, so t = 0 again.  With t = 0 the curves meet,
    but each core lies inside its open tube, off the boundary of K.  So
    every crossing is transversal at inner points, and its two points
    differ by t d, t != 0.  An endpoint hit all the same raises
    InternalConsistencyError.

    The two points of a crossing differ by at most 254/A < 1/3 in x and in
    y.  So an edge of z whose least vertex is (p_x, p_y, .) can only cross
    a core step whose lesser end is (q_x, q_y, .) and whose x span is g_x
    (0 or 1) when q_x - 1 <= p_x <= q_x + g_x, and likewise in y.  Each
    core step is filed under those columns (p_x, p_y), and each edge looks
    up its own.
    """
    columns: dict[tuple[int, int], list] = {}
    for j, core in enumerate(cores):
        pts = core.points
        for a, b in zip(pts, pts[1:] + pts[:1]):
            lo, hi = min(a, b), max(a, b)
            step = (j, a, _project(a), _project(b), b[2] - a[2])
            for x in range(lo[0] - 1, hi[0] + 1):
                for y in range(lo[1] - 1, hi[1] + 1):
                    columns.setdefault((x, y), []).append(step)
    rows = [[0] * len(cycles) for _ in cores]
    for col, z in enumerate(cycles):
        for e, c in z.items():
            P, Q = map(decode_point, e)
            for j, sign in _over_crossings(P, Q, columns.get(P[:2], ())):
                rows[j][col] += c * sign
    return rows


def _project(p: tuple[int, int, int]) -> tuple[int, int]:
    x, y, z = p
    return _A * x + z, _B * y + z


def _over_crossings(P, Q, steps) -> Iterator[tuple[int, int]]:
    """(core, sign) of each crossing where the edge from P to Q passes over
    one of the given core steps, by exact integer cross products (see
    _linking_numbers)."""
    (p0, p1), (q0, q1) = _project(P), _project(Q)
    r0, r1 = q0 - p0, q1 - p1
    for j, C, (c0, c1), (d0, d1), dz in steps:
        s0, s1 = d0 - c0, d1 - c1
        den = r0 * s1 - r1 * s0
        if not den:
            continue  # parallel, and by the argument not overlapping
        sign = 1 if den > 0 else -1
        w0, w1 = c0 - p0, c1 - p1
        # the crossing is at P + (sn / den)(Q - P) and C + (un / den) step
        sn, un = sign * (w0 * s1 - w1 * s0), sign * (w0 * r1 - w1 * r0)
        den *= sign
        if not (0 <= sn <= den and 0 <= un <= den):
            continue
        if sn in (0, den) or un in (0, den):
            raise InternalConsistencyError(f"degenerate crossing of edge {P}-{Q} with a core")
        # den times (height of the edge - height of the core) there
        if (P[2] - C[2]) * den + sn * (Q[2] - P[2]) - un * dz > 0:
            yield j, sign


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


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
skew intersection form on each boundary surface, the Lagrangian
obstruction, and corank bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

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
from .cuts import classify_cut_system
from .exact_linalg import IntegerMatrix, matmul, smith_normal_form
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
    """
    K = as_domain(K)
    groups = homology_groups(K)
    betti = tuple(g.rank for g in groups)
    chi = euler_characteristic(K)
    info = surface_info(boundary_subcomplex(K))
    genus_list = info.genus_list
    b1_bd = sum(homology_of(S).betti(1) for S in boundary_components(K))
    torsion_free = all(not g.torsion for g in groups)
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
    K = as_domain(K)
    H = homology_of(K)
    info = surface_info(boundary_subcomplex(K))
    report = SimplicityReport(
        H.betti(1) == 0, H.betti(1), H.betti(2), info.component_count, info.genus_list
    )
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
    the vertex's smallest edge and orients the walk of _check_closed_surface.
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
    z_out = _strand_ends(fans, z, 1)   # vertex -> (fan position, z-flow away from it)
    w_in = _strand_ends(fans, w, -1)   # vertex -> (fan position, w-flow into it)
    total = 0
    for v, outs in z_out.items():
        for pf, wf in w_in.get(v, ()):
            for pe, zf in outs:
                if pe < pf:
                    total += zf * wf
    # shared edges: the pushoff runs parallel to w and never crosses the
    # strand it was pushed off from
    return total - sum(z.get(e, 0) * wc for e, wc in w.items())


def _strand_ends(
    fans: Mapping[int, Mapping[Simplex, int]], cycle: Mapping[Simplex, int], sign: int
) -> dict[int, list[tuple[int, int]]]:
    """Vertex -> [(fan position, sign * flow away from the vertex)] over the
    edges of a 1-cycle on the surface of the given fans."""
    ends: dict[int, list[tuple[int, int]]] = {}
    for e, c in cycle.items():
        if not c:
            continue
        if e not in fans.get(e[0], ()):
            raise ComplexError(f"edge {e} of the cycle is not an edge of the surface")
        for v, flow in zip(e, (sign * c, -sign * c)):
            ends.setdefault(v, []).append((fans[v][e], flow))
    if chain_boundary(cycle):
        raise NotACycleError("intersection_pairing needs 1-cycles")
    return ends


@dataclass(frozen=True)
class SurfaceFormData:
    generators: tuple[Chain, ...]          # basis cycles of H1 of the surface
    matrix: IntegerMatrix                  # pairing matrix on that basis


@derived
def intersection_form(S: SimplicialComplex) -> SurfaceFormData:
    """Pairing matrix of the intersection form on H1 of a closed oriented
    connected surface, on the homology basis fixed by homology_of.

    Consistency requirements (skew-symmetry, unimodularity) are enforced.
    """
    _vertex_fans(S)  # closed and orientable, or ComplexError
    gens = homology_of(S).free_generators(1)
    n = len(gens)
    M = [[intersection_pairing(S, z, w) for w in gens] for z in gens]
    mat = IntegerMatrix(n, n, M)
    if any(M[i][j] != -M[j][i] for i in range(n) for j in range(n)):
        raise InternalConsistencyError("intersection form is not skew-symmetric")
    if n and smith_normal_form(mat).diagonal != (1,) * n:
        raise InternalConsistencyError("intersection form is not unimodular")
    return SurfaceFormData(tuple(gens), mat)


# -- kernel of the boundary inclusion --------------------------------------


@dataclass(frozen=True)
class ComponentProjection:
    """P_j: the projection of Ker(i_*) into H1 of one boundary component."""

    coords: tuple[tuple[int, ...], ...]  # generating vectors in the H1(S_j) basis


@dataclass(frozen=True)
class BoundaryKernelData:
    components: tuple[SimplicialComplex, ...]
    genus_list: tuple[int, ...]
    kernel_coords: tuple[tuple[int, ...], ...]  # basis of Ker(i_*), concatenated basis
    projections: tuple[ComponentProjection, ...]
    inclusion_surjective: bool

    @property
    def kernel_rank(self) -> int:
        return len(self.kernel_coords)


def kernel_of_boundary_inclusion(K) -> BoundaryKernelData:
    """Integer kernel of i_*: H1(boundary) -> H1(domain), with per-component
    projections P_j.  The rank must equal the total boundary genus."""
    return _boundary_kernel(as_domain(K))


@derived
def _boundary_kernel(K: SimplicialComplex) -> BoundaryKernelData:
    comps = boundary_components(K)
    info = surface_info(boundary_subcomplex(K))
    gens: list[Chain] = []
    slices: list[tuple[int, int]] = []  # generator index range per component
    for S in comps:
        start = len(gens)
        gens.extend(homology_of(S).free_generators(1))
        slices.append((start, len(gens)))
    HK = homology_of(K)
    rK = HK.betti(1)
    tors = HK.group(1).torsion
    # columns: boundary generators; rows: free coords of H1(K), then one row
    # per torsion factor (solved modulo the factor via helper columns)
    m = len(gens)
    cols = [HK.class_coords(g, 1) for g in gens]
    nt = len(tors)
    rows = []
    for i in range(rK):
        rows.append([c[0][i] for c in cols] + [0] * nt)
    for i, d in enumerate(tors):
        rows.append([c[1][i] for c in cols] + [d if j == i else 0 for j in range(nt)])
    A = IntegerMatrix(len(rows), m + nt, rows) if rows else IntegerMatrix(0, m + nt, [])
    snf = smith_normal_form(A)
    V = snf.V.to_lists()
    kernel_coords = [tuple(V[i][j] for i in range(m)) for j in range(snf.rank, m + nt)]
    if len(kernel_coords) != sum(info.genus_list):
        raise InternalConsistencyError(
            f"kernel rank {len(kernel_coords)} != total boundary genus {sum(info.genus_list)}"
        )
    # integer-level surjectivity of i_* (on the free part; torsion handled by
    # the helper columns having been available)
    free_rows = rows[:rK]
    if rK:
        Mfree = IntegerMatrix(rK, m + nt, free_rows)
        s = smith_normal_form(Mfree)
        surjective = s.rank == rK and all(d == 1 for d in s.diagonal[: s.rank])
    else:
        surjective = True
    projections = []
    for start, stop in slices:
        pcoords = []
        for vec in kernel_coords:
            sub = vec[start:stop]
            if any(sub):
                pcoords.append(tuple(sub))
        projections.append(ComponentProjection(tuple(pcoords)))
    return BoundaryKernelData(
        comps,
        info.genus_list,
        tuple(kernel_coords),
        tuple(projections),
        surjective,
    )


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
    for j, (S, proj) in enumerate(zip(data.components, data.projections)):
        P = proj.coords
        # P B P^T, read in row order: the first pair (u, v) with <u, v> != 0
        pairings = matmul(matmul(P, intersection_form(S).matrix.to_lists()), list(zip(*P)))
        witness = next(
            ((u, v, val) for u, row in zip(P, pairings) for v, val in zip(P, row) if val), None
        )
        verdicts.append(LagrangianVerdict(j, witness is None, witness))
    return LagrangianReport(tuple(verdicts), not all(v.lagrangian for v in verdicts))


# -- corank bounds ---------------------------------------------------------


def corank_bounds(K, system=None) -> tuple[int, int]:
    """(lower, upper) bounds for the corank of the fundamental group.

    upper = b1.  lower = size of the exhibited surface system when the cut
    engine verifies it as independent and non-disconnecting, else 0.  The
    exact corank is not computed.
    """
    upper = homology_of(as_domain(K)).betti(1)
    lower = 0
    if system is not None:
        cls = classify_cut_system(K, system)
        if cls.independent and cls.cut_connected:
            lower = min(cls.system_size, upper)
    return lower, upper

"""The three workloads: their operations and the checks on every output.

An operation calls helmcut's public functions the way the matching
`helmcut` command does.  Its check compares the outputs with the oracles
in oracles.py and with properties the method must have; no check compares
with a stored copy of an earlier output.  Checks run outside the timed
region and with tracing paused.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import inputs
import oracles


@dataclass
class Op:
    """One operation of a closed loop with one client."""

    kind: str  # sample class its latency is reported under
    run: Callable[[], object]
    check: Callable[[object], list[str]]  # messages for every failed check
    verdicts: int = 1  # units of work it counts for in ops_per_s
    tag: object = None  # the input, for checks across operations


def _expect(errors: list[str], ok: bool, what: str) -> None:
    if not ok:
        errors.append(what)


class Workload:
    """generate() makes one round of input descriptions from the seeded rng
    (no helmcut); prepare() turns them into what the operations take, after
    helmcut is imported; ops() lists the operations; final_check() checks
    properties that span several operations."""

    name = ""
    primary = ""  # the sample class op_p50_s is taken from

    def prepare(self, hc, descriptions):
        return descriptions

    def final_check(self, outputs) -> list[str]:
        return []


# -- census -------------------------------------------------------------------


class Census(Workload):
    """`helmcut analyze` on cube-set and lattice-link domains."""

    name = "census"
    primary = "domain"

    def generate(self, rng: random.Random):
        return inputs.census_inputs(rng)

    def warm_up(self, hc) -> None:
        op = self._op(hc, inputs.census_warmup())
        if op.check(op.run()):
            raise RuntimeError("census warm-up produced a wrong answer")

    def ops(self, hc, prepared):
        return [self._op(hc, d) for d in prepared]

    def _op(self, hc, d: inputs.DomainInput) -> Op:
        def run():
            if d.cubes:
                domain = hc.builders.cubes_to_complex(d.cubes)
            else:
                paths = hc.builders.parse_lattice_paths(d.paths_text)
                domain = hc.builders.lattice_link_complement(paths)
            return (
                hc.domains.analyze_domain(domain),
                hc.domains.is_simple(domain),
                hc.domains.lagrangian_obstruction(domain),
            )

        def check(out) -> list[str]:
            report, simple, lagrangian = out
            errors: list[str] = []
            betti = d.expected_betti
            _expect(errors, report.betti == betti, f"{d.kind}: betti {report.betti} != {betti}")
            for name, ok in report.identity_checks:
                _expect(errors, ok, f"{d.kind}: identity check {name} failed")
            _expect(errors, simple.simple == (betti[1] == 0), f"{d.kind}: simple iff b1 = 0")
            rects = d.rectangles
            linked = any(
                oracles.rectangle_linking_number(a, b) != 0
                for i, a in enumerate(rects)
                for b in rects[i + 1:]
            )
            _expect(
                errors,
                lagrangian.obstructed == linked,
                f"{d.kind}: Lagrangian obstruction {lagrangian.obstructed}, linked {linked}",
            )
            return errors

        return Op("domain", run, check)


# -- cuts ---------------------------------------------------------------------


@dataclass(frozen=True)
class _MarkedPlate:
    plate: inputs.PlateSystem
    domain: object  # helmcut SimplicialComplex
    system: object  # helmcut SurfaceSystem


class Cuts(Workload):
    """`helmcut classify-cuts --subset-search` on plates and the fibered
    trefoil complement."""

    name = "cuts"
    primary = "cut_verdict"

    def generate(self, rng: random.Random):
        return inputs.cuts_inputs(rng)

    def prepare(self, hc, cuts_round: inputs.CutsRound):
        def marked(p: inputs.PlateSystem) -> _MarkedPlate:
            domain = hc.builders.cubes_to_complex([(x, y, 0) for x, y in p.squares])
            system = hc.cuts.SurfaceSystem(
                tuple(f"disk_{i}" for i in range(len(p.disks))),
                tuple(
                    tuple(hc.builders.square_face_triangles((x, y, 0), axis))
                    for x, y, axis in p.disks
                ),
            )
            return _MarkedPlate(p, domain, system)

        fiber = hc.builders.trefoil_mapping_torus()
        return (
            [marked(p) for p in cuts_round.classify],
            marked(cuts_round.search),
            (fiber, hc.cuts.surface_system_from_marks(fiber)),
        )

    def warm_up(self, hc) -> None:
        """Two tetrahedra glued along a triangle, cut along it: two balls."""
        domain = hc.complexes.build_complex([(0, 1, 2, 3), (0, 1, 2, 4)])
        system = hc.cuts.SurfaceSystem(("disk",), (((0, 1, 2),),))
        verdict = hc.cuts.classify_cut_system(domain, system)
        if verdict.component_betti != ((1, 0, 0, 0), (1, 0, 0, 0)):
            raise RuntimeError("cuts warm-up produced a wrong answer")

    def ops(self, hc, prepared):
        plates, search, (fiber, fiber_system) = prepared
        out = [self._classify(hc, mp) for mp in plates]
        out.append(
            Op(
                "cut_verdict",
                lambda: hc.cuts.classify_cut_system(fiber, fiber_system),
                self._check_fiber,
            )
        )
        out.append(self._search(hc, search))
        return out

    def _classify(self, hc, mp: _MarkedPlate) -> Op:
        p = mp.plate

        def check(verdict) -> list[str]:
            errors: list[str] = []
            pieces = oracles.plate_cut_pieces(p.squares, p.disks)
            betti = verdict.component_betti
            _expect(
                errors, len(betti) == len(pieces), f"plate: {len(betti)} pieces, oracle {pieces}"
            )
            _expect(
                errors,
                sorted(b[1] for b in betti) == pieces,
                f"plate: piece b1 {[b[1] for b in betti]}, oracle {pieces}",
            )
            _expect(
                errors,
                all(b[0] == 1 and b[2] == b[3] == 0 for b in betti),
                f"plate: piece betti {betti}",
            )
            _expect(
                errors,
                verdict.is_helmholtz_cut_system == all(b == 0 for b in pieces),
                "plate: Helmholtz iff every piece has b1 = 0",
            )
            minimal = len(p.disks) == p.genus and pieces == [0]
            _expect(errors, verdict.is_minimal_weak == minimal, "plate: minimal weak verdict")
            return errors

        return Op("cut_verdict", lambda: hc.cuts.classify_cut_system(mp.domain, mp.system), check)

    def _search(self, hc, mp: _MarkedPlate) -> Op:
        p = mp.plate

        def check(hits) -> list[str]:
            names = mp.system.names
            subsets = oracles.plate_minimal_subsets(p.squares, p.disks)
            want = {tuple(names[i] for i in idx) for idx in subsets}
            got = {tuple(h) for h in hits}
            if got == want:
                return []
            return [f"subset search: hits {sorted(got)}, oracle {sorted(want)}"]

        return Op(
            "subset_search",
            lambda: hc.cuts.find_minimal_weak_subsets(mp.domain, mp.system),
            check,
            verdicts=comb(len(p.disks), p.genus),
        )

    @staticmethod
    def _check_fiber(verdict) -> list[str]:
        errors: list[str] = []
        _expect(
            errors,
            [b[1] for b in verdict.component_betti] == [2],
            f"trefoil fiber: pieces {verdict.component_betti}, want one with b1 = 2",
        )
        _expect(errors, verdict.is_minimal_weak, "trefoil fiber: not minimal weak")
        _expect(errors, not verdict.is_helmholtz_cut_system, "trefoil fiber: Helmholtz")
        return errors


# -- links --------------------------------------------------------------------


class Links(Workload):
    """`helmcut link-verdict` on braid closures and the Whitehead link."""

    name = "links"
    primary = "link_verdict"

    def generate(self, rng: random.Random):
        return inputs.links_inputs(rng)

    def prepare(self, hc, braids):
        whitehead = Path(hc.__file__).parent / "data" / "whitehead.pd"
        return [(b, *inputs.braid_pd(b.strands, b.word)) for b in braids] + [
            (None, whitehead.read_text(), None)
        ]

    def warm_up(self, hc) -> None:
        b = inputs.links_warmup()
        text, strand_of = inputs.braid_pd(b.strands, b.word)
        op = self._op(hc, b, text, strand_of)
        if op.check(op.run()):
            raise RuntimeError("links warm-up produced a wrong answer")

    def ops(self, hc, prepared):
        return [self._op(hc, b, text, strand_of) for b, text, strand_of in prepared]

    def final_check(self, outputs) -> list[str]:
        """Rotated and mirrored copies of a braid word get the base word's
        weakly-Helmholtz verdict (they close to isotopic or mirror links)."""
        families: dict[int, set[str]] = {}
        for b, (_, verdict) in outputs:
            if b is not None:
                families.setdefault(b.family, set()).add(verdict.weakly_helmholtz)
        return [
            f"links: family {f} has verdicts {sorted(v)}" for f, v in families.items() if len(v) > 1
        ]

    def _op(self, hc, b, text: str, strand_of) -> Op:
        def run():
            diagram = hc.links.parse_pd(text)
            return diagram, hc.links.link_helmholtz_verdict(diagram)

        def check(out) -> list[str]:
            diagram, verdict = out
            errors: list[str] = []
            lk = hc.links.linking_matrix(diagram)
            k = diagram.component_count
            group = hc.groups.abelianize(hc.groups.wirtinger(diagram))
            _expect(
                errors,
                group.rank == k and not group.torsion,
                f"links: abelianization {group} for {k} components",
            )
            linked = False  # the Whitehead link has linking number zero
            if b is not None:
                comp = oracles.braid_strand_components(b.strands, list(b.word))
                want = oracles.braid_linking_matrix(b.strands, list(b.word))
                linked = any(any(row) for row in want)
                mine = [comp[strand_of[c[0]]] for c in diagram.components]
                _expect(errors, sorted(mine) == list(range(len(want))), f"links: components {mine}")
                if not errors:
                    _expect(
                        errors,
                        all(
                            lk[i][j] == want[mine[i]][mine[j]]
                            for i in range(k)
                            for j in range(k)
                            if i != j
                        ),
                        f"links: linking matrix {lk}, braid oracle {want}",
                    )
                circles = hc.links.seifert_data(diagram).seifert_circles
                _expect(errors, circles == b.strands, f"links: {circles} Seifert circles")
            lk_certified = verdict.weakly_helmholtz == "no" and any(
                c["type"] == "linking_number" for c in verdict.certificates
            )
            _expect(errors, lk_certified == linked, "links: linking-number certificate iff lk != 0")
            if b is None or b.family == 0:  # the Whitehead link, the Borromean rings
                mubar = [c for c in verdict.certificates if c["type"] == "milnor_mubar"]
                _expect(
                    errors,
                    verdict.weakly_helmholtz == "no"
                    and len(mubar) == 1
                    and abs(mubar[0]["residue"]) == 1,
                    f"links: anchor verdict {verdict.to_json()}",
                )
            return errors

        return Op("link_verdict", run, check, tag=b)


WORKLOADS = {w.name: w for w in (Census(), Cuts(), Links())}

"""Acceptance suite: one test (one pass/fail line under pytest -v) per
criterion.  Run with `pytest tests/test_acceptance.py -v`.
"""

import ast
import json
import time
from pathlib import Path

from helmcut.builders import domain_corpus, preset
from helmcut.cli import run as cli_run
from helmcut.complexes import build_complex
from helmcut.cuts import SurfaceSystem, classify_cut_system, surface_system_from_marks
from helmcut.domains import analyze_domain, is_simple, lagrangian_obstruction
from helmcut.groups import milnor_mu, milnor_mubar
from helmcut.homology import homology_groups
from helmcut.links import diagram, link_helmholtz_verdict, linking_matrix

from test_complexes import RP2_6, TORUS7

SPHERE = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def _line(n, msg):
    print(f"acceptance criterion {n}: PASS — {msg}")


def test_criterion_01_homology_engine_oracles():
    for top, expect in [
        (SPHERE, ["Z", "0", "Z", "0"]),
        (RP2_6, ["Z", "Z/2", "0", "0"]),
        (TORUS7, ["Z", "Z + Z", "Z", "0"]),
    ]:
        t0 = time.monotonic()
        assert [str(g) for g in homology_groups(build_complex(top))] == expect
        assert time.monotonic() - t0 < 1.0
    _line(1, "sphere / projective plane / torus homology exact, < 1 s each")


def test_criterion_02_identity_suite_over_corpus():
    t0 = time.monotonic()
    corpus = domain_corpus()
    assert len(corpus) >= 10
    for name, M in corpus:
        report = analyze_domain(M)
        assert report.all_checks_pass, f"{name}: {report.identity_checks}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"identity suite took {elapsed:.1f}s"
    _line(2, f"all identities on {len(corpus)} domains in {elapsed:.1f}s")


def test_criterion_03_simplicity_criterion():
    expect_simple = {"ball": True, "shell": True}
    expect_not = ["solid_torus", "handlebody2", "torus_shell", "trefoil_box",
                  "trefoil_mapping_torus", "hopf_box", "solid_torus_with_meridian_disk"]
    for name, val in expect_simple.items():
        rep = is_simple(preset(name))
        assert rep.simple is val
        assert rep.b2 == rep.boundary_component_count - 1
        assert all(g == 0 for g in rep.genus_list)
    for name in expect_not:
        assert not is_simple(preset(name)).simple, name
    # a shell with two cavities is simple with h = 2
    from helmcut.builders import cubes_to_complex

    cubes = [
        (x, y, z)
        for x in range(3)
        for y in range(3)
        for z in range(5)
        if (x, y, z) not in ((1, 1, 1), (1, 1, 3))
    ]
    two_hole = is_simple(cubes_to_complex(cubes))
    assert two_hole.simple and two_hole.b2 == 2 and two_hole.boundary_component_count == 3
    _line(3, "simple exactly for ball, shells, and multi-cavity shells")


def test_criterion_04_flagship_cut():
    t0 = time.monotonic()
    M = preset("trefoil_mapping_torus")
    v = classify_cut_system(M, surface_system_from_marks(M))
    elapsed = time.monotonic() - t0
    assert v.component_count == 1
    assert v.component_betti[0][1] == 2
    assert not v.is_helmholtz_cut_system
    assert v.is_weak_cut_system and v.is_minimal_weak
    assert elapsed < 60.0, f"flagship cut took {elapsed:.1f}s"
    _line(4, f"fiber cut: connected, b1=2, minimal weak, not Helmholtz ({elapsed:.1f}s)")


def test_criterion_05_helmholtz_cut_verification():
    M = preset("solid_torus_with_meridian_disk")
    v = classify_cut_system(M, surface_system_from_marks(M))
    assert v.component_count == 1 and v.component_betti == ((1, 0, 0, 0),)
    assert v.is_helmholtz_cut_system
    M2 = preset("handlebody2")
    v2 = classify_cut_system(M2, surface_system_from_marks(M2))
    assert v2.component_count == 1 and v2.component_betti[0][1] == 0
    assert v2.is_helmholtz_cut_system
    _line(5, "meridian-disk cuts yield single components with b1=0")


def test_criterion_06_rank_beta4_cross_check():
    # classify_cut_system raises InternalConsistencyError on any
    # disagreement between the rank test and the direct bounding test
    pairs = 0
    marked = {"solid_torus_with_meridian_disk", "handlebody2", "trefoil_mapping_torus"}
    for name, M in domain_corpus():
        classify_cut_system(M, SurfaceSystem((), ()))
        pairs += 1
        if name in marked:
            classify_cut_system(M, surface_system_from_marks(M))
            pairs += 1
    assert pairs >= 10
    _line(6, f"rank and direct beta4 criteria agree on {pairs} (domain, system) pairs")


def test_criterion_07_lagrangian_obstruction():
    assert lagrangian_obstruction(preset("torus_shell")).obstructed
    assert lagrangian_obstruction(preset("hopf_box")).obstructed
    rep = lagrangian_obstruction(preset("solid_torus"))
    assert not rep.obstructed
    from helmcut.complexes import boundary_subcomplex, surface_info
    from helmcut.domains import kernel_of_boundary_inclusion
    from helmcut.exact_linalg import IntegerMatrix, smith_normal_form
    from helmcut.homology import homology_of

    K = preset("solid_torus").complex
    data = kernel_of_boundary_inclusion(K)
    # kernel rank: the m boundary generators less the rank of their classes
    HK = homology_of(K)
    gens = [g for S in data.components for g in homology_of(S).generators(1)]
    coords = [[HK.class_coords(g, 1)[0][i] for g in gens] for i in range(HK.betti(1))]
    rank = len(smith_normal_form(IntegerMatrix(len(coords), len(gens), coords)).diagonal)
    assert len(gens) - rank == 1 == sum(surface_info(boundary_subcomplex(K)))
    _line(7, "torus shell and hopf box certified non-weakly-Helmholtz; solid torus unobstructed")


def test_criterion_08_link_invariants():
    t0 = time.monotonic()
    assert abs(linking_matrix(diagram("hopf"))[0][1]) == 1
    assert linking_matrix(diagram("whitehead"))[0][1] == 0
    assert linking_matrix(diagram("unlink2")) == [[0, 0], [0, 0]]
    for name in ("hopf", "whitehead", "unlink2"):
        D = diagram(name)
        lk = linking_matrix(D)
        for i in range(D.component_count):
            for j in range(D.component_count):
                if i != j:
                    assert milnor_mu(D, (i + 1, j + 1), 4) == lk[i][j]
    v = milnor_mubar(diagram("whitehead"), (1, 1, 2, 2), 5)
    elapsed = time.monotonic() - t0
    assert v.delta == 0 and abs(v.residue) == 1
    assert elapsed < 60.0
    _line(8, f"lk anchors, mu=lk, |mubar(1,1,2,2)|=1 with delta=0 ({elapsed:.2f}s)")


def test_criterion_09_link_verdicts():
    for name in ("trefoil", "trefoil4"):
        v = link_helmholtz_verdict(diagram(name))
        assert v.weakly_helmholtz == "yes"
        assert v.helmholtz in ("unknown", "no")
    for name in ("hopf", "whitehead"):
        v = link_helmholtz_verdict(diagram(name))
        assert v.weakly_helmholtz == "no" and v.certificates
    _line(9, "knots weakly-Helmholtz yes; hopf/whitehead certified no; trefoil never Helmholtz-yes")


def test_criterion_10_determinism(capsys):
    commands = [
        ["homology", "--preset", name] for name in ("ball", "shell", "solid_torus")
    ] + [
        ["analyze", "--preset", "torus_shell"],
        ["classify-cuts", "--preset", "solid_torus_with_meridian_disk"],
        ["cut", "--preset", "handlebody2"],
        ["link-lk", "--pd", "hopf"],
        ["link-seifert", "--pd", "trefoil"],
        ["link-verdict", "--pd", "whitehead"],
        ["milnor", "--pd", "whitehead", "--indices", "1,1,2,2"],
        ["preset-list"],
    ]
    for cmd in commands:
        outs = []
        for _ in range(2):
            assert cli_run(cmd) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0]
        json.loads(outs[0])  # valid JSON
    _line(10, f"byte-identical JSON across two runs for {len(commands)} commands")


# Public names kept with no caller in src/, the CLI, demos/ or bench/, for
# the tests and for CI
_KEPT_WITHOUT_CALLER = {
    # the reference that the tests compare intersection_form against
    "intersection_pairing",
    # CI's input-generation step calls it, and it documents the JSON format
    "marked_complex_to_json",
}


def test_every_public_name_has_a_caller():
    """Every public top-level function and class of helmcut, and every
    public method of its classes, is referenced somewhere in src/helmcut
    (its CLI included), bench/ or demos/.

    The scan collects names and attribute names, so it cannot see a method
    whose name is in use elsewhere as an attribute (rank, torsion,
    generator, a dataclass field), nor a method whose only caller is the
    method itself or another uncalled name.  An attribute in bench/ that
    names a function, method or class bench defines itself (clock.mark())
    is taken to mean bench's own, so it does not count.
    """
    root = Path(__file__).resolve().parents[1]
    src = sorted((root / "src" / "helmcut").glob("*.py"))
    bench = sorted((root / "bench").glob("*.py"))
    callers = [p for p in src if p.name != "__init__.py"] + bench
    callers += sorted((root / "demos").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in callers}
    bench_own = {
        node.name for path in bench for node in ast.walk(trees[path])
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    used = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and not (path in bench and node.attr in bench_own):
                used.add(node.attr)
    public = set()
    for path in src:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.add(node.name)
            if isinstance(node, ast.ClassDef):
                public.update(
                    m.name for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                )
    missing = sorted(public - used - _KEPT_WITHOUT_CALLER)
    assert not missing, f"public names with no caller: {', '.join(missing)}"

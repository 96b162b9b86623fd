"""Command-line interface.

Exit codes: 0 success, 2 input/validation error, 1 internal-consistency
failure (an InternalConsistencyError only); errors are one stderr line.
Domain verdicts read H1(K) modulo torsion.  All results are printed as
deterministic JSON (sorted keys).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .builders import cubes_to_complex, parse_cubes, preset, preset_names
from .complexes import ComplexError, MarkedComplex, marked_complex_from_json
from .cuts import (
    classify_cut_system,
    cut_open,
    find_minimal_weak_subsets,
    surface_system_from_marks,
)
from .domains import analyze_domain, is_simple, lagrangian_obstruction
from .homology import InternalConsistencyError, betti_numbers, homology_groups
from .links import (
    DiagramError,
    check_planar,
    diagram,
    diagram_names,
    link_helmholtz_verdict,
    linking_matrix,
    parse_pd,
    seifert_data,
)
from .groups import milnor_mubar

# a count in ASCII digits; int() alone also reads "\u0664" and "1_0"
_COUNT = re.compile(r"\s*[0-9]+\s*")


def _read(path: str, error: type[Exception]) -> str:
    """The text of an input file; one that cannot be read is bad input."""
    try:
        return Path(path).read_text()
    except OSError as e:
        raise error(f"cannot read {path}: {e}")


def _load_complex(args) -> MarkedComplex:
    if sum(map(bool, (args.preset, args.input, args.cubes))) > 1:
        raise ComplexError("give either --preset or --input or --cubes, not more than one")
    if args.preset:
        return preset(args.preset)
    if args.input:
        try:
            data = json.loads(_read(args.input, ComplexError))
        except json.JSONDecodeError as e:
            raise ComplexError(f"malformed JSON in {args.input}: {e}")
        return marked_complex_from_json(data)
    if args.cubes:
        return MarkedComplex(cubes_to_complex(parse_cubes(_read(args.cubes, ComplexError))), {})
    raise ComplexError("a complex is required: --preset NAME, --input FILE or --cubes FILE")


def _load_diagram(args):
    src = args.pd
    if src is None:
        raise DiagramError("a diagram is required: --pd FILE-or-NAME")
    if Path(src).exists():
        D = parse_pd(_read(src, DiagramError))
        linking_matrix(D)  # rejects components that cross an odd number of times
        check_planar(D)
        return D
    name = src[:-3] if src.endswith(".pd") else src
    if name in diagram_names():
        return diagram(name)
    raise DiagramError(f"no such PD file or bundled diagram: {src}")


def _system(M: MarkedComplex, args):
    names = None
    if args.system is not None:
        names = args.system.split(",")
        if "" in names:
            raise ComplexError(f"--system must be a comma list of marked surface names: {args.system!r}")
    return surface_system_from_marks(M, names)


def _emit(result: dict, args) -> None:
    text = json.dumps(result, sort_keys=True, indent=2) + "\n"
    if getattr(args, "output", None):
        try:
            Path(args.output).write_text(text)
        except OSError as e:
            raise ValueError(f"cannot write {args.output}: {e}")
    else:
        sys.stdout.write(text)


def _cmd_homology(args):
    M = _load_complex(args)
    groups = homology_groups(M.complex)
    return {
        "betti": list(betti_numbers(M.complex)),
        "groups": [str(g) for g in groups],
        "torsion": [list(g.torsion) for g in groups],
    }


def _cmd_analyze(args):
    M = _load_complex(args)
    report = analyze_domain(M)
    out = report.to_json()
    simple = is_simple(M)
    out["simple"] = simple.to_json()
    out["lagrangian_obstruction"] = lagrangian_obstruction(M).to_json()
    return out


def _cmd_cut(args):
    M = _load_complex(args)
    F = _system(M, args)
    result = cut_open(M, F)
    return {
        "component_count": result.component_count,
        "component_betti": [list(betti_numbers(c)) for c in result.components],
    }


def _cmd_classify_cuts(args):
    M = _load_complex(args)
    F = _system(M, args)
    verdict = classify_cut_system(M, F)
    out = verdict.to_json()
    if args.subset_search:
        out["minimal_weak_subsets"] = [
            list(names) for names in find_minimal_weak_subsets(M, F)
        ]
    return out


def _cmd_link_lk(args):
    D = _load_diagram(args)
    return {
        "components": D.component_count,
        "linking_matrix": linking_matrix(D),
        "writhes": list(D.writhes),
    }


def _cmd_link_seifert(args):
    return seifert_data(_load_diagram(args)).to_json()


def _cmd_link_verdict(args):
    if not _COUNT.fullmatch(args.mubar_length):
        raise DiagramError(f"--mubar-length must be a whole number: {args.mubar_length!r}")
    D = _load_diagram(args)
    return link_helmholtz_verdict(D, mubar_max_length=int(args.mubar_length)).to_json()


def _cmd_milnor(args):
    D = _load_diagram(args)
    entries = args.indices.split(",")
    for x in entries:
        if not _COUNT.fullmatch(x):
            raise DiagramError(f"--indices must be a comma list of component numbers: {x!r}")
    I = tuple(int(x) for x in entries)
    return milnor_mubar(D, I, len(I)).to_json()


def _cmd_preset_list(args):
    return {"presets": list(preset_names()), "diagrams": list(diagram_names())}


def _print_error(line: str) -> None:
    """Write line to stderr as one line: a newline echoed from the input
    (an argument, a mark name) is written as \\n."""
    print(line.replace("\n", "\\n"), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors keep the one-line contract, with no
    usage block; the subparsers are made by the same class."""

    def error(self, message: str):
        # "unrecognized arguments" echoes the arguments as they are
        _print_error("error: " + message)
        sys.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="helmcut",
        description="Exact-arithmetic Helmholtz analysis of triangulated domains and links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def complex_opts(p):
        p.add_argument("--preset", help="bundled domain name (see preset-list)")
        p.add_argument("--input", help="path to a JSON complex file")
        p.add_argument("--cubes", help="path to a cube set: one x,y,z min corner per line")
        p.add_argument("--output", help="write JSON here instead of stdout")

    def link_opts(p):
        p.add_argument("--pd", help="PD file path or bundled diagram name")
        p.add_argument("--output", help="write JSON here instead of stdout")

    p = sub.add_parser("homology", help="integral homology groups of a complex")
    complex_opts(p)
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("analyze", help="domain report: Betti, genera, identities, simplicity")
    complex_opts(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("cut", help="cut a domain along its marked surfaces")
    complex_opts(p)
    p.add_argument("--system", help="comma list of marked surface names (default: all)")
    p.set_defaults(func=_cmd_cut)

    p = sub.add_parser("classify-cuts", help="Helmholtz / weak classification of a surface system")
    complex_opts(p)
    p.add_argument("--system", help="comma list of marked surface names (default: all)")
    p.add_argument("--subset-search", action="store_true", help="search subsets for minimal weak systems")
    p.set_defaults(func=_cmd_classify_cuts)

    p = sub.add_parser("link-lk", help="linking matrix of a PD diagram")
    link_opts(p)
    p.set_defaults(func=_cmd_link_lk)

    p = sub.add_parser("link-seifert", help="Seifert-algorithm data of a PD diagram")
    link_opts(p)
    p.set_defaults(func=_cmd_link_seifert)

    p = sub.add_parser("link-verdict", help="Helmholtz verdicts for a link diagram")
    link_opts(p)
    p.add_argument(
        "--mubar-length",
        default="4",
        help="max Milnor index length searched, at least 2; the Magnus expansion is "
        "truncated at it",
    )
    p.set_defaults(func=_cmd_link_verdict)

    p = sub.add_parser("milnor", help="Milnor mu / mu-bar invariant")
    link_opts(p)
    p.add_argument("--indices", required=True, help="comma list, e.g. 1,1,2,2")
    p.set_defaults(func=_cmd_milnor)

    p = sub.add_parser("preset-list", help="list bundled domains and diagrams")
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_preset_list)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        _emit(args.func(args), args)
    except InternalConsistencyError as e:
        _print_error(f"internal consistency failure: {e}")
        return 1
    except ValueError as e:  # ComplexError, DiagramError and BuildError among them
        _print_error(f"error: {e}")
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from helmcut import groups
from helmcut.cli import run
from helmcut.complexes import (
    MarkedComplex,
    build_complex,
    marked_complex_to_json,
    product_with_interval,
)

from test_complexes import RP2_6
from test_cuts import (
    PINCH,
    TRIANGLE_IN_THREE_TETS,
    WHISKER,
    meridian_disk_with_whisker,
    pinched_disk,
    solid_klein_bottle,
)
from test_domains import cone_over_torus, punctured_rp2_x_s1


def run_capture(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_preset_list(capsys):
    code, out, _ = run_capture(capsys, "preset-list")
    assert code == 0
    data = json.loads(out)
    assert "ball" in data["presets"] and "whitehead" in data["diagrams"]


def test_homology_preset(capsys):
    code, out, _ = run_capture(capsys, "homology", "--preset", "shell")
    assert code == 0
    assert json.loads(out)["betti"] == [1, 0, 1, 0]


def test_analyze_shell(capsys):
    code, out, _ = run_capture(capsys, "analyze", "--preset", "shell")
    assert code == 0
    data = json.loads(out)
    assert data["all_checks_pass"] and data["simple"]["simple"]


def test_classify_cuts_flagship(capsys):
    code, out, _ = run_capture(
        capsys, "classify-cuts", "--preset", "trefoil_mapping_torus", "--system", "fiber"
    )
    assert code == 0
    data = json.loads(out)
    assert data["is_helmholtz_cut_system"] is False
    assert data["is_weak_cut_system"] is True


def test_cut_handlebody2(capsys):
    code, out, _ = run_capture(capsys, "cut", "--preset", "handlebody2")
    assert code == 0
    data = json.loads(out)
    assert data["component_count"] == 1
    assert data["component_betti"] == [[1, 0, 0, 0]]


def test_milnor_whitehead(capsys):
    code, out, _ = run_capture(
        capsys, "milnor", "--pd", "whitehead.pd", "--indices", "1,1,2,2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["delta"] == 0 and abs(data["mu"]) == 1
    # the truncation follows the index length, so no length is too long
    code, out, _ = run_capture(capsys, "milnor", "--pd", "whitehead", "--indices", "1,1,2,1,2")
    assert code == 0 and json.loads(out)["indices"] == [1, 1, 2, 1, 2]


def test_link_commands(capsys):
    code, out, _ = run_capture(capsys, "link-lk", "--pd", "hopf")
    assert code == 0 and abs(json.loads(out)["linking_matrix"][0][1]) == 1
    code, out, _ = run_capture(capsys, "link-seifert", "--pd", "trefoil")
    assert code == 0 and json.loads(out)["genus"] == 1
    code, out, _ = run_capture(capsys, "link-verdict", "--pd", "hopf")
    assert code == 0 and json.loads(out)["weakly_helmholtz"] == "no"


def test_input_file_and_output_file(tmp_path, capsys):
    from helmcut.builders import preset
    from helmcut.complexes import marked_complex_to_json

    src = tmp_path / "domain.json"
    src.write_text(json.dumps(marked_complex_to_json(preset("ball"))))
    dst = tmp_path / "out.json"
    code, out, _ = run_capture(capsys, "homology", "--input", str(src), "--output", str(dst))
    assert code == 0 and out == ""
    assert json.loads(dst.read_text())["betti"] == [1, 0, 0, 0]


def test_exit_code_2_on_bad_input(tmp_path, capsys):
    assert run_capture(capsys, "analyze", "--preset", "nosuch")[0] == 2
    assert run_capture(capsys, "homology")[0] == 2  # neither preset nor input
    assert run_capture(capsys, "milnor", "--pd", "hopf", "--indices", "1")[0] == 2
    # the Magnus truncation is derived, not an option
    assert run_capture(capsys, "link-verdict", "--pd", "hopf", "--q", "5")[0] == 2
    assert run_capture(capsys, "milnor", "--pd", "hopf", "--indices", "1,2", "--q", "4")[0] == 2
    assert run_capture(capsys, "link-lk", "--pd", "missing-file.pd")[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run_capture(capsys, "homology", "--input", str(bad))[0] == 2
    bad.write_text(json.dumps({"simplices": [[0, 0, 1]]}))
    assert run_capture(capsys, "homology", "--input", str(bad))[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("link-lk", "--pd", "{tmp}"),
        ("link-lk", "--pd", "hopf", "--output", "{tmp}/missing/x.json"),
        ("homology", "--input", "{tmp}"),
        ("homology", "--preset", "ball", "--output", "{tmp}"),
    ],
)
def test_unreadable_input_or_unwritable_output_exits_2_with_one_line(tmp_path, capsys, argv):
    code, out, err = run_capture(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"simplices": 5}',
        '{"simplices": [[0, 1, 2]], "marked_subcomplexes": 3}',
        '{"simplices": [[0, 1, 2]], "marked_subcomplexes": {"m": 7}}',
        '{"simplices": [[0, 1, 2]], "marked_subcomplexes": {"m": [7]}}',
        '{"simplices": [[0.9, 1, 2, 3], [0.2, 1, 2, 4]]}',
        '{"simplices": [[true, 2, 3]]}',
        '{"simplices": [[0, 1, 2, 3]], "marks": {"a": [[0, 1, 2]]}}',
    ],
)
def test_malformed_json_complex_exits_2_with_one_line(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run_capture(capsys, "homology", "--input", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"simplices": [[0, 1, 2, 3], [0, 4, 5, 6]]}',
        '{"simplices": [[0, 1, 2, 3], [0, 4, 5, 6], [0, 7, 8, 9]]}',
    ],
)
def test_boundary_pinched_at_a_vertex_exits_2_with_one_line(tmp_path, capsys, text):
    bad = tmp_path / "pinched.json"
    bad.write_text(text)
    code, out, err = run_capture(capsys, "analyze", "--input", str(bad))
    assert (code, out) == (2, "")
    assert err == "error: not a closed surface: link of vertex 0 is not a single circle\n"


@pytest.mark.parametrize(
    "command, data, err",
    [
        # the Lefschetz duality behind the relative-class criterion needs
        # an orientable domain, so this is bad input, not an internal failure
        (
            "classify-cuts",
            lambda: marked_complex_to_json(solid_klein_bottle()),
            "domain complex is not orientable",
        ),
        (
            "classify-cuts",
            lambda: TRIANGLE_IN_THREE_TETS,
            "triangle (0, 1, 2) lies in 3 tetrahedra, not at most 2",
        ),
        (
            "analyze",
            lambda: {"simplices": [[0, 1, 2, 3], [4, 5, 6, 7]]},
            "domain complex must be connected",
        ),
        (
            "analyze",
            lambda: marked_complex_to_json(product_with_interval(build_complex(RP2_6))),
            "domain complex is not orientable",
        ),
        # a non-manifold apex whose boundary is a closed orientable torus
        pytest.param(
            "analyze",
            lambda: marked_complex_to_json(MarkedComplex(cone_over_torus(), {})),
            "domain complex is not a 3-manifold: chi 1, boundary chi 0",
            id="analyze-cone_over_torus",
        ),
        # a manifold, but not orientable, bounded by a sphere
        pytest.param(
            "analyze",
            lambda: marked_complex_to_json(MarkedComplex(punctured_rp2_x_s1(), {})),
            "domain complex is not orientable",
            id="analyze-punctured_rp2_x_s1",
        ),
        # marks removed: the empty system has no surface to check, and is
        # still rejected
        pytest.param(
            "classify-cuts",
            lambda: {"simplices": marked_complex_to_json(solid_klein_bottle())["simplices"]},
            "domain complex is not orientable",
            id="classify-cuts-empty-solid_klein_bottle",
        ),
        pytest.param(
            "classify-cuts",
            lambda: {"simplices": TRIANGLE_IN_THREE_TETS["simplices"]},
            "triangle (0, 1, 2) lies in 3 tetrahedra, not at most 2",
            id="classify-cuts-empty-triangle_in_three_tets",
        ),
    ],
)
def test_non_domain_exits_2_with_one_line(tmp_path, capsys, command, data, err):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data()))
    code, out, stderr = run_capture(capsys, command, "--input", str(bad))
    assert (code, out, stderr) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("command", ["cut", "classify-cuts"])
def test_surface_with_a_bare_edge_exits_2_with_one_line(tmp_path, capsys, command):
    bad = tmp_path / "whisker.json"
    bad.write_text(json.dumps(marked_complex_to_json(meridian_disk_with_whisker())))
    code, out, err = run_capture(capsys, command, "--input", str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: non-surface: edge {WHISKER} of disk has 0 triangles\n"


@pytest.mark.parametrize("command", ["cut", "classify-cuts"])
def test_surface_pinched_to_the_boundary_exits_2_with_one_line(tmp_path, capsys, command):
    bad = tmp_path / "pinched.json"
    bad.write_text(json.dumps(marked_complex_to_json(pinched_disk())))
    code, out, err = run_capture(capsys, command, "--input", str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: boundary-leak: interior vertex {PINCH} of disk lies on the domain boundary\n"


@pytest.mark.parametrize(
    "command",
    [["link-lk"], ["link-seifert"], ["link-verdict"], ["milnor", "--indices", "1,2"]],
)
def test_non_planar_pd_code_exits_2_with_one_line(tmp_path, capsys, command):
    # its corners trace 2 faces; a planar diagram of 2 crossings in one piece has 4
    pd = tmp_path / "non_planar.pd"
    pd.write_text("X(1,2,3,4) X(3,4,1,2)")
    code, out, err = run_capture(capsys, *command, "--pd", str(pd))
    assert (code, out) == (2, "")
    assert err == "error: not a planar diagram: its corners trace 2 faces, not V + 2C = 4\n"


@pytest.mark.parametrize(
    "indices, bad",
    [
        ("\u0661,\u0662", "\u0661"),
        ("1,\u00b2", "\u00b2"),
        ("1,+2", "+2"),
        ("1,-2", "-2"),
        ("1,,2", ""),
        ("1,2.0", "2.0"),
        ("1_0,2", "1_0"),
        ("1, 0x2", " 0x2"),
        (" 1 , 2 ", None),
    ],
)
def test_milnor_indices_are_ascii_digits(capsys, indices, bad):
    code, out, err = run_capture(capsys, "milnor", "--pd", "whitehead", "--indices", indices)
    if bad is None:
        assert code == 0 and json.loads(out)["indices"] == [1, 2]
    else:
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith(f": {bad!r}\n") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command",
    [
        ("link-lk",),
        ("link-seifert",),
        ("link-verdict",),
        ("milnor", "--indices", "1,2"),
    ],
)
def test_link_commands_reject_an_odd_inter_component_crossing_count(tmp_path, capsys, command):
    # two components that cross once: no linking number, no link group
    pd = tmp_path / "one_crossing.pd"
    pd.write_text("X(1,2,1,2)\n")
    code, out, err = run_capture(capsys, command[0], "--pd", str(pd), *command[1:])
    assert (code, out) == (2, "")
    assert err == "error: odd inter-component crossing sum\n"


@pytest.mark.parametrize(
    "option, value",
    [
        ("--mubar-length", "-2"),
        ("--mubar-length", "0"),
        ("--mubar-length", "1"),
    ],
)
@pytest.mark.parametrize("pd", ["hopf", "whitehead"])
def test_link_verdict_rejects_q_or_length_below_2(capsys, pd, option, value):
    code, out, err = run_capture(capsys, "link-verdict", "--pd", pd, option, value)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and value in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "system, needle",
    [
        (",", "names: ','"),
        ("", "names: ''"),
        ("disk_0,", "names: 'disk_0,'"),
        ("disk_0,,disk_1", "names: 'disk_0,,disk_1'"),
        ("disk_0,disk_0", "named twice: 'disk_0'"),
        ("disk_1,disk_0,disk_1", "named twice: 'disk_1'"),
    ],
)
@pytest.mark.parametrize("command", ["cut", "classify-cuts"])
def test_system_rejects_empty_and_repeated_names(capsys, command, system, needle):
    code, out, err = run_capture(capsys, command, "--preset", "handlebody2", "--system", system)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and needle in err and err.count("\n") == 1


def test_unknown_subcommand_exit_2(capsys):
    assert run(["frobnicate"]) == 2


def test_determinism_byte_identical(capsys):
    commands = [
        ("homology", "--preset", "solid_torus"),
        ("analyze", "--preset", "torus_shell"),
        ("classify-cuts", "--preset", "handlebody2"),
        ("link-verdict", "--pd", "whitehead"),
        ("milnor", "--pd", "hopf", "--indices", "1,2"),
        ("preset-list",),
    ]
    for cmd in commands:
        _, out1, _ = run_capture(capsys, *cmd)
        _, out2, _ = run_capture(capsys, *cmd)
        assert out1 == out2 and out1


def test_rewrite_depth_error_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    def fail(D, q):
        raise groups.RewriteDepthError("meridian rewriting did not stabilize")

    monkeypatch.setattr(groups, "_meridian_series", fail)
    # a freshly parsed diagram has no derived expansions yet
    pd = tmp_path / "whitehead.pd"
    pd.write_text("X(6,1,7,2) X(10,7,5,8) X(2,10,3,9) X(8,4,9,3) X(4,5,1,6)\n")
    code, out, err = run_capture(capsys, "link-verdict", "--pd", str(pd))
    assert (code, out) == (1, "")
    assert err.startswith("internal consistency failure: ") and err.count("\n") == 1


def _run_on_file(text: str, suffix: str, *argv):
    """Exit code and stderr of the CLI on argv plus a file holding text."""
    fd, path = tempfile.mkstemp(suffix=suffix)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write(text)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run([*argv, path])
    finally:
        os.unlink(path)
    return code, err.getvalue()


def _assert_cli_contract(code: int, err: str) -> None:
    """Exit 0 with nothing on stderr, or exit 2 with one error line."""
    if code == 0:
        assert err == ""
    else:
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (code, err)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=12,
)
_simplex_lists = st.lists(st.lists(st.integers(-2, 6) | _json_values, max_size=5), max_size=5)


@settings(max_examples=60, deadline=None)
@given(
    _json_values
    | st.fixed_dictionaries(
        {"simplices": _simplex_lists},
        optional={
            "marked_subcomplexes": st.dictionaries(
                st.text(max_size=2), _simplex_lists | _json_values, max_size=2
            ),
            "marks": _json_values,
        },
    )
)
def test_homology_input_contract(data):
    code, err = _run_on_file(json.dumps(data), ".json", "homology", "--input")
    _assert_cli_contract(code, err)
    # an unknown key is an error, never ignored
    if isinstance(data, dict) and set(data) - {"simplices", "marked_subcomplexes"}:
        assert code == 2


_pd_tokens = st.one_of(
    st.builds("X({},{},{},{})".format, *[st.integers(-1, 6)] * 4),
    st.builds("U({})".format, st.integers(0, 6)),
    st.sampled_from(["X(1,2)", "U()", "X(", ",", " ", "\n", "# c\n", "Y(1)", "X(1,2,3,4,5)"]),
    st.text(max_size=3),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_pd_tokens, max_size=6).map(" ".join))
def test_link_lk_pd_contract(text):
    _assert_cli_contract(*_run_on_file(text, ".pd", "link-lk", "--pd"))


_system_entries = st.sampled_from(["disk_0", "disk_1", "disk_2", "", " ", "disk_0 "]) | st.text(
    max_size=3
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_system_entries, max_size=3).map(",".join))
def test_classify_cuts_system_contract(system):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(["classify-cuts", "--preset", "handlebody2", "--system", system])
    _assert_cli_contract(code, err.getvalue())

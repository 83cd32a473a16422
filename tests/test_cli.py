from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import small_graph_st
from sampling import chain_graph
from oeg.boundary import boundary_census, bounded_points
from oeg.cli import build_parser, main
from oeg.dsl import print_graph, print_point, print_witness
from oeg.dynamics import conjugacy_witness
from oeg.graphs import INF, Graph
from oeg.zoo import (
    amplified_arrow_loop,
    arrow_into_loop,
    chained_loops_four,
    full_shift_two,
    lone_loop,
    lone_vertex,
    two_cycle,
)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, g in [
        ("E1", arrow_into_loop()),
        ("F1", two_cycle()),
        ("E2", full_shift_two()),
        ("E2m", chained_loops_four()),
        ("G0", lone_vertex()),
        ("Floop", lone_loop()),
    ]:
        p = tmp_path / f"{name}.graph"
        p.write_text(print_graph(g, name))
        paths[name] = str(p)
    from test_dynamics import example_witness

    w = tmp_path / "W1.json"
    w.write_text(print_witness(example_witness()))
    paths["W1"] = str(w)
    paths["dir"] = tmp_path
    return paths


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_det(files, capsys):
    code, out = run(capsys, "det", files["E2"])
    assert code == 0 and out.strip() == "-1"
    code, out = run(capsys, "det", files["E2m"])
    assert code == 0 and out.strip() == "1"


def test_census(files, capsys):
    code, out = run(capsys, "census", files["E1"])
    assert code == 0 and out.split() == ["(b)*", "a.(b)*"]
    code, out = run(capsys, "--json", "census", files["E2"])
    assert code == 0
    data = json.loads(out)
    assert data["finite"] is False and "witness" in data


def test_shift(files, capsys):
    code, out = run(capsys, "shift", files["E1"], "a.(b)*", "1")
    assert code == 0 and out.strip() == "(b)*"
    code, _ = run(capsys, "shift", files["G0"], "@v", "1")
    assert code == 2


def test_verify_oe(files, capsys):
    code, _ = run(capsys, "verify-oe", files["E1"], files["F1"], files["W1"])
    assert code == 0


def test_verify_oe_negative(files, capsys, tmp_path):
    bad = json.loads((tmp_path / "W1.json").read_text())
    bad["k1"] = [[p, 0] for p, _ in bad["k1"]]
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(bad))
    code, out = run(capsys, "verify-oe", files["E1"], files["F1"], str(f))
    assert code == 1 and "fails" in out


@pytest.mark.parametrize("fault", ["a fractional value", "a point mapped twice"])
def test_verify_oe_rejects_bad_tables(files, capsys, tmp_path, fault):
    from test_dsl import bad_witness_text

    f = tmp_path / "bad.json"
    f.write_text(bad_witness_text(fault))
    code, _ = run(capsys, "verify-oe", files["E1"], files["F1"], str(f))
    assert code == 2


def test_search_oe(files, capsys):
    code, out = run(capsys, "search-oe", files["G0"], files["Floop"])
    assert code == 0 and json.loads(out)["h"]
    code, _ = run(capsys, "search-oe", files["G0"], files["E1"])
    assert code == 1


def test_decide_amplified(files, capsys):
    code, _ = run(capsys, "decide-amplified", files["E1"], files["F1"])
    assert code == 1
    code, _ = run(capsys, "decide-amplified", files["E2"], files["F1"])
    assert code == 0


def test_info(files, capsys):
    code, out = run(capsys, "--json", "info", files["E1"])
    assert code == 0
    data = json.loads(out)
    assert data["conditionL"] is False and data["detIMinusA"] == 0
    assert data["boundary"]["finite"] is True and data["fixedPoints"] == 1


def test_groupoid_commands(files, capsys):
    code, out = run(capsys, "groupoid", "make", files["E1"], "a.(b)*", "1", "0", "(b)*")
    assert code == 0 and out.strip() == "(a.(b)* | 1 | (b)*)"
    code, out = run(
        capsys, "groupoid", "compose", files["E1"], "(a.(b)* | 1 | (b)*)", "((b)* | 1 | (b)*)"
    )
    assert code == 0 and out.strip() == "(a.(b)* | 2 | (b)*)"
    code, out = run(capsys, "groupoid", "isotropy", files["F1"], "(c.d)*")
    assert code == 0 and out.strip() == "2Z"
    code, out = run(capsys, "groupoid", "principality", files["E2"])
    assert code == 0
    code, out = run(capsys, "groupoid", "principality", files["Floop"])
    assert code == 1 and "witness" in out


def test_weyl_commands(files, capsys):
    code, out = run(capsys, "weyl", "germ", files["E1"], "a", "@v", "(b)*")
    assert code == 0 and "[a | @v | (b)*]" in out
    code, out = run(capsys, "weyl", "winding", files["E1"], "[b | @v | (b)*]", "[@v | @v | (b)*]")
    assert code == 0 and out.strip() == "1"
    code, _ = run(capsys, "weyl", "equiv", files["E1"], "[b | @v | (b)*]", "[@v | @v | (b)*]")
    assert code == 1
    code, out = run(capsys, "weyl", "phi-check", files["F1"])
    assert code == 0 and "ok: True" in out


def test_move_commands(files, capsys, tmp_path):
    part = tmp_path / "split.part"
    part.write_text("split 1: {a11} | {a12}\n")
    code, out = run(capsys, "move", "out-split", files["E2"], str(part), "--map-point", "(a11)*")
    assert code == 0
    assert "vertex 1^1, 1^2, 2^1" in out and out.strip().endswith("(a11^1)*")
    code, out = run(capsys, "move", "amplify", files["E1"])
    assert code == 0 and "* inf" in out
    code, out = run(capsys, "move", "tclose", files["F1"])
    assert code == 0 and out.count("* inf") == 4
    amp = tmp_path / "amp.graph"
    amp.write_text(
        "graph amp\nvertex u, v\nedge A * inf: u -> v\nedge B * inf: v -> v\n"
    )
    code, out = run(capsys, "move", "saturate", str(amp), "A[0].B[0]", "--map-point", "M[3].(B[0])*")
    assert code == 0
    assert "edge M * inf: u -> v" in out and out.strip().endswith("A[6].(B[0])*")


@pytest.mark.parametrize("point", ["q", "a11[1]", "a11[-1]", "a11.a22", "a11", "@1", "a12.(a11)*", "(a12)*"])
def test_out_split_map_point_rejects_malformed_points(files, capsys, tmp_path, point):
    part = tmp_path / "split.part"
    part.write_text("split 1: {a11} | {a12}\n")
    code, _ = run(capsys, "move", "out-split", files["E2"], str(part), "--map-point", point)
    assert code == 2


@pytest.mark.parametrize(
    "graph, partition, point, image",
    [
        ("vertex v, v^1\nedge a: v -> v\nedge b: v -> v^1\n", "split v: {a} | {b}", "a.b", "a^2.b"),
        ("vertex s, t\nedge a_b1: t -> t\nedge a * 2: s -> t\n", "split s: {a[0]} | {a[1]}",
         "a[0].(a_b1)*", "a_b1^1_2.(a_b1^1)*"),
    ],
)
def test_out_split_names_avoid_existing_ones(capsys, tmp_path, graph, partition, point, image):
    (tmp_path / "g.graph").write_text("graph g\n" + graph)
    (tmp_path / "g.part").write_text(partition + "\n")
    code, out = run(capsys, "move", "out-split", str(tmp_path / "g.graph"), str(tmp_path / "g.part"),
                    "--map-point", point)
    assert code == 0 and out.strip().endswith(image)


def test_extend_cocycles_command(files, capsys):
    code, out = run(capsys, "extend-cocycles", files["E1"], files["F1"], files["W1"], "2")
    assert code == 0
    data = json.loads(out)
    assert ["a.(b)*", 1] in data["k"] and ["a.(b)*", 0] in data["l"]


_IDENTITY_TO_THE_7 = {
    "alpha": [["(b)*", "(b)*"], ["a.(b)*", "a.(b)*"]],
    "m": [["(b)*", 10**7], ["a.(b)*", 10**7]],
    "n": [["(b)*", 10**7], ["a.(b)*", 10**7]],
}


@pytest.mark.parametrize(
    "argv, key, want",
    [
        (["extend-cocycles", "E1", "F1", "W1", "1000000000000"], "k", [["(b)*", 0], ["a.(b)*", 1]]),
        (["conjugate-pseudo", "E1", "F1", "W1", "el"], "m", [["(c.d)*", 0], ["(d.c)*", 0]]),
    ],
    ids=["extend-cocycles", "conjugate-pseudo"],
)
def test_huge_degrees_answer_at_once(argv, key, want, files, tmp_path):
    """Cocycle degree 10^12, and an element with exponents 10^7, each take
    a few table products: a fresh interpreter answers in under a second."""
    (tmp_path / "el.json").write_text(json.dumps(_IDENTITY_TO_THE_7))
    named = dict(files, el=str(tmp_path / "el.json"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "oeg.cli", *(named.get(w, w) for w in argv)],
        capture_output=True, text=True, env=_src_env(), timeout=5,
    )
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)[key] == want


def test_pseudo_commands(files, capsys, tmp_path):
    el = {"alpha": [["(b)*", "(b)*"]], "m": [["(b)*", 1]], "n": [["(b)*", 0]]}
    f = tmp_path / "el.json"
    f.write_text(json.dumps(el))
    code, out = run(capsys, "verify-pseudo", files["E1"], str(f))
    assert code == 0
    code, out = run(capsys, "conjugate-pseudo", files["E1"], files["F1"], files["W1"], str(f))
    assert code == 0
    data = json.loads(out)
    assert data["alpha"] == [["(d.c)*", "(d.c)*"]]


@pytest.mark.parametrize(
    "argv, censuses, want",
    [
        pytest.param(argv, censuses, want, id=name)
        for name, argv, censuses, want in [
            ("verify-oe", ["verify-oe", "E1", "F1", "W1"], 0, 0),
            ("search-oe", ["search-oe", "E1", "F1"], 2, 0),
            ("search-oe-no", ["search-oe", "G0", "E1"], 0, 1),
            ("extend-cocycles", ["extend-cocycles", "E1", "F1", "W1", "3"], 0, 0),
            ("verify-pseudo", ["verify-pseudo", "E1", "el"], 0, 0),
            ("conjugate-pseudo", ["conjugate-pseudo", "E1", "F1", "W1", "el"], 0, 0),
        ]
    ],
)
def test_witness_commands_census_each_graph_once(argv, censuses, want, files, capsys, tmp_path, monkeypatch):
    """A witness check counts the boundaries and lists no census, so only
    ``search-oe`` censuses E and F, once each, to pair their points; a "no"
    is decided from the counts and lists none."""
    from oeg import boundary, dynamics

    (tmp_path / "el.json").write_text(json.dumps(_IDENTITY_TO_THE_7))
    named = dict(files, el=str(tmp_path / "el.json"))
    calls = []
    census = boundary.boundary_census
    for module in (boundary, dynamics):
        monkeypatch.setattr(module, "boundary_census", lambda g: calls.append(g) or census(g))
    code, _ = run(capsys, *(named.get(w, w) for w in argv))
    assert code == want and len(calls) == censuses


def test_input_errors(files, capsys):
    code, _ = run(capsys, "det", str(files["dir"] / "nope.graph"))
    assert code == 2
    code, _ = run(capsys, "shift", files["E1"], "zzz", "1")
    assert code == 2
    code, _ = run(capsys, "no-such-command")
    assert code == 2


def test_det_of_infinite_class_is_input_error(tmp_path, capsys):
    p = tmp_path / "amp.graph"
    p.write_text(print_graph(amplified_arrow_loop(), "Amp"))
    code = main(["det", str(p)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_console_entrypoint_smoke(files):
    proc = subprocess.run(
        [sys.executable, "-m", "oeg.cli", "det", files["E2"]],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "-1"


def test_malformed_tables_are_input_errors(files, capsys, tmp_path):
    bad = tmp_path / "bad_el.json"
    bad.write_text(json.dumps({"alpha": [["(b)*", "(b)*"]], "m": [["(b)*", "x"]], "n": [["(b)*", 0]]}))
    code, _ = run(capsys, "verify-pseudo", files["E1"], str(bad))
    assert code == 2
    code, _ = run(capsys, "groupoid", "compose", files["E1"], "((b)* | one | (b)*)", "((b)* | 1 | (b)*)")
    assert code == 2
    # JSON that is not an object, and a point that is not a string
    not_object = tmp_path / "null.json"
    not_object.write_text("null")
    code, _ = run(capsys, "verify-oe", files["E1"], files["F1"], str(not_object))
    assert code == 2
    bad.write_text(json.dumps({"alpha": [[None, "(b)*"]], "m": [], "n": []}))
    code, _ = run(capsys, "verify-pseudo", files["E1"], str(bad))
    assert code == 2


def test_internal_errors_exit_3(files, capsys, monkeypatch):
    """A failure inside the library is neither a "no" (1) nor an input
    error (2)."""
    from oeg import boundary

    def broken(g):
        raise RuntimeError("census exploded")

    monkeypatch.setattr(boundary, "boundary_census", broken)
    code = main(["census", files["E1"]])
    err = capsys.readouterr().err
    assert code == 3
    assert err.splitlines() == ["internal error: RuntimeError: census exploded"]


def _one_error_line(err: str) -> bool:
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


_OVER_LIMIT = {
    "10^12 parallel edges": ("graph H\nvertex u, v\nedge a * 1000000000000: u -> v\n", "1000000000001"),
    "40-rung doubled chain": (
        "graph C\nvertex " + ", ".join(f"v{i}" for i in range(41)) + "\n"
        + "".join(f"edge e{i} * 2: v{i} -> v{i + 1}\n" for i in range(40)),
        str(2**41 - 1),
    ),
}


@pytest.mark.parametrize("command", ["census", "info", "search-oe", "verify-oe"])
@pytest.mark.parametrize("graph", sorted(_OVER_LIMIT))
def test_census_over_the_limit_exits_2(command, graph, tmp_path, capsys):
    """A finite boundary too large to list exits 2 at once, naming its size
    and the census limit, wherever a command needs the census or, as
    ``verify-oe`` does, the count of the boundary's points."""
    from oeg.dsl import parse_graph

    text, size = _OVER_LIMIT[graph]
    p = tmp_path / "big.graph"
    p.write_text(text)
    argv = [command, str(p)] + ([str(p)] if command in ("search-oe", "verify-oe") else [])
    if command == "verify-oe":
        sink = "@" + parse_graph(text).graph.vertices[-1]
        w = tmp_path / "one.json"
        w.write_text(json.dumps({"h": [[sink, sink]], "k1": [], "l1": [], "k1p": [], "l1p": []}))
        argv.append(str(w))
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: the boundary has {size} points, over the census limit of 1000000 points\n"


def test_search_oe_over_the_limit_says_no_from_the_counts(tmp_path, capsys):
    """Two boundaries too large to list, of different sizes, are told apart
    by their tail-class counts: a "no", at once, with no census."""
    for name, mult in (("e", 10**12), ("f", 10**12 + 1)):
        (tmp_path / f"{name}.graph").write_text(f"graph {name}\nvertex u, v\nedge a * {mult}: u -> v\n")
    start = time.perf_counter()
    code = main(["search-oe", str(tmp_path / "e.graph"), str(tmp_path / "f.graph")])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "not orbit equivalent\n" and captured.err == ""


def test_info_on_a_chain_deeper_than_the_recursion_limit(tmp_path, capsys):
    """``info`` counts the boundary and its isotropy without listing it, so a
    chain far deeper than Python's recursion limit is reported."""
    p = tmp_path / "chain.graph"
    p.write_text(print_graph(chain_graph(2000), "Chain"))
    code = main(["--json", "info", str(p)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["boundary"] == {"finite": True, "size": 2000, "witness": None}
    assert data["isotropyCensus"] == {"0": 2000}


_HUGE_LOOP = "graph B\nvertex u\nedge a * 1000000000000: u -> u\n"


def test_info_counts_the_fixed_points_of_a_huge_loop_class(tmp_path, capsys):
    p = tmp_path / "loop.graph"
    p.write_text(_HUGE_LOOP)
    start = time.perf_counter()
    code = main(["--json", "info", str(p)])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(capsys.readouterr().out)["fixedPoints"] == 10**12


@pytest.mark.parametrize(
    "graph, command, rest",
    [
        (_HUGE_LOOP, ["weyl", "phi-check"], []),
        (_HUGE_LOOP, ["move", "out-split"], ["{empty}"]),
    ],
    ids=["phi-check", "out-split"],
)
def test_listing_a_huge_class_exits_2(graph, command, rest, tmp_path, capsys):
    """A command that would list a class of 10^12 parallel edges one by one
    exits 2 at once, naming the count and the census limit."""
    (tmp_path / "g.graph").write_text(graph)
    (tmp_path / "empty.part").write_text("")
    argv = [*command, str(tmp_path / "g.graph"), *(str(tmp_path / "empty.part") if w == "{empty}" else w for w in rest)]
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: listing 1000000000000 edges one by one is over the census limit of 1000000\n"


def test_saturate_indexes_a_huge_finite_class(tmp_path, capsys):
    """Saturation lists none of the pattern head's finite parallels, so a
    class of 10^12 of them beside the infinite one is no obstacle: the
    point maps at once through the indexing that skips the whole class."""
    p = tmp_path / "g.graph"
    p.write_text("graph S\nvertex u, v\nedge a * 1000000000000: u -> v\nedge b * inf: u -> v\nedge c: v -> v\n")
    start = time.perf_counter()
    code = main(["move", "saturate", str(p), "b[0].c", "--map-point", "M[5].(c[0])*"])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out.splitlines()[-2:] == ["edge M * inf: u -> v", "a[10].(c)*"]


@pytest.mark.parametrize(
    "element",
    [
        {"alpha": [["a.(b)*", "(b)*"]], "m": [["a.(b)*", -1]], "n": [["a.(b)*", 0]]},
        {"alpha": [["(b)*", "(b)*"]], "m": [["(b)*", 0]], "n": [["(b)*", -2]]},
    ],
    ids=["m", "n"],
)
@pytest.mark.parametrize("command", ["verify-pseudo", "conjugate-pseudo"])
def test_negative_element_exponents_exit_2(command, element, files, tmp_path, capsys):
    f = tmp_path / "el.json"
    f.write_text(json.dumps(element))
    graphs = [files["E1"]] if command == "verify-pseudo" else [files["E1"], files["F1"], files["W1"]]
    code = main([command, *graphs, str(f)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert _one_error_line(captured.err), captured.err
    assert "must take natural values" in captured.err


def test_unreadable_files_are_input_errors(files, tmp_path, capsys):
    """A directory or a file that is not UTF-8 text, in any file argument,
    exits 2 with one error line."""
    binary = tmp_path / "binary.graph"
    binary.write_bytes(b"graph G\nvertex v\xff\xfe\n")
    part = tmp_path / "split.part"
    part.write_text("split 1: {a11} | {a12}\n")
    el = tmp_path / "el.json"
    el.write_text(json.dumps({"alpha": [["(b)*", "(b)*"]], "m": [["(b)*", 1]], "n": [["(b)*", 0]]}))
    directory, bad = str(files["dir"]), str(binary)
    cases = [
        ["census", directory],
        ["census", bad],
        ["det", directory],
        ["search-oe", files["G0"], bad],
        ["verify-oe", files["E1"], files["F1"], directory],
        ["verify-oe", files["E1"], files["F1"], bad],
        ["extend-cocycles", files["E1"], files["F1"], directory, "1"],
        ["verify-pseudo", files["E1"], bad],
        ["conjugate-pseudo", files["E1"], files["F1"], files["W1"], directory],
        ["conjugate-pseudo", files["E1"], files["F1"], bad, str(el)],
        ["move", "out-split", files["E2"], directory],
        ["move", "out-split", files["E2"], bad],
        ["move", "out-split", directory, str(part)],
    ]
    for argv in cases:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert _one_error_line(captured.err), (argv, captured.err)


def test_phi_check_negative_bound_exits_2(files, capsys):
    code = main(["weyl", "phi-check", files["F1"], "--bound", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert _one_error_line(captured.err)


@pytest.mark.parametrize(
    "bound, text",
    [
        ("100000", "the pool has 10000200001 germs up to the bound"),
        ("1000000000000", "the shift orbits up to the bound hold 1000000000001 points"),
    ],
    ids=["germs", "orbit points"],
)
def test_phi_check_over_the_census_limit_exits_2_at_once(bound, text, files):
    """On the lone loop, 10^10 germs or 10^12 orbit points are counted, not
    walked: a fresh interpreter exits 2 in under a second, naming the count
    and the limit."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "oeg.cli", "weyl", "phi-check", files["Floop"], "--bound", bound],
        capture_output=True, text=True, env=_src_env(), timeout=5,
    )
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: {text}, over the census limit of 1000000\n"


def test_phi_check_prints_its_report(files, capsys):
    code, out = run(capsys, "weyl", "phi-check", files["F1"], "--bound", "3")
    assert code == 0
    assert out == (
        "bound: 3\npoolSize: 2\npoolComplete: True\nelements: 14\nclasses: 14\ngerms: 32\nok: True\nviolations: []\n"
    )


# an integer token longer than the 4300 digits Python's int() converts
_HUGE = "9" * 5000

# (argv over the ``files`` fixture's names and the huge-token files below)
_HUGE_SITES = {
    "graph multiplicity": ["census", "huge_graph"],
    "point edge index": ["shift", "E1", f"a[{_HUGE}]", "0"],
    "partition edge index": ["move", "out-split", "E2", "huge_part"],
    "witness table": ["verify-oe", "E1", "F1", "huge_witness"],
}


@pytest.mark.parametrize("site", list(_HUGE_SITES))
def test_huge_integer_tokens_exit_2(site, files, tmp_path, capsys):
    """An integer token too long for int() is an input error wherever the
    formats read one."""
    texts = {
        "huge_graph": f"graph G\nvertex u, v\nedge a * {_HUGE}: u -> v\n",
        "huge_part": f"split 1: {{a11[{_HUGE}]}} | {{a12}}\n",
        # json.dumps cannot print such an integer, so the text is written out
        "huge_witness": '{"h": [], "k1": [["a.(b)*", %s]], "l1": [], "k1p": [], "l1p": []}' % _HUGE,
    }
    named = dict(files)
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
        named[name] = str(tmp_path / name)
    code = main([named.get(w, w) for w in _HUGE_SITES[site]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert _one_error_line(captured.err), captured.err


def test_shift_past_the_end_by_a_huge_count_prints_a_short_error(tmp_path, capsys):
    """A count of 4000 digits shifts the point past its end: exit 2 with one
    short error line, not the count's digits."""
    p = tmp_path / "g.graph"
    p.write_text("graph G\nvertex u, v\nedge a: u -> v\n")
    code = main(["shift", str(p), "a", "9" * 4000])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert _one_error_line(captured.err) and len(captured.err) < 120, captured.err



# 10^6000 - 2 * 10^3000, as digits: det(I - A) = 1 - N^2 is minus this for
# N = 10^3000 - 1, spelled without converting an integer past the digit limit
_MINUS_DET = "9" * 2999 + "8" + "0" * 3000


@pytest.mark.parametrize(
    "argv, want",
    [
        (["det"], f"-{_MINUS_DET}\n"),
        (["--json", "det"], f'{{\n  "detIMinusA": -{_MINUS_DET}\n}}\n'),
        (["info"], f"detIMinusA: -{_MINUS_DET}\n"),
        (["--json", "info"], f'  "detIMinusA": -{_MINUS_DET},\n'),
    ],
    ids=["det", "det-json", "info", "info-json"],
)
def test_integers_past_the_digit_limit_print_exactly(argv, want, tmp_path, capsys):
    """Two classes of 10^3000 - 1 edges each way make det(I - A) about 6000
    digits long, past the 4300 Python converts by default: the answer prints
    every digit, and the limit is back in force once it is written."""
    nines = "9" * 3000
    p = tmp_path / "g.graph"
    p.write_text(f"graph H\nvertex u, v\nedge a * {nines}: u -> v\nedge b * {nines}: v -> u\n")
    limit = sys.get_int_max_str_digits()
    code = main(argv + [str(p)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "") and want in captured.out
    assert sys.get_int_max_str_digits() == limit


def test_extend_cocycles_past_the_digit_limit_prints_exactly(tmp_path, capsys):
    """A lone loop's witness with k1 = 10^4300 - 2 and l1 = 10^4300 - 1 is
    read, since its values have 4300 digits, and verifies; its degree-10
    tables pass the limit and print exactly, as the library computes them."""
    from oeg import dynamics
    from oeg.dsl import parse_witness, table_json

    k1, l1 = "9" * 4299 + "8", "9" * 4300
    text = '{"h": [["(e)*", "(e)*"]], "k1": [["(e)*", %s]], "l1": [["(e)*", %s]], "k1p": [["(e)*", %s]], ' \
           '"l1p": [["(e)*", %s]]}' % (k1, l1, k1, l1)
    (tmp_path / "w.json").write_text(text)
    g = lone_loop()
    (tmp_path / "g.graph").write_text(print_graph(g, "L"))
    paths = [str(tmp_path / "g.graph")] * 2 + [str(tmp_path / "w.json")]
    assert main(["verify-oe", *paths]) == 0
    capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    code = main(["extend-cocycles", *paths, "10"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "") and sys.get_int_max_str_digits() == limit
    tables = dynamics.extend_cocycles(parse_witness(g, g, text), 10)
    sys.set_int_max_str_digits(0)
    try:
        assert max(len(str(abs(v))) for t in tables[1:] for v in t.values()) > limit
        want = {"n": 10, "k": table_json(g, tables.k), "l": table_json(g, tables.l),
                "kp": table_json(g, tables.kp), "lp": table_json(g, tables.lp)}
        assert json.loads(captured.out) == want
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv, what", [(["verify-oe", "E1", "F1", "deep"], "witness"),
                                        (["verify-pseudo", "E1", "deep"], "element")],
                         ids=["witness", "element"])
def test_deeply_nested_json_is_an_input_error(argv, what, files, tmp_path, capsys):
    """A file of 100,000 '[' nests deeper than the JSON reader recurses: an
    input error, not an internal one."""
    (tmp_path / "deep").write_text("[" * 100_000)
    named = dict(files, deep=str(tmp_path / "deep"))
    code = main([named.get(w, w) for w in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {what} is not valid JSON: "), captured.err


_U_TO_S = "graph G\nvertex u, s\nedge a: u -> s\n"


@pytest.mark.parametrize(
    "argv, table, key",
    [
        (["verify-pseudo", "g", "f"], {"alpha": {"aa": 0}, "m": [["a", 0]], "n": [["a", 0]]}, "alpha"),
        (["verify-pseudo", "g", "f"], {"alpha": ["aa"], "m": [["a", 0]], "n": [["a", 0]]}, "alpha"),
        (["verify-pseudo", "g", "f"], {"alpha": [["a", "a"]], "m": [["a", 0, 1]], "n": [["a", 0]]}, "m"),
        (["verify-oe", "g", "g", "f"], {"h": {"ab": 0, "@s": 1}, "k1": [], "l1": [], "k1p": [], "l1p": []}, "h"),
        (["verify-oe", "g", "g", "f"], {"h": [["a", "a"]], "k1": "ab", "l1": [], "k1p": [], "l1p": []}, "k1"),
    ],
    ids=["element-object", "element-strings", "element-triple", "witness-object", "witness-string"],
)
def test_tables_of_the_wrong_shape_are_input_errors(argv, table, key, tmp_path, capsys):
    """A table must be a list of [point, value] pairs; before, any JSON value
    was unpacked item by item, so the two-character string "aa" was read
    as the point a with the value a."""
    (tmp_path / "g").write_text(_U_TO_S)
    (tmp_path / "f").write_text(json.dumps(table))
    code = main([str(tmp_path / w) if w in "fg" else w for w in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: the {key!r} table must be a list of [point, value] pairs\n"


def test_a_refused_map_point_leaves_stdout_empty(files, tmp_path, capsys):
    """The split graph is written only once the point to map is read, so an
    input error writes nothing to stdout."""
    (tmp_path / "split").write_text("split 1: {a11} | {a12}\n")
    code = main(["move", "out-split", files["E2"], str(tmp_path / "split"), "--map-point", "(zz)*"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "") and _one_error_line(captured.err), captured.err


# -- which modules each command loads --------------------------------------------

_BASE_MODULES = {"oeg.boundary", "oeg.cli", "oeg.dsl", "oeg.errors", "oeg.graphs"}

# (argv over the ``files`` fixture's names, exit code, library modules beyond the base)
_CLOSURES = {
    "census": (["census", "E1"], 0, set()),
    "det": (["det", "E2"], 0, {"invariants"}),
    "info": (["info", "E1"], 0, {"invariants"}),
    "shift": (["shift", "E1", "a.(b)*", "1"], 0, set()),
    "search-oe": (["search-oe", "G0", "Floop"], 0, {"dynamics"}),
    "verify-oe": (["verify-oe", "E1", "F1", "W1"], 0, {"dynamics"}),
    "groupoid make": (["groupoid", "make", "E1", "a.(b)*", "1", "0", "(b)*"], 0, {"groupoid"}),
    "groupoid compose": (
        ["groupoid", "compose", "E1", "(a.(b)* | 1 | (b)*)", "((b)* | 1 | (b)*)"], 0, {"groupoid"}
    ),
    "weyl phi-check": (["weyl", "phi-check", "F1"], 0, {"groupoid", "pointtable", "weyl"}),
    "move out-split": (["move", "out-split", "E2", "split", "--map-point", "(a11)*"], 0, {"moves"}),
    "move saturate": (["move", "saturate", "amp", "A[0].B[0]", "--map-point", "M[3].(B[0])*"], 0, {"moves"}),
    "decide-amplified": (["decide-amplified", "E1", "F1"], 1, {"moves", "digraphs"}),
    "extend-cocycles": (["extend-cocycles", "E1", "F1", "W1", "2"], 0, {"dynamics"}),
    "verify-pseudo": (["verify-pseudo", "E1", "el"], 0, {"dynamics"}),
    "conjugate-pseudo": (["conjugate-pseudo", "E1", "F1", "W1", "el"], 0, {"dynamics"}),
    "groupoid isotropy": (["groupoid", "isotropy", "F1", "(c.d)*"], 0, {"groupoid"}),
    "groupoid principality": (["groupoid", "principality", "Floop"], 1, {"groupoid"}),
    "weyl germ": (["weyl", "germ", "E1", "a", "@v", "(b)*"], 0, {"groupoid", "pointtable", "weyl"}),
    "weyl equiv": (["weyl", "equiv", "E1", "[b | @v | (b)*]", "[@v | @v | (b)*]"], 1, {"groupoid", "pointtable", "weyl"}),
    "weyl winding": (["weyl", "winding", "E1", "[b | @v | (b)*]", "[@v | @v | (b)*]"], 0, {"groupoid", "pointtable", "weyl"}),
    "move amplify": (["move", "amplify", "E1"], 0, {"moves"}),
    "move tclose": (["move", "tclose", "F1"], 0, {"moves", "digraphs"}),
}

# the generated-code machinery that records as NamedTuples keep out of a run
_HEAVY = ("dataclasses", "inspect")

_PROBE = """
import contextlib, io, json, sys
from oeg.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
heavy = [m for m in %r if m in sys.modules]
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("oeg.")), heavy]))
""" % (_HEAVY,)


def _src_env() -> dict:
    """The environment of a child interpreter that imports this checkout's
    ``oeg``."""
    import oeg

    src = os.path.dirname(os.path.dirname(os.path.abspath(oeg.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _named_files(files, tmp_path) -> dict:
    """The ``files`` fixture's paths, and those of a partition, a graph with
    infinite classes, an element, an element that fails and a witness that
    fails, by name."""
    texts = {
        "split": "split 1: {a11} | {a12}\n",
        "amp": "graph amp\nvertex u, v\nedge A * inf: u -> v\nedge B * inf: v -> v\n",
        "el": json.dumps({"alpha": [["(b)*", "(b)*"]], "m": [["(b)*", 1]], "n": [["(b)*", 0]]}),
        "el_bad": json.dumps({"alpha": [["a.(b)*", "(b)*"]], "m": [["a.(b)*", 0]], "n": [["a.(b)*", 0]]}),
        "W_bad": json.dumps(dict(json.loads((tmp_path / "W1.json").read_text()), k1=[["a.(b)*", 0], ["(b)*", 0]])),
    }
    named = dict(files)
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
        named[name] = str(tmp_path / name)
    return named


@pytest.mark.parametrize("command", list(_CLOSURES))
def test_command_imports_only_its_modules(command, files, tmp_path):
    """Each command, run in a fresh interpreter, loads the DSL's modules and
    the library modules it runs, and no others, and neither ``dataclasses``
    nor ``inspect``."""
    named = _named_files(files, tmp_path)
    words, want_code, extra = _CLOSURES[command]
    argv = [named.get(w, w) for w in words]
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    code, loaded, heavy = json.loads(proc.stdout)
    assert code == want_code
    assert set(loaded) == _BASE_MODULES | {f"oeg.{m}" for m in extra}
    assert heavy == []


# -- what each command prints ---------------------------------------------------

_SEARCH_OE_WITNESS = (
    '{\n  "h": [\n    [\n      "@v",\n      "(e)*"\n    ]\n  ],\n  "k1": [],\n  "l1": [],\n'
    '  "k1p": [\n    [\n      "(e)*",\n      0\n    ]\n  ],\n  "l1p": [\n    [\n      "(e)*",\n      0\n    ]\n  ]\n}\n'
)
_E2_SPLIT = (
    "graph E2_split\nvertex 1^1, 1^2, 2^1\nedge a11^1: 1^1 -> 1^1\nedge a11^2: 1^1 -> 1^2\nedge a12^1: 1^2 -> 2^1\n"
    "edge a21^1: 2^1 -> 1^1\nedge a21^2: 2^1 -> 1^2\nedge a22^1: 2^1 -> 2^1\n"
)
_E1_COCYCLES_2 = {
    "n": 2,
    "k": [["(b)*", 0], ["a.(b)*", 1]],
    "l": [["(b)*", 0], ["a.(b)*", 0]],
    "kp": [["(c.d)*", 1], ["(d.c)*", 0]],
    "lp": [["(c.d)*", 1], ["(d.c)*", 0]],
}
_FAILS = "forward identity fails at a.(b)*"

# (argv over ``_named_files``, exit code, stdout, stdout under --json, or None
# where --json changes nothing); a dict stands for its sorted, indented JSON
_OUTPUTS = {
    "info": (
        ["info", "E1"], 0,
        'conditionL: false\nexitlessLoop: "b"\nsingularVertices: {}\n'
        'boundary: {"finite": true, "size": 2, "witness": null}\ndetIMinusA: 0\nfixedPoints: 1\n'
        'isotropyCensus: {"1": 2}\n',
        {"boundary": {"finite": True, "size": 2, "witness": None}, "conditionL": False, "detIMinusA": 0,
         "exitlessLoop": "b", "fixedPoints": 1, "isotropyCensus": {"1": 2}, "singularVertices": {}},
    ),
    "census": (["census", "E1"], 0, "(b)*\na.(b)*\n", {"finite": True, "points": ["(b)*", "a.(b)*"]}),
    "census infinite": (
        ["census", "E2"], 0, "infinite: loop a11 has an exit\n", {"finite": False, "witness": "loop a11 has an exit"}
    ),
    "det": (["det", "E2"], 0, "-1\n", {"detIMinusA": -1}),
    "shift": (["shift", "E1", "a.(b)*", "1"], 0, "(b)*\n", {"point": "(b)*"}),
    "verify-oe": (["verify-oe", "E1", "F1", "W1"], 0, "ok\n", {"failures": [], "ok": True}),
    "verify-oe no": (["verify-oe", "E1", "F1", "W_bad"], 1, _FAILS + "\n", {"failures": [_FAILS], "ok": False}),
    "search-oe": (["search-oe", "G0", "Floop"], 0, _SEARCH_OE_WITNESS, None),
    "search-oe no": (["search-oe", "G0", "E1"], 1, "not orbit equivalent\n", {"found": False}),
    "extend-cocycles": (["extend-cocycles", "E1", "F1", "W1", "2"], 0, _E1_COCYCLES_2, None),
    "extend-cocycles no": (
        ["extend-cocycles", "E1", "F1", "W_bad", "2"], 1, _FAILS + "\n", {"failures": [_FAILS], "ok": False}
    ),
    "verify-pseudo": (["verify-pseudo", "E1", "el"], 0, "ok\n", {"ok": True}),
    "verify-pseudo no": (["verify-pseudo", "E1", "el_bad"], 1, "not a pseudogroup element\n", {"ok": False}),
    "conjugate-pseudo": (
        ["conjugate-pseudo", "E1", "F1", "W1", "el"], 0,
        {"alpha": [["(d.c)*", "(d.c)*"]], "m": [["(d.c)*", 0]], "n": [["(d.c)*", 0]]}, None,
    ),
    "conjugate-pseudo no": (
        ["conjugate-pseudo", "E1", "F1", "W_bad", "el"], 1, "witness does not verify\n", {"ok": False}
    ),
    "groupoid make": (
        ["groupoid", "make", "E1", "a.(b)*", "1", "0", "(b)*"], 0,
        "(a.(b)* | 1 | (b)*)\n", {"element": "(a.(b)* | 1 | (b)*)", "m": 1, "n": 0},
    ),
    "groupoid compose": (
        ["groupoid", "compose", "E1", "(a.(b)* | 1 | (b)*)", "((b)* | 1 | (b)*)"], 0,
        "(a.(b)* | 2 | (b)*)\n", {"element": "(a.(b)* | 2 | (b)*)"},
    ),
    "groupoid isotropy": (["groupoid", "isotropy", "F1", "(c.d)*"], 0, "2Z\n", {"generator": 2}),
    "groupoid principality": (["groupoid", "principality", "E2"], 0, "principal: True\n", {"principal": True}),
    "groupoid principality no": (
        ["groupoid", "principality", "Floop"], 1,
        "principal: False\nwitness unit: ((e)* | 0 | (e)*) with isotropy 1Z\n",
        {"isotropy": 1, "principal": False, "witnessUnit": "((e)* | 0 | (e)*)"},
    ),
    "weyl germ": (
        ["weyl", "germ", "E1", "a", "@v", "(b)*"], 0,
        "[a | @v | (b)*]\ncocycle 1\nimage a.(b)*\n", {"cocycle": 1, "germ": "[a | @v | (b)*]", "image": "a.(b)*"},
    ),
    "weyl equiv": (
        ["weyl", "equiv", "E1", "[b | @v | (b)*]", "[@v | @v | (b)*]"], 1, "not equivalent\n", {"equivalent": False}
    ),
    "weyl winding": (["weyl", "winding", "E1", "[b | @v | (b)*]", "[@v | @v | (b)*]"], 0, "1\n", {"winding": 1}),
    "weyl phi-check": (
        ["weyl", "phi-check", "F1", "--bound", "2"], 0,
        "bound: 2\npoolSize: 2\npoolComplete: True\nelements: 10\nclasses: 10\ngerms: 18\nok: True\nviolations: []\n",
        {"bound": 2, "classes": 10, "elements": 10, "germs": 18, "ok": True, "poolComplete": True, "poolSize": 2,
         "violations": []},
    ),
    "move out-split": (["move", "out-split", "E2", "split", "--map-point", "(a11)*"], 0, _E2_SPLIT + "(a11^1)*\n", None),
    "move out-split bare": (["move", "out-split", "E2", "split"], 0, _E2_SPLIT, None),
    "move amplify": (
        ["move", "amplify", "E1"], 0, "graph E1_amp\nvertex u, v\nedge u_v * inf: u -> v\nedge v_v * inf: v -> v\n", None
    ),
    "move tclose": (
        ["move", "tclose", "F1"], 0,
        "graph F1_tclose\nvertex p, q\nedge p_p * inf: p -> p\nedge p_q * inf: p -> q\nedge q_p * inf: q -> p\n"
        "edge q_q * inf: q -> q\n",
        None,
    ),
    "move saturate": (
        ["move", "saturate", "amp", "A[0].B[0]", "--map-point", "M[3].(B[0])*"], 0,
        "graph amp_sat\nvertex u, v\nedge A * inf: u -> v\nedge B * inf: v -> v\nedge M * inf: u -> v\n"
        "A[6].(B[0])*\n",
        None,
    ),
    "decide-amplified": (
        ["decide-amplified", "E2", "F1"], 0,
        'equivalent {"1": "p", "2": "q"}\n', {"equivalent": True, "vertexBijection": {"1": "p", "2": "q"}},
    ),
    "decide-amplified no": (
        ["decide-amplified", "E1", "F1"], 1, "not equivalent\n", {"equivalent": False, "vertexBijection": None}
    ),
}


def _printed(want) -> str:
    return json.dumps(want, indent=2, sort_keys=True) + "\n" if isinstance(want, dict) else want


def test_outputs_and_closures_cover_every_command():
    commands = [words for words, _ in _FUZZ_COMMANDS]
    assert all(any(argv[:len(words)] == words for argv, *_ in _OUTPUTS.values()) for words in commands)
    assert sorted(_CLOSURES) == sorted(" ".join(words) for words in commands)


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case", list(_OUTPUTS))
def test_command_output(case, as_json, files, tmp_path, capsys):
    """Each command, as text and under ``--json``, prints exactly its pinned
    output and exits with its pinned code."""
    named = _named_files(files, tmp_path)
    words, want_code, text, as_json_text = _OUTPUTS[case]
    want = as_json_text if as_json and as_json_text is not None else text
    code = main(["--json"] * as_json + [named.get(w, w) for w in words])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (want_code, _printed(want), "")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["census", "{many}"], 0),
        (["--json", "census", "{many}"], 0),
        (["search-oe", "{one}", "{two}"], 1),
    ],
    ids=["census", "census-json", "search-oe-no"],
)
def test_closed_stdout_ends_output_quietly(argv, code, tmp_path):
    """A reader that closes the pipe after the first line (or before any,
    for a one-line answer) ends the output: the command keeps its own exit
    code and writes nothing to stderr, at interpreter shutdown included."""
    graphs = {"many": "vertex u, s\nedge a * 20000: u -> s\n", "one": "vertex u\n", "two": "vertex u, v\n"}
    named = {}
    for name, text in graphs.items():
        (tmp_path / f"{name}.graph").write_text(f"graph {name}\n{text}")
        named[f"{{{name}}}"] = str(tmp_path / f"{name}.graph")
    proc = subprocess.Popen([sys.executable, "-m", "oeg.cli", *(named.get(w, w) for w in argv)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env())
    if code == 0:
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=10) == code
    assert err == b""


def test_library_imports_neither_dataclasses_nor_inspect():
    """Importing every ``oeg`` module, in a fresh interpreter, loads
    neither ``dataclasses`` nor ``inspect``."""
    import oeg

    package = os.path.dirname(os.path.abspath(oeg.__file__))
    names = sorted(f"oeg.{f[:-3]}" for f in os.listdir(package) if f.endswith(".py") and f != "__init__.py")
    probe = (
        "import importlib, json, sys\n"
        "for name in sys.argv[1:]:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps([m for m in %r if m in sys.modules]))\n" % (_HEAVY,)
    )
    proc = subprocess.run([sys.executable, "-c", probe, *names], capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert "oeg.weyl" in names and json.loads(proc.stdout) == []


# -- exit-code fuzzing -----------------------------------------------------------

# Argument kinds: g graph file, p point, n integer, w witness file, e element
# file, x groupoid element, h path, m germ, s partition file.
_FUZZ_COMMANDS = [
    (["info"], "g"),
    (["census"], "g"),
    (["det"], "g"),
    (["shift"], "gpn"),
    (["verify-oe"], "ggw"),
    (["search-oe"], "gg"),
    (["extend-cocycles"], "ggwn"),
    (["verify-pseudo"], "ge"),
    (["conjugate-pseudo"], "ggwe"),
    (["groupoid", "make"], "gpnnp"),
    (["groupoid", "compose"], "gxx"),
    (["groupoid", "isotropy"], "gp"),
    (["groupoid", "principality"], "g"),
    (["weyl", "germ"], "ghhp"),
    (["weyl", "equiv"], "gmm"),
    (["weyl", "winding"], "gmm"),
    (["weyl", "phi-check"], "g"),
    (["move", "out-split"], "gs"),
    (["move", "amplify"], "g"),
    (["move", "tclose"], "g"),
    (["move", "saturate"], "gh"),
    (["decide-amplified"], "gg"),
]
_OPTIONS = {"phi-check": ("--bound", "n"), "out-split": ("--map-point", "p"), "saturate": ("--map-point", "p")}
_E1_TEXT = print_graph(arrow_into_loop(), "E1").encode("utf-8")
_JUNK = ["", "zz", "@", "@zz", "(", ")*", "a.(", "|", "[x]", "e0_0[9]", "((v0))*", "1", f"e0_0[{_HUGE}]"]
# JSON text with an integer past the digit limit, which json.dumps cannot print
_HUGE_JSON = '{"h": [["@v0", "@v0"]], "k1": [["@v0", %s]], "alpha": [], "m": [["@v0", %s]]}' % (_HUGE, _HUGE)


def _leaf_commands(parser, words=()):
    """``(words, number of positionals, option flags)`` of each leaf command
    under an argparse parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_commands(sub, (*words, name))
            return
    flags = {f for a in parser._actions for f in a.option_strings if f not in ("-h", "--help")}
    yield words, sum(not a.option_strings for a in parser._actions), flags


def test_fuzz_covers_every_command_and_option():
    """Every leaf command of the parser is fuzzed with its arity, and every
    option it takes is in ``_OPTIONS``."""
    leaves = {words: (arity, flags) for words, arity, flags in _leaf_commands(build_parser())}
    assert sorted(tuple(words) for words, _ in _FUZZ_COMMANDS) == sorted(leaves)
    for words, kinds in _FUZZ_COMMANDS:
        arity, flags = leaves[tuple(words)]
        assert len(kinds) == arity, words
        assert flags == ({_OPTIONS[words[-1]][0]} if words[-1] in _OPTIONS else set()), words


@st.composite
def _fuzz_graph(draw, finite: bool = False):
    """A graph with at most four vertices: one class possibly infinite, or,
    when ``finite`` and otherwise half the time, one edge out of each
    non-sink vertex, so that the boundary is finite and files reach the
    witness and element gates."""
    g = draw(small_graph_st(max_vertices=4))
    if finite or draw(st.booleans()):
        first = {c.src: c for c in reversed(g.edge_classes)}
        return Graph(g.vertices, [(c.cid, c.src, c.dst, 1) for c in first.values()])
    inf_cid = draw(st.sampled_from([None, *(c.cid for c in g.edge_classes)]))
    return Graph(g.vertices, [(c.cid, c.src, c.dst, INF if c.cid == inf_cid else c.mult) for c in g.edge_classes])


@st.composite
def _sample_tables(draw, points: list[str], long: list[str], kind: str) -> dict:
    """Witness (``kind`` "w") or element ("e") tables over the sample points
    of a graph, given as text with ``long`` those of length >= 1: ``h`` or
    ``alpha`` maps some or all of them to sample points, and the exponent
    tables map its domain (an element), or each side's points of length
    >= 1 (a witness), to -2..3."""
    dom = draw(st.just(points) | st.lists(st.sampled_from(points), unique=True, max_size=6))
    image = draw(st.permutations(points) | st.lists(st.sampled_from(points), min_size=len(dom), max_size=len(dom)))
    pairs = [list(p) for p in zip(dom, image)]

    def exponents(keys):
        return [[x, draw(st.integers(-2, 3))] for x in keys]

    if kind == "e":
        return {"alpha": pairs, "m": exponents(dom), "n": exponents(dom)}
    e_long = [x for x, _ in pairs if x in long]
    f_long = [y for _, y in pairs if y in long]
    return dict(h=pairs, k1=exponents(e_long), l1=exponents(e_long), k1p=exponents(f_long), l1p=exponents(f_long))


@st.composite
def _fuzz_case(draw):
    """An argv over a drawn command, and the files it names: valid,
    malformed, non-UTF-8, missing or a directory.

    A quarter of the cases draw a command that takes a witness.  Such a
    command runs, in about three cases of four, over a finite boundary on
    the graph's own text and its identity conjugacy, which verifies, with
    an integer in -2..3 and element tables over the sample: so it gets past
    the witness check to the cocycle extension or the conjugation.  Huge
    degrees and exponents are left to the subprocess tests, which time out
    where a fuzz case would hang."""
    commands = [c for c in _FUZZ_COMMANDS if "w" in c[1]] if draw(st.integers(0, 3)) == 0 else _FUZZ_COMMANDS
    words, kinds = draw(st.sampled_from(commands))
    run_through = "w" in kinds and draw(st.integers(0, 3)) > 0
    g = draw(_fuzz_graph(run_through))
    sample = bounded_points(g, 2, 6)
    points = [print_point(g, x) for x in sample]
    names = [c.cid for c in g.edge_classes] + [f"@{v}" for v in g.vertices]
    word = st.sampled_from(points + names + _JUNK) if points else st.sampled_from(names + _JUNK)
    path = st.lists(st.sampled_from(names + _JUNK), min_size=1, max_size=3).map(".".join)
    integer = st.integers(-2, 3).map(str) | st.sampled_from(["x", "1.5", _HUGE])
    leaf = st.none() | st.integers(-2, 3) | word
    json_value = st.recursive(
        leaf,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(["h", "k1", "l1", "k1p", "l1p", "alpha", "m", "n"]), inner, max_size=8),
        max_leaves=12,
    )
    pair = st.tuples(leaf, leaf).map(list)
    table = st.lists(pair, max_size=4)
    witness = st.fixed_dictionaries({k: table for k in ("h", "k1", "l1", "k1p", "l1p")})
    element = st.fixed_dictionaries({k: table for k in ("alpha", "m", "n")})
    cell = st.lists(st.sampled_from(names + _JUNK), max_size=3).map(lambda es: "{" + ", ".join(es) + "}")
    split = st.tuples(st.sampled_from(list(g.vertices) + _JUNK), st.lists(cell, min_size=1, max_size=3))
    partition = st.lists(split.map(lambda s: f"split {s[0]}: " + " | ".join(s[1])), max_size=2).map("\n".join)
    graph_text = print_graph(g, "G")
    lines = graph_text.splitlines()
    broken = st.sampled_from(
        ["\n".join(lines[:i] + lines[i + 1:]) for i in range(len(lines))]
        + [graph_text + "edge ?: v0 -> v0\n", graph_text + f"edge big * {_HUGE}: v0 -> v0\n"]
    ) | st.text(max_size=20)
    files = {
        # mostly valid, so that the later arguments get read too
        "g": st.one_of(st.just(graph_text), st.just(graph_text), st.just(graph_text), broken),
        "w": witness.map(json.dumps) | json_value.map(json.dumps) | st.text(max_size=10) | st.just(_HUGE_JSON),
        "e": element.map(json.dumps) | json_value.map(json.dumps) | st.text(max_size=10) | st.just(_HUGE_JSON),
        "s": partition,
    }
    long = [print_point(g, x) for x in sample if x.length >= 1]
    triple = st.tuples(word, st.integers(-2, 3), word)
    inline = {
        "p": word,
        "n": integer,
        "h": path,
        "x": triple.map(lambda t: f"({t[0]} | {t[1]} | {t[2]})") | word,
        "m": st.tuples(path, path, word).map(lambda t: f"[{t[0]} | {t[1]} | {t[2]}]") | word,
    }
    if run_through:
        identity = print_witness(conjugacy_witness(g, g, {x: x for x in boundary_census(g).points}))
        files.update(g=st.just(graph_text), w=st.just(identity))
        inline["n"] = st.integers(-2, 3).map(str)
    argv = ["--json"] if draw(st.booleans()) else []
    argv += words
    written = []
    for kind in kinds:
        if kind in files:
            # witness and element tables over the sample get past the parser to the gates
            tables = ["tables"] * 36 if kind in "we" and points else []
            if run_through:
                how = "text" if kind in "gw" or not tables else "tables"
            else:
                how = draw(st.sampled_from(tables + ["text"] * 12 + ["binary", "missing", "directory"]))
            if how == "tables":
                written.append(json.dumps(draw(_sample_tables(points, long, kind))).encode("utf-8"))
            elif how == "text":
                written.append(draw(files[kind]).encode("utf-8"))
            elif how == "binary":
                written.append(b"graph G\nvertex v0\xff\n")
            else:
                written.append(how)
            argv.append(len(written) - 1)
        else:
            argv.append(draw(inline[kind]))
    if words[-1] in _OPTIONS and draw(st.booleans()):
        flag, kind = _OPTIONS[words[-1]]
        argv += [flag, draw(inline[kind])]
    return argv, written


@settings(max_examples=300, deadline=None)
@given(case=_fuzz_case())
@example(case=(["verify-pseudo", 0, 1], [_E1_TEXT, b'{"alpha": [["a.(b)*", "(b)*"]], "m": [["a.(b)*", -1]], "n": [["a.(b)*", 0]]}']))
def test_exit_codes_fuzz(case):
    """Every run exits 0, 1 or 2, never 3; an input error that argparse did
    not report prints exactly one error line."""
    argv, written = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, content in enumerate(written):
            path = os.path.join(tmp, f"f{i}")
            if content == "directory":
                os.mkdir(path)
            elif content != "missing":
                with open(path, "wb") as fh:
                    fh.write(content)
            paths.append(path)
        argv = [paths[a] if isinstance(a, int) else a for a in argv]
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                build_parser().parse_args(argv)
            parsed = True
        except SystemExit:
            parsed = False
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    if parsed and code == 2:
        assert _one_error_line(err.getvalue()), (argv, err.getvalue())

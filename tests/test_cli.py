from __future__ import annotations

import json
import subprocess
import sys

import pytest

from oeg.cli import main
from oeg.dsl import print_graph, print_witness
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


def test_extend_cocycles_command(files, capsys):
    code, out = run(capsys, "extend-cocycles", files["E1"], files["F1"], files["W1"], "2")
    assert code == 0
    data = json.loads(out)
    assert ["a.(b)*", 1] in data["k"] and ["a.(b)*", 0] in data["l"]


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
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "-1"


def test_malformed_tables_are_input_errors(files, capsys, tmp_path):
    bad = tmp_path / "bad_el.json"
    bad.write_text(json.dumps({"alpha": [["(b)*", "(b)*"]], "m": [["(b)*", "x"]], "n": [["(b)*", 0]]}))
    code, _ = run(capsys, "verify-pseudo", files["E1"], str(bad))
    assert code == 2
    code, _ = run(capsys, "groupoid", "compose", files["E1"], "((b)* | one | (b)*)", "((b)* | 1 | (b)*)")
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

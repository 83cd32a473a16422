from __future__ import annotations

import json
import random
import re

import pytest

from conftest import pt
from sampling import random_graph, sample_points
from oeg.dsl import (
    parse_germ,
    parse_graph,
    parse_element,
    parse_groupoid_element,
    parse_partition,
    parse_path,
    parse_point,
    parse_witness,
    print_germ,
    print_graph,
    print_groupoid_element,
    print_path,
    print_point,
    print_witness,
)
from oeg.errors import ParseError
from oeg.graphs import INF, Edge, Graph
from oeg.zoo import amplified_arrow_loop, arrow_into_loop, two_cycle


E1_TEXT = """graph E1
vertex u, v
edge a: u -> v
edge b: v -> v
"""


def test_parse_graph_example():
    doc = parse_graph(E1_TEXT)
    assert doc.name == "E1"
    assert doc.graph == arrow_into_loop()


def test_parse_graph_infinite_class():
    doc = parse_graph("graph A\nvertex u,v\nedge A * inf: u -> v\n")
    assert doc.graph.cls("A").mult == INF


def test_parse_graph_multiplicity():
    doc = parse_graph("graph A\nvertex u\nedge p * 3: u -> u\n")
    assert doc.graph.cls("p").mult == 3


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as err:
        parse_graph("graph A\nvertex u\nedge a: u -> w\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_graph("vertex u\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_graph("graph A\nvertex u\nedge a: u -> u\nedge a: u -> u\n")
    assert err.value.line == 4
    with pytest.raises(ParseError) as err:
        parse_graph("graph A\nvertex u\nwat\n")
    assert err.value.line == 3


@pytest.mark.parametrize(
    "line, column, message",
    [
        ("vertex a, aa, a", 15, "duplicate vertex 'a'"),
        ("edge e: v -> u", 6, "duplicate edge identifier 'e'"),
        ("edge a0 * 0: u -> v", 11, "multiplicity must be >= 1"),
        ("edge a: u -> e", 14, "undeclared vertex 'e'"),
        ("  vertex w,  x, w", 17, "duplicate vertex 'w'"),
        ("\tedge a * " + "9" * 5000 + ": u -> u", 11, "multiplicity must be an integer"),
    ],
)
def test_parse_errors_point_at_the_token(line, column, message):
    """The column is the token's own, not the first match of its text
    earlier on the line; leading blanks count."""
    with pytest.raises(ParseError) as err:
        parse_graph(f"graph A\nvertex u, v\nedge e: u -> v\n{line}\n")
    assert (err.value.line, err.value.column) == (4, column)
    assert str(err.value).startswith(message)


def test_graph_roundtrip_corpus():
    rng = random.Random(31)
    for i in range(50):
        g = random_graph(rng, max_vertices=5, max_mult=3, edge_prob=0.45, inf_prob=0.2)
        assert parse_graph(print_graph(g, f"G{i}")).graph == g


def test_point_roundtrip(e1, amp):
    for g in (e1, amp, arrow_into_loop()):
        for x in sample_points(g, pre_len=3, per_len=2, inf_cap=3, limit=80):
            assert parse_point(g, print_point(g, x)) == x


def test_point_parse_canonicalizes(e1):
    assert parse_point(e1, "a.b.(b.b)*") == pt(e1, "a.(b)*")
    with pytest.raises(Exception):
        parse_point(e1, "a")  # ends at a regular vertex


def test_point_parse_infinite_indices(amp):
    x = parse_point(amp, "A[6].(B[0])*")
    assert x.pre == (Edge("A", 6),)
    assert print_point(amp, x) == "A[6].(B[0])*"


def test_path_roundtrip(e1):
    for text in ("@u", "@v", "a", "b", "a.b", "a.b.b"):
        p = parse_path(e1, text)
        assert print_path(e1, p) == text


def test_witness_roundtrip():
    from test_dynamics import example_witness

    w = example_witness()
    text = print_witness(w)
    back = parse_witness(w.E, w.F, text)
    assert back.h == w.h and back.k1 == w.k1 and back.l1 == w.l1
    assert back.k1p == w.k1p and back.l1p == w.l1p
    with pytest.raises(ParseError):
        parse_witness(w.E, w.F, "{}")
    with pytest.raises(ParseError):
        parse_witness(w.E, w.F, "not json")


# (table, entries) replacing one table of the example witness's JSON
BAD_WITNESS_TABLES = {
    "a fractional value": ("k1", [["(b)*", 0], ["a.(b)*", 1.9]]),
    "a boolean value": ("l1", [["(b)*", True], ["a.(b)*", 0]]),
    "a value in a string": ("k1p", [["(c.d)*", "0"], ["(d.c)*", 1]]),
    "a point mapped twice": ("h", [["(b)*", "(d.c)*"], ["a.(b)*", "(d.c)*"], ["a.(b)*", "(c.d)*"]]),
    "a point listed twice": ("l1p", [["(c.d)*", 1], ["(d.c)*", 0], ["(c.d)*", 1]]),
    "a point listed twice in another spelling": ("k1", [["(b)*", 0], ["a.(b)*", 1], ["a.b.(b)*", 1]]),
    "a table that is an object": ("k1", {"(b)*": 0, "a.(b)*": 1}),
    "a table of strings": ("h", ["ab", "ba"]),
    "an entry of three items": ("l1", [["(b)*", 0, 1], ["a.(b)*", 0]]),
    "a table that is a number": ("l1p", 0),
}


def bad_witness_text(fault: str) -> str:
    from test_dynamics import example_witness

    key, entries = BAD_WITNESS_TABLES[fault]
    return json.dumps({**json.loads(print_witness(example_witness())), key: entries})


@pytest.mark.parametrize("fault", sorted(BAD_WITNESS_TABLES))
def test_witness_tables_reject_non_integers_and_repeats(fault):
    E, F = arrow_into_loop(), two_cycle()
    with pytest.raises(ParseError):
        parse_witness(E, F, bad_witness_text(fault))


def test_element_tables_reject_non_integers_and_repeats(e1):
    for data in (
        {"alpha": [["(b)*", "(b)*"]], "m": [["(b)*", 1.5]], "n": [["(b)*", 0]]},
        {"alpha": [["(b)*", "(b)*"]], "m": [["(b)*", 1]], "n": [["(b)*", False]]},
        {"alpha": [["(b)*", "(b)*"], ["b.(b)*", "(b)*"]], "m": [["(b)*", 1]], "n": [["(b)*", 0]]},
        {"alpha": {"(b)*": "(b)*"}, "m": [], "n": []},
        {"alpha": ["bb"], "m": [], "n": []},
        {"alpha": [["(b)*", "(b)*", "(b)*"]], "m": [], "n": []},
    ):
        with pytest.raises(ParseError):
            parse_element(e1, json.dumps(data))


def test_groupoid_element_roundtrip(e1):
    from oeg.groupoid import make_element

    e = make_element(e1, pt(e1, "a.(b)*"), 1, 0, pt(e1, "(b)*"))
    text = print_groupoid_element(e1, e)
    assert text == "(a.(b)* | 1 | (b)*)"
    assert parse_groupoid_element(e1, text) == e


@pytest.mark.parametrize("length", [70, 200])
def test_groupoid_element_long_preperiods(length):
    """Two preperiods of ``length`` edges run into one exitless loop; the
    minimal witness is found however long they are."""
    from oeg.graphs import Graph

    xs = [f"x{i}" for i in range(length)] + ["c"]
    ys = [f"y{i}" for i in range(length)] + ["c"]
    classes = [(f"p{i}", xs[i], xs[i + 1], 1) for i in range(length)]
    classes += [(f"q{i}", ys[i], ys[i + 1], 1) for i in range(length)]
    g = Graph(xs + ys[:-1], classes + [("b", "c", "c", 1)])
    tx = ".".join(f"p{i}" for i in range(length)) + ".(b)*"
    ty = ".".join(f"q{i}" for i in range(length)) + ".(b)*"
    e = parse_groupoid_element(g, f"({tx} | 0 | {ty})")
    assert (e.k, e.m, e.n) == (0, length, length)
    e = parse_groupoid_element(g, f"({tx} | 3 | {ty})")
    assert (e.k, e.m, e.n) == (3, length + 3, length)
    assert print_groupoid_element(g, e) == f"({tx} | 3 | {ty})"


def test_germ_roundtrip(e1):
    from oeg.weyl import germ_make

    germ = germ_make(e1, e1.path(["a"]), e1.path((), at="v"), pt(e1, "(b)*"))
    text = print_germ(e1, germ)
    assert text == "[a | @v | (b)*]"
    assert parse_germ(e1, text) == germ


@pytest.mark.parametrize(
    "read, text, message",
    [
        (parse_groupoid_element, "a.(b)* | 1 | (b)*", "groupoid element must look like (x | k | y)"),
        (parse_groupoid_element, "(a.(b)* | 1)", "groupoid element must have three | -separated parts"),
        (parse_groupoid_element, "(a.(b)* | 1 | (b)* | 2)", "groupoid element must have three | -separated parts"),
        (parse_germ, "a | @v | (b)*", "germ must look like [mu | nu | x]"),
        (parse_germ, "[a | @v]", "germ must have three | -separated parts"),
        (parse_germ, "[a | @v | (b)* | b]", "germ must have three | -separated parts"),
    ],
)
def test_groupoid_elements_and_germs_have_three_parts(read, text, message, e1):
    with pytest.raises(ParseError, match=re.escape(message)):
        read(e1, text)


def test_parse_partition(e2):
    p = parse_partition(e2, "split 1: {a11} | {a12}\n# comment\n")
    assert p.m("1") == 2 and p.m("2") == 1
    amp = amplified_arrow_loop()
    p2 = parse_partition(amp, "split v: {B}")
    assert p2.blocks["v"][0].infinite_classes == frozenset({"B"})
    with pytest.raises(ParseError):
        parse_partition(e2, "split 1: a11 | {a12}")


def _partition_error(text: str) -> ParseError:
    g = Graph(["u", "s", "t"], [("a", "u", "s", 2), ("b", "u", "t", 1)])
    with pytest.raises(ParseError) as info:
        parse_partition(g, text)
    return info.value


def test_partition_brace_error_names_the_block_column():
    err = _partition_error("split u: {a[0]} | {a[1], b}x")
    assert (err.line, err.column) == (1, 19)
    assert "brace-delimited" in str(err)
    err = _partition_error("\n  split u: {a[0]} |  a[1]")  # leading blanks count
    assert (err.line, err.column) == (2, 22)


def test_partition_token_error_names_the_token_column():
    err = _partition_error("split u: {a[0]} | {a[1], b-c}")
    assert (err.line, err.column) == (1, 26)
    assert "'b-c'" in str(err)


def test_partition_index_error_names_the_index_column():
    err = _partition_error("split u: {a[0]} | {a[1], b[" + "9" * 5000 + "]}")
    assert (err.line, err.column) == (1, 28)
    assert "edge index must be an integer" in str(err)


def test_partition_repeated_split_names_the_vertex_column():
    """A vertex split on two lines is refused at the second, which once
    replaced the first without a word."""
    err = _partition_error("split u: {a[0]} | {a[1], b}\n  split u: {a, b}")
    assert (err.line, err.column) == (2, 9)
    assert "vertex 'u' is split twice" in str(err)


# characters str.splitlines breaks at that a file read in text mode does not
NOT_LINE_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("char", NOT_LINE_BREAKS)
def test_graph_lines_break_only_at_newlines(char):
    """A form feed in a comment once ended the line, so the rest of the
    comment was read as a line of its own, and later lines were numbered
    one too far."""
    with pytest.raises(ParseError) as err:
        parse_graph(f"graph A\nvertex u, v  # two vertices{char}really\nedge a: u -> w\n")
    assert (err.value.line, err.value.column) == (3, 14)
    text = f"graph A\r\n# a{char}comment\rvertex u, v\n\nedge a: u -> v\nedge a: v -> u\n"
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert (err.value.line, err.value.column) == (6, 6)


@pytest.mark.parametrize("char", NOT_LINE_BREAKS)
def test_partition_lines_break_only_at_newlines(char):
    err = _partition_error(f"# a{char}comment\r\nsplit u: {{a[0]}} | {{a[1], b}}\r  split u: {{a, b}}")
    assert (err.line, err.column) == (3, 9)
    g = Graph(["u", "s", "t"], [("a", "u", "s", 2), ("b", "u", "t", 1)])
    p = parse_partition(g, f"split u: {{a[0]}} | {{a[1], b}}  # two{char}blocks\n")
    assert p.m("u") == 2


from hypothesis import given, settings, strategies as st


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=120))
def test_parser_never_panics(text):
    try:
        parse_graph(text)
    except ParseError as exc:
        assert exc.line is None or exc.line >= 1


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet="ab.()*@[]0123456789", max_size=24))
def test_point_parser_never_panics(text):
    from oeg.errors import OegError

    g = arrow_into_loop()
    try:
        parse_point(g, text)
    except OegError:
        pass

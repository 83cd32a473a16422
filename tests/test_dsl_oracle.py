"""The DSL readers against the ones they replaced (``tests/dsl_oracle.py``):
equal results, and equal errors (type, message, line and column), on
printed pool, zoo, chain and forest graphs and their points, and on seeded
mutations of small texts.  The oracle reads a text broken only at ``\\n``,
``\\r\\n`` and ``\\r``, the one intended difference."""

from __future__ import annotations

import random
import sys
from functools import partial

import pytest

import dsl_oracle as old
from sampling import chain_graph, random_forest
from oeg import dsl
from oeg.boundary import bounded_points
from oeg.errors import OegError
from oeg.graphs import INF, Graph
from oeg.zoo import (
    amplified_arrow_loop,
    arrow_into_loop,
    chained_loops_four,
    full_shift_two,
    iter_small_graphs,
    lone_loop,
    lone_vertex,
    two_cycle,
)

ZOO = (arrow_into_loop, two_cycle, full_shift_two, chained_loops_four, lone_vertex, lone_loop, amplified_arrow_loop)

# what a mutation inserts or puts in place of a character: the DSL's
# punctuation and keywords, blanks, every line break str.splitlines knows,
# a non-ASCII digit and an integer past the digit limit the mutation test
# sets
PIECES = (
    list(" \t,.:*#->[]{}|()@_^0179av")
    + ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\u0663"]
    + ["inf", "edge ", "vertex ", "split ", "graph ", "9" * 641, "a[", "e0_1", "w1"]
)


def outcome(read, *args):
    """What a reader gives: its result, or its error's type, message and
    position."""
    try:
        return read(*args)
    except OegError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def same(read_new, read_old, *args) -> None:
    *head, text = args
    assert outcome(read_new, *args) == outcome(read_old, *head, old.LineBreaks(text)), repr(text)


def mutants(rng: random.Random, bases: list[str], count: int) -> list[str]:
    """``count`` distinct texts, each a base text with one to three edits: a
    piece inserted, a character replaced by a piece, or a character
    deleted.  One draw of random bits picks the base and the edits' number
    and kinds; a text drawn before is drawn again."""
    texts: dict[str, None] = {}
    while len(texts) < count:
        bits = rng.getrandbits(64)
        text = bases[bits % len(bases)]
        bits //= len(bases)
        for _ in range((1, 1, 2, 3)[bits & 3]):
            bits >>= 2
            i = bits % (len(text) + 1)
            bits //= len(text) + 1
            piece = PIECES[bits % len(PIECES)]
            bits //= len(PIECES)
            op = bits % 3
            bits //= 3
            text = text[:i] + (piece, piece, "")[op] + text[i + (op > 0):]
        texts[text] = None
    return list(texts)


def partition_text(rng: random.Random, g: Graph) -> str:
    """A random out-split partition of ``g`` in the partition-file format."""
    lines = []
    for v in g.vertices:
        out = g.out_classes(v)
        if not out:
            continue
        fin = [c.cid if c.mult == 1 else f"{c.cid}[{i}]" for c in out if not c.is_infinite for i in range(c.mult)]
        cells: list[list[str]] = [[] for _ in range(rng.randint(1, 3))]
        for tok in fin + [c.cid for c in out if c.is_infinite]:
            rng.choice(cells).append(tok)
        lines.append(f"split {v}: " + " | ".join("{" + ", ".join(c) + "}" for c in cells))
    return "\n".join(lines) + "\n"


def layouts(text: str) -> list[str]:
    """A printed graph as written, and laid out the other ways the format
    allows: CRLF breaks, comments, blank lines, indentation and each vertex
    on a line of its own."""
    lines = text.splitlines()
    spread = [lines[0]] + [f"vertex {v}" for v in lines[1][7:].split(", ")] + lines[2:] if len(lines) > 1 else lines
    return [
        text,
        "\r\n".join(lines),
        "# a comment\n\n" + "\n".join(f"  {line}  # line {i}" for i, line in enumerate(lines)),
        "\n".join(spread),
    ]


def test_printed_graphs_read_alike():
    graphs = list(iter_small_graphs(3)) + [make() for make in ZOO]
    graphs += [chain_graph(n) for n in (1, 2, 10, 100, 1200)]
    rng = random.Random(29)
    graphs += [random_forest(rng, n) for n in (4, 10, 100, 1200)]
    for i, g in enumerate(graphs):
        text = dsl.print_graph(g, f"G{i}")
        for t in layouts(text) if i % 50 == 0 or g.edge_classes and len(g.vertices) > 3 else [text]:
            same(dsl.parse_graph, old.parse_graph, t)


def test_printed_points_and_partitions_read_alike():
    rng = random.Random(29)
    graphs = [make() for make in ZOO] + list(iter_small_graphs(3))[::40] + [chain_graph(60), random_forest(rng, 60)]
    for g in graphs:
        for x in bounded_points(g, 3, 40):
            text = dsl.print_point(g, x)
            same(dsl.parse_point, old.parse_point, g, text)
            same(dsl.parse_point, old.parse_point, g, f"  {text.replace('.', ' . ')}  ")
            if x.is_finite:
                same(dsl.parse_path, old.parse_path, g, text)
        for _ in range(3):
            same(dsl.parse_partition, old.parse_partition, g, partition_text(rng, g))


GRAPH_BASES = [
    "graph G\nvertex u, v\nedge a: u -> v\nedge p * 2: v -> u  # c\nedge q * inf: v -> v\n",
    "graph H  # h\n  vertex w0,w1\n\nedge e0_1*3:w0->w1\nvertex s\nedge b: w1 -> s\n",
    "graph G\nvertex u\nedge a: u -> u\n",
]
POINT_GRAPH = Graph(["u", "v", "s"], [("a", "u", "v", 1), ("b", "v", "v", 2), ("A", "u", "v", INF), ("c", "v", "s", 1)])
POINT_BASES = ["a.(b[1])*", "A[12].b[0].(b[1].b[0])*", " (b) * ", "a.c", "@s", "A[3].b[1].c", ".(b[0])*"]
PARTITION_BASES = [
    "split u: {a, A} \nsplit v: {b[0]} | {b[1], c}  # c\n",
    "  split v: {b[1]}|{c,b[0],}\n\nsplit u: {a}|{A}\n",
    "split v: {b, c}",
]
READERS = {
    "graph": (dsl.parse_graph, old.parse_graph, GRAPH_BASES),
    "point": (partial(dsl.parse_point, POINT_GRAPH), partial(old.parse_point, POINT_GRAPH), POINT_BASES),
    "path": (partial(dsl.parse_path, POINT_GRAPH), partial(old.parse_path, POINT_GRAPH), POINT_BASES),
    "partition": (
        partial(dsl.parse_partition, POINT_GRAPH),
        partial(old.parse_partition, POINT_GRAPH),
        PARTITION_BASES,
    ),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_mutated_texts_read_alike(reader):
    """10^5 distinct mutants per reader (2 * 10^4 for paths, whose tokens
    the point reader shares).  Python's integer digit limit is lowered to
    640, the least it allows, so that the 641-digit piece is past it
    without making every text that holds it long."""
    read_new, read_old, bases = READERS[reader]
    texts = mutants(random.Random(2029), bases, 20_000 if reader == "path" else 100_000)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for text in texts:
            same(read_new, read_old, text)
    finally:
        sys.set_int_max_str_digits(limit)

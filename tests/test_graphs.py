from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import small_graph_st
from sample_oracle import loop_has_exit, reference_simple_loops
from sampling import random_graph
from oeg.boundary import BoundaryPoint, is_isolated
from oeg.errors import InputError
from oeg.graphs import (
    INF,
    Edge,
    EdgeClass,
    Graph,
    _primitive_root_edges,
    condition_l,
    enumerate_simple_loops,
    path_concat,
    vertex_kind,
)
from oeg.moves import amplify
from oeg.zoo import iter_small_graphs


def brute_simple_loops(g: Graph, max_len: int):
    """Oracle: enumerate raw edge tuples by product, keep primitive loops,
    dedupe by least rotation."""
    edges = [Edge(c.cid, i) for c in g.edge_classes for i in range(1 if c.is_infinite else c.mult)]
    found = set()
    for n in range(1, max_len + 1):
        for combo in itertools.product(edges, repeat=n):
            ok = g.edge_src(combo[0]) == g.edge_dst(combo[-1])
            for a, b in zip(combo, combo[1:]):
                ok = ok and g.edge_dst(a) == g.edge_src(b)
            if not ok:
                continue
            if any(combo == combo[i:] + combo[:i] for i in range(1, n)):
                # a proper power is invariant under some nontrivial rotation
                if any(
                    n % p == 0 and combo[:p] * (n // p) == combo
                    for p in range(1, n)
                ):
                    continue
            found.add(min(combo[i:] + combo[:i] for i in range(n)))
    return found


def test_vertex_kind(e1, g0, amp):
    assert vertex_kind(e1, "u") == "regular"
    assert vertex_kind(g0, "v") == "sink"
    assert vertex_kind(amplify(e1), "u") == "infinite-emitter"
    with pytest.raises(InputError):
        vertex_kind(e1, "nope")


def test_simple_loops_examples(e1, e2, g0):
    assert {l.edges for l in enumerate_simple_loops(e1, 3)} == {(Edge("b", 0),)}
    assert enumerate_simple_loops(g0, 3) == []
    got = {l.edges for l in enumerate_simple_loops(e2, 2)}
    want = {
        (Edge("a11", 0),),
        (Edge("a22", 0),),
        (Edge("a12", 0), Edge("a21", 0)),
    }
    assert got == want


@settings(max_examples=40, deadline=None)
@given(small_graph_st(max_vertices=3), st.integers(1, 3))
def test_simple_loops_against_brute_force(g, max_len):
    got = {l.edges for l in enumerate_simple_loops(g, max_len)}
    assert got == brute_simple_loops(g, max_len)


def test_simple_loops_match_the_reference_on_pool():
    """The ordered walk against the recursive search for max_len 1..4; the
    reference's loops up to 4, sorted by length, hold those up to 1..3."""
    for g in iter_small_graphs(3):
        want = reference_simple_loops(g, 4)
        for max_len in range(1, 5):
            assert enumerate_simple_loops(g, max_len) == [l for l in want if l.length <= max_len]


def test_loop_search_on_a_long_cycle():
    """A 1500-vertex cycle has one simple loop; a recursive search ran out of
    stack on it."""
    n = 1500
    vertices = [f"v{i}" for i in range(n)]
    g = Graph(vertices, [(f"e{i}", vertices[i], vertices[(i + 1) % n], 1) for i in range(n)])
    cycle = g.loop([f"e{i}" for i in range(n)])
    assert enumerate_simple_loops(g, n) == [cycle]
    assert condition_l(g) == (False, cycle)


def test_primitive_root(e1, e2):
    b = e1.loop(["b"]).edges
    assert _primitive_root_edges(b * 2) == (b, 2)
    assert _primitive_root_edges(b) == (b, 1)
    cyc = e2.loop(["a12", "a21", "a12", "a21"]).edges
    assert _primitive_root_edges(cyc) == (cyc[:2], 2)


def brute_period(seq):
    for p in range(1, len(seq) + 1):
        if len(seq) % p == 0 and seq[:p] * (len(seq) // p) == seq:
            return p
    raise AssertionError


@settings(max_examples=60, deadline=None)
@given(small_graph_st(max_vertices=3), st.integers(0, 200), st.integers(1, 3))
def test_primitive_root_property(g, seed, reps):
    loops = enumerate_simple_loops(g, 3)
    if not loops:
        return
    base = loops[seed % len(loops)]
    power = g.loop(base.edges * reps).edges
    root, k = _primitive_root_edges(power)
    assert root * k == power
    assert brute_period(power) == len(root)
    # the root itself is simple: its own primitive root is trivial
    assert _primitive_root_edges(root)[1] == 1


def test_loop_has_exit(e1, e2):
    """A periodic point is isolated exactly when its loop has no exit,
    the loop class of an amplified graph included."""
    assert is_isolated(e1, BoundaryPoint("v", (), e1.loop(["b"]).edges))
    assert not is_isolated(e2, BoundaryPoint("1", (), e2.loop(["a11"]).edges))
    big = amplify(e1)
    loop = big.loop([next(c.cid for c in big.edge_classes if c.src == c.dst)])
    assert not is_isolated(big, BoundaryPoint(loop.src, (), loop.edges))


def test_condition_l_examples(e1, e2, f1):
    ok, witness = condition_l(e1)
    assert not ok and witness == e1.loop(["b"])
    assert condition_l(e2) == (True, None)
    ok, witness = condition_l(f1)
    assert not ok and witness.edges == (Edge("c", 0), Edge("d", 0))


def _check_condition_l(g: Graph) -> None:
    """(L) holds iff every reference loop has an exit, and a failing
    witness is a reference loop without one.  An exitless simple loop is
    vertex-simple, so |V| bounds the search."""
    loops = reference_simple_loops(g, len(g.vertices))
    ok, witness = condition_l(g)
    assert ok == all(loop_has_exit(g, l) for l in loops)
    if not ok:
        assert witness in loops and not loop_has_exit(g, witness)


def test_condition_l_cross_check_exhaustive_small():
    for g in iter_small_graphs(3):
        _check_condition_l(g)


def test_condition_l_cross_check_random():
    rng = random.Random(20250811)
    for _ in range(500):
        _check_condition_l(random_graph(rng, max_vertices=5, max_mult=2, edge_prob=0.35))


def test_path_concat(e1, f1):
    a = e1.path(["a"])
    b = e1.path(["b"])
    ab = path_concat(e1, a, b)
    assert ab.edges == (Edge("a", 0), Edge("b", 0))
    empty_u = e1.path((), at="u")
    assert path_concat(e1, empty_u, a) == a
    assert path_concat(e1, a, e1.path((), at="v")) == a
    c = f1.path(["c"])
    with pytest.raises(InputError):
        path_concat(e1, a, c)  # endpoints live in different graphs' vertex sets


@settings(max_examples=50, deadline=None)
@given(small_graph_st(max_vertices=3), st.integers(0, 10**6))
def test_path_concat_associative(g, seed):
    rng = random.Random(seed)

    def random_path(v, max_len=3):
        edges = []
        for _ in range(rng.randint(0, max_len)):
            out = list(g.out_edges(v))
            if not out:
                break
            e = rng.choice(out)
            edges.append(e)
            v = g.edge_dst(e)
        return g.path(edges) if edges else g.path((), at=v)

    p = random_path(rng.choice(g.vertices))
    q = random_path(p.dst)
    r = random_path(q.dst)
    lhs = path_concat(g, path_concat(g, p, q), r)
    rhs = path_concat(g, p, path_concat(g, q, r))
    assert lhs == rhs


def test_graph_validation():
    with pytest.raises(InputError):
        Graph(["v", "v"])
    with pytest.raises(InputError):
        Graph(["v"], [("a", "v", "w", 1)])
    with pytest.raises(InputError):
        Graph(["v"], [("a", "v", "v", 0)])
    with pytest.raises(InputError):
        Graph(["v"], [("a", "v", "v", 1), ("a", "v", "v", 1)])
    g = Graph(["v"], [("a", "v", "v", 2), ("b", "v", "v", INF)])
    with pytest.raises(InputError):
        g.check_edge(Edge("a", 2))
    g.check_edge(Edge("b", 10**6))


def test_out_edges_give_the_index_0_edge_of_an_infinite_class():
    """An infinite class lists its index-0 edge in class order, and a second
    full listing hands out the same ``Edge`` objects as the first."""
    g = Graph(["u", "v"], [("a", "u", "v", 2), ("b", "u", "u", INF), ("c", "u", "v", 1)])
    first, second = list(g.out_edges("u")), list(g.out_edges("u"))
    assert first == [Edge("a", 0), Edge("a", 1), Edge("b", 0), Edge("c", 0)]
    assert all(e is f for e, f in zip(first, second, strict=True))


_HUGE_CLASS = """
import json
from oeg.graphs import Edge, Graph, vertex_kind
g = Graph(["u", "v"], [("a", "u", "v", 10**12)])
e = next(g.out_edges("u"))
print(json.dumps([g.out_degree("u") == 10**12, e == Edge("a", 0), vertex_kind(g, "u"), vertex_kind(g, "v")]))
"""


def test_huge_classes_stay_lazy():
    """A class of 10^12 parallel edges is never listed ahead of use: the
    graph builds, knows its out-degree and hands out its first edge at once.
    It runs in a child process, so that a listing times out instead of
    hanging."""
    from test_cli import _src_env

    proc = subprocess.run([sys.executable, "-c", _HUGE_CLASS], capture_output=True, text=True, env=_src_env(), timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [True, True, "regular", "sink"]
    with pytest.raises(InputError, match="unknown vertex 'w'"):
        Graph(["u"]).out_degree("w")



def test_edge_ends_of_an_unknown_class_are_refused():
    g = Graph(["u"], [("a", "u", "u", 1)])
    for end in (g.edge_src, g.edge_dst):
        with pytest.raises(InputError, match="unknown edge class 'zz'"):
            end(Edge("zz", 0))

_MANY_CLASSES = """
import time
from oeg.graphs import Graph
classes = [(f"a{i}", "u", "v", 1) for i in range(64000)]
start = time.perf_counter()
g = Graph(["u", "v"], classes)
print(time.perf_counter() - start, len(g.out_classes("u")))
"""


def test_many_parallel_classes_build_in_linear_time():
    """A vertex's out-classes are frozen once, so 64,000 classes out of one
    vertex build in well under a second (a tuple grown class by class took
    13 s on a 2-vCPU box).  It runs in a child process, so that a slow build
    times out instead of hanging."""
    from test_cli import _src_env

    proc = subprocess.run([sys.executable, "-c", _MANY_CLASSES], capture_output=True, text=True, env=_src_env(), timeout=30)
    assert proc.returncode == 0, proc.stderr
    seconds, count = proc.stdout.split()
    assert count == "64000" and float(seconds) < 1.0


def test_empty_graph_degenerates_cleanly():
    from oeg.boundary import boundary_census
    from oeg.invariants import det_invariant, invariant_report

    empty = Graph([])
    assert condition_l(empty) == (True, None)
    census = boundary_census(empty)
    assert census.finite and census.points == ()
    assert det_invariant(empty) == 1
    assert invariant_report(empty).boundary_size == 0


# class lists with one fault or more, and the error naming the first
BAD_CLASSES = {
    "zero multiplicity": ([("a", "u", "v", 1), ("b", "v", "u", 0)], "edge class 'b' has multiplicity 0"),
    "negative multiplicity": ([("a", "u", "v", -2)], "edge class 'a' has multiplicity -2"),
    "float multiplicity": ([("a", "u", "v", 2.0)], "edge class 'a' has multiplicity 2.0"),
    "finite float among infinite": (
        [("a", "u", "v", float("inf")), ("b", "u", "u", 1.5)],
        "edge class 'b' has multiplicity 1.5",
    ),
    "nan multiplicity": ([("a", "u", "v", float("nan"))], "edge class 'a' has multiplicity nan"),
    "string multiplicity": ([("a", "u", "v", "2")], "edge class 'a' has multiplicity '2'"),
    "undeclared source": ([("a", "u", "v", 1), ("b", "w", "v", 1)], "edge class 'b' uses an undeclared vertex"),
    "undeclared range": ([("a", "u", "x", 1)], "edge class 'a' uses an undeclared vertex"),
    "unhashable range after a bad multiplicity": (
        [("a", "u", "v", 0), ("b", "u", ["v"], 1)],
        "edge class 'a' has multiplicity 0",
    ),
    "two faults, range first": ([("a", "u", "x", 0), ("b", "u", "v", 0)], "edge class 'a' uses an undeclared vertex"),
    "repeated id": ([("a", "u", "v", 1), ("a", "v", "u", 1)], "duplicate edge-class identifiers"),
}


@pytest.mark.parametrize("fault", sorted(BAD_CLASSES))
def test_ready_records_are_refused_as_tuples_are(fault):
    """Graph keeps EdgeClass records as they are and wraps tuples; a class
    list in either form, or mixed, is refused with the first fault's error."""
    rows, message = BAD_CLASSES[fault]
    for classes in (rows, [EdgeClass(*r) for r in rows], [EdgeClass(*rows[0]), *rows[1:]]):
        with pytest.raises(InputError) as err:
            Graph(["u", "v"], classes)
        assert str(err.value) == message


def test_ready_records_build_the_graph_tuples_build():
    rows = [("a", "u", "v", 1), ("b", "v", "v", INF), ("c", "u", "u", 3), ("d", "v", "u", True)]
    g, h = Graph(["u", "v"], rows), Graph(["u", "v"], [EdgeClass(*r) for r in rows])
    assert g == h and g._out == h._out and g._deg == h._deg == {"u": 4, "v": INF}
    assert g._by_id == h._by_id and Graph([], []) == Graph([])

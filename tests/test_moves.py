from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys

import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import pt
from sampling import random_graph, random_proper_partition, sample_points
from sample_oracle import capped_out_edges
from saturation_oracle import _rewrite_stream
from split_oracle import OracleSplit, check_partition as reference_check_partition
from oeg.boundary import BoundaryPoint, boundary_census, canonicalize, drop_edges, point_range, prepend
from oeg.dynamics import verify_conjugacy
from oeg.errors import InputError
from oeg.graphs import INF, Edge, Graph
from oeg.moves import (
    Block,
    OutSplitPartition,
    ParallelIndexing,
    amplified_transitive_closure,
    amplify,
    check_partition,
    check_saturation_identity,
    decide_amplified_oe,
    out_split,
    out_split_map,
    saturate,
    saturate_map,
    saturate_map_inverse,
    trivial_partition,
)
from oeg.dsl import parse_partition, parse_point, print_point
from oeg.invariants import digraph_isomorphic, reachability
from oeg.zoo import amplified_arrow_loop, iter_small_graphs


# -- out-split ---------------------------------------------------------------


def split_at_one(e2) -> OutSplitPartition:
    return parse_partition(e2, "split 1: {a11} | {a12}")


def test_out_split_trivial_is_isomorphic(e1, e2):
    for g in (e1, e2):
        s = out_split(g, trivial_partition(g))
        assert digraph_isomorphic(g, s.graph) is not None


def test_out_split_display(e2):
    s = out_split(e2, split_at_one(e2))
    g = s.graph
    assert g.vertices == ("1^1", "1^2", "2^1")
    table = {(c.cid, c.src, c.dst, c.mult) for c in g.edge_classes}
    assert table == {
        ("a11^1", "1^1", "1^1", 1),
        ("a11^2", "1^1", "1^2", 1),
        ("a12^1", "1^2", "2^1", 1),
        ("a21^1", "2^1", "1^1", 1),
        ("a21^2", "2^1", "1^2", 1),
        ("a22^1", "2^1", "2^1", 1),
    }


def test_out_split_sink_untouched(g0):
    s = out_split(g0, trivial_partition(g0))
    assert s.graph == g0


def test_improper_partitions(e2):
    with pytest.raises(InputError):
        out_split(e2, OutSplitPartition({"1": (Block(frozenset()),), "2": trivial_partition(e2).blocks["2"]}))
    both = trivial_partition(e2).blocks
    overlapping = OutSplitPartition(
        {
            "1": (Block(frozenset({Edge("a11", 0), Edge("a12", 0)})), Block(frozenset({Edge("a12", 0)}))),
            "2": both["2"],
        }
    )
    with pytest.raises(InputError):
        out_split(e2, overlapping)
    two_infinite = amplified_arrow_loop()
    p = OutSplitPartition(
        {
            "u": (Block(frozenset(), frozenset({"A"})),),
            "v": (Block(frozenset(), frozenset({"B"})), Block(frozenset(), frozenset({"B"}))),
        }
    )
    with pytest.raises(InputError):
        out_split(two_infinite, p)


def _partition_mutations(g: Graph, p: OutSplitPartition) -> dict[str, OutSplitPartition]:
    """A partition and its mutations by name, each at the first non-sink
    vertex: an item in two blocks, a hole, an index out of range and the
    faults ``test_partition_errors`` names, and a block with two faults."""
    blocks = p.blocks
    out = {"as given": blocks}
    v = next((v for v in g.vertices if v in blocks), None)
    if v is None:
        return {name: OutSplitPartition(b) for name, b in out.items()}
    cells = list(blocks[v])
    classes = g.out_classes(v)
    fin = next((c for c in classes if not c.is_infinite), None)
    inf = next((c for c in classes if c.is_infinite), None)
    foreign = next((e for w in g.vertices if w != v for e in g.out_edges(w)), None)

    def at_v(new_cells):
        return {**blocks, v: tuple(new_cells)}

    def added(edges=(), infs=(), i=0):
        b = cells[i]
        return at_v([*cells[:i], Block(b.edges | set(edges), b.infinite_classes | set(infs)), *cells[i + 1 :]])

    first = cells[0]
    item = min(first.edges) if first.edges else None
    out["no blocks"] = {w: b for w, b in blocks.items() if w != v}
    out["empty block"] = at_v([*cells, Block()])
    out["unknown vertex"] = {**blocks, "zz": blocks[v]}
    sink = next((w for w in g.vertices if not g.out_classes(w)), None)
    if sink is not None:
        out["sink with blocks"] = {**blocks, sink: blocks[v]}
    out["unknown class"] = added([Edge("zz", 0)])
    if item is not None:
        out["item in two blocks"] = added([item], i=1) if len(cells) > 1 else at_v([*cells, Block(frozenset({item}))])
        rest = Block(first.edges - {item}, first.infinite_classes)
        out["hole"] = at_v([rest, *cells[1:]] if rest.edges or rest.is_infinite else cells[1:])
    if fin is not None:
        out["index out of range"] = added([Edge(fin.cid, fin.mult)])
        out["negative index"] = added([Edge(fin.cid, -1)])
        out["finite class placed wholesale"] = added(infs=[fin.cid])
    if inf is not None:
        out["infinite class edge by edge"] = added([Edge(inf.cid, 0)])
        out["two infinite blocks"] = at_v([*cells, Block(frozenset(), frozenset({inf.cid}))])
        out["infinite class missing"] = at_v([Block(b.edges, frozenset()) for b in cells if b.edges] or [Block()])
    if foreign is not None:
        out["foreign edge"] = added([foreign])
        if fin is not None:
            out["two faults in a block"] = added([foreign, Edge(fin.cid, fin.mult)])
    return {name: OutSplitPartition(b) for name, b in out.items()}


def _check_outcome(check, g: Graph, p: OutSplitPartition):
    try:
        check(g, p)
    except InputError as exc:
        return type(exc), str(exc)
    return "ok"


def test_partition_check_matches_the_listing_check():
    """The one-pass check gives the verdict, exception type and message of
    the check that listed every out-edge again, on the trivial partition of
    every pool graph, on random proper partitions and on their mutations;
    where it accepts, its map names each item's vertex and block.  Both
    checks walk the same frozensets in the same order, so even a block with
    two faults must name the same one."""
    rng = random.Random(27)
    cases = [(g, trivial_partition(g)) for g in iter_small_graphs(3)]
    for _ in range(150):
        g = random_graph(rng, max_vertices=4, max_mult=3, edge_prob=0.5, inf_prob=0.3)
        cases.append((g, random_proper_partition(rng, g)))
    seen: dict[str, set] = {}
    for g, base in cases:
        for name, p in _partition_mutations(g, base).items():
            got = _check_outcome(check_partition, g, p)
            assert got == _check_outcome(reference_check_partition, g, p), (g, name)
            seen.setdefault(name, set()).add(got if got == "ok" else got[0])
            if got == "ok":
                where = check_partition(g, p)
                for item, (v, i) in where.items():
                    b = p.blocks[v][i]
                    assert item in b.edges or item in b.infinite_classes
                assert len(where) == sum(len(b.edges) + len(b.infinite_classes) for bs in p.blocks.values() for b in bs)
    assert seen["as given"] == {"ok"}
    for name, outcomes in seen.items():
        if name != "as given":
            assert outcomes == {InputError}, name
    assert len(seen) == 16


def test_out_split_map_examples(e2):
    s = out_split(e2, split_at_one(e2))
    got = out_split_map(e2, s, pt(e2, "a11.a12.(a22)*"))
    assert print_point(s.graph, got) == "a11^2.a12^1.(a22^1)*"
    got2 = out_split_map(e2, s, pt(e2, "(a11)*"))
    assert print_point(s.graph, got2) == "(a11^1)*"


def test_out_split_map_trivial_relabel(e1):
    s = out_split(e1, trivial_partition(e1))
    for x in boundary_census(e1).points:
        y = out_split_map(e1, s, x)
        assert y.length == x.length


def test_out_split_conjugacy_on_finite_census(e1):
    s = out_split(e1, trivial_partition(e1))
    h = {x: out_split_map(e1, s, x) for x in boundary_census(e1).points}
    assert verify_conjugacy(e1, s.graph, h)


def test_out_split_infinite_emitter_last_edge():
    g = Graph(["u", "v"], [("a", "u", "v", 1), ("b", "v", "v", INF), ("c", "v", "u", 1)])
    p = parse_partition(g, "split v: {b} | {c}")
    s = out_split(g, p)
    # v^1 carries the infinite block, so the finite point a ends there
    got = out_split_map(g, s, pt(g, "a"))
    assert print_point(s.graph, got) == "a^1"
    got2 = out_split_map(g, s, pt(g, "@v"))
    assert got2 == parse_point(s.graph, "@v^1")


def _intertwines(g, s, points):
    for x in points:
        if x.length < 1:
            continue
        lhs = out_split_map(g, s, drop_edges(g, x, 1))
        rhs = drop_edges(s.graph, out_split_map(g, s, x), 1)
        if lhs != rhs:
            return False
    return True


def test_out_split_intertwines_random():
    rng = random.Random(123)
    for _ in range(60):
        g = random_graph(rng, max_vertices=4, max_mult=2, edge_prob=0.4, inf_prob=0.1)
        s = out_split(g, random_proper_partition(rng, g))
        points = sample_points(g, pre_len=6, per_len=3, inf_cap=2, limit=30)
        assert _intertwines(g, s, points)


@st.composite
def split_case_st(draw):
    """A graph on <= 4 vertices, in half the draws with an infinite class
    forced onto one vertex pair, and a random proper partition of it."""
    n = draw(st.integers(1, 4))
    verts = [f"v{i}" for i in range(n)]
    mults = [draw(st.sampled_from([0, 0, 0, 1, 2, INF])) for _ in range(n * n)]
    if draw(st.booleans()):
        mults[draw(st.integers(0, n * n - 1))] = INF
    classes = [(f"e{k // n}_{k % n}", verts[k // n], verts[k % n], m) for k, m in enumerate(mults) if m]
    g = Graph(verts, classes)
    return g, random_proper_partition(draw(st.randoms(use_true_random=False)), g)


@settings(max_examples=150, deadline=None)
@given(split_case_st())
def test_out_split_map_matches_oracle(case):
    g, p = case
    s, oracle = out_split(g, p), OracleSplit(g, p)
    assert s.graph == oracle.graph
    points = sample_points(g, pre_len=4, per_len=3, inf_cap=2, limit=80)
    census = boundary_census(g)
    if census.finite:
        event("finite census")
        points += census.points
    # every finite point of length <= 1 that ends at an infinite emitter
    for c in g.edge_classes:
        if c.is_infinite:
            points.append(BoundaryPoint(c.src, (), ()))
            points += [BoundaryPoint(d.src, (Edge(d.cid, i),), ()) for d in g.edge_classes
                       if d.dst == c.src for i in range(2 if d.is_infinite else d.mult)]
    emitters = {c.src for c in g.edge_classes if c.is_infinite}
    if any(x.is_finite and point_range(g, x) in emitters for x in points):
        event("finite points end at an infinite emitter")
    for x in points:
        y = out_split_map(g, s, x)
        assert y == oracle.map(x)
        assert canonicalize(s.graph, y.src, y.pre, y.period) == y


def _contract_split():
    """u is regular with a finite class cut across its blocks, v an infinite
    emitter with a loop class, z a sink."""
    g = Graph(
        ["u", "v", "z"],
        [("a", "u", "v", 2), ("s", "u", "z", 1), ("b", "v", "v", INF), ("c", "v", "u", 1)],
    )
    return g, out_split(g, parse_partition(g, "split u: {a[0]} | {a[1], s}\nsplit v: {b} | {c}"))


_MALFORMED = {
    "unknown class": BoundaryPoint("u", (Edge("q", 0),), ()),
    "unknown class in a period": BoundaryPoint("v", (), (Edge("q", 0),)),
    "unknown vertex": BoundaryPoint("q", (), ()),
    "index past a finite class": BoundaryPoint("u", (Edge("a", 2), Edge("b", 0)), ()),
    "negative index in a finite class": BoundaryPoint("u", (Edge("a", -1),), ()),
    "negative index in an infinite class": BoundaryPoint("v", (Edge("b", -1),), ()),
    "negative index in an infinite period": BoundaryPoint("v", (), (Edge("b", -3),)),
    "edges that do not compose": BoundaryPoint("u", (Edge("a", 0), Edge("a", 1)), ()),
    "an edge out of a sink": BoundaryPoint("u", (Edge("s", 0), Edge("a", 0)), ()),
    "a preperiod off the period": BoundaryPoint("u", (Edge("s", 0),), (Edge("b", 0),)),
    "a period that does not close": BoundaryPoint("u", (), (Edge("a", 0),)),
    "a finite path ending at a regular vertex": BoundaryPoint("u", (Edge("a", 0), Edge("c", 0)), ()),
    "an empty path at a regular vertex": BoundaryPoint("u", (), ()),
    "a source off the first edge": BoundaryPoint("v", (Edge("a", 0),), (Edge("b", 0),)),
}


@pytest.mark.parametrize("fault", sorted(_MALFORMED))
def test_out_split_map_rejects_malformed_points(fault):
    g, s = _contract_split()
    with pytest.raises(InputError):
        out_split_map(g, s, _MALFORMED[fault])


def _assert_conjugacy(g, s):
    """Images are points of the split graph, the map is injective on a
    sample, and it intertwines the shifts."""
    points = sample_points(g, pre_len=4, per_len=3, inf_cap=2, limit=200)
    images = [out_split_map(g, s, x) for x in points]
    assert all(canonicalize(s.graph, y.src, y.pre, y.period) == y for y in images)
    assert len(set(images)) == len(points)
    assert _intertwines(g, s, points)


def test_out_split_fresh_vertex_names():
    """A sink named like a vertex copy keeps its name; the copy moves."""
    g = Graph(["v", "v^1"], [("a", "v", "v", 1), ("b", "v", "v^1", 1)])
    s = out_split(g, parse_partition(g, "split v: {a} | {b}"))
    assert s.graph.vertices == ("v^1_2", "v^2", "v^1")
    assert {(c.cid, c.src, c.dst) for c in s.graph.edge_classes} == {
        ("a^1", "v^1_2", "v^1_2"), ("a^2", "v^1_2", "v^2"), ("b", "v^2", "v^1"),
    }
    assert print_point(s.graph, out_split_map(g, s, parse_point(g, "a.a.b"))) == "a^1.a^2.b"
    assert out_split_map(g, s, parse_point(g, "@v^1")) == parse_point(s.graph, "@v^1")
    _assert_conjugacy(g, s)


def test_out_split_fresh_class_names():
    """A class named like a block piece of another class keeps its name;
    the piece made later in declaration order moves."""
    g = Graph(["s", "t"], [("a_b1", "t", "t", 1), ("a", "s", "t", 2), ("a^1", "s", "s", 1)])
    s = out_split(g, parse_partition(g, "split s: {a[0], a^1} | {a[1]}"))
    got = [(c.cid, c.src, c.dst, c.mult) for c in s.graph.edge_classes]
    assert got == [
        ("a_b1^1", "t^1", "t^1", 1),
        ("a_b1^1_2", "s^1", "t^1", 1),
        ("a_b2^1", "s^2", "t^1", 1),
        ("a^1^1", "s^1", "s^1", 1),
        ("a^1^2", "s^1", "s^2", 1),
    ]
    y = out_split_map(g, s, parse_point(g, "a^1.a[0].(a_b1)*"))
    assert print_point(s.graph, y) == "a^1^1.a_b1^1_2.(a_b1^1)*"
    _assert_conjugacy(g, s)


# -- amplification and closure -------------------------------------------------


def test_amplify_examples(e1, g0):
    a = amplify(e1)
    assert {(c.src, c.dst, c.mult) for c in a.edge_classes} == {("u", "v", INF), ("v", "v", INF)}
    assert amplify(a) == a
    assert amplify(g0) == g0


def test_closure_examples(e1, f1, g0):
    t = amplified_transitive_closure(e1)
    assert {(c.src, c.dst) for c in t.edge_classes} == {("u", "v"), ("v", "v")}
    tf = amplified_transitive_closure(f1)
    assert {(c.src, c.dst) for c in tf.edge_classes} == {
        ("p", "p"), ("p", "q"), ("q", "p"), ("q", "q"),
    }
    assert amplified_transitive_closure(g0) == g0


def test_closure_matches_path_enumeration(e1):
    # oracle: enumerate paths of length <= |V| by brute force
    got = {(c.src, c.dst) for c in amplified_transitive_closure(e1).edge_classes}
    brute = set()
    for v in e1.vertices:
        frontier = [v]
        for _ in range(len(e1.vertices)):
            frontier = [e1.edge_dst(e) for w in frontier for e in e1.out_edges(w)]
            brute.update((v, w) for w in frontier)
    assert got == brute


def test_closure_idempotence():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, max_vertices=5, max_mult=2, edge_prob=0.4, inf_prob=0.2)
        t = amplified_transitive_closure(g)
        assert amplified_transitive_closure(t) == t
        assert amplified_transitive_closure(amplify(g)) == t
        assert amplify(amplify(g)) == amplify(g)


def test_closure_matches_reachability_dict_on_pool():
    """The closure read off the condensation bitsets is the one built from
    the reachability dict, classes in the same order."""
    for g in iter_small_graphs(3):
        reach = reachability(g)
        pairs = [(v, w) for v in g.vertices for w in g.vertices if reach[(v, w)]]
        want = Graph(g.vertices, [(f"{v}_{w}", v, w, INF) for v, w in pairs])
        assert amplified_transitive_closure(g) == want


def test_decide_examples(e1, f1, e2):
    ok, bij = decide_amplified_oe(e1, e1)
    assert ok and bij == {"u": "u", "v": "v"}
    assert decide_amplified_oe(e1, f1) == (False, None)
    ok2, bij2 = decide_amplified_oe(e2, f1)
    assert ok2 and bij2 is not None
    # oracle: the reachability relations say the same thing
    assert reachability(e1) != {
        (a, b): True for a in e1.vertices for b in e1.vertices
    }
    assert all(reachability(e2).values()) and all(reachability(f1).values())


def test_decide_is_equivalence_relation():
    rng = random.Random(17)
    pool = [random_graph(rng, max_vertices=4, max_mult=2, edge_prob=0.45) for _ in range(12)]
    for g in pool:
        assert decide_amplified_oe(g, g)[0]
    for a, b in itertools.combinations(pool, 2):
        assert decide_amplified_oe(a, b)[0] == decide_amplified_oe(b, a)[0]
    for a, b, c in itertools.islice(itertools.combinations(pool, 3), 80):
        if decide_amplified_oe(a, b)[0] and decide_amplified_oe(b, c)[0]:
            assert decide_amplified_oe(a, c)[0]


# -- saturation -----------------------------------------------------------------


def test_saturate_examples(amp, e2):
    sat, w = saturate(amp, amp.path([("A", 0), ("B", 0)]))
    new = [c for c in sat.edge_classes if c.cid == w.new_class]
    assert new and new[0].src == "u" and new[0].dst == "v" and new[0].is_infinite
    assert w.eta1(0) == Edge("A", 0) and w.eta1(3) == Edge("A", 6)
    assert w.eta2(Edge("A", 0)) == Edge("A", 1)
    with pytest.raises(InputError):
        saturate(e2, e2.path(["a12", "a22"]))
    sat2, w2 = saturate(amp, amp.path([("B", 0), ("B", 0)]))
    new2 = [c for c in sat2.edge_classes if c.cid == w2.new_class]
    assert new2[0].src == "v" and new2[0].dst == "v"


def test_saturate_names_the_new_class_past_those_taken():
    classes = [("A", "u", "v", INF), ("B", "v", "v", INF), ("M", "u", "v", 1)]
    g = Graph(["u", "v"], classes)
    assert saturate(g, g.path([("A", 0), ("B", 0)]))[1].new_class == "M2"
    g = Graph(["u", "v"], classes + [("M2", "v", "u", 1)])
    assert saturate(g, g.path([("A", 0), ("B", 0)]))[1].new_class == "M3"


def test_saturate_map_examples(amp):
    sat, w = saturate(amp, amp.path([("A", 0), ("B", 0)]))
    cases = {
        "M[3].(B[0])*": "A[6].(B[0])*",
        "A[0].(B[0])*": "A[1].(B[0])*",
        "(B[0])*": "(B[0])*",
    }
    for src_text, want in cases.items():
        got = saturate_map(w, parse_point(sat, src_text))
        assert print_point(amp, got) == want


def test_saturate_map_bijective_on_samples(amp):
    sat, w = saturate(amp, amp.path([("A", 0), ("B", 0)]))
    for x in sample_points(sat, pre_len=3, per_len=2, inf_cap=3, limit=120):
        assert saturate_map_inverse(w, saturate_map(w, x)) == x
    for y in sample_points(amp, pre_len=3, per_len=2, inf_cap=3, limit=120):
        assert saturate_map(w, saturate_map_inverse(w, y)) == y


def test_saturation_identity_examples(amp):
    for pattern in ([("A", 0), ("B", 0)], [("B", 0)]):
        sat, w = saturate(amp, amp.path(pattern))
        pts_sat = sample_points(sat, pre_len=3, per_len=2, inf_cap=3, limit=110)
        pts_orig = sample_points(amp, pre_len=3, per_len=2, inf_cap=3, limit=110)
        assert len(pts_sat) >= 100
        assert check_saturation_identity(w, pts_sat, pts_orig) == []


def test_out_split_bijective_on_finite_censuses():
    rng = random.Random(400)
    from sampling import random_functional_graph

    done = 0
    while done < 25:
        g = random_functional_graph(rng, 5)
        census = boundary_census(g)
        if not census.finite:
            continue
        s = out_split(g, random_proper_partition(rng, g))
        image = {out_split_map(g, s, x) for x in census.points}
        target = boundary_census(s.graph)
        assert target.finite and image == set(target.points)
        for x in census.points:
            assert out_split_map(g, s, x).length == x.length
        done += 1


def test_out_split_class_split_across_blocks():
    """A finite class whose edges land in different blocks gets per-block
    class pieces with reindexed members."""
    g = Graph(["s", "t"], [("p", "s", "t", 2), ("q", "t", "t", 1)])
    part = parse_partition(g, "split s: {p[0]} | {p[1]}")
    s = out_split(g, part)
    got = {(c.cid, c.src, c.dst, c.mult) for c in s.graph.edge_classes}
    assert got == {
        ("p_b1^1", "s^1", "t^1", 1),
        ("p_b2^1", "s^2", "t^1", 1),
        ("q^1", "t^1", "t^1", 1),
    }
    x = parse_point(g, "p[1].(q)*")
    y = out_split_map(g, s, x)
    assert print_point(s.graph, y) == "p_b2^1.(q^1)*"
    # the conjugacy intertwines on the census
    census = boundary_census(g)
    assert census.finite
    h = {z: out_split_map(g, s, z) for z in census.points}
    assert verify_conjugacy(g, s.graph, h)


def test_out_split_roundtrips_through_dsl(e2):
    from oeg.dsl import parse_graph, print_graph

    s = out_split(e2, split_at_one(e2))
    assert parse_graph(print_graph(s.graph, "split")).graph == s.graph


def test_saturate_mixed_parallel_set():
    """The pattern head's parallels may mix finite classes with infinite
    ones; the indexing enumerates finite edges first."""
    g = Graph(
        ["u", "v"],
        [("c", "u", "v", 2), ("A", "u", "v", INF), ("B", "v", "v", INF)],
    )
    pattern = g.path([("c", 0), ("B", 0)])
    sat, w = saturate(g, pattern)
    # naturals -> parallels: c[0], c[1], A[0], A[1], ...
    assert [w.indexing.edge(i) for i in range(4)] == [
        Edge("c", 0), Edge("c", 1), Edge("A", 0), Edge("A", 1),
    ]
    assert w.eta1(0) == Edge("c", 0) and w.eta1(1) == Edge("A", 0)
    assert w.eta2(Edge("c", 0)) == Edge("c", 1)
    assert w.eta2(Edge("c", 1)) == Edge("A", 1)
    got = saturate_map(w, parse_point(sat, "M[0].(B[0])*"))
    assert print_point(g, got) == "c[0].(B[0])*"
    got2 = saturate_map(w, parse_point(sat, "c[0].(B[0])*"))
    assert print_point(g, got2) == "c[1].(B[0])*"
    for x in sample_points(sat, pre_len=3, per_len=2, inf_cap=3, limit=110):
        assert saturate_map_inverse(w, saturate_map(w, x)) == x
    pts_sat = sample_points(sat, pre_len=3, per_len=2, inf_cap=3, limit=110)
    pts_orig = sample_points(g, pre_len=3, per_len=2, inf_cap=3, limit=110)
    assert check_saturation_identity(w, pts_sat, pts_orig) == []


def test_parallel_indexing_matches_the_listing():
    """Finite classes, interleaved with infinite ones in declaration order,
    index as the listing of their edges followed by the round-robin of the
    infinite classes; an index past a finite class is not a parallel."""
    g = Graph(
        ["u", "v", "w"],
        [("a", "u", "v", 3), ("A", "u", "v", INF), ("x", "u", "w", 2), ("b", "u", "v", 1),
         ("B", "u", "v", INF), ("c", "u", "v", 2), ("d", "v", "u", 1)],
    )
    w = ParallelIndexing(g, "u", "v")
    listing = [Edge(cid, i) for cid, m in (("a", 3), ("b", 1), ("c", 2)) for i in range(m)]
    listing += [Edge(cid, q) for q in range(3) for cid in ("A", "B")]
    assert [w.edge(n) for n in range(len(listing))] == listing
    assert [w.index(e) for e in listing] == list(range(len(listing)))
    assert all(w.contains(e) for e in listing)
    assert not any(w.contains(e) for e in (Edge("a", 3), Edge("b", -1), Edge("x", 0), Edge("d", 0)))


_MANY_PARALLELS = """
import json, sys, time
from oeg.dsl import parse_point
from oeg.graphs import INF, Graph
from oeg.moves import saturate, saturate_map, saturate_map_inverse

n = int(sys.argv[1])
g = Graph(["u", "v"], [("A", "u", "v", n), ("B", "u", "v", INF), ("c", "v", "u", 1)])
sat, w = saturate(g, g.path([("B", 0), ("c", 0)]))
points = [parse_point(sat, f"(A[{n - 1 - k}].c[0])*") for k in range(50)]
start = time.perf_counter()
back = [saturate_map_inverse(w, saturate_map(w, x)) for x in points]
print(json.dumps([time.perf_counter() - start, back == points]))
"""


def test_saturate_map_is_not_linear_in_the_finite_parallels():
    """With 4*10^5 finite parallels of the pattern head, mapping 50 points
    there and back takes well under 0.5 s; a scan of the finite parallels
    per lookup took about 30 ms a point.  A child process times out
    instead of hanging."""
    from test_cli import _src_env

    proc = subprocess.run([sys.executable, "-c", _MANY_PARALLELS, str(400_000)],
                          capture_output=True, text=True, env=_src_env(), timeout=10)
    assert proc.returncode == 0, proc.stderr
    took, roundtrip = json.loads(proc.stdout)
    assert roundtrip and took < 0.5


def test_saturation_cocycle_tables_pinned(amp):
    """The witness tables on a concrete instance: the new-class cylinder
    carries delay m, even-parallel occurrences carry m-1 backwards."""
    from oeg.moves import saturation_cocycles

    sat, w = saturate(amp, amp.path([("A", 0), ("B", 0)]))
    k1, l1, k1p, l1p = saturation_cocycles(w)
    assert k1(parse_point(sat, "M[5].(B[0])*")) == 0
    assert l1(parse_point(sat, "M[5].(B[0])*")) == 2
    assert l1(parse_point(sat, "A[0].(B[0])*")) == 1
    assert l1(parse_point(sat, "(B[0])*")) == 1
    # A[6] = eta1(3) heads an occurrence; A[1] = eta2(A[0]) does not count
    assert k1p(parse_point(amp, "A[6].(B[0])*")) == 1
    assert k1p(parse_point(amp, "A[1].(B[0])*")) == 0
    assert k1p(parse_point(amp, "(B[0])*")) == 0
    assert l1p(parse_point(amp, "A[6].(B[0])*")) == 1


def test_saturate_longer_pattern(amp):
    """A length-3 pattern: occurrences need lookahead across the periodic
    tail and the delays grow with the pattern."""
    sat, w = saturate(amp, amp.path([("A", 0), ("B", 0), ("B", 1)]))
    got = saturate_map(w, parse_point(sat, "M[2].(B[0])*"))
    assert print_point(amp, got) == "A[4].B[0].B[1].(B[0])*"
    got2 = saturate_map(w, parse_point(sat, "A[3].B[0].B[1].(B[7])*"))
    assert print_point(amp, got2) == "A[7].B[0].B[1].(B[7])*"
    pts_sat = sample_points(sat, pre_len=4, per_len=2, inf_cap=3, limit=140)
    pts_orig = sample_points(amp, pre_len=4, per_len=2, inf_cap=3, limit=140)
    for x in pts_sat:
        assert saturate_map_inverse(w, saturate_map(w, x)) == x
    assert check_saturation_identity(w, pts_sat, pts_orig) == []


def test_saturate_maps_match_oracle():
    """Both rewriting directions agree with the stream rewriter on sampled
    finite and eventually periodic points, for patterns of length 1 to 3 on
    random graphs; points are also made to start with the pattern or with a
    new-class edge, so that occurrences are met at position 0 and later."""
    rng = random.Random(2024)
    rewritten = {(forward, finite): 0 for forward in (True, False) for finite in (True, False)}
    done = 0
    while done < 45:
        g = random_graph(rng, max_vertices=3, max_mult=2, edge_prob=0.5, inf_prob=0.4)
        heads = [c for c in g.edge_classes if c.is_infinite]
        if not heads:
            continue
        edges = [Edge(rng.choice(heads).cid, rng.randrange(3))]
        while len(edges) < 1 + done % 3:
            options = list(capped_out_edges(g, g.edge_dst(edges[-1]), 2))
            if not options:
                break
            edges.append(rng.choice(options))
        if len(edges) < 1 + done % 3:
            continue
        pattern = g.path(edges)
        sat, w = saturate(g, pattern)
        new_edge = sat.path([(w.new_class, rng.randrange(4))])
        points = {
            True: sample_points(sat, pre_len=4, per_len=2, inf_cap=3, limit=150),
            False: sample_points(g, pre_len=4, per_len=2, inf_cap=3, limit=150),
        }
        points[True] += [prepend(sat, new_edge, x) for x in points[True] if x.src == pattern.dst]
        points[False] += [prepend(g, pattern, y) for y in points[False] if y.src == pattern.dst]
        for forward, mapped in ((True, saturate_map), (False, saturate_map_inverse)):
            for x in points[forward]:
                got = mapped(w, x)
                assert got == _rewrite_stream(w, x, forward), (forward, x)
                rewritten[forward, x.is_finite] += got != x
        done += 1
    assert min(rewritten.values()) > 50, rewritten


def test_saturation_failures_print_points(amp, monkeypatch):
    """A failing identity names its point in the point notation."""
    from oeg import moves

    sat, w = saturate(amp, amp.path([("A", 0), ("B", 0)]))
    k1, _, k1p, l1p = moves.saturation_cocycles(w)
    monkeypatch.setattr(moves, "saturation_cocycles", lambda w: (k1, lambda x: 1, k1p, l1p))
    failures = check_saturation_identity(w, [parse_point(sat, "M[3].B[1].(B[2])*")], [])
    assert failures == ["forward identity fails at M[3].B[1].(B[2])*"]


def test_out_split_edges_into_sinks_keep_names():
    g = Graph(["u", "v"], [("a", "u", "v", 1), ("b", "u", "u", 1)])
    s = out_split(g, trivial_partition(g))
    got = {(c.cid, c.src, c.dst) for c in s.graph.edge_classes}
    assert got == {("a", "u^1", "v"), ("b^1", "u^1", "u^1")}
    assert print_point(s.graph, out_split_map(g, s, parse_point(g, "a"))) == "a"
    assert print_point(s.graph, out_split_map(g, s, parse_point(g, "b.a"))) == "b^1.a"

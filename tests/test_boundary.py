from __future__ import annotations

import functools
import gc
import json
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from census_oracle import reference_census
from conftest import pt, small_graph_st
from point_oracle import reference_canonicalize, reference_drop_edges, reference_out_degree
from sample_oracle import capped_out_edges, loop_has_exit, reference_bounded_points
from sampling import chain_graph, random_cylinders, random_forest, random_graph, sample_points
from oeg import boundary
from oeg.boundary import (
    CENSUS_LIMIT,
    BoundaryPoint,
    _cycle_through,
    boundary_census,
    boundary_size,
    bounded_points,
    canonicalize,
    cyl_intersect,
    cyl_is_empty,
    cyl_membership,
    cyl_relation,
    cyl_subtract_all,
    disjointify,
    drop_edges,
    is_isolated,
    isolating_cylinder,
    make_cylinder,
    point_sort_key,
    prepend,
    shift,
    tail_class_sizes,
    tail_classes,
    tail_key,
)
from oeg.dynamics import search_oe_witness, verify_oe_witness
from oeg.errors import DomainError, InputError, UnsupportedScaleError
from oeg.graphs import Edge, EdgeClass, Graph, enumerate_simple_loops
from oeg.groupoid import isotropy
from oeg.invariants import invariant_report
from oeg.moves import decide_amplified_oe
from oeg.pointtable import PointTable
from oeg.weyl import phi_bijectivity_check
from oeg.zoo import amplified_arrow_loop, full_shift_two, iter_small_graphs


def edges_to_depth(x: BoundaryPoint, depth: int):
    """Oracle: the raw edge sequence of a point, cut at depth."""
    n = min(depth, x.length if x.is_finite else depth)
    return tuple(x.edge_at(i) for i in range(int(n))), x.length == n


def same_point_to_depth(x, y, depth):
    return edges_to_depth(x, depth) == edges_to_depth(y, depth) and x.src == y.src


def test_canonicalize_examples(e1):
    a, b = Edge("a", 0), Edge("b", 0)
    got = canonicalize(e1, "u", (a, b), (b, b))
    want = canonicalize(e1, "u", (a,), (b,))
    assert got == want == BoundaryPoint("u", (a,), (b,))
    assert canonicalize(e1, "v", (), (b, b)) == BoundaryPoint("v", (), (b,))
    with pytest.raises(InputError):
        canonicalize(e1, "u", (a,))  # r(a) = v is regular


def test_canonicalize_idempotent_and_faithful(e1, e2):
    rng = random.Random(7)
    for g in (e1, e2, full_shift_two()):
        pts = sample_points(g, pre_len=3, per_len=3, limit=60)
        for x in pts:
            again = canonicalize(g, x.src, x.pre, x.period)
            assert again == x
        # distinct canonical forms disagree somewhere within the comparison depth
        for _ in range(200):
            x, y = rng.choice(pts), rng.choice(pts)
            depth = 3 * (len(x.pre) + len(x.period) + len(y.pre) + len(y.period))
            assert (x == y) == same_point_to_depth(x, y, max(depth, 1))


def test_membership_examples(e1):
    za = make_cylinder(e1, e1.path(["a"]))
    assert cyl_membership(e1, pt(e1, "a.(b)*"), za)
    assert not cyl_membership(e1, pt(e1, "(b)*"), za)
    za_nb = make_cylinder(e1, e1.path(["a"]), [Edge("b", 0)])
    assert not cyl_membership(e1, pt(e1, "a.(b)*"), za_nb)


def test_relation_examples(e1, e2):
    z_a11 = make_cylinder(e2, e2.path(["a11"]))
    z_root = make_cylinder(e2, e2.path((), at="1"))
    assert cyl_relation(e2, z_a11, z_root) == "subset"
    assert cyl_relation(e2, z_root, z_a11) == "superset"
    za = make_cylinder(e1, e1.path(["a"]))
    zb = make_cylinder(e1, e1.path(["b"]))
    assert cyl_relation(e1, za, zb) == "disjoint"
    z_excl = make_cylinder(e2, e2.path((), at="1"), [Edge("a11", 0)])
    assert cyl_relation(e2, z_excl, z_a11) == "disjoint"
    assert cyl_relation(e2, z_root, z_root) == "equal"
    # excluding the only sibling forces the continuation, so these coincide
    z_forced = make_cylinder(e2, e2.path((), at="1"), [Edge("a12", 0)])
    assert cyl_relation(e2, z_forced, z_a11) == "equal"
    # a genuine overlap needs three ways out
    g3 = Graph(["s", "t"], [("x", "s", "s", 1), ("y", "s", "s", 1), ("z", "s", "t", 1), ("w", "t", "t", 1)])
    zx = make_cylinder(g3, g3.path((), at="s"), [Edge("x", 0)])
    zy = make_cylinder(g3, g3.path((), at="s"), [Edge("y", 0)])
    assert cyl_relation(g3, zx, zy) == "overlap"


def test_intersect_keeps_the_base_that_extends_the_other(e2):
    """The cylinder at 1 without a12 meets the cylinder of a11 in the
    latter, whichever is given first; the cylinder at 1 without a11 misses
    it."""
    z_root = make_cylinder(e2, e2.path((), at="1"), [Edge("a12", 0)])
    z_a11 = make_cylinder(e2, e2.path(["a11"]))
    assert cyl_intersect(e2, z_root, z_a11) == z_a11
    assert cyl_intersect(e2, z_a11, z_root) == z_a11
    assert cyl_intersect(e2, make_cylinder(e2, e2.path((), at="1"), [Edge("a11", 0)]), z_a11) is None


def test_empty_cylinder(e1):
    z = make_cylinder(e1, e1.path(["a"]), [Edge("b", 0)])
    assert cyl_is_empty(e1, z)
    z2 = make_cylinder(e1, e1.path(["a"]))
    assert not cyl_is_empty(e1, z2)


def test_disjointify_examples(e2):
    z_a11 = make_cylinder(e2, e2.path(["a11"]))
    assert disjointify(e2, [z_a11]) == [z_a11]
    assert disjointify(e2, [z_a11, z_a11]) == [z_a11]
    z_root = make_cylinder(e2, e2.path((), at="1"))
    got = disjointify(e2, [z_root, z_a11])
    assert got == [make_cylinder(e2, e2.path((), at="1"), [Edge("a11", 0)]), z_a11]


def _some_point_inside(g, z):
    """Greedy completion of the base path to a boundary point inside z."""
    from oeg.graphs import is_singular

    v = z.base.dst
    edges = []
    seen = {}
    while True:
        if is_singular(g, v):
            return canonicalize(g, z.base.src, z.base.edges + tuple(edges))
        if v in seen:
            i = seen[v]
            return canonicalize(g, z.base.src, z.base.edges + tuple(edges[:i]), tuple(edges[i:]))
        seen[v] = len(edges)
        options = [e for e in capped_out_edges(g, v, 2) if edges or e not in z.excluded]
        if not options:
            return None
        edges.append(options[0])
        v = g.edge_dst(options[0])


def _sample_for(g, cylinders):
    pts = set(sample_points(g, pre_len=4, per_len=3, inf_cap=2, limit=150))
    for z in cylinders:
        got = _some_point_inside(g, z)
        if got is not None:
            pts.add(got)
    return pts


def check_disjointify(g, cover):
    out = disjointify(g, cover)
    for i, z1 in enumerate(out):
        for z2 in out[i + 1 :]:
            assert cyl_relation(g, z1, z2) == "disjoint"
    # symbolic union equality, both directions
    for z in cover:
        assert not cyl_subtract_all(g, z, out)
    for z in out:
        assert not cyl_subtract_all(g, z, cover)
    # membership-sampling oracle
    for x in _sample_for(g, list(cover) + out):
        in_cover = any(cyl_membership(g, x, z) for z in cover)
        in_out = any(cyl_membership(g, x, z) for z in out)
        assert in_cover == in_out
    return out


def test_disjointify_random_covers():
    rng = random.Random(42)
    for _ in range(120):
        g = random_graph(rng, max_vertices=4, max_mult=2, edge_prob=0.45, inf_prob=0.15)
        cover = random_cylinders(rng, g, rng.randint(1, 5))
        check_disjointify(g, cover)


def test_isolation_examples(e1, e2):
    assert is_isolated(e1, pt(e1, "(b)*"))
    assert not is_isolated(e2, pt(e2, "(a11)*"))
    amp = amplified_arrow_loop()
    assert not is_isolated(amp, pt(amp, "@u"))


def test_isolation_matches_cylinder_search(e1, e2, g0, floop):
    for g in (e1, e2, g0, floop, amplified_arrow_loop()):
        for x in sample_points(g, pre_len=2, per_len=2, limit=40):
            z = isolating_cylinder(g, x)
            if is_isolated(g, x):
                assert z is not None
                # no other sampled point lies in the isolating cylinder
                for y in sample_points(g, pre_len=3, per_len=3, limit=80):
                    assert cyl_membership(g, y, z) == (x == y)
            else:
                assert z is None


def test_census_examples(e1, g0, e2):
    c = boundary_census(e1)
    assert c.finite
    assert [str(x) for x in c.points] == [
        str(pt(e1, "(b)*")),
        str(pt(e1, "a.(b)*")),
    ]
    c0 = boundary_census(g0)
    assert c0.finite and c0.points == (pt(g0, "@v"),)
    c2 = boundary_census(e2)
    assert not c2.finite
    assert "has an exit" in c2.witness


def test_point_order_breaks_ties_on_empty_paths():
    """Empty paths at different sinks tie on everything but their vertex;
    their order must not depend on the order they arrive in (the census
    collects points in a set, whose order follows string hashing)."""
    g = Graph(["u", "v", "w"], [("a", "u", "v", 1)])
    at_v, at_w = pt(g, "@v"), pt(g, "@w")
    assert sorted([at_w, at_v], key=point_sort_key) == sorted([at_v, at_w], key=point_sort_key)
    assert boundary_census(g).points == (at_v, at_w, pt(g, "a"))


def test_census_closure_properties(e1, f1, g0, floop):
    for g in (e1, f1, g0, floop):
        census = boundary_census(g)
        pts = set(census.points)
        for x in pts:
            if x.length >= 1:
                assert drop_edges(g, x, 1) in pts
        # every nonempty cylinder contains a census point
        rng = random.Random(3)
        for z in random_cylinders(rng, g, 20, max_base=3, max_excluded=1):
            if not cyl_is_empty(g, z):
                assert any(cyl_membership(g, x, z) for x in pts)


@settings(max_examples=40, deadline=None)
@given(small_graph_st(max_vertices=3), st.integers(0, 10**6))
def test_drop_edges_keeps_canonical(g, seed):
    rng = random.Random(seed)
    pts = sample_points(g, pre_len=3, per_len=3, limit=30)
    if not pts:
        return
    x = rng.choice(pts)
    n = rng.randint(0, 3)
    if x.length < n:
        return
    y = drop_edges(g, x, n)
    assert canonicalize(g, y.src, y.pre, y.period) == y


def test_bounded_points_are_canonical(e2):
    for x in bounded_points(e2, 3):
        assert canonicalize(e2, x.src, x.pre, x.period) == x


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 40))
def test_bounded_points_limit_cuts_the_sorted_sample(seed, limit):
    """A limited sample is the head of the unlimited one, which is sorted
    and free of repeats."""
    g = random_graph(random.Random(seed), max_vertices=3, max_mult=2, edge_prob=0.5, inf_prob=0.2)
    full = bounded_points(g, 3)
    assert full == sorted(set(full), key=point_sort_key)
    assert bounded_points(g, 3, limit) == full[:limit]


# (per_len, limit), compared with the reference at preperiod 1 and cap 1
_SAMPLE_GRID = [(3, 18), (2, None), (3, 24), (4, None), (2, 5), (3, 40)]
# a prefix budget the reference never reaches, so that its levels are whole
_UNCUT = 10**9


def _shuffled_ids(g: Graph, rng: random.Random) -> Graph:
    """The graph with its class ids permuted, so that they no longer sort
    with their source vertices."""
    ids = [c.cid for c in g.edge_classes]
    new = dict(zip(ids, rng.sample(ids, len(ids))))
    return Graph(g.vertices, [EdgeClass(new[c.cid], c.src, c.dst, c.mult) for c in g.edge_classes])


def test_bounded_points_matches_the_reference_sample():
    """The ordered walk gives the reference's sample at preperiod 1 and
    cap 1: on random graphs with infinite classes at every grid entry, and
    on the pool, as it is and with shuffled class ids, each graph at one
    entry in turn (all but the unlimited one with periods up to 4, the
    largest and slowest sample).  Periods with an empty preperiod are
    ordered across all vertices at once: taking them vertex by vertex agrees
    on the pool as it is, whose class ids sort with their sources, and fails
    on ``u: b, c`` against ``w: a``."""
    rng = random.Random(14)
    crossed = Graph(["u", "w"], [("b", "u", "u", 1), ("c", "u", "u", 1), ("a", "w", "w", 1)])
    cases = [(crossed, args) for args in _SAMPLE_GRID]
    limited = [args for args in _SAMPLE_GRID if args != (4, None)]
    for i, g in enumerate(iter_small_graphs(3)):
        args = limited[i % len(limited)]
        cases += [(g, args), (_shuffled_ids(g, rng), args)]
    for _ in range(300):
        g = random_graph(rng, max_vertices=4, max_mult=2, edge_prob=0.5, inf_prob=0.3)
        cases += [(g, args) for args in _SAMPLE_GRID]
    for g, (per_len, limit) in cases:
        want = reference_bounded_points(g, 1, per_len, 1, limit, _UNCUT)
        assert bounded_points(g, per_len, limit) == want


def test_bounded_points_are_the_head_of_the_point_order():
    """The sample is the head of the point order, however many vertices the
    graph has.  Of 250 vertices with a loop each, ``v000`` also has an edge
    ``a`` into the sink ``s``: the point ``a`` sorts second, after the empty
    point at ``s`` and before every periodic point.  A prefix budget that
    fell with the limit once cut every one-edge point here."""
    V = [f"v{i:03}" for i in range(250)]
    g = Graph(V + ["s"], [("a", "v000", "s", 1)] + [(f"l{v}", v, v, 1) for v in V])
    got = bounded_points(g, 3, 24)
    assert got[:2] == [BoundaryPoint("s", (), ()), BoundaryPoint("v000", (Edge("a", 0),), ())]
    assert got == reference_bounded_points(g, 1, 3, 1, None, _UNCUT)[:24]


_DENSE_SAMPLE = """
import json, sys, time
from oeg.boundary import bounded_points, point_sort_key
from oeg.graphs import Graph
V = [f"v{i}" for i in range(8)]
classes = [(f"e{i}_{j}", V[i], V[j], 2) for i in range(8) for j in range(8)]
if sys.argv[1] == "fed":  # a vertex a with one edge a0 into the dense part, no way back
    V, classes = ["a"] + V, [("a0", "a", "v0", 1)] + classes
g = Graph(V, classes)
start = time.perf_counter()
pts = bounded_points(g, int(sys.argv[2]), 24)
took = time.perf_counter() - start
print(json.dumps([took, len(pts), pts == sorted(pts, key=point_sort_key), max(len(x.pre) + len(x.period) for x in pts)]))
"""


def _dense_sample(shape: str, per_len: int):
    """Run the dense sample in a child process, so that a full listing
    times out instead of hanging."""
    from test_cli import _src_env

    args = [sys.executable, "-c", _DENSE_SAMPLE, shape, str(per_len)]
    proc = subprocess.run(args, capture_output=True, text=True, env=_src_env(), timeout=5)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_bounded_points_stop_at_the_limit_on_a_dense_graph():
    """The complete 8-vertex digraph with every class doubled has about 16^L
    closed walks of length L.  A sample of 24 points with periods up to 6
    must not list them: it takes well under 0.5 s."""
    took, count, ordered, longest = _dense_sample("bare", 6)
    assert took < 0.5 and count == 24 and ordered and longest <= 7


@pytest.mark.parametrize("per_len", [6, 8])
def test_bounded_points_walk_inside_one_component(per_len):
    """The same sample with a feeding edge ``a0``, which sorts first.  No
    closed walk starts along it, since it leaves its vertex's strongly
    connected component for good.  A walk that followed it anyway would
    list every path of length < ``per_len`` from ``v0`` first, about 16^7
    of them at 8; the sample still takes well under 0.5 s."""
    took, count, ordered, longest = _dense_sample("fed", per_len)
    assert took < 0.5 and count == 24 and ordered and longest <= 1 + per_len


def test_raw_forms_denote_same_point_iff_canonical_equal(e1, e2):
    """Pumped periods and absorbable preperiods all canonicalize to the same
    point; distinct canonical forms disagree within the comparison depth."""
    for g in (e1, e2):
        for x in sample_points(g, pre_len=2, per_len=2, limit=25):
            if x.is_finite:
                continue
            pumped = canonicalize(g, x.src, x.pre, x.period * 3)
            assert pumped == x
            absorbed = canonicalize(
                g, x.src, x.pre + x.period + x.period, x.period
            )
            assert absorbed == x


def test_canonicalize_rejects_open_period(e1):
    with pytest.raises(InputError):
        canonicalize(e1, "u", (), (Edge("a", 0),))  # a: u -> v does not close


def test_make_cylinder_checks_exclusions(e1):
    with pytest.raises(InputError):
        make_cylinder(e1, e1.path(["a"]), [Edge("a", 0)])  # a does not leave v


def _complete_greedily(g, src, edges):
    """Extend a path to a boundary point by always taking the first edge."""
    from oeg.graphs import is_singular

    edges = list(edges)
    v = g.edge_dst(edges[-1]) if edges else src
    seen = {}
    while True:
        if is_singular(g, v):
            return canonicalize(g, src, tuple(edges))
        if v in seen:
            i = seen[v]
            return canonicalize(g, src, tuple(edges[:i]), tuple(edges[i:]))
        seen[v] = len(edges)
        e = next(capped_out_edges(g, v, 2))
        edges.append(e)
        v = g.edge_dst(e)


def _divergence_witnesses(g, x, depth):
    """Points agreeing with x up to some position <= depth and then leaving
    it; these are exactly what a would-be isolating cylinder must miss."""
    out = []
    for j in range(depth + 1):
        if x.length <= j:
            break
        v = g.edge_src(x.edge_at(j))
        for e in capped_out_edges(g, v, 2):
            if e != x.edge_at(j):
                out.append(_complete_greedily(g, x.src, x.prefix_edges(j) + (e,)))
                break
    return out


def brute_isolating_search(g, x, pool):
    """Oracle for isolation: search base prefixes up to |pre| + 2|period|
    with maximal exclusion sets for a cylinder whose only member (across the
    pool plus all divergence witnesses) is x."""
    from oeg.graphs import vertex_kind

    depth = len(x.pre) + 2 * max(len(x.period), 1)
    sample = set(pool) | set(_divergence_witnesses(g, x, depth + len(x.period)))
    for n in range(int(min(x.length, depth)) + 1):
        base = g.path(x.prefix_edges(n), at=x.src)
        if vertex_kind(g, base.dst) == "infinite-emitter":
            continue  # no finite exclusion set can shrink this neighborhood
        keep = x.edge_at(n) if x.length > n else None
        excluded = [e for e in g.out_edges(base.dst) if e != keep]
        z = make_cylinder(g, base, excluded)
        if all(cyl_membership(g, y, z) == (y == x) for y in sample):
            return True
    return False


def test_isolation_equals_bounded_cylinder_search(e1, e2, floop):
    for g in (e1, e2, floop, amplified_arrow_loop()):
        pool = sample_points(g, pre_len=3, per_len=3, inf_cap=2, limit=60)
        for x in sample_points(g, pre_len=2, per_len=2, inf_cap=2, limit=25):
            assert is_isolated(g, x) == brute_isolating_search(g, x, pool)


from hypothesis import given, settings, strategies as st
from conftest import small_graph_st


@settings(max_examples=60, deadline=None)
@given(small_graph_st(max_vertices=3), st.integers(0, 10**6))
def test_relation_agrees_with_membership(g, seed):
    """The symbolic relation of two random cylinders never contradicts
    membership of sampled points."""
    rng = random.Random(seed)
    z1, z2 = random_cylinders(rng, g, 2, max_base=2, max_excluded=2, inf_cap=2)
    relation = cyl_relation(g, z1, z2)
    for x in _sample_for(g, [z1, z2]):
        in1, in2 = cyl_membership(g, x, z1), cyl_membership(g, x, z2)
        if relation == "equal":
            assert in1 == in2
        elif relation == "subset":
            assert not in1 or in2
        elif relation == "superset":
            assert not in2 or in1
        elif relation == "disjoint":
            assert not (in1 and in2)


# -- the point table -------------------------------------------------------


def table_edges_to_depth(table: PointTable, i: int, depth: int):
    """The edges an id stands for, read off its heads along the shift, cut
    at depth, and whether it ended first: the form of `edges_to_depth`."""
    edges = []
    while len(edges) < depth and table.head[i] is not None:
        edges.append(table.head[i])
        i = table.tail[i]
    return tuple(edges), table.head[i] is None


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_point_table_agrees_with_point_functions(seed):
    """Interned ids against canonicalize, shift, prepend and tail_key on
    random points of random small graphs, infinite classes included."""
    rng = random.Random(seed)
    g = random_graph(rng, max_vertices=3, max_mult=2, edge_prob=0.5, inf_prob=0.2)
    pts = sample_points(g, pre_len=3, per_len=3, inf_cap=2, limit=40)
    table = PointTable(g)
    ids = [table.intern(x) for x in pts]
    assert len(set(ids)) == len(pts)
    for x, i in zip(pts, ids):
        assert table_edges_to_depth(table, i, 12) == edges_to_depth(x, 12)
        if x.period:
            # a pumped period entered part-way round, behind a preperiod that
            # runs round it: cons folds the raw form to the canonical id
            r = rng.randrange(len(x.period))
            raw_pre = x.pre + x.period * rng.randint(0, 2) + x.period[:r]
            raw_per = (x.period[r:] + x.period[:r]) * rng.randint(1, 3)
            j = table.cycle(raw_per)
            for e in reversed(raw_pre):
                j = table.cons(e, j)
            assert j == i
            assert canonicalize(g, x.src, raw_pre, raw_per) == x
        if x.length >= 1:
            assert table.tail[i] == table.intern(shift(g, x))
            assert table.orbit(i, 3)[1] == table.tail[i]
        else:
            assert table.tail[i] < 0 and table.orbit(i, 3) == [i]
        into = [e for v in g.vertices for e in capped_out_edges(g, v, 2) if g.edge_dst(e) == x.src]
        for e in into:
            j = table.cons(e, i)
            y = prepend(g, g.path([e]), x)
            assert table.intern(y) == j
            assert table_edges_to_depth(table, j, 12) == edges_to_depth(y, 12)
    for x, i in zip(pts, ids):
        for y, j in zip(pts, ids):
            assert (table.root[i] == table.root[j]) == (tail_key(g, x) == tail_key(g, y))


def test_point_table_folds_into_the_period(e1, f1):
    table = PointTable(e1)
    b = table.intern(pt(e1, "(b)*"))
    assert table.cons(Edge("b", 0), b) == b and table.tail[b] == b
    a = table.cons(Edge("a", 0), b)
    assert a == table.intern(pt(e1, "a.(b)*")) and table.root[a] == b
    table = PointTable(f1)
    cd, dc = table.intern(pt(f1, "(c.d)*")), table.intern(pt(f1, "(d.c)*"))
    assert table.cons(Edge("c", 0), dc) == cd and table.cons(Edge("d", 0), cd) == dc
    assert table.cycle((Edge("c", 0), Edge("d", 0)) * 2) == cd
    assert table.root[cd] == table.root[dc]


def test_is_isolated_matches_loop_exit_on_pool():
    """The out-degree reading of isolation agrees with loop_has_exit on every
    simple loop of every graph in the <=3-vertex pool."""
    for g in iter_small_graphs(3):
        for loop in enumerate_simple_loops(g, 3):
            x = BoundaryPoint(loop.src, (), loop.edges)  # least rotations are canonical
            assert is_isolated(g, x) == (not loop_has_exit(g, loop))


def _loop_exit_scan(g: Graph) -> str | None:
    """Oracle for the finiteness witness: a reachability search from each
    vertex of out-degree >= 2 in declaration order, stopping at the first
    that lies on a cycle, in O(V.(V+E)) time."""
    for c in g.edge_classes:
        if c.is_infinite:
            return f"infinite parallel class {c.cid!r}"
    for u in g.vertices:
        if g.out_degree(u) < 2:
            continue
        seen: set[str] = set()
        todo = [c.dst for c in g.out_classes(u)]
        while todo:
            v = todo.pop()
            if v not in seen:
                seen.add(v)
                todo += [c.dst for c in g.out_classes(v)]
        if u in seen:
            return f"loop {'.'.join(e.cls for e in _cycle_through(g, u).edges)} has an exit"
    return None


def test_census_witness_matches_the_scan_on_pool():
    for g in iter_small_graphs(3):
        assert boundary_census(g).witness == _loop_exit_scan(g)


def _ladder(n: int) -> Graph:
    """v0 .. v(n-1) with edges v_i -> v_(i+1) and v_i -> v_(i+2), running into
    z, which has a loop l and an edge x to the sink s: every ladder vertex
    branches, and none lies on a cycle."""
    rung = [f"v{i}" for i in range(n)] + ["z", "z"]  # steps past the end land on z
    classes = [(f"r{i}_{d}", rung[i], rung[i + d], 1) for i in range(n) for d in (1, 2)]
    return Graph(rung[:n] + ["z", "s"], classes + [("l", "z", "z", 1), ("x", "z", "s", 1)])


def test_census_witness_is_linear_on_a_ladder():
    """A cycle search from every branching vertex is quadratic on a ladder;
    the census finds its witness from one condensation pass."""
    g = _ladder(2000)
    start = time.perf_counter()
    census = boundary_census(g)
    assert time.perf_counter() - start < 1.0
    assert census.witness == "loop l has an exit" == _loop_exit_scan(_ladder(50))


def _doubled_chain(rungs: int) -> Graph:
    """v0 -> v1 -> ... -> v_rungs, two parallel edges per step: 2^(rungs+1) - 1
    boundary points."""
    verts = [f"v{i}" for i in range(rungs + 1)]
    return Graph(verts, [(f"e{i}", verts[i], verts[i + 1], 2) for i in range(rungs)])


def _fed_cycles(rng: random.Random) -> Graph:
    """A graph with a finite boundary: up to three exitless cycles and a DAG
    whose vertices lead, with multiplicities up to 3, to later DAG vertices
    and to cycle vertices, or end as sinks."""
    cycles = [[f"c{k}_{i}" for i in range(rng.randint(1, 3))] for k in range(rng.randint(0, 3))]
    on_cycles = [v for cycle in cycles for v in cycle]
    dag = [f"d{i}" for i in range(rng.randint(0 if cycles else 1, 5))]
    classes = [(f"{v}>", v, cycle[(i + 1) % len(cycle)], 1) for cycle in cycles for i, v in enumerate(cycle)]
    for i, v in enumerate(dag):
        for w in dag[i + 1 :] + on_cycles:
            if rng.random() < 0.35:
                classes.append((f"{v}>{w}", v, w, rng.randint(1, 3)))
    vertices = dag + on_cycles
    rng.shuffle(vertices)
    return Graph(vertices, classes)


def _listed_class_sizes(g: Graph) -> list[tuple[int, int]]:
    """The sorted ``(isotropy generator, size)`` pairs of the tail classes of
    the listed census, each class checked to share one isotropy."""
    pairs = []
    for points in tail_classes(g, boundary_census(g).points).values():
        (d,) = {isotropy(g, x).d for x in points}
        pairs.append((d, len(points)))
    return sorted(pairs)


def test_census_size_matches_the_listing():
    """The counted tail classes, and the size they sum to, equal those of
    the listed census, isotropy included, on every finite-boundary graph of
    the pool, on doubled chains, and on random exitless cycles fed by DAGs
    with multiplicities; the count is None exactly on the pool's infinite
    boundaries."""
    finite = 0
    for g in iter_small_graphs(3):
        census = boundary_census(g)
        counted = tail_class_sizes(g)
        assert (counted is None) == (not census.finite)
        if census.finite:
            finite += 1
            assert sorted(counted) == _listed_class_sizes(g)
            assert boundary_size(g) == len(census.points)
    assert finite == 70
    for rungs in range(1, 11):
        g = _doubled_chain(rungs)
        assert sorted(tail_class_sizes(g)) == _listed_class_sizes(g) == [(0, 2 ** (rungs + 1) - 1)]
        assert boundary_size(g) == len(boundary_census(g).points) == 2 ** (rungs + 1) - 1
    rng = random.Random(23)
    for _ in range(3000):
        g = _fed_cycles(rng)
        assert sorted(tail_class_sizes(g)) == _listed_class_sizes(g)
        assert boundary_size(g) == len(boundary_census(g).points)


def test_tail_class_sizes_take_one_linear_pass():
    """The count lists no point, so a 10,000-vertex chain and a
    20,000-vertex DAG with 10^5 classes, whose path counts run to thousands
    of digits, are each counted in under a second."""
    rng = random.Random(5)
    dag = [f"v{i}" for i in range(20000)]
    starts = sorted(rng.randrange(19999) for _ in range(10**5))
    wide = Graph(dag, [(f"e{k}", dag[i], dag[i + 1 + rng.randrange(min(50, 19999 - i))], 1) for k, i in enumerate(starts)])
    counted = []
    for g in (chain_graph(10000), wide):
        start = time.perf_counter()
        counted.append(tail_class_sizes(g))
        assert time.perf_counter() - start < 1.0
    chain, sinks = counted
    assert chain == [(0, 10000)]
    assert {d for d, _ in sinks} == {0} and sum(n for _, n in sinks) > 2**2000


def test_boundary_size_of_a_finite_boundary_builds_no_condensation(monkeypatch):
    """A finite boundary with a branching vertex is counted from its tail
    classes alone: the condensation, whose closure is quadratic in the
    vertices, is built only to word an infinite boundary's reason.  Here a
    20,000-vertex chain with one more edge from its first vertex to its last
    has 20,001 points."""
    from oeg import digraphs

    monkeypatch.setattr(digraphs, "condensation", lambda g: pytest.fail("condensation built"))
    chain = [f"v{i}" for i in range(20000)]
    classes = [(f"e{i}", chain[i], chain[i + 1], 1) for i in range(19999)]
    assert boundary_size(Graph(chain, classes + [("skip", chain[0], chain[-1], 1)])) == 20001


def test_component_readers_build_nothing_quadratic():
    """``boundary_size``'s reason and the loop walks behind
    ``bounded_points`` read only the components of the condensation, so on a
    20,000-vertex chain into a loop ``l`` with an exit each peaks under 20 MB
    of traced allocations, where the chain's bitset closure alone, 20,000
    bitsets of up to 20,000 bits, would take about 25 MB."""
    import tracemalloc

    chain = [f"v{i}" for i in range(20000)]
    classes = [(f"e{i}", chain[i], chain[i + 1], 1) for i in range(19999)]
    g = Graph(chain + ["s"], classes + [("l", chain[-1], chain[-1], 1), ("x", chain[-1], "s", 1)])
    results = []
    for run in (lambda: boundary_size(g), lambda: bounded_points(g, 3, 24)):
        tracemalloc.start()
        try:
            results.append(run())
            assert tracemalloc.get_traced_memory()[1] < 20 * 2**20
        finally:
            tracemalloc.stop()
    reason, points = results
    assert reason == "loop l has an exit" and points


@pytest.mark.parametrize(
    "graph, size",
    [
        (Graph(["u", "v"], [("a", "u", "v", 10**12)]), "1000000000001"),
        (Graph(["u", "v"], [("a", "u", "v", CENSUS_LIMIT)]), str(CENSUS_LIMIT + 1)),
        (_doubled_chain(40), str(2**41 - 1)),
        (Graph(["u", "v"], [("a", "u", "v", 10**4000)]), "more than 2^13287"),
    ],
    ids=["10^12 parallel edges", "one past the limit", "40-rung doubled chain", "4001-digit multiplicity"],
)
def test_census_refuses_a_boundary_over_the_limit(graph, size):
    """A finite boundary too large to list is counted, not walked, and
    refused at once with its size and the limit."""
    start = time.perf_counter()
    with pytest.raises(UnsupportedScaleError) as err:
        boundary_census(graph)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == f"the boundary has {size} points, over the census limit of {CENSUS_LIMIT} points"


def _outcome(f, *args):
    """The value of a call, or the type and message of the error it raises."""
    try:
        return f(*args)
    except (InputError, DomainError) as err:
        return type(err), str(err)


@functools.cache
def _oracle_graphs() -> tuple[Graph, ...]:
    """The pool, and graphs with infinite classes."""
    rng = random.Random(16)
    more = [random_graph(rng, max_vertices=4, max_mult=3, edge_prob=0.5, inf_prob=0.3) for _ in range(60)]
    return (*iter_small_graphs(3), amplified_arrow_loop(), *more)


def test_point_primitives_match_the_oracle_on_valid_points():
    """``canonicalize``, ``drop_edges`` and ``out_degree`` give the oracle's
    answers on the sampled points and the census of every pool graph and
    on pumped raw forms of them.  Every number of edges is dropped up to a
    whole turn of the period, and one past the end of a finite point."""
    for g in _oracle_graphs():
        for v in g.vertices:
            assert g.out_degree(v) == reference_out_degree(g, v)
        census = boundary_census(g).points
        for x in bounded_points(g, 3, 18) + list(census):
            raw = (x.src, x.pre + x.period, x.period * 2)
            assert canonicalize(g, *raw) == reference_canonicalize(g, *raw) == x
            assert canonicalize(g, x.src, x.pre, x.period) == reference_canonicalize(g, x.src, x.pre, x.period) == x
            for n in range(len(x.pre) + len(x.period) + 1):
                assert drop_edges(g, x, n) == reference_drop_edges(g, x, n)
            if x.is_finite:
                past = len(x.pre) + 1
                assert _outcome(drop_edges, g, x, past) == _outcome(reference_drop_edges, g, x, past)


def test_meets_matches_the_building_compare_on_pool():
    """``boundary._meets`` answers as building both shifted points and
    comparing them does, at every m and n in 0..4, shifts past the end
    included: on every ordered pair of census points of the 70
    finite-boundary pool graphs, and of ``bounded_points(g, 3, 12)`` on
    every 60th other pool graph.  On the census pairs ``make_element``
    accepts exactly the pairs that meet, and stores the least pair."""
    from witness_oracle import _eq_after_shifts
    from oeg.groupoid import make_element

    finite = [(g, c.points) for g in iter_small_graphs(3) if (c := boundary_census(g)).finite]
    others = [(g, bounded_points(g, 3, 12)) for g in iter_small_graphs(3) if not boundary_census(g).finite][::60]
    assert len(finite) == 70 and len(others) == 57
    met = missed = 0
    for g, points in finite + others:
        for x in points:
            for y in points:
                for m in range(5):
                    for n in range(5):
                        want = _eq_after_shifts(g, m, x, n, y)
                        assert boundary._meets(g, m, x, n, y) == want, (g, m, x, n, y)
                        met, missed = met + want, missed + (not want)
    for g, points in finite:
        for x in points:
            for y in points:
                for m in range(min(4, x.length) + 1):
                    for n in range(min(4, y.length) + 1):
                        if not _eq_after_shifts(g, m, x, n, y):
                            with pytest.raises(InputError, match="shifted points disagree"):
                                make_element(g, x, m, n, y)
                            continue
                        e = make_element(g, x, m, n, y)
                        least = next(j for j in range(max(0, e.k), e.m + 1) if _eq_after_shifts(g, j, x, j - e.k, y))
                        assert (e.k, e.m, e.n) == (m - n, least, least - e.k) and e.m <= m, (g, x, m, n, y)
    assert met > 5000 and missed > 100000


def test_canonicalize_raises_as_the_oracle(e1):
    """Raw point data with one fault or several raises the oracle's error.
    The inputs mix valid edges, unknown classes, negative indices, indices
    past the multiplicity and an unknown source at random, so they hold
    broken paths, open periods and finite paths to regular vertices too;
    every edge index is checked before the source, and the source before
    the path."""
    rng = random.Random(161)
    cases = [
        (e1, "u", (Edge("b", 0), Edge("a", 5)), ()),  # broken, then an index past the class
        (e1, "nowhere", (Edge("a", -1),), ()),  # unknown source, negative index
        (e1, "nowhere", (Edge("b", 0), Edge("a", 0)), ()),  # unknown source, broken
        (e1, "u", (Edge("b", 0),), (Edge("zz", 0),)),  # broken, unknown class
        (e1, "u", (Edge("a", 0), Edge("b", 1)), (Edge("a", 0),)),  # index past the class, open period
        (e1, "u", (), (Edge("a", 0),)),  # open period
        (e1, "u", (), ()),  # regular range
    ]
    for g in _oracle_graphs():
        palette = [Edge("zz", 0)] + [
            Edge(c.cid, i) for c in g.edge_classes for i in (-1, 0, 1, 7 if c.is_infinite else c.mult)
        ]
        sources = list(g.vertices) + ["nowhere"]
        for _ in range(12):
            pre = tuple(rng.choices(palette, k=rng.randint(0, 3)))
            period = tuple(rng.choices(palette, k=rng.randint(0, 2)))
            cases.append((g, rng.choice(sources), pre, period))
    messages = set()
    for g, src, pre, period in cases:
        got = _outcome(canonicalize, g, src, pre, period)
        assert got == _outcome(reference_canonicalize, g, src, pre, period)
        if not isinstance(got, BoundaryPoint):
            messages.add(got[1])
    faults = [
        "unknown edge class",
        "edge index -",
        "edge index [0-9]",
        "unknown vertex",
        "edges do not form a path",
        "period does not close",
        "not a boundary path",
    ]
    assert all(any(re.match(f, m) for m in messages) for f in faults)


def _canonical_by_building(g: Graph, x) -> bool:
    """The definition that ``is_canonical`` decides without building."""
    try:
        return canonicalize(g, x.src, x.pre, x.period) == x
    except InputError:
        return False


def _near_misses(x: BoundaryPoint) -> list[BoundaryPoint]:
    """Raw forms of ``x`` that denote it, or a neighbour, but are not it:
    a doubled period, a period edge moved into the preperiod, another
    source, and the fields as lists."""
    out = [x._replace(src=x.src + "'"), x._replace(pre=list(x.pre))]
    if x.period:
        out += [
            x._replace(period=x.period * 2),
            BoundaryPoint(x.src, x.pre + x.period[:1], x.period[1:] + x.period[:1]),
            x._replace(period=list(x.period)),
        ]
    return out


def test_is_canonical_matches_canonicalize_on_pool():
    """``is_canonical`` agrees with ``canonicalize(...) == x`` on every
    census point of the finite-boundary pool graphs, on every point of
    ``bounded_points(g, 3, 40)`` of every pool graph, and on near misses of
    the census points and of every eighth sampled point."""
    seen = {True: 0, False: 0}
    for g in iter_small_graphs(3):
        census, sample = list(boundary_census(g).points), bounded_points(g, 3, 40)
        cases = census + sample + [y for x in census + sample[::8] for y in _near_misses(x)]
        for y in cases:
            got = boundary.is_canonical(g, y)
            assert got == _canonical_by_building(g, y), (g, y)
            seen[got] += 1
    assert seen[True] > 100_000 and seen[False] > 50_000


def test_is_canonical_matches_canonicalize_on_malformed_points():
    """A fixed set with one fault each, and random raw data with several,
    on ``a: u -> v``, ``b: v -> w``, ``c: w -> w``, ``d * 2: w -> s``;
    ``is_canonical`` answers False on each fault and raises nothing."""
    g = Graph(["u", "v", "w", "s"], [("a", "u", "v", 1), ("b", "v", "w", 1), ("c", "w", "w", 1), ("d", "w", "s", 2)])
    a, b, c, d0, d1 = Edge("a", 0), Edge("b", 0), Edge("c", 0), Edge("d", 0), Edge("d", 1)
    faulty = {
        "unknown class": BoundaryPoint("u", (a, b, Edge("z", 0)), ()),
        "index out of range": BoundaryPoint("w", (Edge("d", 2),), ()),
        "negative index": BoundaryPoint("w", (Edge("d", -1),), ()),
        "broken path": BoundaryPoint("u", (a, c), (c,)),
        "open period": BoundaryPoint("w", (), (c, d0)),
        "non-primitive period": BoundaryPoint("w", (), (c, c)),
        "preperiod ends as the period": BoundaryPoint("v", (b, c), (c,)),
        "wrong source": BoundaryPoint("v", (), (c,)),
        "unknown source": BoundaryPoint("x", (), ()),
        "finite point at a regular vertex": BoundaryPoint("u", (a,), ()),
        "list-typed preperiod": BoundaryPoint("u", [a, b, d1], ()),
        "list-typed period": BoundaryPoint("u", (a, b), [c]),
    }
    for name, x in faulty.items():
        assert not boundary.is_canonical(g, x), name
        assert not _canonical_by_building(g, x), name
    for x in (BoundaryPoint("s", (), ()), BoundaryPoint("u", (a, b), (c,)), BoundaryPoint("w", (d1,), ())):
        assert boundary.is_canonical(g, x) and _canonical_by_building(g, x)
    rng = random.Random(26)
    for h in (g, *_oracle_graphs()):
        palette = [Edge("zz", 0)] + [
            Edge(c.cid, i) for c in h.edge_classes for i in (-1, 0, 1, 7 if c.is_infinite else c.mult)
        ]
        sources = list(h.vertices) + ["nowhere"]
        for _ in range(12):
            pre = tuple(rng.choices(palette, k=rng.randint(0, 3)))
            period = tuple(rng.choices(palette, k=rng.randint(0, 2)))
            x = BoundaryPoint(rng.choice(sources), pre, period)
            assert boundary.is_canonical(h, x) == _canonical_by_building(h, x)


def test_drop_edges_refuses_a_negative_count():
    """A negative count raises InputError, as a negative shift exponent
    does; it once gave ``sigma^1`` for -1 and an IndexError for -2.  Past
    the end of a finite point is a DomainError, and an unknown class an
    InputError."""
    g = Graph(["u", "v", "w"], [("a", "u", "v", 1), ("b", "v", "w", 1), ("c", "w", "w", 1)])
    x = pt(g, "a.b.(c)*")
    for n in (-1, -2, -5):
        with pytest.raises(InputError, match="natural number"):
            drop_edges(g, x, n)
    assert drop_edges(g, x, 1) == pt(g, "b.(c)*") and drop_edges(g, x, 4) == pt(g, "(c)*")
    with pytest.raises(DomainError):
        drop_edges(g, BoundaryPoint("u", (), ()), 1)
    with pytest.raises(InputError, match="unknown edge class 'z'"):
        drop_edges(g, BoundaryPoint("u", (Edge("z", 0),), ()), 1)


def test_census_shares_edge_objects():
    """The census of a 200-vertex chain holds 199 ``Edge`` objects in all,
    one per edge, though its 200 points hold 19,900 edges; repeated
    ``out_edges`` calls hand out the same objects."""
    points = boundary_census(chain_graph(200)).points
    assert len(points) == 200 and sum(len(x.pre) for x in points) == 199 * 200 // 2
    assert len({id(e) for x in points for e in x.pre}) == 199
    two = Graph(["u", "v"], [("a", "u", "v", 2), ("b", "u", "u", 1)])
    first, second = list(two.out_edges("u")), list(two.out_edges("u"))
    assert first == [Edge("a", 0), Edge("a", 1), Edge("b", 0)]
    assert all(e is f for e, f in zip(first, second, strict=True))


def test_census_matches_the_oracle(monkeypatch):
    """The census gives the list-scanning walk's points, in its order, on
    every pool graph, on random functional forests and on chains of up to
    600 vertices; it builds every point without ``canonicalize`` or
    ``_canonical``, which would re-check every edge of the path."""
    rng = random.Random(20)
    graphs = list(iter_small_graphs(3))
    graphs += [random_forest(rng, n) for n in range(100, 700, 100) for _ in range(2)]
    graphs += [chain_graph(n) for n in (1, 2, 100, 300, 600)]
    want = [reference_census(g) for g in graphs]
    calls = []
    for name in ("canonicalize", "_canonical"):
        real = getattr(boundary, name)
        monkeypatch.setattr(boundary, name, lambda *args, real=real: calls.append(args) or real(*args))
    for g, census in zip(graphs, want, strict=True):
        assert boundary_census(g) == census
    assert not calls


@functools.cache
def _entry_points() -> dict:
    pool = list(iter_small_graphs(3))[::300]
    e = Graph(["a", "b", "c", "s"], [("x", "a", "b", 1), ("y", "b", "s", 1), ("z", "c", "s", 1)])
    f = Graph(["p", "q", "r", "t"], [("x", "p", "t", 1), ("y", "q", "r", 1), ("z", "r", "t", 1)])
    witness = search_oe_witness(e, f)
    assert witness is not None
    chain, forest = chain_graph(50), random_forest(random.Random(60), 60)
    return {
        "census of a chain": lambda: boundary_census(chain),
        "census of a forest": lambda: boundary_census(forest),
        "phi check": lambda: [phi_bijectivity_check(g, 2) for g in pool],
        "search": lambda: search_oe_witness(e, f),
        "verify": lambda: verify_oe_witness(witness),
        "amplified decision": lambda: decide_amplified_oe(amplified_arrow_loop(), full_shift_two()),
        "invariant report": lambda: [invariant_report(g) for g in pool],
    }


@pytest.mark.parametrize(
    "name",
    ["census of a chain", "census of a forest", "phi check", "search", "verify", "amplified decision", "invariant report"],
)
def test_entry_points_leave_no_cyclic_garbage(name):
    """A call frees what it made when it returns: nothing is left for the
    cycle collector, which would keep a whole census alive until its next
    full pass.  The first call fills the graphs' lazy tables."""
    call = _entry_points()[name]
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_edge_positions_and_prefix_lengths_must_be_natural(e1):
    """A negative position was read as a Python index: on ``a.(b)*``
    ``edge_at(-1)`` gave ``a`` and ``prefix_edges(-1)`` gave ``()``, and on
    ``(b)*`` ``edge_at(-1)`` raised IndexError."""
    for text in ("a.(b)*", "(b)*", "a.b.(b)*"):
        x = pt(e1, text)
        for n in (-1, -2, -(10**30)):
            with pytest.raises(InputError, match="edge position must be a natural number"):
                x.edge_at(n)
            with pytest.raises(InputError, match="prefix length must be a natural number"):
                x.prefix_edges(n)
        assert x.edge_at(0) == Edge(text.lstrip("(")[0], 0) and x.prefix_edges(0) == ()


def test_bounded_points_refuses_a_negative_limit():
    """``out[:limit]`` once read a negative limit from the end: on ``u -> s``
    with a loop at ``u``, ``bounded_points(g, 3, -1)`` gave ``[@s]``."""
    g = Graph(["u", "s"], [("l", "u", "u", 1), ("a", "u", "s", 1)])
    for limit in (-1, -5):
        with pytest.raises(InputError, match="point limit must be a natural number"):
            bounded_points(g, 3, limit)
    assert bounded_points(g, 3, 0) == []
    assert len(bounded_points(g, 3, 2)) == 2

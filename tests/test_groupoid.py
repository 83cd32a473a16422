from __future__ import annotations

import itertools
import random
import time

import pytest

from conftest import pt
from oeg.boundary import boundary_census, canonicalize, cyl_membership, make_cylinder, tail_classes, tail_key
from oeg.dynamics import bisection_decomposition, identity_element, shift, shift_restriction
from oeg.errors import CompositionError, DomainError, InputError
from oeg.graphs import Edge, Graph, is_singular
from oeg.groupoid import (
    GroupoidElement,
    _finite_point_in,
    compose,
    enumerate_elements,
    inverse,
    isotropy,
    make_element,
    minimal_witness,
    principality_report,
    shift_orbit,
    unit,
)
from oeg.weyl import representable_pool
from oeg.zoo import iter_small_graphs, lone_loop, lone_vertex


def test_make_element_examples(e1):
    long, short = pt(e1, "a.(b)*"), pt(e1, "(b)*")
    e = make_element(e1, long, 1, 0, short)
    assert (e.x, e.k, e.y) == (long, 1, short)
    u = make_element(e1, short, 0, 0, short)
    assert u.is_unit
    with pytest.raises(InputError):
        make_element(e1, short, 0, 0, long)
    g0 = lone_vertex()
    with pytest.raises(DomainError):
        make_element(g0, pt(g0, "@v"), 1, 0, pt(g0, "@v"))


def test_witness_minimality(e1):
    long, short = pt(e1, "a.(b)*"), pt(e1, "(b)*")
    e = make_element(e1, long, 3, 2, short)
    assert (e.m, e.n) == (1, 0)
    u = make_element(e1, short, 2, 2, short)
    assert (u.m, u.n) == (0, 0)


def brute_minimal_witness(g, x, y, k):
    """Oracle: scan m upward for the least (m, m - k) with equal shifts."""
    limit = 2 * (len(x.pre) + len(y.pre) + len(x.period) + len(y.period) + abs(k) + 1)
    for m in range(max(k, 0), limit):
        n = m - k
        if x.length < m or y.length < n:
            return None
        if shift(g, x, m) == shift(g, y, n):
            return m, n
    return None


def test_minimal_witness_matches_brute_force(e1, f1, floop):
    pool_slice = itertools.islice(iter_small_graphs(3), 0, 1000)
    graphs = [e1, f1, floop] + [g for g in pool_slice if boundary_census(g).finite]
    checked = 0
    for g in graphs:
        census = boundary_census(g).points
        for x, y in itertools.product(census, repeat=2):
            for k in range(-4, 5):
                assert minimal_witness(g, x, y, k) == brute_minimal_witness(g, x, y, k)
                checked += 1
    assert checked > 10000


def test_compose_and_inverse_examples(e1):
    long, short = pt(e1, "a.(b)*"), pt(e1, "(b)*")
    e = make_element(e1, long, 1, 0, short)
    f = make_element(e1, short, 1, 0, short)
    ef = compose(e1, e, f)
    assert (ef.x, ef.k, ef.y) == (long, 2, short)
    assert inverse(e1, e) == make_element(e1, short, 0, 1, long)
    with pytest.raises(CompositionError):
        compose(e1, e, e)


def _all_elements(g, bound=3):
    pool = list(boundary_census(g).points)
    return enumerate_elements(g, pool, bound)


def test_compose_associative_and_units():
    for make in (lambda: lone_loop(), lambda: lone_vertex()):
        g = make()
        els = _all_elements(g)
        for e in els:
            assert compose(g, e, inverse(g, e)) == unit(g, e.x)
            assert compose(g, inverse(g, e), e) == unit(g, e.y)
        for e1_, e2_, e3_ in itertools.product(els, repeat=3):
            if e1_.y != e2_.x or e2_.y != e3_.x:
                continue
            assert compose(g, compose(g, e1_, e2_), e3_) == compose(g, e1_, compose(g, e2_, e3_))


def test_isotropy_examples(e1, f1, g0):
    assert isotropy(e1, pt(e1, "(b)*")).d == 1
    assert isotropy(f1, pt(f1, "(c.d)*")).d == 2
    assert isotropy(g0, pt(g0, "@v")).trivial


def test_isotropy_divisibility(e1, f1, floop):
    for g in (e1, f1, floop):
        for x in boundary_census(g).points:
            d = isotropy(g, x).d
            limit = 3 * (len(x.pre) + len(x.period) + 1)
            ks = set()
            for m in range(limit):
                for n in range(limit):
                    if x.length >= m and x.length >= n and shift(g, x, m) == shift(g, x, n):
                        ks.add(m - n)
            if d == 0:
                assert ks == {0}
            else:
                assert all(k % d == 0 for k in ks)
                assert d in ks  # the generator itself is realized


def test_principality_examples(e1, e2, floop, g0):
    rep = principality_report(e1)
    assert not rep.principal
    assert rep.witness_unit == unit(e1, pt(e1, "(b)*"))
    assert rep.witness_isotropy.d == 1

    assert principality_report(e2).principal
    assert principality_report(g0).principal

    rep_loop = principality_report(floop)
    assert not rep_loop.principal
    assert rep_loop.witness_unit == unit(floop, pt(floop, "(e)*"))
    assert rep_loop.witness_isotropy.d == 1


def test_principality_probe(e2, g0):
    z = make_cylinder(e2, e2.path(["a11"]))
    rep = principality_report(e2, probe=z)
    # the full 2-shift has no representable finite points: every vertex is regular
    assert rep.principal and rep.trivial_point is None and rep.probe_note
    g = lone_vertex()
    rep2 = principality_report(g, probe=make_cylinder(g, g.path((), at="v")))
    assert rep2.trivial_point == pt(g, "@v")


def test_principality_probe_finds_shortest_point():
    """The shortest finite point of the cylinder, ties going by out-edge
    order; a path may come back to the base range and leave it by an edge
    excluded as the first step."""
    g = Graph(["v", "w", "s", "t"], [("x", "v", "w", 1), ("y", "v", "s", 1), ("z", "v", "t", 1), ("p", "w", "s", 1)])
    assert principality_report(g, make_cylinder(g, g.path((), at="v"))).trivial_point == pt(g, "y")
    back = Graph(["v", "w", "s"], [("x", "v", "s", 1), ("y", "v", "w", 1), ("z", "w", "v", 1)])
    z = make_cylinder(back, back.path((), at="v"), [Edge("x", 0)])
    assert principality_report(back, z).trivial_point == pt(back, "y.z.x")


@pytest.mark.parametrize("shape", ["chain", "ring", "parallel"])
def test_principality_probe_scales(shape):
    """A 1500-vertex chain (past the recursion limit of a depth-first walk),
    a ring of 22 doubled edges (2**22 paths, no singular vertex) and a class
    of 10**12 parallel edges, of which only the first one the probe allows
    counts, each take well under a second."""
    excluded = []
    if shape == "chain":
        verts = [f"v{i}" for i in range(1500)]
        g = Graph(verts, [(f"e{i}", v, w, 1) for i, (v, w) in enumerate(zip(verts, verts[1:]))])
    elif shape == "ring":
        verts = [f"a{i}" for i in range(23)]
        classes = [(f"x{i}", v, w, 2) for i, (v, w) in enumerate(zip(verts, verts[1:]))]
        g = Graph(verts, classes + [("l", "a22", "a22", 1), ("m", "a22", "a0", 1)])
    else:
        verts = ["u", "v", "w"]
        g = Graph(verts, [("a", "u", "v", 10**12), ("b", "v", "v", 1), ("c", "v", "w", 1), ("d", "u", "u", 1)])
        excluded = [Edge("d", 0), Edge("a", 0)]
    start = time.perf_counter()
    rep = principality_report(g, make_cylinder(g, g.path((), at=verts[0]), excluded))
    assert time.perf_counter() - start < 1.0
    if shape == "chain":
        assert rep.trivial_point.pre == tuple(Edge(f"e{i}", 0) for i in range(1499))
    elif shape == "ring":
        assert rep.principal and rep.trivial_point is None and rep.probe_note
    else:
        assert rep.trivial_point == pt(g, "a[1].c")


def _depth_first_point(g, z):
    """The recursive walk the breadth-first search replaced: the first
    finite point in out-edge order within |V| + 1 edges of the base."""

    def walk(v, edges, d):
        if is_singular(g, v):
            x = canonicalize(g, z.base.src, z.base.edges + tuple(edges))
            if cyl_membership(g, x, z):
                return x
        if d == 0:
            return None
        for e in g.out_edges(v):
            if not (not edges and e in z.excluded):
                got = walk(g.edge_dst(e), edges + [e], d - 1)
                if got is not None:
                    return got
        return None

    return walk(z.base.dst, [], len(g.vertices) + 1)


def test_finite_point_search_matches_depth_first_on_pool():
    """On random cylinders over the <=3-vertex pool graphs that have a
    singular vertex, both searches find a point or both find none, and the
    breadth-first point lies in the cylinder and is no longer than the
    depth-first one."""
    from sampling import random_cylinders

    rng = random.Random(77)
    found = 0
    for g in iter_small_graphs(3):
        if not any(is_singular(g, v) for v in g.vertices):
            continue
        for z in random_cylinders(rng, g, 2):
            got, want = _finite_point_in(g, z), _depth_first_point(g, z)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.is_finite and cyl_membership(g, got, z) and len(got.pre) <= len(want.pre)
                found += 1
    assert found > 500


def test_principality_cross_check():
    from oeg.boundary import is_isolated
    from oeg.graphs import condition_l
    from sampling import sample_points

    for g in itertools.islice(iter_small_graphs(3), 0, 400):
        ok, _ = condition_l(g)
        units_with_isotropy = [
            x
            for x in sample_points(g, pre_len=1, per_len=3, limit=60)
            if is_isolated(g, x) and isotropy(g, x).d > 0
        ]
        assert ok == (not units_with_isotropy)


def test_bisection_decomposition(e1, f1):
    bstar = pt(e1, "(b)*")
    alpha_b = shift_restriction(e1, [bstar])
    pieces = bisection_decomposition(alpha_b)
    assert pieces == [(make_cylinder(e1, e1.path(["b"])), 1, 0)]

    census = boundary_census(e1).points
    ident = identity_element(e1, census)
    assert [piece[1:] for piece in bisection_decomposition(ident)] == [(0, 0), (0, 0)]

    swap = shift_restriction(f1, boundary_census(f1).points)
    pieces = bisection_decomposition(swap)
    assert len(pieces) == 2
    assert {p[1:] for p in pieces} == {(1, 0)}


def test_compose_associative_two_point_censuses(e1, f1):
    for g in (e1, f1):
        els = _all_elements(g)
        count = 0
        for a, b in itertools.product(els, repeat=2):
            if a.y != b.x:
                continue
            ab = compose(g, a, b)
            for c in els:
                if ab.y != c.x:
                    continue
                assert compose(g, ab, c) == compose(g, a, compose(g, b, c))
                count += 1
        assert count > 0


def brute_elements(g, pool, bound):
    """Oracle: all (x, k, y) with some shift equality inside the bound,
    ignoring the minimal-witness machinery."""
    out = set()
    for x in pool:
        for y in pool:
            for m in range(bound + 1):
                if x.length < m:
                    break
                for n in range(bound + 1):
                    if y.length < n:
                        break
                    if abs(m - n) <= bound and shift(g, x, m) == shift(g, y, n):
                        out.add((x, m - n, y))
    return out


def elements_by_points(g, pool, bound):
    """Oracle: the enumeration on BoundaryPoint values that the id-based
    one replaced, kept as it was: shift orbits, tail classes and a scan of
    every orbit pair for the first (m, n) of each cocycle."""
    shifts = {x: shift_orbit(g, x, bound) for x in pool}
    same_tail = tail_classes(g, pool)
    out = []
    for x in pool:
        sx = shifts[x]
        for y in same_tail[tail_key(g, x)]:
            sy = shifts[y]
            best: dict[int, tuple[int, int]] = {}
            for m in range(len(sx)):
                for n in range(len(sy)):
                    k = m - n
                    if abs(k) > bound or k in best:
                        continue
                    if sx[m] == sy[n]:
                        best[k] = (m, n)
            for k in sorted(best):
                m, n = best[k]
                out.append(GroupoidElement(x, k, y, m, n))
    return out


def test_enumerate_elements_matches_point_oracle_on_pool():
    """The id-based enumeration returns the very list of the point-based one
    on every graph of the <=3-vertex pool, over the phi check's pools."""
    checked = 0
    for g in iter_small_graphs(3):
        pool, _ = representable_pool(g, 3, max_points=18)
        got = enumerate_elements(g, pool, 3)
        assert got == elements_by_points(g, pool, 3)
        checked += len(got)
    assert checked > 300000


def test_enumerate_elements_matches_brute_force(e1, f1, floop):
    for g in (e1, f1, floop):
        pool = list(boundary_census(g).points)
        got = {(e.x, e.k, e.y) for e in enumerate_elements(g, pool, 3)}
        assert got == brute_elements(g, pool, 3)


def test_compose_agrees_with_direct_construction(e1, f1):
    """The witness-combination in compose must reproduce exactly the element
    that make_element builds from scratch."""
    for g in (e1, f1):
        els = _all_elements(g, 3)
        for a in els:
            for b in els:
                if a.y != b.x:
                    continue
                ab = compose(g, a, b)
                # reconstruct independently from the defining property
                rebuilt = None
                for m in range(8):
                    n = m - (a.k + b.k)
                    if n < 0 or a.x.length < m or b.y.length < n:
                        continue
                    if shift(g, a.x, m) == shift(g, b.y, n):
                        rebuilt = make_element(g, a.x, m, n, b.y)
                        break
                assert rebuilt == ab


def test_multi_edge_loop_class():
    """Two parallel loop edges exit each other, so neither tail is isolated
    and both carry isotropy 1."""
    g = Graph(["v"], [("a", "v", "v", 2)])
    from oeg.boundary import boundary_census, is_isolated
    from oeg.dsl import parse_point

    census = boundary_census(g)
    assert not census.finite
    x0 = parse_point(g, "a[0].(a[1])*")
    assert isotropy(g, parse_point(g, "(a[0])*")).d == 1
    assert not is_isolated(g, x0)
    rep = principality_report(g)
    assert rep.principal

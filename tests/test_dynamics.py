from __future__ import annotations

import itertools
import random
import time

import pytest

from conftest import pt
from sampling import random_functional_graph
from oeg.boundary import BoundaryPoint, boundary_census
from oeg.dynamics import (
    OrbitWitness,
    PseudogroupElement,
    check_extended_identity,
    cocycles_from_pseudogroup_transport,
    conjugacy_witness,
    conjugate_pseudogroup,
    extend_cocycles,
    fixed_points,
    identity_element,
    search_oe_witness,
    shift,
    shift_restriction,
    verify_conjugacy,
    verify_oe_witness,
    verify_pseudogroup_element,
)
from oeg.errors import DomainError, InputError, UnsupportedScaleError
from oeg.graphs import Edge, Graph
from oeg.zoo import arrow_into_loop, full_shift_two, iter_small_graphs, lone_loop, lone_vertex, two_cycle


def example_witness() -> OrbitWitness:
    """The two-point witness between the arrow-into-loop graph and the
    two-cycle: the long point maps to the cycle phase starting at c, with a
    one-step delay on that side."""
    E, F = arrow_into_loop(), two_cycle()
    h = {pt(E, "a.(b)*"): pt(F, "(c.d)*"), pt(E, "(b)*"): pt(F, "(d.c)*")}
    return OrbitWitness(
        E,
        F,
        h,
        k1={pt(E, "a.(b)*"): 1, pt(E, "(b)*"): 0},
        l1={pt(E, "a.(b)*"): 0, pt(E, "(b)*"): 0},
        k1p={pt(F, "(c.d)*"): 0, pt(F, "(d.c)*"): 1},
        l1p={pt(F, "(c.d)*"): 1, pt(F, "(d.c)*"): 0},
    )


def witness_corpus() -> list[OrbitWitness]:
    w1 = example_witness()
    corpus = [w1, w1.inverse()]
    for make in (arrow_into_loop, two_cycle, lone_vertex, lone_loop):
        g = make()
        census = boundary_census(g).points
        corpus.append(conjugacy_witness(g, g, {x: x for x in census}))
    found = search_oe_witness(lone_vertex(), lone_loop())
    corpus.append(found)
    rng = random.Random(99)
    added = 0
    while added < 4:
        a = random_functional_graph(rng, 4)
        b = random_functional_graph(rng, 4)
        w = search_oe_witness(a, b)
        if w is not None:
            corpus.append(w)
            added += 1
    return corpus


def test_shift_examples(e1, g0):
    assert shift(e1, pt(e1, "a.(b)*"), 1) == pt(e1, "(b)*")
    assert shift(e1, pt(e1, "(b)*"), 5) == pt(e1, "(b)*")
    assert shift(e1, pt(e1, "a.(b)*"), 0) == pt(e1, "a.(b)*")
    with pytest.raises(DomainError):
        shift(g0, pt(g0, "@v"), 1)


def test_verify_witness_examples():
    w1 = example_witness()
    assert verify_oe_witness(w1).ok
    broken = OrbitWitness(
        w1.E, w1.F, dict(w1.h), dict(w1.k1), dict(w1.l1), dict(w1.k1p), dict(w1.l1p)
    )
    broken.k1[pt(w1.E, "a.(b)*")] = 0
    report = verify_oe_witness(broken)
    assert not report.ok and "a.(b)*" in report.failures[0]
    # k1(a) shifts h(sigma a) = @v, of length 0, past its end: a failure, not an exception
    g = Graph(["u", "v"], [("a", "u", "v", 1)])
    a, v = pt(g, "a"), pt(g, "@v")
    short = OrbitWitness(g, g, {a: a, v: v}, {a: 1}, {a: 1}, {a: 0}, {a: 1})
    assert verify_oe_witness(short).failures == ["forward identity fails at a"]


def test_identity_needs_a_delay(e1):
    """With h = id the shifted point only matches after one extra shift on
    the right-hand side, so the all-zero tables fail and (0, 1) works."""
    census = boundary_census(e1).points
    h = {x: x for x in census}
    ge1 = [x for x in census if x.length >= 1]
    zero = {x: 0 for x in ge1}
    one = {x: 1 for x in ge1}
    assert not verify_oe_witness(OrbitWitness(e1, e1, h, zero, zero, zero, zero)).ok
    assert verify_oe_witness(OrbitWitness(e1, e1, h, zero, one, zero, one)).ok


def test_partial_tables_rejected():
    w1 = example_witness()
    k1 = dict(w1.k1)
    k1.pop(pt(w1.E, "(b)*"))
    with pytest.raises(InputError):
        verify_oe_witness(OrbitWitness(w1.E, w1.F, w1.h, k1, w1.l1, w1.k1p, w1.l1p))
    h = dict(w1.h)
    h.pop(pt(w1.E, "(b)*"))
    with pytest.raises(InputError, match="h is not total"):
        verify_oe_witness(OrbitWitness(w1.E, w1.F, h, w1.k1, w1.l1, w1.k1p, w1.l1p))


def test_non_injective_h_rejected(e1, floop):
    """h onto a smaller census passes both totality gates and every
    identity; only the size comparison refuses it."""
    h = {pt(e1, "a.(b)*"): pt(floop, "(e)*"), pt(e1, "(b)*"): pt(floop, "(e)*")}
    zeros = {x: 0 for x in h}
    with pytest.raises(InputError, match="bijection"):
        verify_oe_witness(OrbitWitness(e1, floop, h, zeros, zeros, {pt(floop, "(e)*"): 0}, {pt(floop, "(e)*"): 0}))


def _two_onto_one() -> OrbitWitness:
    """``a: u -> s`` and ``b: u -> t`` (4 points) sent onto ``e: p -> q``
    (2 points) with all-zero tables: both directions pass their gates, and
    only the size comparison refuses it."""
    E = Graph(["u", "s", "t"], [("a", "u", "s", 1), ("b", "u", "t", 1)])
    F = Graph(["p", "q"], [("e", "p", "q", 1)])
    h = {pt(E, "@s"): pt(F, "@q"), pt(E, "@t"): pt(F, "@q"), pt(E, "a"): pt(F, "e"), pt(E, "b"): pt(F, "e")}
    zeros = [dict.fromkeys([x for x in side if x.length >= 1], 0) for side in (h, {y: x for x, y in h.items()})]
    return OrbitWitness(E, F, h, zeros[0], zeros[0], zeros[1], zeros[1])


def test_non_injective_h_rejected_by_every_witness_reader():
    w = _two_onto_one()
    identity = identity_element(w.E, boundary_census(w.E).points)
    for run in (lambda: verify_oe_witness(w), lambda: extend_cocycles(w, 2), lambda: conjugate_pseudogroup(w, identity)):
        with pytest.raises(InputError, match="^h is not a bijection onto the boundary of F$"):
            run()


def test_conjugate_pseudogroup_gates_the_backward_direction():
    w = example_witness()
    identity = identity_element(w.E, boundary_census(w.E).points)
    k1p = dict(w.k1p)
    k1p.pop(next(iter(k1p)))
    with pytest.raises(InputError, match="^table k1p is not total"):
        conjugate_pseudogroup(w._replace(k1p=k1p), identity)


def test_extended_identity_refuses_unnatural_tables():
    """Tables that ``extend_cocycles`` cannot make are refused with its
    wording, not checked as identities."""
    g = Graph(["u", "v", "s", "t", "r"], [("x", "u", "v", 1), ("y", "v", "s", 1), ("z", "v", "t", 1), ("w", "u", "r", 1)])
    w = conjugacy_witness(g, g, {x: x for x in boundary_census(g).points})
    tables = extend_cocycles(w, 1)
    assert check_extended_identity(w, tables) == []
    with pytest.raises(InputError, match="^cocycle degree must be a natural number$"):
        check_extended_identity(w, tables._replace(n=-1))
    xy = pt(g, "x.y")
    for name in ("k", "l", "kp", "lp"):
        bad = tables._replace(**{name: {**getattr(tables, name), xy: -1}})
        with pytest.raises(InputError, match=f"^table {name} must take natural values$"):
            check_extended_identity(w, bad)


def test_partial_witness_is_an_input_error():
    """A witness whose table misses a point is an input error when the
    cocycles are extended and when the extended identity is checked."""
    w1 = example_witness()
    x = pt(w1.E, "(b)*")
    k1 = dict(w1.k1)
    k1.pop(x)
    with pytest.raises(InputError):
        extend_cocycles(OrbitWitness(w1.E, w1.F, w1.h, k1, w1.l1, w1.k1p, w1.l1p), 2)
    h = dict(w1.h)
    h.pop(x)
    partial = OrbitWitness(w1.E, w1.F, h, w1.k1, w1.l1, w1.k1p, w1.l1p)
    with pytest.raises(InputError, match=r"misses the point \(b\)\*"):
        check_extended_identity(partial, extend_cocycles(w1, 2))
    tables = extend_cocycles(w1, 1)
    tables.lp.pop(pt(w1.F, "(c.d)*"))
    with pytest.raises(InputError):
        check_extended_identity(w1, tables)


def test_census_calls(monkeypatch):
    """Only a search that says "yes" lists censuses, one of each graph, to
    pair their points; a "no", the witness and pseudogroup checks and the
    transport count the boundaries."""
    from oeg import dynamics

    w = example_witness()
    els_e, els_f = _transport_edge_shifts(w), _transport_edge_shifts(w.inverse())
    ident = identity_element(w.E, boundary_census(w.E).points)
    deep = PseudogroupElement(w.E, dict(ident.alpha), dict.fromkeys(ident.alpha, 3), dict.fromkeys(ident.alpha, 3))
    tables = extend_cocycles(w, 3)
    calls = []
    census = dynamics.boundary_census
    monkeypatch.setattr(dynamics, "boundary_census", lambda g: calls.append(g) or census(g))
    for run, count in (
        (lambda: verify_oe_witness(w), 0),
        (lambda: search_oe_witness(w.E, w.F), 2),
        (lambda: search_oe_witness(w.E, lone_vertex()), 0),
        (lambda: extend_cocycles(w, 3), 0),
        (lambda: check_extended_identity(w, tables), 0),
        (lambda: verify_pseudogroup_element(deep), 0),
        (lambda: conjugate_pseudogroup(w, deep), 0),
        (lambda: cocycles_from_pseudogroup_transport(w.E, w.F, w.h, els_e, els_f), 0),
    ):
        calls.clear()
        run()
        assert len(calls) == count


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except (InputError, UnsupportedScaleError) as exc:
        return type(exc), str(exc)


def _mutated_maps(g: Graph, census: list[BoundaryPoint], foreign: list[BoundaryPoint]) -> dict[str, dict]:
    """The identity map of a census and its mutations by name: a dropped
    key, a map that is not injective, a non-canonical key or value (the
    preperiod extended by the period's last edge), a point of another graph
    and a finite path that ends at a regular vertex."""

    def rekeyed(old, new):
        return {(new if x == old else x): y for x, y in ident.items()}

    ident = {x: x for x in census}
    maps = {"identity": ident, "dropped key": {x: x for x in census[1:]}}
    if len(census) > 1:
        maps["not injective"] = {**ident, census[1]: census[0]}
    x = next((x for x in census if x.period), None)
    if x is not None:
        raw = BoundaryPoint(x.src, x.pre + x.period[:1], x.period[1:] + x.period[:1])
        maps["non-canonical key"] = rekeyed(x, raw)
        maps["non-canonical value"] = {**ident, x: raw}
    stranger = next((y for y in foreign if y not in ident), None)
    if stranger is not None:
        maps["foreign key"] = rekeyed(census[0], stranger)
        maps["foreign value"] = {**ident, census[0]: stranger}
    v = next((v for v in g.vertices if g.out_degree(v) >= 1), None)
    if v is not None:
        maps["regular end"] = rekeyed(census[0], BoundaryPoint(v, (), ()))
    return maps


def test_identity_check_matches_the_building_compare_on_pool():
    """The identity check, which compares the shifted images in place,
    reports the failures that building both images reports.  On every
    finite-boundary pool graph ``g``, ``h`` is the identity and random
    bijections onto the boundary of ``g`` and of another graph of the same
    size, at shifts ``n = 1, 2, 3``; the tables are the conjugacy's
    (``k = 0``, ``l = n``) and random ones in 0..4."""
    from oeg.dynamics import _identity_failures
    from witness_oracle import reference_identity_failures

    rng = random.Random(26)
    pool = [(g, c.points) for g in iter_small_graphs(3) if (c := boundary_census(g)).finite]
    by_size: dict[int, list] = {}
    for g, census in pool:
        by_size.setdefault(len(census), []).append((g, census))
    held = failed = 0
    for g, census in pool:
        f, f_census = rng.choice(by_size[len(census)])
        for dst, h in (
            (g, dict(zip(census, census))),
            (g, dict(zip(census, rng.sample(census, len(census))))),
            (f, dict(zip(census, rng.sample(f_census, len(census))))),
        ):
            for n in (1, 2, 3):
                points = [x for x in census if x.length >= n]
                for k, l in (
                    (dict.fromkeys(points, 0), dict.fromkeys(points, n)),
                    ({x: rng.randint(0, 4) for x in points}, {x: rng.randint(0, 4) for x in points}),
                ):
                    args = (g, dst, points, h.__getitem__, k.__getitem__, l.__getitem__, n, "t")
                    got = _identity_failures(*args)
                    assert got == reference_identity_failures(*args), (g, dst, h, n)
                    failed += len(got)
                    held += len(points) - len(got)
    assert held > 1000 and failed > 1000


def test_count_gates_match_the_census_gates_on_pool():
    """The witness and pseudogroup gates that check points by the boundary's
    count and their canonical forms give the verdicts, exception types and
    messages of the old census-membership gates, on the identity witness and
    element of every finite-boundary pool graph and their mutations."""
    from witness_oracle import (
        reference_conjugate_pseudogroup,
        reference_extend_cocycles,
        reference_verify_oe_witness,
        reference_verify_pseudogroup_element,
    )

    pool = [(g, list(c.points)) for g in iter_small_graphs(3) if (c := boundary_census(g)).finite]
    assert len(pool) == 70
    outcomes = 0
    messages = set()
    for i, (g, census) in enumerate(pool):
        identity = conjugacy_witness(g, g, {x: x for x in census})
        for name, h in _mutated_maps(g, census, pool[i - 1][1]).items():
            tables = [dict.fromkeys([x for x in side if x.length >= 1], d) for side in (h, h.values()) for d in (0, 1)]
            w = OrbitWitness(g, g, h, *tables)
            el = PseudogroupElement(g, h, dict.fromkeys(h, 0), dict.fromkeys(h, 0))
            # against an infinite F, the order of the count and the gates shows
            infinite_f = w._replace(F=full_shift_two())
            checks = [
                (verify_oe_witness, reference_verify_oe_witness, (w,)),
                (extend_cocycles, reference_extend_cocycles, (w, 0)),
                (extend_cocycles, reference_extend_cocycles, (w, 2)),
                (verify_oe_witness, reference_verify_oe_witness, (infinite_f,)),
                (extend_cocycles, reference_extend_cocycles, (infinite_f, 2)),
                (verify_pseudogroup_element, reference_verify_pseudogroup_element, (el,)),
                (conjugate_pseudogroup, reference_conjugate_pseudogroup, (identity, el)),
            ]
            for f, reference, args in checks:
                got = _outcome(f, *args)
                assert got == _outcome(reference, *args), (g, name, f.__name__)
                outcomes += 1
                messages.add(got[1] if got[0] != "ok" else "ok")
    assert outcomes > 1000
    assert {
        "ok",
        "the boundary space is infinite (loop a11 has an exit)",
        "h is not total on the boundary of its source graph",
        "h^-1 is not total on the boundary of its source graph",
        "alpha must map boundary points of its graph to boundary points",
        "not a valid pseudogroup element",
    } <= messages


def test_unsupported_scale(e2, f1):
    census = boundary_census(f1).points
    with pytest.raises(UnsupportedScaleError):
        verify_oe_witness(OrbitWitness(e2, f1, {}, {}, {}, {}, {}))


def test_extend_cocycles_examples():
    w1 = example_witness()
    t0 = extend_cocycles(w1, 0)
    assert set(t0.k.values()) == {0} and set(t0.lp.values()) == {0}
    t1 = extend_cocycles(w1, 1)
    assert t1.k == w1.k1 and t1.l == w1.l1 and t1.kp == w1.k1p and t1.lp == w1.l1p
    t2 = extend_cocycles(w1, 2)
    x = pt(w1.E, "a.(b)*")
    assert t2.k[x] == 1 and t2.l[x] == 0
    for n in range(6):
        assert check_extended_identity(w1, extend_cocycles(w1, n)) == []


def test_extend_cocycles_whole_corpus():
    for w in witness_corpus():
        assert verify_oe_witness(w).ok
        for n in range(6):
            assert check_extended_identity(w, extend_cocycles(w, n)) == []


def step_degrees(w: OrbitWitness):
    """Oracle: the forward cocycle tables ``(k, l)`` of degree 0, 1, 2, ...,
    each on the census points of length >= its degree, by the witness
    recursion one degree at a time

        k[m+1](x) = k1(s^m x) + max(l1(s^m x), k[m](x)) - l1(s^m x)
        l[m+1](x) = l[m](x)   + max(l1(s^m x), k[m](x)) - k[m](x)

    from vanishing degree-0 tables; degree 1 gives back ``k1, l1``."""
    zero = dict.fromkeys(boundary_census(w.E).points, 0)
    yield zero, dict(zero)
    k = dict(w.k1)
    l = {x: w.l1[x] for x in k}
    for m in itertools.count(1):
        yield k, l
        k_next, l_next = {}, {}
        for (x, kx), lx in zip(k.items(), l.values()):
            if x.length > m:
                sx = shift(w.E, x, m)
                k1, l1 = w.k1[sx], w.l1[sx]
                hi = max(l1, kx)
                k_next[x] = k1 + hi - l1
                l_next[x] = lx + hi - kx
        k, l = k_next, l_next


@pytest.fixture(scope="module")
def pool_witnesses() -> list[OrbitWitness]:
    """The witnesses the search finds between ordered pairs of the
    finite-boundary graphs on at most 3 vertices with multiplicities <= 2."""
    pool = [g for g in iter_small_graphs(3) if boundary_census(g).finite]
    found = [w for E in pool for F in pool if (w := search_oe_witness(E, F)) is not None]
    assert len(pool) == 70 and len(found) == 382
    return found


def test_extend_cocycles_matches_the_step_recursion(pool_witnesses):
    """Doubling gives the tables of the step recursion, on the corpus up to
    degree 40 and on the pool witnesses up to degree 12."""
    for witnesses, top in ((witness_corpus(), 40), (pool_witnesses, 12)):
        for w in witnesses:
            steps = zip(step_degrees(w), step_degrees(w.inverse()))
            for n, ((k, l), (kp, lp)) in zip(range(top + 1), steps):
                assert extend_cocycles(w, n) == (n, k, l, kp, lp)


def test_extended_identity_at_a_huge_degree(pool_witnesses):
    """Degree 10^12 takes 51 table products per direction, and its
    identity holds on every pool witness."""
    for w in pool_witnesses:
        assert check_extended_identity(w, extend_cocycles(w, 10**12)) == []


def test_pseudogroup_examples(e1):
    bstar = pt(e1, "(b)*")
    alpha_b = shift_restriction(e1, [bstar])
    assert verify_pseudogroup_element(alpha_b)
    census = boundary_census(e1).points
    assert verify_pseudogroup_element(identity_element(e1, census))
    fixed = type(alpha_b)(e1, {bstar: bstar}, {bstar: 0}, {bstar: 0})
    assert verify_pseudogroup_element(fixed)
    bad = type(alpha_b)(e1, {bstar: pt(e1, "a.(b)*")}, {bstar: 0}, {bstar: 0})
    assert not verify_pseudogroup_element(bad)


def _element(g, alpha, m, n):
    return PseudogroupElement(g, alpha, dict.fromkeys(alpha, m), dict.fromkeys(alpha, n))


def test_pseudogroup_element_gate(e1, f1):
    """An element is checked against the census of its graph: every domain
    point and every image is a boundary point there, and the exponents are
    natural numbers."""
    w = example_witness()
    a, b = pt(e1, "a.(b)*"), pt(e1, "(b)*")
    stray = BoundaryPoint("u", (Edge("a", 0),), ())  # a path ending at the regular vertex v
    cases = [
        (_element(e1, {a: b}, -1, 0), "table m must take natural values"),
        (_element(e1, {a: b}, 1, -2), "table n must take natural values"),
        (_element(e1, {pt(f1, "(c.d)*"): b}, 0, 0), "boundary points"),
        (_element(e1, {stray: stray}, 0, 0), "boundary points"),
        (_element(e1, {b: stray}, 0, 0), "boundary points"),
    ]
    for el, message in cases:
        with pytest.raises(InputError, match=message):
            verify_pseudogroup_element(el)
        with pytest.raises(InputError, match=message):
            conjugate_pseudogroup(w, el)


def test_conjugate_pseudogroup_examples():
    w1 = example_witness()
    E, F = w1.E, w1.F
    census = boundary_census(E).points
    ident = identity_element(E, census)
    out = conjugate_pseudogroup(w1, ident)
    assert set(out.m.values()) == {0} and set(out.n.values()) == {0}
    assert all(out.alpha[y] == y for y in out.alpha)

    alpha_a = shift_restriction(E, [pt(E, "a.(b)*")])
    got = conjugate_pseudogroup(w1, alpha_a)
    y = pt(F, "(c.d)*")
    assert got.alpha == {y: pt(F, "(d.c)*")}
    assert got.m[y] == 0 and got.n[y] == 1
    assert verify_pseudogroup_element(got)

    alpha_b = shift_restriction(E, [pt(E, "(b)*")])
    got_b = conjugate_pseudogroup(w1, alpha_b)
    yb = pt(F, "(d.c)*")
    assert got_b.alpha == {yb: yb}
    assert verify_pseudogroup_element(got_b)


def _transport_edge_shifts(w: OrbitWitness):
    els = {}
    census = boundary_census(w.E).points
    for c in w.E.edge_classes:
        dom = [x for x in census if x.length >= 1 and x.edge_at(0).cls == c.cid]
        els[c.cid] = conjugate_pseudogroup(w, shift_restriction(w.E, dom))
    return els


def test_transport_roundtrip():
    w1 = example_witness()
    rebuilt = cocycles_from_pseudogroup_transport(
        w1.E, w1.F, w1.h, _transport_edge_shifts(w1), _transport_edge_shifts(w1.inverse())
    )
    assert verify_oe_witness(rebuilt).ok


def test_transport_identity_shape(e1):
    census = boundary_census(e1).points
    h = {x: x for x in census}
    els = {}
    for c in e1.edge_classes:
        dom = [x for x in census if x.length >= 1 and x.edge_at(0).cls == c.cid]
        el = shift_restriction(e1, dom)
        els[c.cid] = el
    w = cocycles_from_pseudogroup_transport(e1, e1, h, els, els)
    assert set(w.k1.values()) <= {0} and set(w.l1.values()) <= {1}
    assert verify_oe_witness(w).ok


def test_transport_missing_edge(e1):
    census = boundary_census(e1).points
    h = {x: x for x in census}
    with pytest.raises(InputError):
        cocycles_from_pseudogroup_transport(e1, e1, h, {}, {})
    # an h that misses a point of length >= 1 fails the totality gate
    w1 = example_witness()
    els_e, els_f = _transport_edge_shifts(w1), _transport_edge_shifts(w1.inverse())
    h = dict(w1.h)
    h.pop(pt(w1.E, "(b)*"))
    with pytest.raises(InputError, match="^h is not total on the boundary of its source graph"):
        cocycles_from_pseudogroup_transport(w1.E, w1.F, h, els_e, els_f)
    # an h that is not injective leaves h^-1 short of a point
    everywhere = {c.cid: identity_element(e1, census) for c in e1.edge_classes}
    h = dict.fromkeys(census, pt(e1, "a.(b)*"))
    with pytest.raises(InputError, match=r"^h\^-1 is not total on the boundary of its source graph"):
        cocycles_from_pseudogroup_transport(e1, e1, h, everywhere, everywhere)
    # an element that misses the image of a point
    els_e["b"] = els_e["b"]._replace(m={})
    with pytest.raises(InputError, match=r"element for 'b' misses the point \(b\)\*"):
        cocycles_from_pseudogroup_transport(w1.E, w1.F, w1.h, els_e, els_f)


def test_roundtrip_on_corpus():
    for w in witness_corpus():
        rebuilt = cocycles_from_pseudogroup_transport(
            w.E, w.F, w.h, _transport_edge_shifts(w), _transport_edge_shifts(w.inverse())
        )
        assert verify_oe_witness(rebuilt).ok


def test_search_examples(e1, f1, g0, floop):
    w = search_oe_witness(e1, f1)
    assert w is not None and verify_oe_witness(w).ok
    w2 = search_oe_witness(g0, floop)
    assert w2 is not None and verify_oe_witness(w2).ok
    assert search_oe_witness(g0, e1) is None


def brute_force_oe(E, F, bound):
    """Oracle: try every bijection of the censuses with delays <= bound, the
    factorial search that the tail-class decision replaced."""
    census_e = list(boundary_census(E).points)
    census_f = list(boundary_census(F).points)
    if len(census_e) != len(census_f):
        return None
    exps = list(itertools.product(range(bound + 1), repeat=2))
    memo = {}

    def shifted(g, a, k):
        key = (g is E, a, k)
        if key not in memo:
            memo[key] = shift(g, a, k) if a.length >= k else None
        return memo[key]

    def agree(g, a, k, b, l):
        sa = shifted(g, a, k)
        return sa is not None and sa == shifted(g, b, l)

    def delays(src, dst, h):
        tables = {}
        for x, y in h.items():
            if x.length < 1:
                continue
            a = h[shifted(src, x, 1)]
            pair = next(((k, l) for k, l in exps if agree(dst, a, k, y, l)), None)
            if pair is None:
                return None
            tables[x] = pair
        return tables

    for perm in itertools.permutations(census_f):
        h = dict(zip(census_e, perm))
        fwd = delays(E, F, h)
        bwd = None if fwd is None else delays(F, E, {y: x for x, y in h.items()})
        if bwd is None:
            continue
        w = OrbitWitness(
            E, F, h,
            {x: kl[0] for x, kl in fwd.items()}, {x: kl[1] for x, kl in fwd.items()},
            {y: kl[0] for y, kl in bwd.items()}, {y: kl[1] for y, kl in bwd.items()},
        )
        if verify_oe_witness(w).ok:
            return w
    return None


def test_search_matches_brute_force_on_pool():
    """Verdict parity on every ordered pair of finite-boundary pool graphs
    with at most 5 census points.  The oracle's delay bound is twice the
    longest point description of the pair."""
    pool = []
    for g in iter_small_graphs(3):
        census = boundary_census(g)
        if census.finite and len(census.points) <= 5:
            pool.append((g, census.points, max(len(x.pre) + len(x.period) for x in census.points)))
    yes = 0
    for E, census_e, long_e in pool:
        for F, census_f, long_f in pool:
            got = search_oe_witness(E, F)
            if len(census_e) == len(census_f):
                assert (got is None) == (brute_force_oe(E, F, 2 * max(long_e, long_f, 1)) is None)
            else:
                assert got is None
            yes += got is not None
    assert yes > 100


def _functional(succ, prefix="v"):
    verts = [f"{prefix}{i}" for i in range(len(succ))]
    return Graph(verts, [(f"{prefix}e{i}", verts[i], verts[j], 1) for i, j in enumerate(succ) if j is not None])


def _random_succ(rng, n):
    return [None if rng.random() < 0.1 else rng.randrange(n) for _ in range(n)]


def _relabelled(succ, rng):
    perm = list(range(len(succ)))
    rng.shuffle(perm)
    out = [None] * len(succ)
    for i, j in enumerate(succ):
        out[perm[i]] = None if j is None else perm[j]
    return out


@pytest.mark.parametrize("n", [12, 200])
def test_search_relabelled_functional_graphs(n):
    rng = random.Random(0)
    succ = _random_succ(rng, n)
    E, F = _functional(succ), _functional(_relabelled(succ, rng), "u")
    census = boundary_census(E).points
    assert len(census) == n
    # both kinds of tail class, and a cycle longer than one edge with a preperiod
    assert any(x.is_finite for x in census) and any(len(x.period) > 1 and x.pre for x in census)
    w = search_oe_witness(E, F)
    assert w is not None and verify_oe_witness(w).ok
    for d in (1, 2, 3):
        assert check_extended_identity(w, extend_cocycles(w, d)) == []


def test_search_equal_census_no():
    # one 9-point sink class against sink classes of 4 and 5 points
    E = _functional([None, 0, 1, 2, 3, 4, 5, 6, 7])
    F = _functional([None, 0, 1, 2, None, 4, 5, 6, 7], "u")
    assert len(boundary_census(E).points) == len(boundary_census(F).points) == 9
    assert search_oe_witness(E, F) is None


def test_conjugacy_examples(e1, f1):
    census_e = boundary_census(e1).points
    census_f = boundary_census(f1).points
    assert verify_conjugacy(e1, e1, {x: x for x in census_e})
    for perm in itertools.permutations(census_f):
        assert not verify_conjugacy(e1, f1, dict(zip(census_e, perm)))
    assert fixed_points(e1) == [pt(e1, "(b)*")]
    assert fixed_points(f1) == []


def test_fixed_points_list_only_the_loop_classes():
    """A huge class that is not a loop is neither listed nor refused: the
    one loop edge is found at once."""
    g = Graph(["u", "v"], [("a", "u", "v", 10**12), ("b", "u", "u", 1)])
    start = time.perf_counter()
    assert fixed_points(g) == [pt(g, "(b)*")]
    assert time.perf_counter() - start < 1.0


def test_fixed_points_match_the_loop_search_on_pool():
    """The closed form gives the loops of length 1 that the loop search
    finds, in the same order, on every pool graph and on its copy with every
    class made infinite."""
    from oeg.graphs import INF, enumerate_simple_loops

    for g in iter_small_graphs(3):
        for h in (g, Graph(g.vertices, [(c.cid, c.src, c.dst, INF) for c in g.edge_classes])):
            assert fixed_points(h) == [BoundaryPoint(l.src, (), l.edges) for l in enumerate_simple_loops(h, 1)]


def test_fixed_points_oracle_on_pool():
    """The loops of length 1 are shift-fixed, the report counts them in
    closed form, and on a finite boundary they are exactly the census
    points that the shift fixes."""
    from oeg.graphs import INF
    from oeg.invariants import invariant_report

    for g in iter_small_graphs(2):
        for inf in (None, *(c.cid for c in g.edge_classes)):
            h = Graph(g.vertices, [(c.cid, c.src, c.dst, INF if c.cid == inf else c.mult) for c in g.edge_classes])
            fixed = fixed_points(h)
            assert all(shift(h, x) == x for x in fixed)
            assert invariant_report(h).fixed_point_count == len(fixed)
            census = boundary_census(h)
            if census.finite:
                assert set(fixed) == {x for x in census.points if x.length >= 1 and shift(h, x) == x}


def test_conjugacy_rejects_a_map_that_is_not_injective():
    """Both empty points onto the one empty point commutes with the shift
    vacuously; it is still no conjugacy, and no witness comes of it."""
    E, F = Graph(["w0", "w1"]), Graph(["w0"])
    h = {pt(E, "@w0"): pt(F, "@w0"), pt(E, "@w1"): pt(F, "@w0")}
    assert not verify_conjugacy(E, F, h)
    with pytest.raises(InputError):
        conjugacy_witness(E, F, h)


def test_conjugacy_witness_shape(e1):
    census = boundary_census(e1).points
    w = conjugacy_witness(e1, e1, {x: x for x in census})
    assert verify_oe_witness(w).ok
    assert set(w.k1.values()) <= {0} and set(w.l1.values()) <= {1}


from hypothesis import given, settings, strategies as st
from conftest import small_graph_st
from sampling import sample_points


@settings(max_examples=60, deadline=None)
@given(small_graph_st(max_vertices=3), st.integers(0, 10**6), st.integers(0, 3), st.integers(0, 3))
def test_shift_composes(g, seed, a, b):
    pts = sample_points(g, pre_len=3, per_len=3, limit=20)
    if not pts:
        return
    x = pts[seed % len(pts)]
    if x.length < a + b:
        return
    assert shift(g, x, a + b) == shift(g, shift(g, x, a), b)

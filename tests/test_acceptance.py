"""Acceptance gate: the headline checks, one per criterion, each printing a
pass/fail line with its runtime.  Run with ``pytest tests/test_acceptance.py -v -s``.

All expected values here are exact (integer and structural equality); the
stated runtime ceilings are asserted.
"""

from __future__ import annotations

import itertools
import random
import time

from conftest import pt
from sampling import random_graph, random_proper_partition, sample_points
from oeg.boundary import boundary_census, drop_edges
from oeg.dsl import print_point
from oeg.dynamics import (
    cocycles_from_pseudogroup_transport,
    check_extended_identity,
    conjugate_pseudogroup,
    extend_cocycles,
    fixed_points,
    search_oe_witness,
    shift_restriction,
    verify_conjugacy,
    verify_oe_witness,
)
from oeg.groupoid import isotropy, principality_report, unit
from oeg.invariants import det_invariant
from oeg.moves import (
    amplified_transitive_closure,
    check_saturation_identity,
    decide_amplified_oe,
    out_split,
    out_split_map,
    saturate,
)
from oeg.weyl import phi_bijectivity_check
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
from test_dynamics import example_witness, witness_corpus


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def report(name: str, ok: bool, elapsed: float, budget: float | None = None):
    verdict = "PASS" if ok else "FAIL"
    extra = f" [budget {budget:.0f}s]" if budget is not None else ""
    print(f"[{verdict}] {name} ({elapsed:.2f}s){extra}")
    assert ok, name
    if budget is not None:
        assert elapsed < budget, f"{name}: {elapsed:.2f}s over the {budget:.0f}s budget"


def test_criterion_1_two_point_example():
    with Timer() as t:
        e1, f1 = arrow_into_loop(), two_cycle()
        census_e = boundary_census(e1)
        census_f = boundary_census(f1)
        ok = census_e.finite and {print_point(e1, x) for x in census_e.points} == {"a.(b)*", "(b)*"}
        ok = ok and census_f.finite and {print_point(f1, y) for y in census_f.points} == {"(c.d)*", "(d.c)*"}
        w1 = example_witness()
        # the verbatim tables: delay 1 on the long point, primed delay 1 on
        # the phase reached by it
        ok = ok and w1.k1[pt(e1, "a.(b)*")] == 1 and set(w1.l1.values()) == {0}
        ok = ok and w1.k1p[pt(f1, "(d.c)*")] == 1 and w1.k1p[pt(f1, "(c.d)*")] == 0
        ok = ok and verify_oe_witness(w1).ok
    report("criterion 1: two-point boundary example and its witness", ok, t.elapsed, 1.0)


def test_criterion_2_determinant_checkpoint():
    with Timer() as t:
        ok = det_invariant(full_shift_two()) == -1
        ok = ok and det_invariant(chained_loops_four()) == 1
    report("criterion 2: det(I - A) checkpoint (-1 and +1)", ok, t.elapsed, 1.0)


def test_criterion_3_orbit_equivalence_without_principality():
    with Timer() as t:
        g0, floop = lone_vertex(), lone_loop()
        w = search_oe_witness(g0, floop)
        ok = w is not None and verify_oe_witness(w).ok
        rep0 = principality_report(g0)
        ok = ok and rep0.principal
        ok = ok and all(isotropy(g0, x).trivial for x in boundary_census(g0).points)
        repl = principality_report(floop)
        ok = ok and not repl.principal
        ok = ok and repl.witness_unit == unit(floop, pt(floop, "(e)*"))
        ok = ok and repl.witness_isotropy.d == 1
    report("criterion 3: single-vertex vs single-loop (equivalent, not principal)", ok, t.elapsed, 1.0)


def test_criterion_4_cocycle_extension_suite():
    with Timer() as t:
        failures = 0
        witnesses = witness_corpus()
        for w in witnesses:
            assert verify_oe_witness(w).ok
            for n in range(6):
                failures += len(check_extended_identity(w, extend_cocycles(w, n)))
        ok = failures == 0 and len(witnesses) >= 8
    report(
        f"criterion 4: extended cocycle identities on {len(witnesses)} witnesses, n <= 5",
        ok,
        t.elapsed,
        5.0,
    )


def test_criterion_5_transport_roundtrip():
    with Timer() as t:
        w1 = example_witness()

        def edge_shift_transports(w):
            census = boundary_census(w.E).points
            out = {}
            for c in w.E.edge_classes:
                dom = [x for x in census if x.length >= 1 and x.edge_at(0).cls == c.cid]
                out[c.cid] = conjugate_pseudogroup(w, shift_restriction(w.E, dom))
            return out

        rebuilt = cocycles_from_pseudogroup_transport(
            w1.E, w1.F, w1.h, edge_shift_transports(w1), edge_shift_transports(w1.inverse())
        )
        ok = verify_oe_witness(rebuilt).ok
    report("criterion 5: pseudogroup transport round-trip rebuilds a witness", ok, t.elapsed)


def test_criterion_6_germ_groupoid_comparison():
    with Timer() as t:
        ok = True
        checked = 0
        for g in (arrow_into_loop(), two_cycle(), lone_vertex(), lone_loop()):
            rep = phi_bijectivity_check(g, 3)
            ok = ok and rep.ok and rep.pool_complete and rep.element_count == rep.class_count
            checked += 1
        for g in iter_small_graphs(3):
            rep = phi_bijectivity_check(g, 3, max_points=18)
            ok = ok and rep.ok
            checked += 1
    report(
        f"criterion 6: germ classes match groupoid elements on {checked} graphs (bound 3)",
        ok,
        t.elapsed,
        20.0,
    )


def test_criterion_7_out_split_suite():
    with Timer() as t:
        rng = random.Random(20260811)
        failures = 0
        for _ in range(200):
            g = random_graph(rng, max_vertices=4, max_mult=2, edge_prob=0.4, inf_prob=0.1)
            split = out_split(g, random_proper_partition(rng, g))
            for x in sample_points(g, pre_len=6, per_len=3, inf_cap=2, limit=120):
                if x.length < 1:
                    continue
                lhs = out_split_map(g, split, drop_edges(g, x, 1))
                rhs = drop_edges(split.graph, out_split_map(g, split, x), 1)
                if lhs != rhs:
                    failures += 1
        e1, f1 = arrow_into_loop(), two_cycle()
        ok = failures == 0
        ok = ok and len(fixed_points(e1)) == 1 and len(fixed_points(f1)) == 0
        census_e, census_f = boundary_census(e1).points, boundary_census(f1).points
        for perm in itertools.permutations(census_f):
            ok = ok and not verify_conjugacy(e1, f1, dict(zip(census_e, perm)))
    report("criterion 7: out-split conjugacy suite (200 random splits, depth 6)", ok, t.elapsed, 5.0)


def test_criterion_8_amplified_suite():
    with Timer() as t:
        rng = random.Random(77)
        ok = True
        for _ in range(200):
            g = random_graph(rng, max_vertices=5, max_mult=2, edge_prob=0.4, inf_prob=0.2)
            ok = ok and decide_amplified_oe(g, amplified_transitive_closure(g))[0]
        instances = 0
        tried = 0
        while instances < 5 and tried < 200:
            tried += 1
            g = random_graph(rng, max_vertices=3, max_mult=2, edge_prob=0.6)
            if not g.edge_classes:
                continue
            from oeg.moves import amplify

            amp = amplify(g)
            pattern = _safe_pattern(rng, amp)
            if pattern is None:
                continue
            sat, w = saturate(amp, pattern)
            pts_sat = sample_points(sat, pre_len=3, per_len=2, inf_cap=3, limit=120)
            pts_orig = sample_points(amp, pre_len=3, per_len=2, inf_cap=3, limit=120)
            if len(pts_sat) < 100:
                continue
            ok = ok and check_saturation_identity(w, pts_sat, pts_orig) == []
            instances += 1
        # the standing instance from the amplified two-point graph
        amp = amplified_arrow_loop()
        sat, w = saturate(amp, amp.path([("A", 0), ("B", 0)]))
        pts_sat = sample_points(sat, pre_len=3, per_len=2, inf_cap=3, limit=120)
        pts_orig = sample_points(amp, pre_len=3, per_len=2, inf_cap=3, limit=120)
        ok = ok and len(pts_sat) >= 100 and check_saturation_identity(w, pts_sat, pts_orig) == []
        instances += 1
        ok = ok and instances >= 5
        ok = ok and decide_amplified_oe(full_shift_two(), two_cycle())[0]
        ok = ok and not decide_amplified_oe(arrow_into_loop(), two_cycle())[0]
    report(
        f"criterion 8: amplified moves suite (200 closures, {instances} saturation instances)",
        ok,
        t.elapsed,
        30.0,
    )


def _safe_pattern(rng, amp):
    """A random pattern path in an amplified graph whose tail edges avoid
    the head's parallel class, so rewriting occurrences never overlap."""
    classes = list(amp.edge_classes)
    head = rng.choice(classes)
    edges = [(head.cid, 0)]
    v = head.dst
    for _ in range(rng.randint(0, 2)):
        options = [c for c in amp.edge_classes if c.src == v and (c.src, c.dst) != (head.src, head.dst)]
        if not options:
            break
        c = rng.choice(options)
        edges.append((c.cid, 0))
        v = c.dst
    try:
        return amp.path(edges)
    except Exception:
        return None


def test_criterion_9_disjointification():
    from test_boundary import check_disjointify
    from sampling import random_cylinders

    with Timer() as t:
        rng = random.Random(2)
        for _ in range(500):
            g = random_graph(rng, max_vertices=4, max_mult=2, edge_prob=0.45, inf_prob=0.15)
            cover = random_cylinders(rng, g, rng.randint(1, 5))
            check_disjointify(g, cover)
    report("criterion 9: 500 random covers disjointified with certified unions", True, t.elapsed)

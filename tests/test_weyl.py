from __future__ import annotations

import itertools
import random

import pytest

from conftest import pt
from phi_oracle import phi_bijectivity_check as reference_phi_check
from sampling import random_graph
from oeg.boundary import CENSUS_LIMIT, boundary_census, drop_edges, is_isolated, prefix_path, tail_class_sizes
from oeg.errors import CompositionError, InputError, UnsupportedScaleError
from oeg.groupoid import enumerate_elements, compose as g_compose, inverse as g_inverse, make_element
from oeg.weyl import (
    Germ,
    germ_apply,
    germ_class_key,
    germ_compose,
    germ_equivalent,
    germ_invert,
    germ_make,
    identity_germ,
    phi,
    phi_bijectivity_check,
    representable_pool,
    winding,
)
from oeg.zoo import iter_small_graphs

def test_germ_make_examples(e1):
    bstar = pt(e1, "(b)*")
    germ = germ_make(e1, e1.path(["a"]), e1.path((), at="v"), bstar)
    assert germ_apply(e1, germ) == pt(e1, "a.(b)*")
    assert germ.cocycle == 1
    ident = identity_germ(e1, bstar)
    assert germ_apply(e1, ident) == bstar and ident.cocycle == 0
    with pytest.raises(InputError):
        germ_make(e1, e1.path(["a"]), e1.path((), at="v"), pt(e1, "a.(b)*"))
    with pytest.raises(InputError):
        germ_make(e1, e1.path((), at="u"), e1.path((), at="v"), bstar)  # ranges differ


def test_germ_compose_examples(e1):
    bstar = pt(e1, "(b)*")
    g1 = germ_make(e1, e1.path(["a"]), e1.path((), at="v"), bstar)
    g2 = germ_make(e1, e1.path((), at="v"), e1.path(["b"]), bstar)
    got = germ_compose(e1, g1, g2)
    assert got == Germ(e1.path(["a"]), e1.path(["b"]), bstar)
    assert got.cocycle == 0
    ident = identity_germ(e1, germ_apply(e1, g1))
    assert germ_compose(e1, ident, g1) == g1
    with pytest.raises(CompositionError):
        germ_compose(e1, g1, g1)  # image of the right factor is not the left anchor


def test_germ_invert(e1):
    bstar = pt(e1, "(b)*")
    germ = germ_make(e1, e1.path(["a"]), e1.path((), at="v"), bstar)
    inv = germ_invert(e1, germ)
    assert inv == Germ(e1.path((), at="v"), e1.path(["a"]), pt(e1, "a.(b)*"))
    back = germ_compose(e1, inv, germ)
    assert germ_equivalent(e1, back, identity_germ(e1, bstar))


def test_winding_examples(e1, f1):
    bstar = pt(e1, "(b)*")
    g1 = germ_make(e1, e1.path(["b"]), e1.path((), at="v"), bstar)
    g2 = identity_germ(e1, bstar)
    assert winding(e1, g1, g2) == 1
    assert winding(e1, g2, g1) == -1
    assert winding(e1, g1, g1) == 0

    cd = pt(f1, "(c.d)*")
    long = germ_make(f1, f1.path(["c", "d"]), f1.path((), at="p"), cd)
    assert winding(f1, long, identity_germ(f1, cd)) == 1  # (2 - 0) / 2


def test_winding_preconditions(e1, e2):
    bstar = pt(e1, "(b)*")
    g1 = germ_make(e1, e1.path(["a"]), e1.path((), at="v"), bstar)
    with pytest.raises(InputError):
        winding(e1, g1, identity_germ(e1, bstar))  # images differ
    a11s = pt(e2, "(a11)*")
    h1 = germ_make(e2, e2.path(["a11"]), e2.path((), at="1"), a11s)
    with pytest.raises(InputError):
        winding(e2, h1, identity_germ(e2, a11s))  # anchor not isolated


def test_germ_equivalent_examples(e1, e2):
    bstar = pt(e1, "(b)*")
    g1 = germ_make(e1, e1.path(["b"]), e1.path((), at="v"), bstar)
    g2 = identity_germ(e1, bstar)
    assert not germ_equivalent(e1, g1, g2)  # winding 1
    assert germ_equivalent(e1, g1, g1)

    a11s = pt(e2, "(a11)*")
    h1 = germ_make(e2, e2.path(["a11"]), e2.path((), at="1"), a11s)
    h2 = germ_make(e2, e2.path(["a11", "a11"]), e2.path(["a11"]), a11s)
    assert germ_equivalent(e2, h1, h2)  # aligned at a non-isolated anchor
    assert germ_equivalent(e2, h2, h1)  # the longer nu given first
    h3 = germ_make(e2, e2.path(["a11", "a11"]), e2.path((), at="1"), a11s)
    assert not germ_equivalent(e2, h1, h3)


def _enumerate_germs(g, bound=2, cap=400):
    pool, _ = representable_pool(g, bound, max_points=10)
    germs = []
    for x in pool:
        for nlen in range(min(bound, int(min(x.length, bound))) + 1):
            nu_edges = x.prefix_edges(nlen)
            nu = g.path(nu_edges, at=x.src)
            for mu in _paths_to(g, nu.dst, bound):
                germs.append(Germ(mu, nu, x))
                if len(germs) >= cap:
                    return germs
    return germs


def _paths_to(g, target, max_len):
    out = []

    def walk(v, edges):
        if v == target:
            out.append(g.path(tuple(edges)) if edges else g.path((), at=v))
        if len(edges) >= max_len:
            return
        for e in g.out_edges(v):
            edges.append(e)
            walk(g.edge_dst(e), edges)
            edges.pop()

    for v in g.vertices:
        walk(v, [])
    return out


def test_germ_equivalence_is_equivalence_relation(e1, f1, floop):
    for g in (e1, f1, floop):
        germs = _enumerate_germs(g, bound=2, cap=60)
        for a in germs:
            assert germ_equivalent(g, a, a)
        for a, b in itertools.combinations(germs, 2):
            ab = germ_equivalent(g, a, b)
            assert ab == germ_equivalent(g, b, a)
        for a, b, c in itertools.islice(itertools.combinations(germs, 3), 4000):
            if germ_equivalent(g, a, b) and germ_equivalent(g, b, c):
                assert germ_equivalent(g, a, c)


def test_normal_form_theorem():
    """Equivalence coincides with equality of (anchor, cocycle, image)
    triples, case-split rule against brute comparison on the small pool."""
    for g in itertools.islice(iter_small_graphs(2), 0, 50):
        germs = _enumerate_germs(g, bound=2, cap=40)
        for a, b in itertools.combinations(germs, 2):
            want = germ_class_key(g, a) == germ_class_key(g, b)
            assert germ_equivalent(g, a, b) == want


def test_phi_examples(e1, g0):
    bstar = pt(e1, "(b)*")
    e = make_element(e1, bstar, 1, 0, bstar)
    germ = phi(e1, e)
    assert germ == Germ(e1.path(["b"]), e1.path((), at="v"), bstar)
    u = make_element(g0, pt(g0, "@v"), 0, 0, pt(g0, "@v"))
    assert phi(g0, u) == identity_germ(g0, pt(g0, "@v"))
    e2_ = make_element(e1, pt(e1, "a.(b)*"), 1, 0, bstar)
    assert phi(e1, e2_) == Germ(e1.path(["a"]), e1.path((), at="v"), bstar)


def test_phi_well_defined_on_witness_choice(e1):
    bstar = pt(e1, "(b)*")
    small = make_element(e1, bstar, 1, 0, bstar)
    # a germ built from a fatter witness pair of the same element
    fat = Germ(e1.path(["b", "b", "b"]), e1.path(["b", "b"]), bstar)
    assert germ_equivalent(e1, phi(e1, small), fat)


def test_phi_is_homomorphism(e1, f1, floop):
    for g in (e1, f1, floop):
        pool = list(boundary_census(g).points)
        els = enumerate_elements(g, pool, 2)
        for a in els:
            assert germ_equivalent(g, phi(g, g_inverse(g, a)), germ_invert(g, phi(g, a)))
        for a, b in itertools.product(els, repeat=2):
            if a.y != b.x:
                continue
            lhs = phi(g, g_compose(g, a, b))
            rhs = germ_compose(g, phi(g, a), phi(g, b))
            assert germ_equivalent(g, lhs, rhs)


def test_phi_bijectivity_named(e1, f1, g0, floop):
    counts = {e1: (24, 24, 50), f1: (14, 14, 32), g0: (1, 1, 1), floop: (7, 7, 16)}
    for g, want in counts.items():
        report = phi_bijectivity_check(g, 3)
        assert report.ok and report.pool_complete
        assert report.element_count == report.class_count
        assert (report.element_count, report.class_count, report.germ_count) == want
    rep_f1 = phi_bijectivity_check(f1, 3)
    # at the cycle point the isotropy classes carry even cocycles only
    cd = pt(f1, "(c.d)*")
    ks = sorted(
        e.k for e in enumerate_elements(f1, list(boundary_census(f1).points), 3) if e.x == cd and e.y == cd
    )
    assert ks == [-2, 0, 2]


def test_phi_check_rejects_negative_bound(f1):
    """A negative path-length bound is invalid input, not a failed check."""
    with pytest.raises(InputError):
        phi_bijectivity_check(f1, -1)
    assert phi_bijectivity_check(f1, 0).ok


def test_phi_check_refuses_a_pool_over_the_census_limit(floop):
    """On the lone loop the one point's orbit has bound + 1 ids, each
    meeting all of them: the germs are counted before they are walked, and
    the refusal names the count and the limit."""
    text = "the pool has 1002001 germs up to the bound, over the census limit of 1000000"
    with pytest.raises(UnsupportedScaleError, match=f"^{text}$"):
        phi_bijectivity_check(floop, 1000)
    with pytest.raises(UnsupportedScaleError, match=f"^{text}$"):
        enumerate_elements(floop, list(boundary_census(floop).points), 1000)
    assert phi_bijectivity_check(floop, 999).germ_count == CENSUS_LIMIT


def test_phi_check_counts_finite_orbits_by_length(g0):
    """A finite point's orbit stops at its end, so a huge bound over the
    lone vertex's one empty path is one orbit point and one germ."""
    rep = phi_bijectivity_check(g0, 10**12)
    assert rep.ok and (rep.element_count, rep.germ_count) == (1, 1)


def test_phi_check_catches_corrupted_elements(monkeypatch, f1):
    """Each comparison of the id-based check still fails on bad input: a
    lost element row, a row whose witness sends phi to another class, and
    an id-level germ comparison that disagrees with the class keys."""
    import oeg.weyl as weyl

    real = weyl._element_rows
    lost = enumerate_elements(f1, list(boundary_census(f1).points), 3)[0]

    def lose_first(*a):
        rows, *rest = real(*a)
        return rows[1:], *rest

    monkeypatch.setattr(weyl, "_element_rows", lose_first)
    rep = phi_bijectivity_check(f1, 3)
    assert not rep.bijection_ok
    assert rep.violations == [f"germ class without matching element: cocycle {lost.k}"]

    def off_by_one(*a):
        ((x, k, y, m, n), *rows), *rest = real(*a)
        return [(x, k, y, m + 1, n), *rows], *rest

    monkeypatch.setattr(weyl, "_element_rows", off_by_one)
    rep = phi_bijectivity_check(f1, 3)
    assert not rep.bijection_ok
    assert rep.violations == ["phi lands outside the expected class"]

    monkeypatch.setattr(weyl, "_element_rows", real)
    monkeypatch.setattr(weyl, "_germs_agree", lambda *a: True)
    rep = phi_bijectivity_check(f1, 3)
    assert rep.bijection_ok and not rep.equivalence_ok
    assert rep.violations == ["germ equivalence disagrees with the class normal form"]


def test_phi_check_needs_each_one_step_cons(monkeypatch, e1):
    """The images are proved by one cons per orbit edge, so a table whose
    ``cons`` gives a fresh id for one orbit's ``(edge, id)`` pair, once the
    orbits are walked, fails the check on the germs alone."""
    import oeg.weyl as weyl
    from oeg.pointtable import PointTable

    assert phi_bijectivity_check(e1, 3).ok
    real_rows, real_cons = weyl._element_rows, PointTable.cons

    def break_one_cons(table, pool, bound):
        rows, orbits, meets = real_rows(table, pool, bound)
        z = next(orbit[0] for orbit in orbits if len(orbit) > 1)
        pair = (table.head[z], table.tail[z])

        def fresh(self, e, i):
            return len(self.head) if (e, i) == pair else real_cons(self, e, i)

        monkeypatch.setattr(PointTable, "cons", fresh)
        return rows, orbits, meets

    monkeypatch.setattr(weyl, "_element_rows", break_one_cons)
    rep = phi_bijectivity_check(e1, 3)
    assert rep.bijection_ok and rep.winding_ok and not rep.equivalence_ok
    assert rep.violations == ["germ equivalence disagrees with the class normal form"]


def _ignore_winding(agree, heads, x, period, a, b):
    return agree(heads, x, 0 if period else period, a, b)


def _skip_aligned_prefix(agree, heads, x, period, a, b):
    return a[3] == b[3] if period is None else agree(heads, x, period, a, b)


def _skip_image(agree, heads, x, period, a, b):
    return agree(heads, x, period, a, b[:3] + a[3:])


@pytest.mark.parametrize(
    "weaken, graph",
    [(_ignore_winding, "f1"), (_skip_aligned_prefix, "e2"), (_skip_image, "e1")],
    ids=["winding", "aligned prefix", "image"],
)
def test_phi_check_catches_each_weakened_rule(monkeypatch, request, weaken, graph):
    """Dropping any one step of the id-level germ rule makes some two
    classes at one anchor come out equivalent, and the check says so."""
    import oeg.weyl as weyl

    g = request.getfixturevalue(graph)
    assert phi_bijectivity_check(g, 3).ok
    real = weyl._germs_agree
    monkeypatch.setattr(weyl, "_germs_agree", lambda *a: weaken(real, *a))
    rep = phi_bijectivity_check(g, 3)
    assert rep.bijection_ok and rep.winding_ok and not rep.equivalence_ok


def test_germs_agree_gets_the_shorter_nu_first(monkeypatch):
    """``_germs_agree`` aligns ``b`` past ``a`` and so needs ``a[0] <= b[0]``:
    both call sites pass a class's first germ before its later ones, and
    classes in the order they were first seen, so the shorter ``nu`` comes
    first on every call over the 70 finite-boundary pool graphs and every
    10th other pool graph."""
    import oeg.weyl as weyl

    real, calls = weyl._germs_agree, []

    def spy(heads, x, period, a, b):
        calls.append(a[0] <= b[0])
        return real(heads, x, period, a, b)

    monkeypatch.setattr(weyl, "_germs_agree", spy)
    finite, other = [], []
    for g in iter_small_graphs(3):
        (finite if tail_class_sizes(g) is not None else other).append(g)
    for g in finite + other[::10]:
        phi_bijectivity_check(g, 3, 18)
    assert len(calls) > 100_000 and all(calls)


def _value_germs(g, pool, bound):
    """Every germ of the phi check as a value: (nu, mu, anchor) over the
    pool, with both |nu| and |mu| at most ``bound``, in anchor order and
    then by |nu|."""
    tails = {}
    for alpha in pool:
        for mlen in range(int(min(alpha.length, bound)) + 1):
            tails.setdefault(drop_edges(g, alpha, mlen), []).append(prefix_path(g, alpha, mlen))
    for x in pool:
        for nlen in range(int(min(x.length, bound)) + 1):
            nu = prefix_path(g, x, nlen)
            for mu in tails.get(drop_edges(g, x, nlen), []):
                yield Germ(mu, nu, x)


def _check_by_germ_equivalent(g, bound=3, max_points=18):
    """The phi check's germ comparisons, run with the value-level
    `germ_equivalent` on the class keys of `germ_class_key`: every germ
    against its class's first germ, and the first germs of every two
    classes at one anchor that share their image or, at an isolated anchor,
    their cocycle.  Returns (class count, germ count)."""
    pool, _ = representable_pool(g, bound, max_points)
    first, germs = {}, 0
    for germ in _value_germs(g, pool, bound):
        germs += 1
        rep = first.setdefault(germ_class_key(g, germ), germ)
        assert germ_equivalent(g, rep, germ)
    shared = {}
    for (x, k, image), rep in first.items():
        shared.setdefault((x, "image", image), []).append(rep)
        if is_isolated(g, x):
            shared.setdefault((x, "cocycle", k), []).append(rep)
    for reps in shared.values():
        for a, b in itertools.combinations(reps, 2):
            assert not germ_equivalent(g, a, b)
    return len(first), germs


def test_germ_equivalent_oracle_on_pool():
    """On every graph of the <=2-vertex pool the value-level germ_equivalent
    agrees with the class keys on each comparison the id-level check makes,
    over the same classes and germs."""
    for g in iter_small_graphs(2):
        classes, germs = _check_by_germ_equivalent(g)
        rep = phi_bijectivity_check(g, 3, max_points=18)
        assert rep.ok and (rep.class_count, rep.germ_count) == (classes, germs)


def test_winding_on_longer_exitless_cycles():
    """Periods longer than the small-pool sweep: an exitless n-cycle has
    winding (k1 - k2) / n for germs pumped around it."""
    import itertools as it
    from oeg.graphs import Graph

    for n in (3, 5, 6):
        verts = [f"c{i}" for i in range(n)]
        edges = [(f"e{i}", verts[i], verts[(i + 1) % n], 1) for i in range(n)]
        g = Graph(verts, edges)
        x = pt(g, "(" + ".".join(f"e{i}" for i in range(n)) + ")*")
        cycle = g.loop([f"e{i}" for i in range(n)])
        nu = g.path((), at="c0")
        germs = [
            germ_make(g, g.path(cycle.edges * j, at="c0"), nu, x) for j in range(4)
        ]
        for a, b in it.combinations(germs, 2):
            i, j = germs.index(a), germs.index(b)
            assert winding(g, a, b) == i - j
            assert germ_equivalent(g, a, b) == (i == j)


def test_equivalence_at_isolated_finite_anchor():
    """Two presentations of the identity germ at a sink path are equivalent
    with no winding condition."""
    from oeg.graphs import Graph

    g = Graph(["u", "v"], [("a", "u", "v", 1)])
    x = pt(g, "a")
    g1 = germ_make(g, g.path((), at="u"), g.path((), at="u"), x)
    g2 = germ_make(g, g.path(["a"]), g.path(["a"]), x)
    assert germ_equivalent(g, g1, g2)
    g3 = germ_make(g, g.path((), at="v"), g.path(["a"]), x)  # cocycle -1
    assert not germ_equivalent(g, g1, g3)


def test_phi_check_with_infinite_classes(amp):
    report = phi_bijectivity_check(amp, 2, max_points=12)
    assert report.ok and not report.pool_complete


def test_phi_check_refuses_a_negative_point_limit():
    """``max_points=-3`` once left an empty pool and an ``ok`` report on an
    infinite boundary; a finite one, censused whole, is refused alike."""
    from oeg.graphs import Graph

    looped = Graph(["u", "s"], [("l", "u", "u", 1), ("a", "u", "s", 1)])
    chain = Graph(["u", "s"], [("a", "u", "s", 1)])
    for g in (looped, chain):
        with pytest.raises(InputError, match="point limit must be a natural number"):
            phi_bijectivity_check(g, 3, max_points=-3)
    assert phi_bijectivity_check(looped, 3, max_points=0).ok


def test_phi_check_matches_the_oracle():
    """The one-cons-per-orbit-edge image check gives the prefix-walking
    check's report on the 70 finite-boundary pool graphs at bounds 0 to 4,
    on every 10th other pool graph at bound 3, and on random graphs with
    infinite classes, which the pool does not have."""
    finite, other = [], []
    for g in iter_small_graphs(3):
        (finite if tail_class_sizes(g) is not None else other).append(g)
    assert len(finite) == 70
    cases = [(g, bound) for g in finite for bound in range(5)] + [(g, 3) for g in other[::10]]
    rng = random.Random(32)
    sampled = (random_graph(rng, max_vertices=3, max_mult=2, edge_prob=0.5, inf_prob=0.3) for _ in range(60))
    with_infinite = [g for g in sampled if any(c.is_infinite for c in g.edge_classes)]
    assert len(with_infinite) == 30
    cases += [(g, bound) for g in with_infinite for bound in (2, 3)]
    for g, bound in cases:
        assert phi_bijectivity_check(g, bound) == reference_phi_check(g, bound), (g, bound)

"""Shift dynamics on boundary path spaces and orbit-equivalence witnesses.

An orbit-equivalence witness between two graphs with finite boundary spaces
is a bijection of the spaces together with four natural-valued cocycle
tables making the shifts intertwine up to shifting delays.  On finite
(hence discrete) spaces every function is continuous, so verification is a
pointwise check.  Orbit equivalence of such graphs is decided by comparing
the sizes of their tail classes, and the witness is built from that pairing
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .boundary import (
    BoundaryPoint,
    CylinderSet,
    boundary_census,
    canonicalize,
    drop_edges,
    isolating_cylinder,
    minimal_witness,
    point_sort_key,
    shift,
    tail_classes,
)
from .errors import InputError, UnsupportedScaleError
from .graphs import Edge, Graph


def fixed_points(g: Graph) -> list[BoundaryPoint]:
    """Shift-fixed representable points.  A boundary path equals its own
    shift exactly when it repeats a single loop edge forever, so the list is
    complete whenever all loop classes are finite; an infinite loop class
    contributes its index-0 representative."""
    out = []
    for c in g.edge_classes:
        if c.src == c.dst:
            cap = 1 if c.is_infinite else c.mult
            for i in range(cap):
                out.append(canonical_loop_tail(g, c.cid, i))
    return sorted(set(out), key=point_sort_key)


def canonical_loop_tail(g: Graph, cid: str, idx: int = 0) -> BoundaryPoint:
    return canonicalize(g, g.cls(cid).src, (), (Edge(cid, idx),))


def require_finite_census(g: Graph) -> tuple[BoundaryPoint, ...]:
    census = boundary_census(g)
    if not census.finite:
        raise UnsupportedScaleError(
            f"the boundary space is infinite ({census.witness})"
        )
    return census.points


@dataclass(frozen=True)
class OrbitWitness:
    """Candidate orbit-equivalence data between graphs ``E`` and ``F``:
    a bijection table ``h`` on the full boundary censuses and cocycle tables
    ``k1, l1`` (on E-points of length >= 1) and ``k1p, l1p`` (on F-points)."""

    E: Graph
    F: Graph
    h: dict[BoundaryPoint, BoundaryPoint]
    k1: dict[BoundaryPoint, int]
    l1: dict[BoundaryPoint, int]
    k1p: dict[BoundaryPoint, int]
    l1p: dict[BoundaryPoint, int]

    def h_inverse(self) -> dict[BoundaryPoint, BoundaryPoint]:
        return {y: x for x, y in self.h.items()}

    def inverse(self) -> "OrbitWitness":
        """The same witness read in the other direction."""
        return OrbitWitness(self.F, self.E, self.h_inverse(), dict(self.k1p), dict(self.l1p), dict(self.k1), dict(self.l1))


@dataclass
class WitnessReport:
    ok: bool
    failures: list[str] = field(default_factory=list)


def _eq_after_shifts(g: Graph, k: int, a: BoundaryPoint, l: int, b: BoundaryPoint) -> bool:
    """Strict check of sigma^k(a) == sigma^l(b): a shift past the end of a
    point counts as failure, never as a skip."""
    if a.length < k or b.length < l:
        return False
    return drop_edges(g, a, k) == drop_edges(g, b, l)


def verify_oe_witness(w: OrbitWitness) -> WitnessReport:
    """Check every defining identity of an orbit-equivalence witness on all
    census points, reporting each failure."""
    from .dsl import print_point

    census_e = require_finite_census(w.E)
    census_f = require_finite_census(w.F)
    failures: list[str] = []
    if set(w.h) != set(census_e):
        raise InputError("h is not total on the boundary of E")
    if set(w.h.values()) != set(census_f) or len(set(w.h.values())) != len(w.h):
        raise InputError("h is not a bijection onto the boundary of F")
    ge1 = [x for x in census_e if x.length >= 1]
    gf1 = [y for y in census_f if y.length >= 1]
    for table, dom, side in ((w.k1, ge1, "k1"), (w.l1, ge1, "l1"), (w.k1p, gf1, "k1p"), (w.l1p, gf1, "l1p")):
        if set(table) != set(dom):
            raise InputError(f"table {side} is not total on the length->=1 points")
        if any(v < 0 for v in table.values()):
            raise InputError(f"table {side} must take natural values")
    hinv = w.h_inverse()
    for x in ge1:
        lhs_pt = w.h[shift(w.E, x)]
        rhs_pt = w.h[x]
        if not _eq_after_shifts(w.F, w.k1[x], lhs_pt, w.l1[x], rhs_pt):
            failures.append(
                f"forward identity fails at {print_point(w.E, x)}"
            )
    for y in gf1:
        lhs_pt = hinv[shift(w.F, y)]
        rhs_pt = hinv[y]
        if not _eq_after_shifts(w.E, w.k1p[y], lhs_pt, w.l1p[y], rhs_pt):
            failures.append(
                f"backward identity fails at {print_point(w.F, y)}"
            )
    return WitnessReport(not failures, failures)


@dataclass
class CocycleTables:
    n: int
    k: dict[BoundaryPoint, int]
    l: dict[BoundaryPoint, int]
    kp: dict[BoundaryPoint, int]
    lp: dict[BoundaryPoint, int]


def extend_cocycles(w: OrbitWitness, n: int) -> CocycleTables:
    """Extend the degree-one cocycle tables to degree ``n`` by the witness
    recursion:

        k[m+1](x) = k1(s^m x) + max(l1(s^m x), k[m](x)) - l1(s^m x)
        l[m+1](x) = l[m](x)   + max(l1(s^m x), k[m](x)) - k[m](x)

    and the mirror-image recursion for the primed tables.  Degree 0 tables
    vanish; degree 1 returns the witness tables themselves.
    """
    if n < 0:
        raise InputError("cocycle degree must be a natural number")
    census_e = require_finite_census(w.E)
    census_f = require_finite_census(w.F)
    k = {x: 0 for x in census_e}
    l = {x: 0 for x in census_e}
    kp = {y: 0 for y in census_f}
    lp = {y: 0 for y in census_f}
    for m in range(n):
        k_next, l_next, kp_next, lp_next = {}, {}, {}, {}
        for x in census_e:
            if x.length < m + 1:
                continue
            if m == 0:
                k_next[x], l_next[x] = w.k1[x], w.l1[x]
                continue
            sx = shift(w.E, x, m)
            hi = max(w.l1[sx], k[x])
            k_next[x] = w.k1[sx] + hi - w.l1[sx]
            l_next[x] = l[x] + hi - k[x]
        for y in census_f:
            if y.length < m + 1:
                continue
            if m == 0:
                kp_next[y], lp_next[y] = w.k1p[y], w.l1p[y]
                continue
            sy = shift(w.F, y, m)
            hi = max(w.l1p[sy], kp[y])
            kp_next[y] = w.k1p[sy] + hi - w.l1p[sy]
            lp_next[y] = lp[y] + hi - kp[y]
        k, l, kp, lp = k_next, l_next, kp_next, lp_next
    return CocycleTables(n, k, l, kp, lp)


def check_extended_identity(w: OrbitWitness, tables: CocycleTables) -> list[str]:
    """The degree-n analogue of the witness identities, on every point where
    the n-fold shift is defined."""
    from .dsl import print_point

    n = tables.n
    hinv = w.h_inverse()
    failures = []
    for x, kx in tables.k.items():
        lhs = w.h[shift(w.E, x, n)]
        rhs = w.h[x]
        if not _eq_after_shifts(w.F, kx, lhs, tables.l[x], rhs):
            failures.append(f"degree-{n} forward identity fails at {print_point(w.E, x)}")
    for y, ky in tables.kp.items():
        lhs = hinv[shift(w.F, y, n)]
        rhs = hinv[y]
        if not _eq_after_shifts(w.E, ky, lhs, tables.lp[y], rhs):
            failures.append(f"degree-{n} backward identity fails at {print_point(w.F, y)}")
    return failures


# -- pseudogroup elements ----------------------------------------------------


@dataclass(frozen=True)
class PseudogroupElement:
    """A partial bijection of representable boundary points together with
    shift exponents witnessing sigma^m(x) = sigma^n(alpha(x))."""

    graph: Graph
    alpha: dict[BoundaryPoint, BoundaryPoint]
    m: dict[BoundaryPoint, int]
    n: dict[BoundaryPoint, int]

    def domain(self) -> list[BoundaryPoint]:
        return sorted(self.alpha, key=point_sort_key)


def identity_element(g: Graph, points: Iterable[BoundaryPoint]) -> PseudogroupElement:
    pts = list(points)
    return PseudogroupElement(g, {x: x for x in pts}, {x: 0 for x in pts}, {x: 0 for x in pts})


def shift_restriction(g: Graph, points: Iterable[BoundaryPoint]) -> PseudogroupElement:
    """The shift restricted to the given points (tables m=1, n=0)."""
    pts = [x for x in points]
    alpha = {x: shift(g, x) for x in pts}
    return PseudogroupElement(g, alpha, {x: 1 for x in pts}, {x: 0 for x in pts})


def verify_pseudogroup_element(p: PseudogroupElement) -> bool:
    """True iff alpha is injective and the shift-equalizer identity holds at
    every domain point."""
    require_finite_census(p.graph)
    if set(p.m) != set(p.alpha) or set(p.n) != set(p.alpha):
        raise InputError("exponent tables must share the domain of alpha")
    if len(set(p.alpha.values())) != len(p.alpha):
        return False
    for x, ax in p.alpha.items():
        if not _eq_after_shifts(p.graph, p.m[x], x, p.n[x], ax):
            return False
    return True


def bisection_decomposition(p: PseudogroupElement) -> list[tuple[CylinderSet, int, int]]:
    """Split the domain into cylinder pieces carrying constant exponents.

    On a finite boundary space every point is isolated, so singleton
    isolating cylinders give the finest valid decomposition; the shift
    powers are injective on singletons for free.
    """
    if not verify_pseudogroup_element(p):
        raise InputError("not a valid pseudogroup element")
    pieces = []
    for x in p.domain():
        z = isolating_cylinder(p.graph, x)
        if z is None:
            raise UnsupportedScaleError("domain point is not isolated")
        pieces.append((z, p.m[x], p.n[x]))
    return pieces


def conjugate_pseudogroup(w: OrbitWitness, p: PseudogroupElement) -> PseudogroupElement:
    """Transport a pseudogroup element of E through a verified witness to a
    pseudogroup element of F.

    The new exponents come from the extended cocycle tables:

        m'(y) = l[m(x)](x)      + max(k[n(x)](a(x)), k[m(x)](x)) - k[m(x)](x)
        n'(y) = l[n(x)](a(x))   + max(k[n(x)](a(x)), k[m(x)](x)) - k[n(x)](a(x))

    where x = h^-1(y) and a = alpha.
    """
    if p.graph is not w.E and p.graph != w.E:
        raise InputError("the element must live over the witness source graph")
    if not verify_pseudogroup_element(p):
        raise InputError("not a valid pseudogroup element")
    depth = max([0, *p.m.values(), *p.n.values()])
    tables = [extend_cocycles(w, j) for j in range(depth + 1)]
    alpha2: dict[BoundaryPoint, BoundaryPoint] = {}
    m2: dict[BoundaryPoint, int] = {}
    n2: dict[BoundaryPoint, int] = {}
    for x, ax in p.alpha.items():
        y = w.h[x]
        alpha2[y] = w.h[ax]
        km = tables[p.m[x]].k[x]
        kn = tables[p.n[x]].k[ax]
        hi = max(kn, km)
        m2[y] = tables[p.m[x]].l[x] + hi - km
        n2[y] = tables[p.n[x]].l[ax] + hi - kn
    return PseudogroupElement(w.F, alpha2, m2, n2)


def cocycles_from_pseudogroup_transport(
    E: Graph,
    F: Graph,
    h: Mapping[BoundaryPoint, BoundaryPoint],
    elements_e: Mapping[str, PseudogroupElement],
    elements_f: Mapping[str, PseudogroupElement],
) -> OrbitWitness:
    """Assemble an orbit-equivalence witness from transported edge shifts.

    ``elements_e[c]`` must be a verified element over F equal to the
    h-conjugate of the shift restricted to the cylinder of the class-c
    edges, and symmetrically for ``elements_f``; the witness tables read off
    the exponents at the first edge:  k1(x) = n'_{x_1}(h(x)),
    l1(x) = m'_{x_1}(h(x)).
    """
    census_e = require_finite_census(E)
    census_f = require_finite_census(F)
    h = dict(h)
    hinv = {y: x for x, y in h.items()}
    k1, l1, k1p, l1p = {}, {}, {}, {}
    for x in census_e:
        if x.length < 1:
            continue
        cid = x.edge_at(0).cls
        if cid not in elements_e:
            raise InputError(f"missing transported element for edge class {cid!r}")
        el = elements_e[cid]
        y = h[x]
        if y not in el.m:
            raise InputError(f"transported element for {cid!r} misses a domain point")
        k1[x] = el.n[y]
        l1[x] = el.m[y]
    for y in census_f:
        if y.length < 1:
            continue
        cid = y.edge_at(0).cls
        if cid not in elements_f:
            raise InputError(f"missing transported element for edge class {cid!r}")
        el = elements_f[cid]
        x = hinv[y]
        if x not in el.m:
            raise InputError(f"transported element for {cid!r} misses a domain point")
        k1p[y] = el.n[x]
        l1p[y] = el.m[x]
    return OrbitWitness(E, F, h, k1, l1, k1p, l1p)


# -- deciding orbit equivalence and conjugacy --------------------------------


def _delay_tables(src: Graph, dst: Graph, h: Mapping[BoundaryPoint, BoundaryPoint]) -> tuple[dict, dict]:
    """Tables ``k, l`` with ``sigma^k(h(sigma x)) = sigma^l(h(x))`` at every
    point of length >= 1, read off the minimal alignment of the two images."""
    k, l = {}, {}
    for x, y in h.items():
        if x.length < 1:
            continue
        a = h[shift(src, x)]
        # an exitless cycle visits each vertex once, so its edges are
        # distinct and y's period starts at exactly one place in a's
        r = a.period.index(y.period[0]) if a.period else 0
        k[x], l[x] = minimal_witness(dst, a, y, len(a.pre) + r - len(y.pre))
    return k, l


def search_oe_witness(E: Graph, F: Graph) -> OrbitWitness | None:
    """Decide orbit equivalence of two graphs with finite boundary spaces:
    a verified witness, or None when they are not orbit equivalent.

    Every point is isolated and shift-equivalent points stay so under a
    witness, so a witness maps tail classes (the points ending at one sink,
    or on one exitless cycle) bijectively onto tail classes.  Conversely any
    class-respecting bijection admits delay tables, so the graphs are orbit
    equivalent exactly when their multisets of class sizes agree.  Classes
    of equal size are paired, and their points, in census order.
    """
    classes_e = sorted(tail_classes(E, require_finite_census(E)).values(), key=len)
    classes_f = sorted(tail_classes(F, require_finite_census(F)).values(), key=len)
    if [len(c) for c in classes_e] != [len(c) for c in classes_f]:
        return None
    h = {x: y for ce, cf in zip(classes_e, classes_f) for x, y in zip(ce, cf)}
    w = OrbitWitness(E, F, h, *_delay_tables(E, F, h), *_delay_tables(F, E, {y: x for x, y in h.items()}))
    report = verify_oe_witness(w)
    if not report.ok:
        raise RuntimeError(f"constructed witness fails verification: {report.failures[0]}")
    return w


def verify_conjugacy(E: Graph, F: Graph, h: Mapping[BoundaryPoint, BoundaryPoint]) -> bool:
    """Whether ``h`` is a length-class-preserving bijection intertwining the
    shifts on the nose."""
    census_e = require_finite_census(E)
    census_f = require_finite_census(F)
    h = dict(h)
    if set(h) != set(census_e) or set(h.values()) != set(census_f):
        return False
    if {x for x in census_e if x.length >= 1} != {x for x, y in h.items() if y.length >= 1}:
        return False
    for x in census_e:
        if x.length >= 1 and h[shift(E, x)] != shift(F, h[x]):
            return False
    return True


def conjugacy_witness(E: Graph, F: Graph, h: Mapping[BoundaryPoint, BoundaryPoint]) -> OrbitWitness:
    """The orbit-equivalence witness carried by a conjugacy (k tables 0,
    l tables 1)."""
    if not verify_conjugacy(E, F, h):
        raise InputError("h is not a conjugacy")
    h = dict(h)
    ge1 = [x for x in h if x.length >= 1]
    gf1 = [y for y in h.values() if y.length >= 1]
    return OrbitWitness(
        E,
        F,
        h,
        {x: 0 for x in ge1},
        {x: 1 for x in ge1},
        {y: 0 for y in gf1},
        {y: 1 for y in gf1},
    )

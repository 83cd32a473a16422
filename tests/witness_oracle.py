"""The census-membership witness gates, kept as test oracles.

:mod:`oeg.dynamics` gates a witness by the point count of each boundary and
each key's canonical form.  The functions here gate as it used to: they list
both censuses with ``boundary_census`` and check every table against the
listed points.  The gates are the old code verbatim; only the census is
taken here rather than passed in.  The identities are checked as they used
to be, too: by building both shifted images with ``drop_edges`` and
comparing the points.
"""

from __future__ import annotations

from typing import Callable, Iterable

from oeg.boundary import BoundaryPoint, boundary_census, drop_edges, exponent_product
from oeg.dsl import print_point
from oeg.dynamics import CocycleTables, OrbitWitness, PseudogroupElement, WitnessReport, _halves
from oeg.errors import InputError, UnsupportedScaleError
from oeg.graphs import Graph


def _eq_after_shifts(g: Graph, k: int, a: BoundaryPoint, l: int, b: BoundaryPoint) -> bool:
    """Strict check of sigma^k(a) == sigma^l(b): a shift past the end of a
    point counts as failure, never as a skip."""
    if a.length < k or b.length < l:
        return False
    return drop_edges(g, a, k) == drop_edges(g, b, l)


def reference_identity_failures(
    src: Graph, dst: Graph, points: Iterable[BoundaryPoint], h: Callable, k: Callable, l: Callable, n: int, label: str
) -> list[str]:
    failures = []
    try:
        for x in points:
            if not _eq_after_shifts(dst, k(x), h(drop_edges(src, x, n)), l(x), h(x)):
                failures.append(f"{label} identity fails at {print_point(src, x)}")
    except KeyError as exc:
        raise InputError(f"a witness table misses the point {print_point(src, exc.args[0])}") from None
    return failures


def require_finite_census(g) -> tuple[BoundaryPoint, ...]:
    census = boundary_census(g)
    if not census.finite:
        raise UnsupportedScaleError(
            f"the boundary space is infinite ({census.witness})"
        )
    return census.points


def _checked_census(
    w: OrbitWitness, census: tuple[BoundaryPoint, ...], names: tuple[str, str, str] = ("h", "k1", "l1")
) -> tuple[BoundaryPoint, ...]:
    h, k1, l1 = names
    if len(w.h) != len(census) or not all(map(w.h.__contains__, census)):
        raise InputError(f"{h} is not total on the boundary of its source graph")
    ge1 = [x for x in w.h if x.length >= 1]
    for table, name in ((w.k1, k1), (w.l1, l1)):
        if len(table) != len(ge1) or not all(map(table.__contains__, ge1)):
            raise InputError(f"table {name} is not total on the length->=1 points")
        if min(table.values(), default=0) < 0:
            raise InputError(f"table {name} must take natural values")
    return census


def reference_verify_oe_witness(w: OrbitWitness) -> WitnessReport:
    census_e, census_f = require_finite_census(w.E), require_finite_census(w.F)
    halves = _halves(w)
    for (_, v, names), census in zip(halves, (census_e, census_f)):
        _checked_census(v, census, names)
    if len(census_e) != len(census_f):
        raise InputError("h is not a bijection onto the boundary of F")
    failures = [
        f
        for side, v, _ in halves
        for f in reference_identity_failures(v.E, v.F, v.k1, v.h.__getitem__, v.k1.__getitem__, v.l1.__getitem__, 1, side)
    ]
    return WitnessReport(not failures, failures)


def _degree(w: OrbitWitness, census: tuple[BoundaryPoint, ...], n: int) -> dict[BoundaryPoint, tuple[int, int]]:
    if n == 0:
        return dict.fromkeys(census, (0, 0))
    one = acc = {x: (w.l1[x], w.k1[x]) for x in w.k1}
    a = 1
    for bit in bin(n)[3:]:
        acc = {x: exponent_product(p, acc[drop_edges(w.E, x, a)]) for x, p in acc.items() if x.length >= 2 * a}
        a *= 2
        if bit == "1":
            acc = {x: exponent_product(p, one[drop_edges(w.E, x, a)]) for x, p in acc.items() if x.length > a}
            a += 1
    return acc


def reference_extend_cocycles(w: OrbitWitness, n: int) -> CocycleTables:
    censuses: Iterable[tuple[BoundaryPoint, ...]] = map(require_finite_census, (w.E, w.F))
    if n < 0:
        raise InputError("cocycle degree must be a natural number")
    tables = []
    for (_, v, names), census in zip(_halves(w), censuses):
        pairs = _degree(v, _checked_census(v, census, names), n)
        tables += [{x: k for x, (_, k) in pairs.items()}, {x: l for x, (l, _) in pairs.items()}]
    return CocycleTables(n, *tables)


def _verify_element(p: PseudogroupElement, census: tuple[BoundaryPoint, ...]) -> bool:
    if set(p.m) != set(p.alpha) or set(p.n) != set(p.alpha):
        raise InputError("exponent tables must share the domain of alpha")
    points = set(census)
    if not points.issuperset(p.alpha) or not points.issuperset(p.alpha.values()):
        raise InputError("alpha must map boundary points of its graph to boundary points")
    for table, name in ((p.m, "m"), (p.n, "n")):
        if min(table.values(), default=0) < 0:
            raise InputError(f"table {name} must take natural values")
    if len(set(p.alpha.values())) != len(p.alpha):
        return False
    return all(_eq_after_shifts(p.graph, p.m[x], x, p.n[x], ax) for x, ax in p.alpha.items())


def reference_verify_pseudogroup_element(p: PseudogroupElement) -> bool:
    return _verify_element(p, require_finite_census(p.graph))


def reference_conjugate_pseudogroup(w: OrbitWitness, p: PseudogroupElement) -> PseudogroupElement:
    if p.graph is not w.E and p.graph != w.E:
        raise InputError("the element must live over the witness source graph")
    census = require_finite_census(w.E)
    if not _verify_element(p, census):
        raise InputError("not a valid pseudogroup element")
    _checked_census(w, census)
    degrees = {d: _degree(w, census, d) for d in {*p.m.values(), *p.n.values()}}
    alpha2: dict[BoundaryPoint, BoundaryPoint] = {}
    m2: dict[BoundaryPoint, int] = {}
    n2: dict[BoundaryPoint, int] = {}
    for x, ax in p.alpha.items():
        y = w.h[x]
        alpha2[y] = w.h[ax]
        l_n, k_n = degrees[p.n[x]][ax]
        m2[y], n2[y] = exponent_product(degrees[p.m[x]][x], (k_n, l_n))
    return PseudogroupElement(w.F, alpha2, m2, n2)

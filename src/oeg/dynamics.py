"""Shift dynamics on boundary path spaces and orbit-equivalence witnesses.

An orbit-equivalence witness between two graphs with finite boundary spaces
is a bijection of the spaces together with four natural-valued cocycle
tables making the shifts intertwine up to shifting delays.  On finite
(hence discrete) spaces every function is continuous, so verification is a
pointwise check.  A table is total when its keys are canonical boundary
points, as many as the boundary has, so no check lists a boundary.  Orbit
equivalence of such graphs is decided by comparing the sizes of their tail
classes, and the witness is built from that pairing directly.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Iterable, Mapping, NamedTuple

from .boundary import (
    BoundaryPoint,
    CylinderSet,
    _meets,
    boundary_census,
    boundary_size,
    check_listable,
    drop_edges,
    exponent_product,
    is_canonical,
    isolating_cylinder,
    minimal_witness,
    point_sort_key,
    shift,
    tail_class_sizes,
    tail_classes,
)
from .dsl import print_point
from .errors import InputError, UnsupportedScaleError
from .graphs import Edge, Graph


def fixed_points(g: Graph) -> list[BoundaryPoint]:
    """Shift-fixed representable points.  A boundary path equals its own
    shift exactly when it repeats a single loop edge forever, so these are
    the loop edges, in ``Edge`` order; an infinite loop class contributes
    its index-0 edge."""
    loops = sorted((c for c in g.edge_classes if c.src == c.dst), key=lambda c: c.cid)
    check_listable(loops, inf_cap=1)
    return [BoundaryPoint(c.src, (), (Edge(c.cid, i),)) for c in loops for i in range(1 if c.is_infinite else c.mult)]


def _finite_size(g: Graph) -> int:
    """The point count of a finite boundary; an infinite one is refused."""
    size = boundary_size(g)
    if isinstance(size, str):
        raise UnsupportedScaleError(f"the boundary space is infinite ({size})")
    return size


class OrbitWitness(NamedTuple):
    """Candidate orbit-equivalence data between graphs ``E`` and ``F``:
    a bijection table ``h`` of the boundaries and cocycle tables
    ``k1, l1`` (on E-points of length >= 1) and ``k1p, l1p`` (on F-points)."""

    E: Graph
    F: Graph
    h: dict[BoundaryPoint, BoundaryPoint]
    k1: dict[BoundaryPoint, int]
    l1: dict[BoundaryPoint, int]
    k1p: dict[BoundaryPoint, int]
    l1p: dict[BoundaryPoint, int]

    def inverse(self) -> "OrbitWitness":
        """The same witness read in the other direction; it shares the
        cocycle tables."""
        hinv = {y: x for x, y in self.h.items()}
        return OrbitWitness(self.F, self.E, hinv, self.k1p, self.l1p, self.k1, self.l1)


class WitnessReport(NamedTuple):
    ok: bool
    failures: list[str]


def _identity_failures(
    src: Graph, dst: Graph, points: Iterable[BoundaryPoint], h: Callable, k: Callable, l: Callable, n: int, label: str
) -> list[str]:
    """One failure description for each of the points ``x`` (all of length
    >= n) where sigma^k(x)(h(sigma^n x)) == sigma^l(x)(h(x)) does not hold;
    a shift past the end of a point counts as failure, never as a skip.
    ``h``, ``k`` and ``l`` are point functions, called at each ``x`` in the
    order k(x), h(sigma^n x), l(x), h(x); a table lookup that misses a point
    raises InputError naming it.  The images are canonical, so
    :func:`boundary._meets` compares them shifted without building either."""
    failures = []
    try:
        for x in points:
            if not _meets(dst, k(x), h(drop_edges(src, x, n)), l(x), h(x)):
                failures.append(f"{label} identity fails at {print_point(src, x)}")
    except KeyError as exc:
        raise InputError(f"a witness table misses the point {print_point(src, exc.args[0])}") from None
    return failures


def _check_total(g: Graph, h: Mapping, size: int, name: str) -> None:
    """Check ``h`` (named ``name``) total on the ``size``-point boundary of
    ``g``: dict keys are distinct, so ``size`` canonical points are all.
    Every call tests every key with :func:`is_canonical`, which builds no
    point."""
    if len(h) != size or not all(map(is_canonical, repeat(g), h)):
        raise InputError(f"{name} is not total on the boundary of its source graph")


def _check_tables(w: OrbitWitness, size: int, names: tuple[str, str, str] = ("h", "k1", "l1")) -> None:
    """Check ``h`` to be total on the boundary of ``w.E``, which has
    ``size`` points, then ``k1`` and ``l1`` to be total and natural-valued
    on its keys of length >= 1, those with an edge in either field.
    ``names`` calls the three tables in error messages.  Both directions of
    a witness run this gate on every call that reads it; nothing is trusted
    or cached."""
    h, k1, l1 = names
    _check_total(w.E, w.h, size, h)
    ge1 = [x for x in w.h if x.pre or x.period]  # tables built alongside h share its key objects
    for table, name in ((w.k1, k1), (w.l1, l1)):
        if len(table) != len(ge1) or not all(map(table.__contains__, ge1)):
            raise InputError(f"table {name} is not total on the length->=1 points")
        _check_natural(table, name)


def _check_natural(table: Mapping, name: str) -> None:
    """Refuse a table, named ``name``, with a negative value."""
    if min(table.values(), default=0) < 0:
        raise InputError(f"table {name} must take natural values")


def _halves(w: OrbitWitness) -> tuple[tuple[str, OrbitWitness, tuple[str, str, str]], ...]:
    """The two directions of a witness, each as the forward direction of a
    witness (``w`` and its inverse), with the names of its tables."""
    return ("forward", w, ("h", "k1", "l1")), ("backward", w.inverse(), ("h^-1", "k1p", "l1p"))


def _gate(w: OrbitWitness):
    """Count both boundaries, check both directions' tables against the
    counts, then compare the counts; return :func:`_halves`."""
    sizes = _finite_size(w.E), _finite_size(w.F)
    halves = _halves(w)
    for (_, v, names), size in zip(halves, sizes):
        _check_tables(v, size, names)
    if sizes[0] != sizes[1]:  # h is total on E and onto F: injective iff the sizes agree
        raise InputError("h is not a bijection onto the boundary of F")
    return halves


def verify_oe_witness(w: OrbitWitness) -> WitnessReport:
    """Check every defining identity of an orbit-equivalence witness at all
    boundary points, reporting each failure, once the witness passes
    :func:`_gate`."""
    halves = _gate(w)
    # the gates made k1's keys the boundary points of length >= 1
    failures = [
        f
        for side, v, _ in halves
        for f in _identity_failures(v.E, v.F, v.k1, v.h.__getitem__, v.k1.__getitem__, v.l1.__getitem__, 1, side)
    ]
    return WitnessReport(not failures, failures)


class CocycleTables(NamedTuple):
    n: int
    k: dict[BoundaryPoint, int]
    l: dict[BoundaryPoint, int]
    kp: dict[BoundaryPoint, int]
    lp: dict[BoundaryPoint, int]


def _degree(w: OrbitWitness, n: int) -> dict[BoundaryPoint, tuple[int, int]]:
    """The degree-``n`` cocycle pairs ``(l, k)`` of a gated witness: the
    unit ``(0, 0)`` on every boundary point (every key of ``h``) at
    degree 0, ``(l1, k1)`` at degree 1, and on the points of length >= n

        (l, k)[a + b](x) = (l, k)[a](x) * (l, k)[b](sigma^a x)

    with ``*`` the associative :func:`exponent_product`.  So degree ``n`` is
    reached by doubling, in at most two table products per bit of ``n``."""
    if n == 0:
        return dict.fromkeys(w.h, (0, 0))
    one = acc = {x: (w.l1[x], w.k1[x]) for x in w.k1}
    a = 1
    for bit in bin(n)[3:]:  # the bits after the leading one
        acc = {
            x: exponent_product(p, acc[drop_edges(w.E, x, a)]) for x, p in acc.items() if x.period or len(x.pre) >= 2 * a
        }
        a *= 2
        if bit == "1":
            acc = {x: exponent_product(p, one[drop_edges(w.E, x, a)]) for x, p in acc.items() if x.period or len(x.pre) > a}
            a += 1
    return acc


def extend_cocycles(w: OrbitWitness, n: int) -> CocycleTables:
    """The degree-``n`` cocycle tables of a witness; the primed tables are
    those of the inverse witness.  Each direction's tables are gated, and
    extended, before the other boundary is counted; the counts come last."""
    if n < 0:
        raise InputError("cocycle degree must be a natural number")
    sizes, tables = [], []
    for _, v, names in _halves(w):
        sizes.append(_finite_size(v.E))
        _check_tables(v, sizes[-1], names)
        pairs = _degree(v, n)
        tables += [{x: k for x, (_, k) in pairs.items()}, {x: l for x, (l, _) in pairs.items()}]
    if sizes[0] != sizes[1]:
        raise InputError("h is not a bijection onto the boundary of F")
    return CocycleTables(n, *tables)


def check_extended_identity(w: OrbitWitness, tables: CocycleTables) -> list[str]:
    """The degree-n analogue of the witness identities, on every point where
    the n-fold shift is defined.  The degree and the tables must be natural,
    as :func:`extend_cocycles` makes them; the witness is not gated again."""
    n = tables.n
    if n < 0:
        raise InputError("cocycle degree must be a natural number")
    for name in ("k", "l", "kp", "lp"):
        _check_natural(getattr(tables, name), name)
    return [
        f
        for (side, v, _), (k, l) in zip(_halves(w), ((tables.k, tables.l), (tables.kp, tables.lp)))
        for f in _identity_failures(v.E, v.F, k, v.h.__getitem__, k.__getitem__, l.__getitem__, n, f"degree-{n} {side}")
    ]


# -- pseudogroup elements ----------------------------------------------------


class PseudogroupElement(NamedTuple):
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
    every domain point, as :func:`boundary._meets` decides it; a shift past
    the end of a point fails.  The boundary of ``p.graph`` must be finite,
    and every domain point and every image a boundary point of it in
    canonical form."""
    _finite_size(p.graph)
    if set(p.m) != set(p.alpha) or set(p.n) != set(p.alpha):
        raise InputError("exponent tables must share the domain of alpha")
    if not all(is_canonical(p.graph, x) for x in (*p.alpha, *p.alpha.values())):
        raise InputError("alpha must map boundary points of its graph to boundary points")
    _check_natural(p.m, "m")
    _check_natural(p.n, "n")
    if len(set(p.alpha.values())) != len(p.alpha):
        return False
    return all(_meets(p.graph, p.m[x], x, p.n[x], ax) for x, ax in p.alpha.items())


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
    pseudogroup element of F, once both pass their gates.

    The new exponents are the product of the extended cocycle pairs

        (m'(y), n'(y)) = (l, k)[m(x)](x) * (k, l)[n(x)](a(x))

    where x = h^-1(y), a = alpha and ``*`` is :func:`exponent_product`.
    """
    if p.graph is not w.E and p.graph != w.E:
        raise InputError("the element must live over the witness source graph")
    if not verify_pseudogroup_element(p):
        raise InputError("not a valid pseudogroup element")
    _gate(w)
    degrees = {d: _degree(w, d) for d in {*p.m.values(), *p.n.values()}}
    alpha2: dict[BoundaryPoint, BoundaryPoint] = {}
    m2: dict[BoundaryPoint, int] = {}
    n2: dict[BoundaryPoint, int] = {}
    for x, ax in p.alpha.items():
        y = w.h[x]
        alpha2[y] = w.h[ax]
        l_n, k_n = degrees[p.n[x]][ax]
        m2[y], n2[y] = exponent_product(degrees[p.m[x]][x], (k_n, l_n))
    return PseudogroupElement(w.F, alpha2, m2, n2)


def _transported_tables(src: Graph, h: Mapping, elements: Mapping[str, PseudogroupElement], name: str) -> tuple[dict, dict]:
    """Tables ``k1(x) = n'_{x_1}(h(x))`` and ``l1(x) = m'_{x_1}(h(x))`` on the
    points of ``src`` of length >= 1, read off the transported edge shifts
    at the keys of ``h``, once ``h`` (named ``name``) is checked total."""
    _check_total(src, h, _finite_size(src), name)
    k1, l1 = {}, {}
    for x, y in h.items():
        if x.length < 1:
            continue
        cid = x.edge_at(0).cls
        if cid not in elements:
            raise InputError(f"missing transported element for edge class {cid!r}")
        el = elements[cid]
        if y not in el.m:
            raise InputError(f"the transported element for {cid!r} misses the point {print_point(src, x)}")
        k1[x] = el.n[y]
        l1[x] = el.m[y]
    return k1, l1


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
    h = dict(h)
    hinv = {y: x for x, y in h.items()}
    return OrbitWitness(E, F, h, *_transported_tables(E, h, elements_e, "h"), *_transported_tables(F, hinv, elements_f, "h^-1"))


# -- deciding orbit equivalence and conjugacy --------------------------------


def _delay_tables(src: Graph, dst: Graph, h: Mapping[BoundaryPoint, BoundaryPoint]) -> tuple[dict, dict]:
    """Tables ``k, l`` with ``sigma^k(h(sigma x)) = sigma^l(h(x))`` at every
    point of length >= 1, read off the minimal alignment of the two images."""
    k, l = {}, {}
    for x, y in h.items():
        if not (x.pre or x.period):
            continue
        a = h[drop_edges(src, x, 1)]
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
    equivalent exactly when their multisets of class sizes agree.  These are
    counted, and only a "yes" lists the censuses: classes of equal size are
    paired, and their points, in census order.
    """
    sizes = []
    for g in (E, F):  # E is refused before F is counted
        counted = tail_class_sizes(g)
        if counted is None:
            _finite_size(g)  # raises with boundary_size's reason
        sizes.append(sorted(n for _, n in counted))
    if sizes[0] != sizes[1]:
        return None
    classes_e, classes_f = (sorted(tail_classes(g, boundary_census(g).points).values(), key=len) for g in (E, F))
    h = {x: y for ce, cf in zip(classes_e, classes_f) for x, y in zip(ce, cf)}
    w = OrbitWitness(E, F, h, *_delay_tables(E, F, h), *_delay_tables(F, E, {y: x for x, y in h.items()}))
    report = verify_oe_witness(w)
    if not report.ok:
        raise RuntimeError(f"constructed witness fails verification: {report.failures[0]}")
    return w


def verify_conjugacy(E: Graph, F: Graph, h: Mapping[BoundaryPoint, BoundaryPoint]) -> bool:
    """Whether ``h`` is a bijection of the boundaries intertwining the
    shifts on the nose: an orbit equivalence with trivial cocycles."""
    try:
        conjugacy_witness(E, F, h)
    except InputError:
        return False
    return True


def conjugacy_witness(E: Graph, F: Graph, h: Mapping[BoundaryPoint, BoundaryPoint]) -> OrbitWitness:
    """The orbit-equivalence witness carried by a conjugacy: k tables 0 and
    l tables 1.  A shift past the end of a point fails an identity, so they
    hold exactly when ``h`` and its inverse commute with the shift and keep
    the empty points apart from the others; the gate raises InputError when
    ``h`` is not a bijection of the boundaries."""
    h = dict(h)
    tables = [dict.fromkeys([x for x in side if x.length >= 1], d) for side in (h, h.values()) for d in (0, 1)]
    w = OrbitWitness(E, F, h, *tables)
    if not verify_oe_witness(w).ok:
        raise InputError("h is not a conjugacy")
    return w

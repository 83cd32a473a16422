"""Germs of prefix-exchange transformations and their winding calculus.

A germ is a pair of finite paths with a common range, anchored at a boundary
point extending the second path; it acts by swapping that prefix.  Germ
equivalence is decided combinatorially: at an isolated eventually periodic
anchor the obstruction is an integer winding index (the cocycle difference
divided by the primitive period length); elsewhere it is agreement of the
transported prefixes along the anchor.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import NamedTuple

from .boundary import (
    BoundaryPoint,
    boundary_census,
    bounded_points,
    drop_edges,
    is_isolated,
    point_sort_key,
    prefix_path,
    prepend,
    starts_with,
)
from .errors import CompositionError, InputError
from .graphs import Graph, Path
from .groupoid import GroupoidElement, enumerate_elements
from .pointtable import PointTable

# germ pairs the phi check cross-checks against germ_equivalent per call
PAIR_SAMPLE = 40


class Germ(NamedTuple):
    mu: Path
    nu: Path
    x: BoundaryPoint

    @property
    def cocycle(self) -> int:
        return self.mu.length - self.nu.length


def germ_make(g: Graph, mu: Path, nu: Path, x: BoundaryPoint) -> Germ:
    if mu.dst != nu.dst:
        raise InputError("the two paths of a germ must share their range")
    if not starts_with(x, nu):
        raise InputError("the anchor point must extend the second path")
    return Germ(mu, nu, x)


def germ_apply(g: Graph, germ: Germ) -> BoundaryPoint:
    """The image of the anchor: strip ``nu``, prepend ``mu``."""
    return prepend(g, germ.mu, drop_edges(g, germ.x, germ.nu.length))


def identity_germ(g: Graph, x: BoundaryPoint) -> Germ:
    empty = g.path((), at=x.src)
    return Germ(empty, empty, x)


def germ_compose(g: Graph, g1: Germ, g2: Germ) -> Germ:
    """Compose two germs anchored compatibly: the image of the second must
    be the anchor of the first.  The paths merge along the shared point and
    the cocycles add."""
    if germ_apply(g, g2) != g1.x:
        raise CompositionError("germs do not compose: anchor mismatch")
    if g1.nu.length <= g2.mu.length:
        # mu2 = nu1 . tau
        tau = g2.mu.edges[g1.nu.length :]
        mu = g.path(g1.mu.edges + tau, at=g1.mu.src)
        return germ_make(g, mu, g2.nu, g2.x)
    # nu1 = mu2 . tau
    tau = g1.nu.edges[g2.mu.length :]
    nu = g.path(g2.nu.edges + tau, at=g2.nu.src)
    return germ_make(g, g1.mu, nu, g2.x)


def germ_invert(g: Graph, germ: Germ) -> Germ:
    """Swap the paths and rebase at the image point."""
    return germ_make(g, germ.nu, germ.mu, germ_apply(g, germ))


def winding(g: Graph, g1: Germ, g2: Germ) -> int:
    """Integer winding index of two germs at a common isolated eventually
    periodic anchor with equal images: the cocycle difference divided by the
    primitive period length (always an integer there)."""
    if g1.x != g2.x:
        raise InputError("winding needs a common anchor point")
    x = g1.x
    if x.is_finite or not is_isolated(g, x):
        raise InputError("winding is defined at isolated eventually periodic points")
    if germ_apply(g, g1) != germ_apply(g, g2):
        raise InputError("winding needs equal images at the anchor")
    return _turns(x, g1.cocycle - g2.cocycle)


def _turns(x: BoundaryPoint, d: int) -> int:
    """A cocycle difference at a periodic anchor in whole turns of the
    period."""
    p = len(x.period)
    if d % p != 0:
        raise InputError("cocycle difference is not a period multiple")
    return d // p


def germ_equivalent(g: Graph, g1: Germ, g2: Germ) -> bool:
    """Germ equivalence: same anchor, same image, and (isolated eventually
    periodic) vanishing winding / (isolated finite) nothing further /
    (non-isolated) agreement of the transported prefixes along the anchor."""
    if g1.x != g2.x:
        return False
    x = g1.x
    if germ_apply(g, g1) != germ_apply(g, g2):
        return False
    if is_isolated(g, x):
        if x.is_finite:
            return True
        # the winding index, from the anchor and images compared above
        return _turns(x, g1.cocycle - g2.cocycle) == 0
    if g1.nu.length <= g2.nu.length:
        shorter, longer = g1, g2
    else:
        shorter, longer = g2, g1
    tau = x.prefix_edges(longer.nu.length)[shorter.nu.length :]
    aligned = g.path(shorter.mu.edges + tau, at=shorter.mu.src)
    return aligned == longer.mu


def phi(g: Graph, e: GroupoidElement) -> Germ:
    """The canonical germ of a groupoid element: exchange the witness-length
    prefixes of its two points, anchored at the source point."""
    mu = prefix_path(g, e.x, e.m)
    nu = prefix_path(g, e.y, e.n)
    return germ_make(g, mu, nu, e.y)


def germ_class_key(g: Graph, germ: Germ) -> tuple:
    """Normal form of a germ class: (anchor, cocycle, image)."""
    return (germ.x, germ.cocycle, germ_apply(g, germ))


class PhiReport(NamedTuple):
    bound: int
    pool_size: int
    pool_complete: bool
    element_count: int
    class_count: int
    germ_count: int
    bijection_ok: bool
    equivalence_ok: bool
    winding_ok: bool
    violations: list[str]

    @property
    def ok(self) -> bool:
        return self.bijection_ok and self.equivalence_ok and self.winding_ok


def representable_pool(
    g: Graph, bound: int, max_points: int | None = None
) -> tuple[list[BoundaryPoint], bool]:
    """The point pool a comparison run works over: the full census when the
    boundary is finite, otherwise a bounded deterministic sample."""
    census = boundary_census(g)
    if census.finite:
        return list(census.points), True
    pts = bounded_points(g, pre_len=1, per_len=max(3, min(bound, 4)), limit=max_points)
    return pts, False


def phi_bijectivity_check(g: Graph, bound: int, max_points: int | None = 24) -> PhiReport:
    """Compare germ classes with groupoid elements over a common pool.

    Counts all germs ``(mu, nu, x)`` with path lengths <= bound whose anchor
    and image both lie in the pool, partitions them into classes, and
    checks that the class keys coincide with the enumerated elements
    ``(image, cocycle, anchor)`` and that each element's canonical germ lands
    in its own class.  Within every class a sample of ``PAIR_SAMPLE`` germ
    pairs per call is cross-checked against `germ_equivalent`, and at every
    isolated eventually periodic anchor the cocycles of one image are
    checked to be congruent mod the period, which is what makes the winding
    index an integer.  A negative bound is an input error.

    Points are compared as ids of one :class:`PointTable`, built for the
    call and dropped with it: shift orbits, the germ classes, the element
    keys and each canonical germ's image (a cons-walk of the element's
    first ``m`` edges onto ``sigma^n`` of its source) are all int work.
    Germs are built as values only for the sampled pairs.
    """
    if bound < 0:
        raise InputError("the path-length bound must be a natural number")
    pool, complete = representable_pool(g, bound, max_points)
    table = PointTable(g)
    elements = enumerate_elements(g, pool, bound, table)
    ids = [table.intern(x) for x in pool]
    index = dict(zip(pool, ids))
    orbits = {i: table.orbit(i, bound) for i in ids}
    violations: list[str] = []

    # Germ enumeration: nu is forced to be a prefix of x, and a germ whose
    # image alpha lies in the pool satisfies sigma^{|mu|}(alpha) = sigma^{|nu|}(x),
    # so alpha and |mu| can be looked up by the shared tail instead of
    # enumerating mu itself.
    by_tail: dict[int, list[tuple[int, int]]] = {}
    for alpha in ids:
        for mlen, z in enumerate(orbits[alpha]):
            by_tail.setdefault(z, []).append((alpha, mlen))

    def germ_shapes(x: int):
        """(class key, |nu|, |mu|) of every germ anchored at x."""
        for nlen, z in enumerate(orbits[x]):
            for alpha, mlen in by_tail[z]:
                yield (x, mlen - nlen, alpha), nlen, mlen

    classes = Counter(key for x in ids for key, _, _ in germ_shapes(x))

    # phi(e) exchanges the first m edges of x for the first n of y at the
    # anchor y; its class key is (y, m - n, image), the image being x's
    # first m edges consed onto sigma^n(y).
    element_keys = set()
    phi_ok = True
    head, cons = table.head, table.cons
    for e in elements:
        x, y = index[e.x], index[e.y]
        element_keys.add((y, e.k, x))
        if phi_ok:
            image = orbits[y][e.n]
            for z in reversed(orbits[x][: e.m]):
                image = cons(head[z], image)
            phi_ok = (y, e.m - e.n, image) == (y, e.k, x)
    class_keys = set(classes)
    bijection_ok = element_keys == class_keys and phi_ok
    for key in sorted(class_keys - element_keys)[:5]:
        violations.append(f"germ class without matching element: cocycle {key[1]}")
    for key in sorted(element_keys - class_keys)[:5]:
        violations.append(f"element without matching germ class: cocycle {key[1]}")
    if not phi_ok:
        violations.append("phi lands outside the expected class")

    # Key-grouping must agree with germ_equivalent (sampled pairs, budgeted
    # per run); germs are built only for the pairs the budget reaches.
    equivalence_ok = True
    budget = PAIR_SAMPLE
    points = dict(zip(ids, pool))
    for anchor in sorted(pool, key=point_sort_key):
        if budget <= 0 or not equivalence_ok:
            break
        grouped: dict[tuple, list[tuple[int, int]]] = {}
        for key, nlen, mlen in germ_shapes(index[anchor]):
            grouped.setdefault(key, []).append((nlen, mlen))
        # the first `budget` pairs of combinations() use the first budget + 1 germs
        shapes = [(key, n, m) for key, nms in grouped.items() for n, m in nms][: budget + 1]
        tagged = [
            (key, Germ(prefix_path(g, points[key[2]], mlen), prefix_path(g, anchor, nlen), anchor))
            for key, nlen, mlen in shapes
        ]
        for (k1, a), (k2, b) in itertools.islice(itertools.combinations(tagged, 2), budget):
            budget -= 1
            if germ_equivalent(g, a, b) != (k1 == k2):
                equivalence_ok = False
                violations.append("germ_equivalent disagrees with the class normal form")
                break

    # At an isolated eventually periodic anchor two germs with one image
    # differ by whole turns around the period: their winding index is the
    # cocycle difference over the period, so the cocycles must agree mod the
    # period.  Antisymmetry and additivity of the index follow by arithmetic.
    period = {index[x]: len(x.period) for x in pool if not x.is_finite and is_isolated(g, x)}
    residues = {(x, alpha, k % period[x]) for x, k, alpha in classes if x in period}
    winding_ok = len(residues) == len({(x, alpha) for x, alpha, _ in residues})
    if not winding_ok:
        violations.append("cocycles with one image are not congruent mod the period")
    return PhiReport(
        bound=bound,
        pool_size=len(pool),
        pool_complete=complete,
        element_count=len(elements),
        class_count=len(classes),
        germ_count=sum(classes.values()),
        bijection_ok=bijection_ok,
        equivalence_ok=equivalence_ok,
        winding_ok=winding_ok,
        violations=violations,
    )

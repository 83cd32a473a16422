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
from typing import NamedTuple

from .boundary import (
    BoundaryPoint,
    boundary_census,
    bounded_points,
    drop_edges,
    is_isolated,
    prefix_path,
    prepend,
    starts_with,
    tail_class_sizes,
)
from .errors import CompositionError, InputError
from .graphs import Graph, Path
from .groupoid import GroupoidElement, _element_rows
from .pointtable import PointTable

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
    be the anchor of the first.  One of ``nu1``, ``mu2`` extends the other,
    and its extra edges go onto the other side (the other slice is empty):
    the paths merge along the shared point and the cocycles add."""
    if germ_apply(g, g2) != g1.x:
        raise CompositionError("germs do not compose: anchor mismatch")
    mu = g.path(g1.mu.edges + g2.mu.edges[g1.nu.length :], at=g1.mu.src)
    nu = g.path(g2.nu.edges + g1.nu.edges[g2.mu.length :], at=g2.nu.src)
    return germ_make(g, mu, nu, g2.x)


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
    boundary is finite, otherwise the first ``max_points`` points of the
    point order with preperiods of at most one edge and periods of at most
    ``max(3, min(bound, 4))`` edges (see :func:`bounded_points`).  The
    tail-class count decides finiteness, so an infinite boundary is never
    censused only to word its reason."""
    if tail_class_sizes(g) is not None:
        return list(boundary_census(g).points), True
    return bounded_points(g, max(3, min(bound, 4)), max_points), False


def _germs_agree(heads: list[tuple], x: int, period: int | None, a: tuple, b: tuple) -> bool:
    """`germ_equivalent` on point-table ids.  ``a`` and ``b`` are germs at
    the anchor ``x`` given as ``(|nu|, |mu|, alpha, image)``: ``mu`` is the
    first ``|mu|`` edges of the pool point ``alpha`` and ``nu`` the first
    ``|nu|`` of ``x``.  ``period`` is None at a non-isolated anchor, 0 at an
    isolated finite one and the period length at an isolated periodic one.
    ``heads[i]`` holds the first ``bound`` edges of the pool point ``i``."""
    if a[3] != b[3]:
        return False
    if period == 0:
        return True
    if period:
        # the winding index (k_a - k_b) / period vanishes iff the cocycles agree
        return a[1] - a[0] == b[1] - b[0]
    if a[0] > b[0]:
        a, b = b, a
    # the aligned path, mu_a followed by nu_b past nu_a, must be mu_b
    if a[1] + b[0] - a[0] != b[1]:
        return False
    return heads[a[2]][: a[1]] + heads[x][a[0] : b[0]] == heads[b[2]][: b[1]]


def phi_bijectivity_check(g: Graph, bound: int, max_points: int | None = 24) -> PhiReport:
    """Compare germ classes with groupoid elements over a common pool.

    Counts all germs ``(mu, nu, x)`` with path lengths <= bound whose anchor
    and image both lie in the pool, partitions them into classes, and
    checks that the class keys coincide with the enumerated elements
    ``(image, cocycle, anchor)`` and that each element's canonical germ lands
    in its own class.  Every germ is checked against `germ_equivalent`'s
    rule: its image must be the pool point it was enumerated for, it must
    be equivalent to its class's first germ, and every two classes at one
    anchor that share their image (or, at an isolated anchor, their
    cocycle) must be inequivalent.  At every isolated eventually periodic
    anchor the cocycles of one image are checked to be congruent mod the
    period, which is what makes the winding index an integer.  A negative
    bound is an input error.

    Points are compared as ids of one :class:`PointTable`, built for the
    call and dropped with it, and named by their pool positions: the
    elements are the rows of the groupoid's id-level join, which also walks
    the shift orbits, once each, and indexes their points.  The germ
    classes, the element keys, every germ's image (a cons-walk of its
    ``mu`` onto ``sigma^|nu|`` of its anchor) and the rule itself are all
    int and edge-tuple work, so neither a germ nor an element is built as a
    value.  A pool with more than
    ``CENSUS_LIMIT`` orbit points or germs within the bound is refused with
    an :class:`UnsupportedScaleError` before they are walked.
    """
    if bound < 0:
        raise InputError("the path-length bound must be a natural number")
    pool, complete = representable_pool(g, bound, max_points)
    table = PointTable(g)
    rows, orbits, meets = _element_rows(table, pool, bound)
    head, cons = table.head, table.cons
    # the first min(length, bound) edges of each pool point
    heads = [tuple(head[z] for z in orbit[:-1]) for orbit in orbits]
    violations: list[str] = []

    # Germ enumeration: nu is forced to be a prefix of x, and a germ whose
    # image alpha lies in the pool satisfies sigma^{|mu|}(alpha) = sigma^{|nu|}(x),
    # so the join's index of the shared tail gives alpha and |mu| without
    # enumerating mu itself.  The germ's image, mu consed back onto that
    # tail, depends on (alpha, |mu|) only and is walked once here.
    images = [list(orbit) for orbit in orbits]  # images[alpha][mlen]
    for alpha, orbit in enumerate(orbits):
        for mlen, z in enumerate(orbit):
            image = z
            for e in reversed(heads[alpha][:mlen]):
                image = cons(e, image)
            images[alpha][mlen] = image
    image_ok = all(orbit[0] == image for orbit, walked in zip(orbits, images) for image in walked)

    # One pass over the germs, anchor by anchor, builds the classes
    # (anchor, cocycle, alpha) and runs germ_equivalent's rule on ids.  The
    # first germ of a class has the least |nu|; every later one must agree
    # with it.  Then every two classes at the anchor that only the cocycle
    # (or winding) can tell apart, because they share an image, must
    # disagree; at an isolated anchor so must two that only the image can
    # tell apart, because they share a cocycle.  Other pairs differ in both.
    isolated = {a: len(x.period) for a, x in enumerate(pool) if is_isolated(g, x)}
    classes: set[tuple[int, int, int]] = set()
    germ_count = 0
    agree_ok = True
    for x, orbit in enumerate(orbits):
        period = isolated.get(x)
        first: dict[tuple[int, int], tuple[int, int, int, int]] = {}
        for nlen, z in enumerate(orbit):
            tails = meets[z]
            germ_count += len(tails)
            for alpha, mlen in tails:
                image = images[alpha][mlen]
                key = (mlen - nlen, alpha)
                rep = first.get(key)
                if rep is None:
                    first[key] = (nlen, mlen, alpha, image)
                elif not _germs_agree(heads, x, period, rep, (nlen, mlen, alpha, image)):
                    agree_ok = False
        classes.update((x, k, alpha) for k, alpha in first)
        by_image: dict[int, list[tuple[int, int, int, int]]] = {}
        by_cocycle: dict[int, list[tuple[int, int, int, int]]] = {}
        for (k, _), rep in first.items():
            by_image.setdefault(rep[3], []).append(rep)
            if period is not None:
                by_cocycle.setdefault(k, []).append(rep)
        for reps in itertools.chain(by_image.values(), by_cocycle.values()):
            for a, b in itertools.combinations(reps, 2):
                if _germs_agree(heads, x, period, a, b):
                    agree_ok = False
    equivalence_ok = image_ok and agree_ok

    # phi(e) exchanges the first m edges of x for the first n of y at the
    # anchor y; its class key is (y, m - n, image), the image being x's
    # first m edges consed onto sigma^n(y).  Consing is injective, so that
    # walk gives x only when sigma^n(y) = sigma^m(x), and then it is the
    # memoised image of (x, m).  Slices, so that a witness past the end of
    # an orbit fails instead of raising.
    element_keys = set()
    phi_ok = True
    for x, k, y, m, n in rows:
        element_keys.add((y, k, x))
        if phi_ok:
            met = orbits[x][m : m + 1] == orbits[y][n : n + 1]
            image = images[x][m : m + 1] if met else None
            phi_ok = (y, m - n, image) == (y, k, orbits[x][:1])
    bijection_ok = element_keys == classes and phi_ok
    for key in sorted(classes - element_keys)[:5]:
        violations.append(f"germ class without matching element: cocycle {key[1]}")
    for key in sorted(element_keys - classes)[:5]:
        violations.append(f"element without matching germ class: cocycle {key[1]}")
    if not phi_ok:
        violations.append("phi lands outside the expected class")
    if not equivalence_ok:
        violations.append("germ equivalence disagrees with the class normal form")

    # At an isolated eventually periodic anchor two germs with one image
    # differ by whole turns around the period: their winding index is the
    # cocycle difference over the period, so the cocycles must agree mod the
    # period.  Antisymmetry and additivity of the index follow by arithmetic.
    residues = {(x, alpha, k % isolated[x]) for x, k, alpha in classes if isolated.get(x)}
    winding_ok = len(residues) == len({(x, alpha) for x, alpha, _ in residues})
    if not winding_ok:
        violations.append("cocycles with one image are not congruent mod the period")
    return PhiReport(
        bound=bound,
        pool_size=len(pool),
        pool_complete=complete,
        element_count=len(rows),
        class_count=len(classes),
        germ_count=germ_count,
        bijection_ok=bijection_ok,
        equivalence_ok=equivalence_ok,
        winding_ok=winding_ok,
        violations=violations,
    )

"""The phi check as it was before the germ images were proved by one cons
per orbit edge: every germ's image walked out of its ``mu`` onto
``sigma^|nu|`` of its anchor, one cons per edge of every prefix of every
pool orbit.  Kept as the oracle that ``oeg.weyl.phi_bijectivity_check`` is
checked against, report for report.  The function is the old code verbatim;
it reads the library's pool, join and id-level germ rule."""

from __future__ import annotations

import itertools

from oeg.boundary import is_isolated
from oeg.errors import InputError
from oeg.graphs import Graph
from oeg.groupoid import _element_rows
from oeg.pointtable import PointTable
from oeg.weyl import PhiReport, _germs_agree, representable_pool


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
    bound or ``max_points`` is an input error.

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

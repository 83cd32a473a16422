"""Test oracle: the round-based colour refinement search that
``oeg.digraphs.isomorphism`` used before its splitter queue.

Every round recolours every vertex of the disjoint union from all its arcs,
so a long path needs about diameter-many rounds, each over every arc.  It
is kept here only to cross-check the library's verdicts."""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Sequence


def _refine(col: list[int], out: list[list[tuple[int, int]]],
            inn: list[list[tuple[int, int]]], n: int) -> list[int] | None:
    """Refine a colouring of the disjoint union of two n-vertex digraphs
    (vertices ``0..n-1``, then ``n..2n-1``) until it is stable or discrete:
    each vertex is recoloured by its colour and the multisets of (arc
    colour, neighbour colour) along its out- and in-arcs.  Colour ids are
    shared by both halves, so ``None`` as soon as the halves' class counts
    differ."""
    count = len(set(col))
    while True:
        table: dict[tuple, int] = {}
        col = [
            table.setdefault(
                (
                    col[v],
                    tuple(sorted([(a, col[w]) for w, a in out[v]])),
                    tuple(sorted([(a, col[w]) for w, a in inn[v]])),
                ),
                len(table),
            )
            for v in range(2 * n)
        ]
        if Counter(col[:n]) != Counter(col[n:]):
            return None
        # stable, or discrete: then the arc check in round_based_isomorphism()
        # decides whether the pairing of equal colours is an isomorphism
        if len(table) in (count, n):
            return col
        count = len(table)


def _branches(col: list[int], out, inn, n: int):
    """Individualise the first vertex of the first smallest non-singleton
    cell of the first digraph against each candidate of that cell in the
    second, and yield each refinement that survives."""
    cells = Counter(col[:n])
    _, cell = min((size, c) for c, size in cells.items() if size > 1)
    v = col.index(cell)
    fresh = len(cells)
    for w in range(n, 2 * n):
        if col[w] == cell:
            trial = col[:]
            trial[v] = trial[w] = fresh
            got = _refine(trial, out, inn, n)
            if got is not None:
                yield got


def round_based_isomorphism(
    colours1: Sequence[Hashable],
    arcs1: dict[tuple[int, int], int],
    colours2: Sequence[Hashable],
    arcs2: dict[tuple[int, int], int],
) -> list[int] | None:
    """An isomorphism of two vertex- and arc-coloured digraphs on vertices
    ``0..n-1``, as the list of images, or ``None``: the library's contract,
    searched depth-first over round-based refinements.  A discrete
    colouring pairs equal colours, and that bijection is checked against
    every arc."""
    n = len(colours1)
    if len(colours2) != n or len(arcs1) != len(arcs2):
        return None
    ids: dict[Hashable, int] = {}
    col = [ids.setdefault(c, len(ids)) for c in (*colours1, *colours2)]
    out: list[list[tuple[int, int]]] = [[] for _ in range(2 * n)]
    inn: list[list[tuple[int, int]]] = [[] for _ in range(2 * n)]
    for off, arcs in ((0, arcs1), (n, arcs2)):
        for (i, j), a in arcs.items():
            out[off + i].append((off + j, a))
            inn[off + j].append((off + i, a))
    found = _refine(col, out, inn, n)
    stack = []
    while True:
        if found is not None:
            if len(set(found[:n])) < n:
                stack.append(_branches(found, out, inn, n))
            else:
                image = {c: w for w, c in enumerate(found[n:])}
                phi = [image[c] for c in found[:n]]
                if all(colours1[i] == colours2[phi[i]] for i in range(n)) and all(
                    arcs2.get((phi[i], phi[j])) == a for (i, j), a in arcs1.items()
                ):
                    return phi
        if not stack:
            return None
        found = next(stack[-1], None)
        if found is None:
            stack.pop()

"""Algorithms on integer-indexed digraphs: the strongly connected
condensation of a graph with the bitset closure of its component DAG, and
isomorphism of vertex- and arc-coloured digraphs by colour refinement and
individualisation."""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Sequence
from typing import NamedTuple

from .graphs import Graph


class Condensation(NamedTuple):
    """Strongly connected components of a graph, closed under reachability.

    Components are numbered in the order Tarjan's pass completes them, so
    every component reachable from ``c`` has a smaller number.  ``comp[i]``
    is the component of the ``i``-th declared vertex, ``members[c]`` lists
    its vertex indices in declaration order, ``label[c]`` is ``(size,
    cyclic)`` with cyclic meaning size >= 2 or a self-loop, and bit ``d`` of
    ``reach[c]`` is set when a path of length >= 1 leads from ``c`` to ``d``.
    """

    comp: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    label: tuple[tuple[int, bool], ...]
    reach: tuple[int, ...]


def condensation(g: Graph) -> Condensation:
    """Iterative Tarjan SCC pass with the bitset closure of the condensation
    DAG, built as each component completes."""
    index = {v: i for i, v in enumerate(g.vertices)}
    n = len(g.vertices)
    succ: list[list[int]] = [[] for _ in range(n)]
    for c in g.edge_classes:
        succ[index[c.src]].append(index[c.dst])
    order = [-1] * n  # discovery number, -1 before the vertex is reached
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    members: list[tuple[int, ...]] = []
    label: list[tuple[int, bool]] = []
    reach: list[int] = []
    seen = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = seen
        seen += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if order[w] < 0:
                    order[w] = low[w] = seen
                    seen += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0:  # reached and not yet in a component: on the stack
                    low[v] = min(low[v], order[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == order[v]:
                    k = len(members)
                    scc = []
                    while True:
                        w = stack.pop()
                        comp[w] = k
                        scc.append(w)
                        if w == v:
                            break
                    # every other component this one reaches is complete
                    bits = 0
                    for x in scc:
                        for y in succ[x]:
                            d = comp[y]
                            bits |= 1 << d if d == k else reach[d] | 1 << d
                    members.append(tuple(sorted(scc)))
                    label.append((len(scc), bits >> k & 1 == 1))
                    reach.append(bits)
    return Condensation(tuple(comp), tuple(members), tuple(label), tuple(reach))


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
        # stable, or discrete: then the arc check in isomorphism() decides
        # whether the pairing of equal colours is an isomorphism
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


def isomorphism(
    colours1: Sequence[Hashable],
    arcs1: dict[tuple[int, int], int],
    colours2: Sequence[Hashable],
    arcs2: dict[tuple[int, int], int],
) -> list[int] | None:
    """An isomorphism of two vertex- and arc-coloured digraphs on vertices
    ``0..n-1``, as the list of images, or ``None``.

    Arcs map ``(i, j)`` to an integer arc colour.  Colour refinement plus
    individualisation (McKay and Piperno, *Practical graph isomorphism II*,
    2014), without automorphism pruning, searched depth-first on an explicit
    stack.  Refinement is polynomial; the search is exponential only on
    highly regular inputs.  A discrete colouring pairs equal colours, and
    that bijection is checked against every arc: it is returned if it
    passes, and its branch is dropped if not."""
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

"""Algorithms on integer-indexed digraphs: the strongly connected
condensation of a graph in one linear pass, the bitset closure and
transitive reduction of its component DAG for the callers that read them,
and isomorphism of vertex- and arc-coloured digraphs by colour refinement
with a splitter queue, which re-examines only the cells a split touches, and
individualisation."""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from typing import NamedTuple

from .graphs import Graph


class Condensation(NamedTuple):
    """Strongly connected components of a graph.

    Components are numbered in the order Tarjan's pass completes them, so
    every component reachable from ``c`` has a smaller number.  ``comp[i]``
    is the component of the ``i``-th declared vertex, ``members[c]`` lists
    its vertex indices in declaration order, and ``label[c]`` is ``(size,
    cyclic)`` with cyclic meaning size >= 2 or a self-loop: the component
    reaches itself by a path of length >= 1.
    """

    comp: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    label: tuple[tuple[int, bool], ...]


def condensation(g: Graph) -> Condensation:
    """Iterative Tarjan SCC pass (Tarjan, SIAM J. Comput. 1, 1972), linear
    in the vertices and classes."""
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
                    members.append(tuple(sorted(scc)))
                    label.append((len(scc), len(scc) > 1 or v in succ[v]))
    return Condensation(tuple(comp), tuple(members), tuple(label))


def closure(g: Graph) -> tuple[Condensation, tuple[int, ...], dict[tuple[int, int], int]]:
    """The condensation of ``g``, the bitset closure ``reach`` of its
    component DAG, and the arcs ``(c, d): 0`` of the DAG's transitive
    reduction.  Bit ``d`` of ``reach[c]`` is set when a path of length >= 1
    leads from ``c`` to ``d``, so bit ``c`` is ``label[c]``'s cyclic flag.
    Components reach only smaller numbers, so one loop in increasing order
    builds both: of ``c``'s direct successors, taken largest first, each
    one that none before it reaches is an arc, and its closure joins
    ``reach[c]``.  The closure is quadratic in the components."""
    cond = condensation(g)
    comp = dict(zip(g.vertices, cond.comp))
    direct = [0] * len(cond.members)  # bit d: an edge leads into component d
    for c in g.edge_classes:
        direct[comp[c.src]] |= 1 << comp[c.dst]
    reach: list[int] = []
    arcs: dict[tuple[int, int], int] = {}
    for c, bits in enumerate(direct):
        ds = bits & ~(1 << c)
        covered = 0
        while ds:
            d = ds.bit_length() - 1
            ds ^= 1 << d
            if not covered >> d & 1:
                arcs[c, d] = 0
                covered |= reach[d]
        reach.append(bits | covered)
    return cond, tuple(reach), arcs


def _refine(part: list[list[int]], queue: list[int], adj: list[list[tuple[int, int]]], n: int) -> bool:
    """Refine ``part`` in place until it is equitable, or return ``False``
    as soon as a cell holds unequal numbers of vertices from the two halves.

    ``part`` is ``[elems, pos, cell, start, size]``: a partition of the
    disjoint union of two n-vertex digraphs (vertices ``0..n-1``, then
    ``n..2n-1``) as one array ``elems`` in which each cell is the slice
    ``start[c]:start[c] + size[c]``, with ``pos`` and ``cell`` inverting it.
    ``queue`` holds the cells to split by, and ``adj[u]`` lists ``(x,
    weight)`` for the arcs at ``u``, the weight packing the arc's colour
    and direction into one bit field per count.  A splitter's arcs give
    each vertex they touch the sum of its weights, and each touched cell
    splits by those sums: its touched vertices move to the front of the
    slice, one run per sum, and the untouched rest stays where it is,
    unread.  A split cell that is queued queues every new part; one that is
    not queues all parts but a largest (Hopcroft's rule: a vertex's counts
    into the largest part are its counts into the old cell minus the rest).
    That is O((n + m) log n) (Berkholz, Bonsma and Grohe, Theory Comput.
    Syst. 60, 2017), and the result is the coarsest equitable refinement,
    whatever the queue order."""
    elems, pos, cell, start, size = part
    queued = set(queue)
    while queue:
        s = queue.pop()
        queued.discard(s)
        b = start[s]
        key: dict[int, int] = {}
        for u in elems[b:b + size[s]]:
            for x, w in adj[u]:
                key[x] = key.get(x, 0) + w
        touched: dict[int, list[int]] = {}
        for x in key:
            touched.setdefault(cell[x], []).append(x)
        for c, xs in touched.items():
            runs: dict[int, list[int]] = {}
            for x in xs:
                runs.setdefault(key[x], []).append(x)
            rest = size[c] - len(xs)
            if not rest and len(runs) == 1:
                continue
            at = start[c]
            pieces = []
            for run in runs.values():
                first = at
                for x in run:
                    y, p = elems[at], pos[x]
                    elems[p], pos[y] = y, p
                    elems[at], pos[x] = x, at
                    at += 1
                if 2 * sum(x < n for x in run) != len(run):
                    return False
                pieces.append((first, run))
            if rest:  # the untouched part keeps the cell's number
                start[c], size[c] = at, rest
            else:
                start[c], run = pieces.pop()
                size[c] = len(run)
            parts = [(size[c], c)]
            for first, run in pieces:
                d = len(start)
                start.append(first)
                size.append(len(run))
                for x in run:
                    cell[x] = d
                parts.append((len(run), d))
            if c not in queued:
                parts.remove(max(parts))
            for _, d in parts:
                if d not in queued:
                    queued.add(d)
                    queue.append(d)
    return True


def _branches(part: list[list[int]], adj, n: int):
    """Take the first smallest cell with more than one vertex of each
    digraph, and individualise its first vertex of the first digraph against
    each of its vertices of the second: split the pair off a copy of the
    partition as a cell of its own, queue only that cell (the partition was
    equitable with respect to the old cell, so the rest of it follows), and
    yield each refinement that survives."""
    elems, _, _, start, size = part
    _, c = min((s, c) for c, s in enumerate(size) if s > 2)
    b = start[c]
    members = elems[b:b + size[c]]
    v = next(x for x in members if x < n)
    for w in members:
        if w < n:
            continue
        trial = [a[:] for a in part]
        e, pos, cell, st, sz = trial
        for x, at in ((v, b), (w, b + 1)):
            y, p = e[at], pos[x]
            e[p], pos[y] = y, p
            e[at], pos[x] = x, at
        d = len(st)
        st.append(b)
        sz.append(2)
        st[c] += 2
        sz[c] -= 2
        cell[v] = cell[w] = d
        if _refine(trial, [d], adj, n):
            yield trial


def isomorphism(
    colours1: Sequence[Hashable],
    arcs1: dict[tuple[int, int], int],
    colours2: Sequence[Hashable],
    arcs2: dict[tuple[int, int], int],
) -> list[int] | None:
    """An isomorphism of two vertex- and arc-coloured digraphs on vertices
    ``0..n-1``, as the list of images, or ``None``.

    Arcs map ``(i, j)`` to an integer arc colour.  Colour refinement with a
    splitter queue (``_refine``) on the disjoint union of the two digraphs,
    plus individualisation (McKay and Piperno, *Practical graph isomorphism
    II*, 2014), without automorphism pruning, searched depth-first on an
    explicit stack.  Cells start as the vertex colour classes and only
    split, and a cell with unequal halves ends its branch.  Refinement is
    O((n + m) log n); the search is exponential only on highly regular
    inputs.  A discrete partition pairs the two vertices of each cell, and
    that bijection is checked against every arc: it is returned if it
    passes, and its branch is dropped if not."""
    n = len(colours1)
    if len(colours2) != n or len(arcs1) != len(arcs2):
        return None
    classes: dict[Hashable, list[int]] = {}
    for v, c in enumerate((*colours1, *colours2)):
        classes.setdefault(c, []).append(v)
    elems: list[int] = []
    start: list[int] = []
    size: list[int] = []
    cell = [0] * (2 * n)
    for c, members in enumerate(classes.values()):
        h, odd = divmod(len(members), 2)  # members ascend: first half first
        if odd or members[h - 1] >= n or members[h] < n:
            return None
        start.append(len(elems))
        size.append(len(members))
        elems += members
        for v in members:
            cell[v] = c
    pos = [0] * (2 * n)
    for p, v in enumerate(elems):
        pos[v] = p
    # one bit field per arc colour and direction, wide enough for a count
    # of at most n arcs
    shift = n.bit_length()
    codes: dict[int, int] = {}
    adj: list[list[tuple[int, int]]] = [[] for _ in range(2 * n)]
    for off, arcs in ((0, arcs1), (n, arcs2)):
        for (i, j), a in arcs.items():
            k = 2 * shift * codes.setdefault(a, len(codes))
            adj[off + i].append((off + j, 1 << k))
            adj[off + j].append((off + i, 1 << k + shift))
    part = [elems, pos, cell, start, size]
    found = part if _refine(part, list(range(len(start))), adj, n) else None
    stack = []
    while True:
        if found is not None:
            elems, _, _, start, _ = found
            if len(start) < n:
                stack.append(_branches(found, adj, n))
            else:
                phi = [0] * n
                for b in start:
                    v, w = sorted(elems[b:b + 2])
                    phi[v] = w - n
                if all(arcs2.get((phi[i], phi[j])) == a for (i, j), a in arcs1.items()):
                    return phi
        if not stack:
            return None
        found = next(stack[-1], None)
        if found is None:
            stack.pop()

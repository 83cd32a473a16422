"""Independent oracles for the benchmark's expected answers.

Nothing here imports ``oeg``.  Each oracle works on the benchmark's own
``GraphSpec`` records (or plain lists) by a method unrelated to the
library's: path counting over the acyclic part instead of a census walk,
``Fraction`` elimination instead of Bareiss, breadth-first search instead of
Floyd-Warshall, and verdicts known from how an input was constructed.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from inputs import INF, GraphSpec


def _degrees(g: GraphSpec) -> dict[str, float]:
    deg = {v: 0 for v in g.vertices}
    for _, src, _, mult in g.classes:
        deg[src] += float("inf") if mult == INF else mult
    return deg


def finite_boundary(g: GraphSpec) -> bool:
    """The boundary space is finite iff no class is infinite and no cycle
    passes through a vertex of out-degree >= 2."""
    if any(mult == INF for *_, mult in g.classes):
        return False
    deg = _degrees(g)
    succ = {v: set() for v in g.vertices}
    for _, src, dst, _ in g.classes:
        succ[src].add(dst)
    for u in g.vertices:
        if deg[u] < 2:
            continue
        seen, todo = set(), list(succ[u])
        while todo:
            w = todo.pop()
            if w == u:
                return False
            if w not in seen:
                seen.add(w)
                todo.extend(succ[w])
    return True


def tail_class_sizes(g: GraphSpec) -> list[int]:
    """Sorted sizes of the shift-tail classes of a finite boundary space.

    Every cycle is exitless there, so a point is a path that either ends at a
    sink or enters a cycle (and then goes round it forever).  The points with
    a given tail are counted as paths ending at that sink, or first entering
    that cycle, by dynamic programming over the acyclic remainder.
    """
    if not finite_boundary(g):
        raise ValueError("the boundary space is infinite")
    out = {v: [] for v in g.vertices}
    into = {v: [] for v in g.vertices}
    for _, src, dst, mult in g.classes:
        out[src].append(dst)
        into[dst].append((src, mult))
    cycle_of: dict[str, int] = {}
    cycles: list[list[str]] = []
    for v in g.vertices:
        if v in cycle_of or len(out[v]) != 1:
            continue
        path, u = [], v
        while len(out[u]) == 1 and u not in path and u not in cycle_of:
            path.append(u)
            u = out[u][0]
        if u in path:
            cyc = path[path.index(u):]
            for w in cyc:
                cycle_of[w] = len(cycles)
            cycles.append(cyc)
    # paths ending at w that avoid every cycle vertex, memoised iteratively
    ending: dict[str, int] = {}
    for root in g.vertices:
        if root in cycle_of or root in ending:
            continue
        stack = [root]
        while stack:
            w = stack[-1]
            pending = [s for s, _ in into[w] if s not in cycle_of and s not in ending]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            if w not in ending:
                ending[w] = 1 + sum(m * ending[s] for s, m in into[w] if s not in cycle_of)
    sizes = [ending[v] for v in g.vertices if not out[v]]
    for cyc in cycles:
        sizes.append(sum(1 + sum(m * ending[s] for s, m in into[c] if s not in cycle_of) for c in cyc))
    return sorted(sizes)


def census_size(g: GraphSpec) -> int:
    """Number of boundary points of a finite boundary space; for out-degree
    <= 1 it equals the vertex count (one path from each vertex)."""
    return sum(tail_class_sizes(g))


def oe_verdict(e: GraphSpec, f: GraphSpec) -> bool:
    """Finite boundary spaces are orbit equivalent exactly when their
    multisets of tail-class sizes agree (basin sizes for out-degree <= 1)."""
    return tail_class_sizes(e) == tail_class_sizes(f)


def det_i_minus_a(g: GraphSpec) -> int:
    """det(I - A) by Gaussian elimination over the rationals."""
    index = {v: i for i, v in enumerate(g.vertices)}
    n = len(g.vertices)
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _, src, dst, mult in g.classes:
        if mult == INF:
            raise ValueError("no adjacency matrix with infinite classes")
        m[index[src]][index[dst]] -= mult
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        row_c = m[c]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                f = m[r][c] / row_c[c]
                row_r = m[r]
                for k in range(c, n):
                    if row_c[k]:
                        row_r[k] -= f * row_c[k]
    return int(det)


def reachable_pairs(g: GraphSpec) -> frozenset[tuple[str, str]]:
    """Ordered pairs joined by a path of length >= 1, by BFS from each vertex."""
    succ = {v: set() for v in g.vertices}
    for _, src, dst, _ in g.classes:
        succ[src].add(dst)
    pairs = set()
    for v in g.vertices:
        seen, todo = set(), deque(succ[v])
        while todo:
            w = todo.popleft()
            if w not in seen:
                seen.add(w)
                todo.extend(succ[w])
        pairs.update((v, w) for w in seen)
    return frozenset(pairs)


def weak_components(g: GraphSpec) -> int:
    nbr = {v: set() for v in g.vertices}
    for _, src, dst, _ in g.classes:
        nbr[src].add(dst)
        nbr[dst].add(src)
    seen, count = set(), 0
    for v in g.vertices:
        if v in seen:
            continue
        count += 1
        todo = [v]
        while todo:
            w = todo.pop()
            if w not in seen:
                seen.add(w)
                todo.extend(nbr[w])
    return count


def amplified_verdict(e: GraphSpec, f: GraphSpec, relabelling: dict[str, str] | None) -> bool:
    """Construction-known verdict for amplified orbit equivalence, which holds
    iff the reachability relations are isomorphic.  A "yes" pair comes with
    the relabelling that built it, checked here to carry reachability onto
    reachability; a "no" pair must differ in its number of components."""
    if relabelling is not None:
        image = frozenset((relabelling[a], relabelling[b]) for a, b in reachable_pairs(e))
        if image != reachable_pairs(f):
            raise ValueError("the relabelling does not carry reachability")
        return True
    if weak_components(e) == weak_components(f):
        raise ValueError("construction gives no verdict for this pair")
    return False


def minimal_exponents(x: list[str], y: list[str], k: int) -> tuple[int, int]:
    """For finite points given as edge lists ending at the same sink, the
    least (m, n) with m - n = k and equal tails after dropping m and n edges."""
    common = 0
    while common < min(len(x), len(y)) and x[-1 - common] == y[-1 - common]:
        common += 1
    m, n = len(x) - common, len(y) - common
    if m - n != k:
        raise ValueError("the points are not shift equivalent at this cocycle")
    return m, n

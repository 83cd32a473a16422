"""A small zoo of standing example graphs used in tests and demos, and the
exhaustive pool of small graphs that the surveys and property tests sweep."""

from __future__ import annotations

import functools
import itertools

from .graphs import INF, Graph


def arrow_into_loop() -> Graph:
    """An edge ``a: u -> v`` feeding a single loop ``b`` at ``v``.  The
    boundary has two points and the loop has no exit."""
    return Graph(["u", "v"], [("a", "u", "v", 1), ("b", "v", "v", 1)])


def two_cycle() -> Graph:
    """A two-vertex cycle ``c: p -> q``, ``d: q -> p``; the boundary is the
    two-point orbit of the cycle."""
    return Graph(["p", "q"], [("c", "p", "q", 1), ("d", "q", "p", 1)])


def full_shift_two() -> Graph:
    """Both vertices see both vertices: every entry of the adjacency matrix
    is 1 (the full 2-shift presentation)."""
    return Graph(
        ["1", "2"],
        [
            ("a11", "1", "1", 1),
            ("a12", "1", "2", 1),
            ("a21", "2", "1", 1),
            ("a22", "2", "2", 1),
        ],
    )


def chained_loops_four() -> Graph:
    """Four vertices in a chain of 2-cycles with loops at both ends and at
    the middle pair; adjacency [[1,1,0,0],[1,1,1,0],[0,1,1,1],[0,0,1,1]]."""
    edges = []
    adj = [
        (1, 1), (1, 2),
        (2, 1), (2, 2), (2, 3),
        (3, 2), (3, 3), (3, 4),
        (4, 3), (4, 4),
    ]
    for i, j in adj:
        edges.append((f"e{i}{j}", str(i), str(j), 1))
    return Graph(["1", "2", "3", "4"], edges)


def lone_vertex() -> Graph:
    """One vertex, no edges; the boundary is the single empty path."""
    return Graph(["v"])


def lone_loop() -> Graph:
    """One vertex with a single loop; the boundary is one periodic point."""
    return Graph(["w"], [("e", "w", "w", 1)])


def amplified_arrow_loop() -> Graph:
    """The arrow-into-loop graph with both classes made infinite, with the
    conventional class names ``A`` and ``B``."""
    return Graph(["u", "v"], [("A", "u", "v", INF), ("B", "v", "v", INF)])


@functools.cache
def iter_small_graphs(max_v: int) -> tuple[Graph, ...]:
    """All graphs on <= max_v vertices with class multiplicities <= 2 (at
    most one class per ordered pair), deduplicated up to vertex permutation.
    Built once per ``max_v`` and shared, as a ``Graph`` is immutable."""
    pool = []
    for k in range(1, max_v + 1):
        seen = set()
        perms = list(itertools.permutations(range(k)))
        for combo in itertools.product(range(3), repeat=k * k):
            canon = min(tuple(tuple(combo[p[i] * k + p[j]] for j in range(k)) for i in range(k)) for p in perms)
            if canon in seen:
                continue
            seen.add(canon)
            verts = [f"w{i}" for i in range(k)]
            classes = [(f"e{i}_{j}", verts[i], verts[j], canon[i][j]) for i in range(k) for j in range(k) if canon[i][j]]
            pool.append(Graph(verts, classes))
    return tuple(pool)

"""Deterministic random generators for graphs, partitions and cylinder
covers, used by the property suites."""

from __future__ import annotations

import random

from sample_oracle import capped_out_edges, reference_bounded_points
from oeg.boundary import BoundaryPoint, CylinderSet, make_cylinder
from oeg.graphs import INF, Edge, EdgeClass, Graph
from oeg.moves import Block, OutSplitPartition


def random_graph(
    rng: random.Random,
    max_vertices: int = 5,
    max_mult: int = 2,
    edge_prob: float = 0.4,
    inf_prob: float = 0.0,
) -> Graph:
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    classes = []
    for i, v in enumerate(vertices):
        for j, w in enumerate(vertices):
            if rng.random() >= edge_prob:
                continue
            mult: int | float = INF if rng.random() < inf_prob else rng.randint(1, max_mult)
            classes.append(EdgeClass(f"e{i}_{j}", v, w, mult))
    return Graph(vertices, classes)


def random_functional_graph(rng: random.Random, max_vertices: int = 5) -> Graph:
    """Graphs with out-degree <= 1 everywhere: their boundary spaces are
    always finite."""
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    classes = []
    for i, v in enumerate(vertices):
        if rng.random() < 0.25:
            continue  # leave a sink
        j = rng.randrange(n)
        classes.append(EdgeClass(f"e{i}", v, vertices[j], 1))
    return Graph(vertices, classes)


def chain_graph(n: int) -> Graph:
    """The directed path v0 -> v1 -> ... -> v(n-1), ending at a sink: n
    boundary points holding n(n-1)/2 edges."""
    vertices = [f"v{i}" for i in range(n)]
    return Graph(vertices, [(f"e{i}", vertices[i], vertices[i + 1], 1) for i in range(n - 1)])


def random_forest(rng: random.Random, n: int) -> Graph:
    """A functional graph of random recursive trees: the first four vertices
    in a shuffled order are sinks and loops in turn, and every later vertex
    points to a uniformly chosen earlier one."""
    order = list(range(n))
    rng.shuffle(order)
    vertices = [f"v{i}" for i in range(n)]
    classes = []
    for k, v in enumerate(order):
        if k >= 4:
            classes.append(EdgeClass(f"e{v}", vertices[v], vertices[order[rng.randrange(k)]], 1))
        elif k % 2:
            classes.append(EdgeClass(f"e{v}", vertices[v], vertices[v], 1))
    return Graph(vertices, classes)


def random_proper_partition(rng: random.Random, g: Graph) -> OutSplitPartition:
    """A random proper partition of every non-sink vertex's out-edges; all
    infinite classes of a vertex land in one block."""
    blocks: dict[str, tuple[Block, ...]] = {}
    for v in g.vertices:
        out = g.out_classes(v)
        if not out:
            continue
        finite_edges = [
            Edge(c.cid, i) for c in out if not c.is_infinite for i in range(c.mult)
        ]
        inf_classes = [c.cid for c in out if c.is_infinite]
        n_cells = rng.randint(1, max(1, min(3, len(finite_edges) + (1 if inf_classes else 0))))
        cells: list[tuple[set, set]] = [(set(), set()) for _ in range(n_cells)]
        for e in finite_edges:
            cells[rng.randrange(n_cells)][0].add(e)
        if inf_classes:
            cells[rng.randrange(n_cells)][1].update(inf_classes)
        filled = [Block(frozenset(a), frozenset(b)) for a, b in cells if a or b]
        blocks[v] = tuple(filled)
    return OutSplitPartition(blocks)


def random_cylinders(
    rng: random.Random,
    g: Graph,
    count: int,
    max_base: int = 3,
    max_excluded: int = 2,
    inf_cap: int = 3,
) -> list[CylinderSet]:
    """Random cylinder sets built by forward walks plus random exclusions."""
    out = []
    for _ in range(count):
        v = rng.choice(g.vertices)
        edges = []
        for _ in range(rng.randint(0, max_base)):
            options = list(capped_out_edges(g, v, inf_cap))
            if not options:
                break
            e = rng.choice(options)
            edges.append(e)
            v = g.edge_dst(e)
        base = g.path(edges) if edges else g.path((), at=v)
        options = list(capped_out_edges(g, base.dst, inf_cap))
        rng.shuffle(options)
        excluded = options[: rng.randint(0, min(max_excluded, len(options)))]
        out.append(make_cylinder(g, base, excluded))
    return out


def sample_points(
    g: Graph,
    pre_len: int = 4,
    per_len: int = 3,
    inf_cap: int = 2,
    limit: int | None = 200,
) -> list[BoundaryPoint]:
    """A point sample deeper and wider than the library's, which has
    preperiods of at most one edge: the reference sample."""
    return reference_bounded_points(g, pre_len, per_len, inf_cap, limit)

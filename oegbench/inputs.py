"""Seeded input generators for the benchmark.

Nothing here imports ``oeg``: graphs are plain ``GraphSpec`` records that the
benchmark writes as DSL text and hands to ``oeg.dsl.parse_graph``; points and
partitions are generated as DSL text too.  The same ``random.Random`` seed
always yields the same specs and texts.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

INF = "inf"


@dataclass(frozen=True)
class GraphSpec:
    name: str
    vertices: tuple[str, ...]
    classes: tuple[tuple[str, str, str, object], ...]  # (cid, src, dst, mult | "inf")

    def out(self) -> dict[str, list[tuple[str, str, object]]]:
        out: dict[str, list[tuple[str, str, object]]] = {v: [] for v in self.vertices}
        for cid, src, dst, mult in self.classes:
            out[src].append((cid, dst, mult))
        return out


def dsl_text(g: GraphSpec) -> str:
    """The graph in the line-based description language of ``oeg.dsl``."""
    lines = [f"graph {g.name}", "vertex " + ", ".join(g.vertices)]
    for cid, src, dst, mult in g.classes:
        tag = "" if mult == 1 else f" * {mult}"
        lines.append(f"edge {cid}{tag}: {src} -> {dst}")
    return "\n".join(lines) + "\n"


def edge_token(cid: str, mult, idx: int) -> str:
    return cid if mult == 1 else f"{cid}[{idx}]"


# -- relabelling ---------------------------------------------------------------


def relabel(rng: random.Random, g: GraphSpec, name: str, vprefix: str) -> tuple[GraphSpec, dict[str, str]]:
    """A copy with vertices renamed by a random permutation, classes renamed
    after their new endpoints and both lists shuffled; returns the vertex map."""
    names = [f"{vprefix}{i}" for i in range(len(g.vertices))]
    rng.shuffle(names)
    vmap = dict(zip(g.vertices, names))
    classes = [
        (f"{vprefix}{cid}", vmap[src], vmap[dst], mult) for cid, src, dst, mult in g.classes
    ]
    rng.shuffle(classes)
    verts = sorted(vmap.values(), key=lambda s: int(s[len(vprefix):]))
    return GraphSpec(name, tuple(verts), tuple(classes)), vmap


# -- the exhaustive small pool -------------------------------------------------


def small_pool(max_v: int = 3, max_mult: int = 2) -> list[tuple[tuple[int, ...], ...]]:
    """Adjacency matrices of every graph on <= max_v vertices with
    multiplicities <= max_mult, one per isomorphism class (the least matrix
    under vertex permutation)."""
    out = []
    for k in range(1, max_v + 1):
        perms = [
            [p[i] * k + p[j] for i in range(k) for j in range(k)]
            for p in itertools.permutations(range(k))
        ]
        for combo in itertools.product(range(max_mult + 1), repeat=k * k):
            if min(tuple(combo[t] for t in idx) for idx in perms) == combo:
                out.append(tuple(combo[i * k : (i + 1) * k] for i in range(k)))
    return out


def matrix_graph(rng: random.Random, mat, name: str) -> GraphSpec:
    """A pool matrix as a graph with seeded vertex and class names."""
    k = len(mat)
    base = GraphSpec(
        name,
        tuple(f"w{i}" for i in range(k)),
        tuple((f"e{i}_{j}", f"w{i}", f"w{j}", mat[i][j]) for i in range(k) for j in range(k) if mat[i][j]),
    )
    return relabel(rng, base, name, rng.choice("pqrstu"))[0]


# -- functional graphs (out-degree <= 1) ----------------------------------------


def random_successors(rng: random.Random, n: int, sink_prob: float = 0.25) -> list[int | None]:
    return [None if rng.random() < sink_prob else rng.randrange(n) for _ in range(n)]


def functional_graph(succ: list[int | None], name: str, vprefix: str = "v") -> GraphSpec:
    verts = tuple(f"{vprefix}{i}" for i in range(len(succ)))
    classes = tuple(
        (f"a{i}", verts[i], verts[j], 1) for i, j in enumerate(succ) if j is not None
    )
    return GraphSpec(name, verts, classes)


def shaped_successors(rng: random.Random, basins: tuple[tuple[int, int], ...]) -> list[int | None]:
    """A functional graph whose basins are chains: ``(size, cycle)`` gives a
    basin of ``size`` vertices ending at a sink (cycle 0) or at a cycle of
    that length.  The vertex order is shuffled."""
    n = sum(size for size, _ in basins)
    order = list(range(n))
    rng.shuffle(order)
    succ: list[int | None] = [None] * n
    k = 0
    for size, cyc in basins:
        seg = order[k : k + size]
        k += size
        for a, b in zip(seg, seg[1:]):
            succ[a] = b
        if cyc:
            succ[seg[-1]] = seg[size - cyc]
    return succ


def shape_menu(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Every basin shape on n vertices for ``shaped_successors``: a multiset
    of chain basins, each ending at a sink or at a cycle of length <= 3, in
    a fixed order."""

    def parts(rest: int, most: int):
        if rest == 0:
            yield ()
        for p in range(min(rest, most), 0, -1):
            for tail in parts(rest - p, p):
                yield (p,) + tail

    menu = set()
    for ps in parts(n, n):
        for ends in itertools.product(*[range(min(p, 3) + 1) for p in ps]):
            menu.add(tuple(sorted(zip(ps, ends), reverse=True)))
    return sorted(menu)


def forest_successors(rng: random.Random, n: int, basins: int) -> list[int | None]:
    """A random functional graph of shallow random recursive trees: the first
    ``basins`` vertices are sinks or loops, every later vertex points to a
    uniformly chosen earlier one.  Vertex order is shuffled."""
    order = list(range(n))
    rng.shuffle(order)
    succ: list[int | None] = [None] * n
    for k, v in enumerate(order):
        if k < basins:
            succ[v] = v if k % 2 else None
        else:
            succ[v] = order[rng.randrange(k)]
    return succ


def chain_graph(n: int, name: str, rng: random.Random) -> GraphSpec:
    """A directed path on n vertices ending at a sink, vertex names shuffled."""
    names = [f"c{i}" for i in range(n)]
    rng.shuffle(names)
    classes = tuple((f"x{i}", names[i], names[i + 1], 1) for i in range(n - 1))
    return GraphSpec(name, tuple(sorted(names, key=lambda s: int(s[1:]))), classes)


def basin_sizes(succ: list[int | None]) -> list[int]:
    """Sizes of the basins of a functional graph's sinks and cycles (no oeg)."""
    term = {}
    for v in range(len(succ)):
        seen: dict[int, int] = {}
        u = v
        while u is not None and u not in seen:
            seen[u] = len(seen)
            u = succ[u]
        if u is None:
            key = ("sink", list(seen)[-1])
        else:
            key = ("cycle", min(x for x, i in seen.items() if i >= seen[u]))
        term[key] = term.get(key, 0) + 1
    return sorted(term.values())


def point_texts_functional(g: GraphSpec) -> dict[str, str]:
    """For a functional graph, the DSL text of the unique boundary path from
    each vertex (canonical: the preperiod stops at the first cycle vertex)."""
    out = g.out()
    succ = {v: (out[v][0][0], out[v][0][1]) if out[v] else None for v in g.vertices}
    texts = {}
    for v in g.vertices:
        edges, seen, u = [], {}, v
        while succ[u] is not None and u not in seen:
            seen[u] = len(edges)
            cid, w = succ[u]
            edges.append(cid)
            u = w
        if succ[u] is None:
            texts[v] = ".".join(edges) if edges else f"@{v}"
        else:
            i = seen[u]
            pre, per = edges[:i], edges[i:]
            texts[v] = (".".join(pre) + "." if pre else "") + "(" + ".".join(per) + ")*"
    return texts


# -- 3-regular bipartite graphs (edges from part A to part B) --------------------


def _cubic_bipartite_edges(rng: random.Random, h: int) -> set[tuple[int, int]]:
    while True:
        edges: set[tuple[int, int]] = set()
        for _ in range(3):
            p = list(range(h))
            rng.shuffle(p)
            edges.update((i, p[i]) for i in range(h))
        if len(edges) == 3 * h and _components(h, edges) == 1:
            return edges


def _components(h: int, edges) -> int:
    parent = list(range(2 * h))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(h + b)
    return len({find(x) for x in range(2 * h)})


def cubic_bipartite(rng: random.Random, parts: tuple[int, ...], name: str) -> GraphSpec:
    """Disjoint connected 3-regular bipartite components with the given
    vertex counts; every edge points from side A to side B, so the
    reachability relation is the edge relation itself.  Names are shuffled
    within each side; side A is declared before side B, the natural layout
    of a bipartite graph."""
    total = sum(parts) // 2
    pa, pb = list(range(total)), list(range(total))
    rng.shuffle(pa)
    rng.shuffle(pb)
    classes = []
    off = 0
    for size in parts:
        h = size // 2
        for i, j in _cubic_bipartite_edges(rng, h):
            a, b = pa[i + off], pb[j + off]
            classes.append((f"e{a}_{b}", f"a{a}", f"b{b}", 1))
        off += h
    rng.shuffle(classes)
    verts = tuple(f"a{i}" for i in range(total)) + tuple(f"b{j}" for j in range(total))
    return GraphSpec(name, verts, tuple(classes))


# -- general random graphs, partitions and points -------------------------------


def random_digraph(rng: random.Random, n: int, out_deg: float, name: str) -> GraphSpec:
    verts = tuple(f"v{i}" for i in range(n))
    p = out_deg / n
    classes = tuple(
        (f"e{i}_{j}", verts[i], verts[j], rng.randint(1, 2))
        for i in range(n)
        for j in range(n)
        if rng.random() < p
    )
    return GraphSpec(name, verts, classes)


def out_regular_digraph(rng: random.Random, n: int, out_deg: int, name: str) -> GraphSpec:
    """Every vertex has ``out_deg`` classes of multiplicity 1 or 2 to
    distinct random targets, itself included."""
    verts = tuple(f"v{i}" for i in range(n))
    classes = tuple(
        (f"e{i}_{j}", verts[i], verts[j], rng.randint(1, 2))
        for i in range(n)
        for j in sorted(rng.sample(range(n), out_deg))
    )
    return GraphSpec(name, verts, classes)


def random_small_graph(rng: random.Random, n: int, inf_prob: float, name: str) -> GraphSpec:
    """A random multigraph on n vertices in which some classes are infinite;
    retried until it has at least one edge."""
    while True:
        verts = tuple(f"v{i}" for i in range(n))
        classes = []
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.45:
                    mult = INF if rng.random() < inf_prob else rng.randint(1, 2)
                    classes.append((f"e{i}_{j}", verts[i], verts[j], mult))
        if classes:
            return GraphSpec(name, verts, tuple(classes))


def partition_text(rng: random.Random, g: GraphSpec) -> str:
    """A random proper out-split partition in the partition-file format:
    finite edges are dealt to up to three blocks, infinite classes go whole
    into one block."""
    lines = []
    for v, outs in g.out().items():
        if not outs:
            continue
        fin = [edge_token(cid, m, i) for cid, _, m in outs if m != INF for i in range(m)]
        inf = [cid for cid, _, m in outs if m == INF]
        cells: list[list[str]] = [[] for _ in range(rng.randint(1, max(1, min(3, len(fin) + bool(inf)))))]
        for tok in fin:
            cells[rng.randrange(len(cells))].append(tok)
        if inf:
            cells[rng.randrange(len(cells))].extend(inf)
        blocks = ["{" + ",".join(c) + "}" for c in cells if c]
        lines.append(f"split {v}: " + " | ".join(blocks))
    return "\n".join(lines) + "\n"


def random_point_text(rng: random.Random, g: GraphSpec, max_len: int, inf_cap: int = 3) -> str:
    """A random boundary path as DSL text: a walk that stops at a sink, may
    stop at an infinite emitter, and otherwise closes into a period the first
    time it revisits a vertex (walks longer than max_len are redrawn)."""
    out = g.out()
    while True:
        v = rng.choice(g.vertices)
        start, toks, seen = v, [], {}
        while len(toks) <= max_len:
            outs = out[v]
            emitter = any(m == INF for _, _, m in outs)
            if not outs or (emitter and rng.random() < 0.3):
                return ".".join(toks) if toks else f"@{start}"
            if v in seen:
                i = seen[v]
                pre, per = toks[:i], toks[i:]
                return (".".join(pre) + "." if pre else "") + "(" + ".".join(per) + ")*"
            seen[v] = len(toks)
            cid, dst, m = rng.choice(outs)
            toks.append(edge_token(cid, m, rng.randrange(inf_cap if m == INF else m)))
            v = dst


def amplified_small_graph(rng: random.Random, name: str) -> GraphSpec:
    """A graph on 2 or 3 vertices whose classes are all infinite, with an
    edge into a vertex that itself emits an edge (so a length-2 pattern
    exists)."""
    while True:
        n = rng.randint(2, 3)
        verts = tuple(f"v{i}" for i in range(n))
        classes = tuple(
            (f"e{i}_{j}", verts[i], verts[j], INF)
            for i in range(n)
            for j in range(n)
            if rng.random() < 0.55
        )
        g = GraphSpec(name, verts, classes)
        if pattern_options(g):
            return g


def pattern_options(g: GraphSpec) -> list[tuple[str, str]]:
    """Length-2 patterns whose second edge is not parallel to the first, so
    rewriting occurrences never overlap."""
    return [
        (c1, c2)
        for c1, s1, d1, _ in g.classes
        for c2, s2, d2, _ in g.classes
        if s2 == d1 and (s2, d2) != (s1, d1)
    ]

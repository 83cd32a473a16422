"""Time of ``decide_amplified_oe`` against graph size.

For three families of graphs this decides each graph against a relabelled
copy ("yes") once per pass, for K passes in one process:

  * directed paths of the given sizes;
  * random layered DAGs whose components are lone vertices, loops and
    2-cycles, each with one to three arcs into the next three layers;
  * connected 3-regular bipartite graphs of 12 to 30 vertices (every edge
    from side A to side B), each also against one split into two
    components of the same size ("no").

It prints, per decision, the family, the vertex and component counts, the
arcs of the reduced component DAG that the decision compares, the verdict
and the median time over the passes.

Run:  PYTHONPATH=src python scripts/amplified_curve.py [--passes K] [SIZE ...]

The default path sizes are 300, 600, 1200, 2500, 5000 and 10,000 vertices,
and K is 5.
"""

from __future__ import annotations

import argparse
import random
import statistics
import time

from oeg.digraphs import closure
from oeg.graphs import Graph
from oeg.moves import decide_amplified_oe


def path(n: int) -> Graph:
    vertices = [f"v{i}" for i in range(n)]
    return Graph(vertices, [(f"e{i}", vertices[i], vertices[i + 1], 1) for i in range(n - 1)])


def layered(rng: random.Random, layers: int) -> Graph:
    """``layers`` layers of 1 to 9 components, each a lone vertex, a loop or
    a 2-cycle, with one to three arcs into random components of the next
    three layers."""
    vertices: list[str] = []
    classes = []
    rows = []
    for _ in range(layers):
        row = []
        for _ in range(rng.randint(1, 9)):
            k = len(vertices)
            kind = rng.randrange(3)
            members = [f"v{k}", f"v{k + 1}"] if kind == 2 else [f"v{k}"]
            vertices += members
            if kind == 1:
                classes.append((f"l{k}", members[0], members[0], 1))
            elif kind == 2:
                classes += [(f"f{k}", members[0], members[1], 1), (f"b{k}", members[1], members[0], 1)]
            row.append(members)
        rows.append(row)
    for layer, row in enumerate(rows[:-1]):
        for members in row:
            for m in range(rng.randint(1, 3)):
                target = rng.choice(rows[rng.randint(layer + 1, min(layer + 3, layers - 1))])
                classes.append((f"x{members[0]}_{m}", rng.choice(members), rng.choice(target), 1))
    return Graph(vertices, classes)


def cubic_bipartite(rng: random.Random, halves: tuple[int, ...]) -> Graph:
    """Connected 3-regular bipartite components with the given side sizes:
    the identity, a cyclic shift and a random perfect matching that repeats
    neither, every edge from side A to side B."""
    classes, off = [], 0
    for h in halves:
        while True:
            third = list(range(h))
            rng.shuffle(third)
            if all(third[i] not in (i, (i + 1) % h) for i in range(h)):
                break
        for i in range(h):
            for j in (i, (i + 1) % h, third[i]):
                classes.append((f"e{off + i}_{off + j}", f"a{off + i}", f"b{off + j}", 1))
        off += h
    return Graph([f"a{i}" for i in range(off)] + [f"b{i}" for i in range(off)], classes)


def relabelled(rng: random.Random, g: Graph) -> Graph:
    names = [f"r{i}" for i in range(len(g.vertices))]
    rng.shuffle(names)
    rename = dict(zip(g.vertices, names))
    classes = [(c.cid, rename[c.src], rename[c.dst], c.mult) for c in g.edge_classes]
    rng.shuffle(classes)
    return Graph(sorted(names), classes)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sizes", nargs="*", type=int, default=[300, 600, 1200, 2500, 5000, 10000])
    ap.add_argument("--passes", type=int, default=5, help="decisions of each pair in one process")
    args = ap.parse_args()
    pairs = []
    for n in args.sizes:
        g = path(n)
        pairs.append(("path", g, relabelled(random.Random(n), g)))
    rng = random.Random(0)  # the same layered and cubic graphs for any path sizes
    for layers in (25, 50, 100, 200):
        g = layered(rng, layers)
        pairs.append(("layered", g, relabelled(rng, g)))
    for h in (6, 9, 12, 15):
        g = cubic_bipartite(rng, (h,))
        pairs.append(("cubic", g, relabelled(rng, g)))
        pairs.append(("cubic", g, cubic_bipartite(rng, (h // 2, h - h // 2))))
    times: list[list[float]] = [[] for _ in pairs]
    verdicts = [False] * len(pairs)
    for _ in range(args.passes):
        for k, (_, g, h) in enumerate(pairs):
            start = time.perf_counter()
            verdicts[k] = decide_amplified_oe(g, h)[0]
            times[k].append(time.perf_counter() - start)
    print(f"{'family':9}{'vertices':>10}{'components':>12}{'reduced arcs':>14}{'verdict':>9}{'median ms':>12}")
    for (family, g, _), ts, verdict in zip(pairs, times, verdicts):
        cond, _, arcs = closure(g)
        print(f"{family:9}{len(g.vertices):>10}{len(cond.members):>12}{len(arcs):>14}"
              f"{'yes' if verdict else 'no':>9}{statistics.median(ts) * 1e3:>12.2f}")


if __name__ == "__main__":
    main()

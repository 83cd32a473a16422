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
and K is 5.  The paths, the cubic graphs and every relabelled copy are the
benchmark's (``chain_graph``, ``cubic_bipartite`` and ``relabel`` in
``oegbench/inputs.py``), and every graph is read through
``oeg.dsl.parse_graph``.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import time

from oeg.digraphs import closure
from oeg.dsl import parse_graph
from oeg.moves import decide_amplified_oe

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "oegbench"))
import inputs  # noqa: E402  (the benchmark's seeded generators; they do not import oeg)


def layered(rng: random.Random, layers: int) -> inputs.GraphSpec:
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
    return inputs.GraphSpec("layered", tuple(vertices), tuple(classes))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sizes", nargs="*", type=int, default=[300, 600, 1200, 2500, 5000, 10000])
    ap.add_argument("--passes", type=int, default=5, help="decisions of each pair in one process")
    args = ap.parse_args()
    specs = []
    for n in args.sizes:
        rng = random.Random(n)
        e = inputs.chain_graph(n, "E", rng)
        specs.append(("path", e, inputs.relabel(rng, e, "F", "r")[0]))
    rng = random.Random(0)  # the same layered and cubic graphs for any path sizes
    for layers in (25, 50, 100, 200):
        e = layered(rng, layers)
        specs.append(("layered", e, inputs.relabel(rng, e, "F", "r")[0]))
    for h in (6, 9, 12, 15):
        e = inputs.cubic_bipartite(rng, (2 * h,), "E")
        specs.append(("cubic", e, inputs.relabel(rng, e, "F", "r")[0]))
        specs.append(("cubic", e, inputs.cubic_bipartite(rng, (2 * (h // 2), 2 * (h - h // 2)), "F")))
    pairs = [(family, *(parse_graph(inputs.dsl_text(spec)).graph for spec in pair)) for family, *pair in specs]
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

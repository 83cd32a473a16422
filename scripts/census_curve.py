"""Time and memory of ``boundary_census`` against graph size.

For chains (a directed path ending at a sink) and random functional forests
(random recursive trees whose roots are sinks and loops) of the given
sizes, this censuses every graph once per pass, for K passes in one
process.  It prints, per graph, the vertex count, the edges the census
lists (the preperiod and period lengths summed over its points), the
median census time over the passes and that time per listed edge.  Then
it prints the process's peak RSS after the first pass and after the last:
a census that leaves its points for the cycle collector raises it pass
after pass.

Run:  PYTHONPATH=src python scripts/census_curve.py [--passes K] [SIZE ...]

The default sizes are 100, 300, 600 and 900 vertices, and K is 5.
"""

from __future__ import annotations

import argparse
import random
import resource
import statistics
import time

from oeg.boundary import boundary_census
from oeg.graphs import Graph


def chain(n: int) -> Graph:
    vertices = [f"v{i}" for i in range(n)]
    return Graph(vertices, [(f"e{i}", vertices[i], vertices[i + 1], 1) for i in range(n - 1)])


def forest(rng: random.Random, n: int) -> Graph:
    """The first four vertices of a shuffled order are sinks and loops in
    turn; every later vertex points to a uniformly chosen earlier one."""
    order = list(range(n))
    rng.shuffle(order)
    vertices = [f"v{i}" for i in range(n)]
    classes = []
    for k, v in enumerate(order):
        if k >= 4:
            classes.append((f"e{v}", vertices[v], vertices[order[rng.randrange(k)]], 1))
        elif k % 2:
            classes.append((f"e{v}", vertices[v], vertices[v], 1))
    return Graph(vertices, classes)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sizes", nargs="*", type=int, default=[100, 300, 600, 900])
    ap.add_argument("--passes", type=int, default=5, help="censuses of each graph in one process")
    args = ap.parse_args()
    rng = random.Random(0)
    graphs = [("chain", chain(n)) for n in args.sizes] + [("forest", forest(rng, n)) for n in args.sizes]
    times: list[list[float]] = [[] for _ in graphs]
    listed = [0] * len(graphs)
    rss = []
    for _ in range(args.passes):
        for k, (_, g) in enumerate(graphs):
            start = time.perf_counter()
            census = boundary_census(g)
            times[k].append(time.perf_counter() - start)
            listed[k] = sum(len(x.pre) + len(x.period) for x in census.points)
            del census
        rss.append(peak_rss_mb())
    print(f"{'graph':8}{'vertices':>10}{'listed edges':>14}{'median ms':>12}{'ns per edge':>13}")
    for (family, g), ts, edges in zip(graphs, times, listed):
        median = statistics.median(ts)
        print(f"{family:8}{len(g.vertices):>10}{edges:>14}{median * 1e3:>12.1f}{median * 1e9 / max(edges, 1):>13.0f}")
    print(f"peak RSS: {rss[0]:.1f} MB after pass 1, {rss[-1]:.1f} MB after pass {args.passes}")


if __name__ == "__main__":
    main()

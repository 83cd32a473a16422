"""Time and memory of ``boundary_census`` against graph size.

For chains (a directed path ending at a sink) and random functional forests
(random recursive trees whose roots are sinks and loops) of the given
sizes, this censuses every graph once per pass, for K passes in one
process.  The graphs are the benchmark's (``chain_graph`` and
``functional_graph(forest_successors(rng, n, 4))`` in
``oegbench/inputs.py``), read through ``oeg.dsl.parse_graph``.  It prints,
per graph, the vertex count, the edges the census lists (the preperiod and
period lengths summed over its points), the median census time over the
passes and that time per listed edge.  Then it prints the process's peak
RSS after the first pass and after the last: a census that leaves its
points for the cycle collector raises it pass after pass.

Run:  PYTHONPATH=src python scripts/census_curve.py [--passes K] [SIZE ...]

The default sizes are 100, 300, 600 and 900 vertices, and K is 5.
"""

from __future__ import annotations

import argparse
import os
import random
import resource
import statistics
import sys
import time

from oeg.boundary import boundary_census
from oeg.dsl import parse_graph

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "oegbench"))
import inputs  # noqa: E402  (the benchmark's seeded generators; they do not import oeg)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sizes", nargs="*", type=int, default=[100, 300, 600, 900])
    ap.add_argument("--passes", type=int, default=5, help="censuses of each graph in one process")
    args = ap.parse_args()
    rng = random.Random(0)
    chains = [inputs.chain_graph(n, f"chain{n}", random.Random(n)) for n in args.sizes]
    forests = [inputs.functional_graph(inputs.forest_successors(rng, n, 4), f"forest{n}") for n in args.sizes]
    graphs = [("chain", parse_graph(inputs.dsl_text(spec)).graph) for spec in chains]
    graphs += [("forest", parse_graph(inputs.dsl_text(spec)).graph) for spec in forests]
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

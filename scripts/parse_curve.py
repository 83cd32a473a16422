"""Time of the DSL readers against input size.

For two families of graph files, this reads each file with
``oeg.dsl.parse_graph`` once per pass, for K passes in one process:

  * chains: one ``vertex`` line and an edge from each vertex to the next;
  * 2-out-regular graphs: every vertex has two classes of multiplicity 1
    or 2 to distinct random targets (the ``out_regular_digraph`` inputs of
    the benchmark).

Each file has about 10^3, 10^4 or 10^5 lines.  It then reads point texts of
the kind the ``amplified`` benchmark workload reads (random boundary paths
of up to six edges on random 4-vertex graphs with some infinite classes)
with ``oeg.dsl.parse_point``.

It prints, per input, the family, the line or point count and the median
over the passes of the microseconds per line or per point.

Run:  PYTHONPATH=src python scripts/parse_curve.py [--passes K] [LINES ...]

The default line counts are 1000, 10,000 and 100,000, and K is 5.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import time

from oeg.dsl import parse_graph, parse_point

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "oegbench"))
import inputs  # noqa: E402  (the benchmark's seeded generators; they do not import oeg)


def chain_text(lines: int) -> str:
    n = lines - 2  # the header and the vertex line
    vertices = [f"v{i}" for i in range(n + 1)]
    out = ["graph chain", "vertex " + ", ".join(vertices)]
    out += [f"edge e{i}: {vertices[i]} -> {vertices[i + 1]}" for i in range(n)]
    return "\n".join(out) + "\n"


def regular_text(lines: int) -> str:
    spec = inputs.out_regular_digraph(random.Random(lines), (lines - 2) // 2, 2, "regular")
    return inputs.dsl_text(spec)


def point_cases(rng: random.Random, graphs: int, per_graph: int) -> list[tuple]:
    """``per_graph`` point texts on each of ``graphs`` random small graphs."""
    cases = []
    for i in range(graphs):
        spec = inputs.random_small_graph(rng, 4, 0.15, f"split{i}")
        g = parse_graph(inputs.dsl_text(spec)).graph
        cases.append((g, [inputs.random_point_text(rng, spec, 6) for _ in range(per_graph)]))
    return cases


def median_us(fn, passes: int, count: int) -> float:
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / count * 1e6


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("lines", type=int, nargs="*", default=[1000, 10_000, 100_000])
    args = ap.parse_args(argv)
    print(f"{'family':<10} {'count':>8} {'us each':>8}")
    for family, make in (("chain", chain_text), ("2-regular", regular_text)):
        for lines in args.lines:
            text = make(lines)
            count = text.count("\n")
            us = median_us(lambda: parse_graph(text), args.passes, count)
            print(f"{family:<10} {count:>8} {us:>8.2f}", flush=True)
    cases = point_cases(random.Random(7), 60, 40)
    count = sum(len(texts) for _, texts in cases)

    def read_points():
        for g, texts in cases:
            for text in texts:
                parse_point(g, text)

    print(f"{'points':<10} {count:>8} {median_us(read_points, args.passes, count):>8.2f}")


if __name__ == "__main__":
    main()

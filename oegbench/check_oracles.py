"""Check the benchmark's oracles against the library on the exhaustive pool
of graphs with at most 3 vertices and multiplicity at most 2.

    python3 oegbench/check_oracles.py

Exits 1 on any disagreement.  Run it before trusting the oracles with a new
library version; it takes a few seconds.
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
from oeg import boundary, dsl, dynamics, groupoid, invariants, moves  # noqa: E402


PAIRS = 42  # sampled OE pairs checked against the exhaustive search


def main() -> int:
    rng = random.Random(0)
    specs = [inputs.matrix_graph(rng, m, f"g{i}") for i, m in enumerate(inputs.small_pool())]
    graphs = [dsl.parse_graph(inputs.dsl_text(s)).graph for s in specs]
    bad: list[str] = []
    finite = []
    for spec, g in zip(specs, graphs):
        census = boundary.boundary_census(g)
        if census.finite != oracles.finite_boundary(spec):
            bad.append(f"finiteness of {spec.classes}")
        elif census.finite:
            finite.append((spec, g, census.points))
            if len(census.points) != oracles.census_size(spec):
                bad.append(f"census size of {spec.classes}")
        if invariants.det_invariant(g) != oracles.det_i_minus_a(spec):
            bad.append(f"det of {spec.classes}")
        reach = frozenset(k for k, v in invariants.reachability(g).items() if v)
        if reach != oracles.reachable_pairs(spec):
            bad.append(f"reachability of {spec.classes}")
    print(f"{len(specs)} graphs: finiteness, det(I - A) and reachability checked; {len(finite)} finite boundaries")

    by_size: dict[int, list] = {}
    for item in finite:
        if len(item[2]) <= 7:
            by_size.setdefault(len(item[2]), []).append(item)
    candidates = [(a, b) for group in by_size.values() for a in group for b in group if a is not b]
    rng.shuffle(candidates)
    yes = no = 0
    for (se, ge, _), (sf, gf, _) in candidates:
        if yes + no >= PAIRS:
            break
        want = oracles.oe_verdict(se, sf)
        if (want and yes >= PAIRS // 2) or (not want and no >= PAIRS - PAIRS // 2):
            continue
        got = dynamics.search_oe_witness(ge, gf) is not None
        yes, no = yes + want, no + (not want)
        if got != want:
            bad.append(f"OE verdict of {se.classes} vs {sf.classes}")
    print(f"{yes + no} OE pairs ({yes} yes, {no} no): class-size oracle against search_oe_witness")

    elements = 0
    for spec, g, points in finite:
        ends: dict[str, list] = {}
        for x in points:
            if x.is_finite:
                ends.setdefault(boundary.point_range(g, x), []).append(x)
        for group in ends.values():
            for x in group:
                for y in group:
                    m, n = oracles.minimal_exponents(list(x.pre), list(y.pre), len(x.pre) - len(y.pre))
                    e = groupoid.make_element(g, x, len(x.pre), len(y.pre), y)
                    elements += 1
                    if (e.m, e.n) != (m, n):
                        bad.append(f"minimal exponents in {spec.classes}")
    print(f"{elements} groupoid elements: minimal exponents against make_element")

    amplified = 0
    for _ in range(60):
        (se, ge), (sf, gf) = rng.sample(list(zip(specs, graphs)), 2)
        if oracles.weak_components(se) != oracles.weak_components(sf):
            amplified += 1
            if moves.decide_amplified_oe(ge, gf)[0]:
                bad.append(f"amplified 'no' for {se.classes} vs {sf.classes}")
        rf, vmap = inputs.relabel(rng, se, "R", "r")
        amplified += 1
        if not (oracles.amplified_verdict(se, rf, vmap)
                and moves.decide_amplified_oe(ge, dsl.parse_graph(inputs.dsl_text(rf)).graph)[0]):
            bad.append(f"amplified 'yes' for a relabelling of {se.classes}")
    print(f"{amplified} amplified pairs: construction verdicts against decide_amplified_oe")

    for line in bad[:20]:
        print("MISMATCH", line)
    print("oracles agree with the library" if not bad else f"{len(bad)} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

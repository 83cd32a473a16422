"""Survey experiments over the exhaustive pool of small graphs.

For every graph with at most three vertices and parallel multiplicities at
most two (up to vertex permutation) this runs:

  * condition (L), counting the graphs where it holds,
  * the germ-class / groupoid-element comparison at bound 3,
  * the amplified-orbit-equivalence classification: each graph's component
    closure is built once, graphs are bucketed by the reachability degree
    profile read off it, and inside each bucket every graph's labelled
    transitive reduction is compared with those of the class
    representatives found so far (as ``decide_amplified_oe`` compares
    them), which counts the exact classes of the reachability relation up
    to isomorphism,
  * the classes of the graphs with a finite boundary, read off their tail
    class counts: orbit equivalence by the sorted class sizes, and groupoid
    isomorphism by the sorted (size, on a cycle) pairs, since a class on an
    exitless cycle has isotropy Z and one at a sink none.

It prints the counts, then the time spent in each of the four stages.

Run:  python scripts/pool_survey.py [max_vertices]
"""

from __future__ import annotations

import itertools
import sys
import time

from oeg.boundary import tail_class_sizes
from oeg.digraphs import closure, isomorphism
from oeg.graphs import condition_l
from oeg.moves import decide_amplified_oe
from oeg.weyl import phi_bijectivity_check
from oeg.zoo import iter_small_graphs


def reach_profile(cond, reach) -> tuple:
    """The sorted (out-reach, in-reach, self-reach) of every vertex: how many
    vertices it reaches by a path of length >= 1, how many reach it, and
    whether it reaches itself.  Read off the closure bitsets of the
    condensation ``cond``, each component weighted by its size."""
    sizes = list(map(len, cond.members))
    comps = range(len(sizes))
    out = [sum(sizes[d] for d in comps if bits >> d & 1) for bits in reach]
    inn = [sum(sizes[d] for d in comps if reach[d] >> c & 1) for c in comps]
    return tuple(sorted((out[c], inn[c], reach[c] >> c & 1 == 1) for c in cond.comp))


def main() -> int:
    max_v = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    t0 = time.perf_counter()
    spent = dict.fromkeys(("condition (L)", "phi check", "amplified classes", "finite boundaries"), 0.0)
    n = 0
    with_l = 0
    phi_failures = 0
    reps: dict[tuple, list] = {}
    finite, oe_classes, groupoid_classes = 0, set(), set()
    for g in iter_small_graphs(max_v):
        n += 1
        marks = [time.perf_counter()]
        with_l += condition_l(g)[0]
        marks.append(time.perf_counter())
        if not phi_bijectivity_check(g, 3, max_points=18).ok:
            phi_failures += 1
        marks.append(time.perf_counter())
        cond, reach, arcs = closure(g)
        group = reps.setdefault((len(g.vertices), reach_profile(cond, reach)), [])
        if not any(isomorphism(cond.label, arcs, *r) is not None for r in group):
            group.append((cond.label, arcs))
        marks.append(time.perf_counter())
        sizes = tail_class_sizes(g)
        if sizes is not None:
            finite += 1
            oe_classes.add(tuple(sorted(size for _, size in sizes)))
            groupoid_classes.add(tuple(sorted((size, d > 0) for d, size in sizes)))
        marks.append(time.perf_counter())
        for name, start, end in zip(spent, marks, marks[1:]):
            spent[name] += end - start
    elapsed = time.perf_counter() - t0
    print(f"graphs surveyed:                 {n}")
    print(f"condition (L) holds:             {with_l}")
    print(f"germ/element comparison failures:{phi_failures}")
    print(f"reachability profile classes:    {len(reps)}")
    print(f"amplified OE classes (exact):    {sum(map(len, reps.values()))}")
    print(f"finite boundaries:               {finite}")
    print(f"  OE classes (class sizes):      {len(oe_classes)}")
    print(f"  groupoid classes (+ isotropy): {len(groupoid_classes)}")
    print(f"elapsed:                         {elapsed:.1f}s")
    for name, seconds in spent.items():
        print(f"  {name + ':':31}{seconds:.1f}s ({seconds / elapsed:.0%})")

    # The profile is an invariant, so its classes are unions of amplified
    # orbit equivalence classes. Sanity: the decision procedure agrees with
    # itself across a small sample.
    sample = list(itertools.islice(iter_small_graphs(2), 40))
    agree = all(decide_amplified_oe(a, a)[0] for a in sample)
    print(f"amplified decision reflexive on sample: {agree}")
    return 0 if (phi_failures == 0 and agree) else 1


if __name__ == "__main__":
    sys.exit(main())

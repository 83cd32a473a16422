"""The machine's speed, measured next to the queries.

On a shared machine the speed of a vCPU drifts, by up to half within seconds
and between phases that last minutes, because of work outside this process;
CPU time drifts with it.  So the loop reads a fixed reference between
queries, and the end-to-end timings are rescaled to the speed at which the
reference takes its nominal time.  A query's factor is the nominal time over
the median of the ``2 * WINDOW + 1`` reference readings nearest to it.

The reference is work of the same kind as the workload's, because kinds of
work slow down by different amounts:

- in-process workloads (``reference``): the oracles' graph work on fixed
  inputs, a breadth-first search from every vertex of a 60-vertex digraph
  and exact ``Fraction`` elimination on a 25-vertex one;
- the CLI workload (``process_reference``): starting a bare interpreter.

Over four minutes in which the machine's speed changed twofold, the log of
in-process query time against the log of this reference had slope 0.8 to
1.0; a small search-sort-and-string loop had 0.7 to 0.9 and left half as
much residual again.  CLI calls against bare start-up had slope 0.9 to 1.0.
Neither reference touches ``oeg``, so no change to the library moves them.
The raw wall-clock figures stay in the run record.
"""

from __future__ import annotations

import functools
import random
import statistics
import subprocess
import sys
import time

import inputs
import oracles

# nominal times of the references: the speed the figures are given at
REF_S = 0.0025
PROCESS_REF_S = 0.012
# in-process workloads read the reference at most this often, so it adds
# at most a tenth to the loop
EVERY_S = 0.025
WINDOW = 7


@functools.cache
def _graphs() -> tuple:
    rng = random.Random(0)
    return inputs.out_regular_digraph(rng, 60, 2, "reach"), inputs.random_digraph(rng, 25, 2.0, "det")


def reference() -> float:
    """Time one run of the in-process reference, in seconds."""
    reach, det = _graphs()
    t0 = time.perf_counter()
    oracles.reachable_pairs(reach)
    oracles.det_i_minus_a(det)
    return time.perf_counter() - t0


def process_reference() -> float:
    """Time starting and ending a bare interpreter (no ``site``), in seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], capture_output=True, check=True, timeout=60)
    return time.perf_counter() - t0


def factors(ref_times: list[float], nominal: float, window: int = WINDOW) -> list[float]:
    """For each reference reading, ``nominal`` over the median of the
    readings within ``window`` places of it."""
    n = len(ref_times)
    return [nominal / statistics.median(ref_times[max(0, i - window):i + window + 1]) for i in range(n)]

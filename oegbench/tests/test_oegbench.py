"""The benchmark's own tests: oracles on hand-worked cases, span self-time
arithmetic, the per-query time limit, and seeded inputs.

    python3 -m pytest -q oegbench/tests
"""

from __future__ import annotations

import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import oracles  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from inputs import INF, GraphSpec  # noqa: E402


def spec(vertices: str, *classes) -> GraphSpec:
    return GraphSpec("T", tuple(vertices.split()), tuple(classes))


ARROW_INTO_LOOP = spec("u v", ("a", "u", "v", 1), ("b", "v", "v", 1))
TWO_CYCLE = spec("p q", ("c", "p", "q", 1), ("d", "q", "p", 1))
FORK = spec("u s t", ("a", "u", "s", 1), ("b", "u", "t", 1))


def test_tail_classes_by_hand():
    # a.(b)* and (b)* share the loop's tail; so do the two rotations of the cycle
    assert oracles.tail_class_sizes(ARROW_INTO_LOOP) == [2]
    assert oracles.tail_class_sizes(TWO_CYCLE) == [2]
    # a, @s end at s; b, @t end at t
    assert oracles.tail_class_sizes(FORK) == [2, 2]
    # a[0], a[1] and @s all end at s
    assert oracles.tail_class_sizes(spec("u s", ("a", "u", "s", 2))) == [3]
    # first entries into the exitless loop at w: (l)*, y.(l)*, x.y.(l)*, z.(l)*
    branching = spec("a b w", ("x", "a", "b", 1), ("y", "b", "w", 1), ("z", "a", "w", 1), ("l", "w", "w", 1))
    assert oracles.tail_class_sizes(branching) == [4]


def test_oe_verdict_and_census_by_hand():
    assert oracles.oe_verdict(ARROW_INTO_LOOP, TWO_CYCLE)  # sink and cycle classes are not told apart
    assert not oracles.oe_verdict(FORK, spec("u s t w", ("a", "u", "s", 1), ("b", "s", "t", 1), ("c", "w", "t", 1)))
    chain = spec("a b c d", ("x", "a", "b", 1), ("y", "b", "c", 1), ("z", "c", "d", 1))
    assert oracles.census_size(chain) == 4  # one path from each vertex
    assert not oracles.finite_boundary(spec("v", ("l", "v", "v", 2)))
    assert not oracles.finite_boundary(spec("u v", ("a", "u", "v", INF)))


def test_det_by_hand():
    assert oracles.det_i_minus_a(spec("v", ("l", "v", "v", 2))) == -1  # 1 - 2
    full = spec("1 2", ("a", "1", "1", 1), ("b", "1", "2", 1), ("c", "2", "1", 1), ("d", "2", "2", 1))
    assert oracles.det_i_minus_a(full) == -1  # det [[0, -1], [-1, 0]]
    assert oracles.det_i_minus_a(TWO_CYCLE) == 0  # det [[1, -1], [-1, 1]]
    assert oracles.det_i_minus_a(spec("u v w", ("a", "u", "v", 3))) == 1  # unipotent


def test_reachability_by_hand():
    g = spec("u v w", ("a", "u", "v", 1), ("b", "v", "w", 1), ("l", "w", "w", 1))
    assert oracles.reachable_pairs(g) == {("u", "v"), ("v", "w"), ("u", "w"), ("w", "w")}


def test_amplified_verdict_by_hand():
    one = spec("a0 a1 b0 b1", ("e", "a0", "b0", 1), ("f", "a1", "b1", 1), ("g", "a0", "b1", 1))
    two = spec("a0 a1 b0 b1", ("e", "a0", "b0", 1), ("f", "a1", "b1", 1))
    relabelled = spec("x y z w", ("e", "x", "z", 1), ("f", "y", "w", 1), ("g", "x", "w", 1))
    assert oracles.amplified_verdict(one, relabelled, {"a0": "x", "a1": "y", "b0": "z", "b1": "w"})
    assert not oracles.amplified_verdict(one, two, None)
    with pytest.raises(ValueError):
        oracles.amplified_verdict(one, relabelled, {"a0": "y", "a1": "x", "b0": "z", "b1": "w"})


def test_minimal_exponents_by_hand():
    # a.b.c and d.c meet after dropping two and one edges
    assert oracles.minimal_exponents(["a", "b", "c"], ["d", "c"], 1) == (2, 1)
    assert oracles.minimal_exponents(["x", "y"], ["x", "y"], 0) == (0, 0)
    with pytest.raises(ValueError):
        oracles.minimal_exponents(["a", "b"], ["c"], 0)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1, "q"),
        ("a", 1.0, 4.0, 0, "q"),
        ("b", 3.0, 6.0, 0, "q"),  # overlaps a: the union [1, 6] is covered once
        ("a.child", 2.0, 3.0, 1, "q"),
        ("b.child", 7.0, 7.5, 2, "q"),  # outside its parent: covers nothing of it
    ]
    assert stats.self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0, 0.5])


def test_tail_rule():
    values = list(range(1, 101))
    assert stats.tail(values) == (90, 90.0, 100)  # ten samples beyond the 90th percentile
    assert stats.tail(values[:40]) == (30, 75.0, 40)


def test_limit_stops_a_slow_query_and_counts_it():
    def spin():
        while True:
            pass

    slow = workloads.Query("slow", spin, lambda: True)
    fast = workloads.Query("fast", lambda: True, lambda: True)
    old = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        t0 = time.perf_counter()
        runs = [[(*worker.run_query(q, 0.2, True), i)] for i, q in enumerate((slow, fast))]
        assert time.perf_counter() - t0 < 2.0
    finally:
        signal.signal(signal.SIGALRM, old)
    assert runs[0][0][1] == "timeout"
    setup = workloads.Setup([slow, fast], 0.2, workloads.CliLauncher(None))
    # the machine read at half the nominal speed: the answer's time is halved,
    # the stopped query's is not
    refs = [2 * speed.REF_S] * 2
    report = worker.verify(setup, {"runs": runs, "refs": refs, "ref_nominal": speed.REF_S})
    assert (report["attempted"], report["failed"], report["unexpected_failures"]) == (2, 1, 1)
    assert report["failed_share"] == 0.5
    assert report["queries_per_s"] == 1 / (runs[0][0][0] + runs[1][0][0] / 2)
    assert report["query_p50_ms"] == runs[1][0][0] / 2 * 1e3


def test_speed_factors_use_the_median_of_nearby_readings():
    refs = [1.0, 1.0, 9.0, 1.0, 2.0, 2.0, 2.0]
    # the outlier at index 2 is outvoted; the factor follows the shift to 2.0
    assert speed.factors(refs, 1.0, window=1) == [1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5]


@pytest.mark.parametrize("name", ["germ_pool", "finite_oe", "amplified", "cli_cold"])
def test_seed_fixes_the_inputs(name, tmp_path):
    first = workloads.build(name, 7, str(tmp_path)).fingerprint(7)
    again = workloads.build(name, 7, str(tmp_path)).fingerprint(7)
    other = workloads.build(name, 8, str(tmp_path)).fingerprint(8)
    assert first == again
    assert other["sha256"] != first["sha256"]
    assert other["queries_per_kind"] == first["queries_per_kind"]

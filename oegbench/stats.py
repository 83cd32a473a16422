"""Small numeric helpers: the tail rule and span self time."""

from __future__ import annotations

import math

TAIL_GRID = (99.9, 99.5, 99.0, 97.5, 95.0, 90.0, 80.0, 75.0, 50.0)


def tail(values: list[float], beyond: int = 10) -> tuple[float, float, int]:
    """The highest percentile of TAIL_GRID that still has at least
    ``beyond`` samples above its rank; returns (value, percentile, samples)."""
    vals = sorted(values)
    n = len(vals)
    for p in TAIL_GRID:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= beyond:
            return vals[rank - 1], p, n
    return vals[-1], 100.0, n


def self_times(spans: list[tuple]) -> list[float]:
    """Self time of every span: its duration minus the part of its interval
    covered by its child spans.  A span is ``(name, start, end, parent, qid)``
    with ``parent`` the index of the enclosing span or -1."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, qid in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, qid) in enumerate(spans):
        covered = 0.0
        reach = start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach, start), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out

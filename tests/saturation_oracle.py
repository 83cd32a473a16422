"""The saturation rewriting as it was before the position-indexed scanner:
the point is read as an edge stream through a lookahead buffer, and each
direction tests for a pattern occurrence on its own.  Kept as the oracle
that ``oeg.moves.saturate_map`` and ``saturate_map_inverse`` are checked
against."""

from __future__ import annotations

from typing import Iterator

from oeg.boundary import BoundaryPoint, canonicalize
from oeg.graphs import Edge
from oeg.moves import RewritingWitness


def _edge_stream(x: BoundaryPoint) -> Iterator[Edge]:
    yield from x.pre
    if x.period:
        while True:
            yield from x.period


def _rewrite_stream(
    w: RewritingWitness,
    x: BoundaryPoint,
    forward: bool,
) -> BoundaryPoint:
    """Run the greedy left-to-right rewriting over a representable point and
    detect the eventual period of the output.

    Forward rewriting (saturated -> original) replaces each new-class edge
    ``M[n]`` by ``eta1(n)`` followed by the pattern tail, and each
    occurrence of a parallel edge followed by the pattern tail by the same
    with the edge pushed through ``eta2``.  The inverse direction undoes
    both.  Occurrences are scanned greedily from the left; in a periodic
    tail the scanner state (offset modulo the period) eventually repeats,
    which delimits the output period.
    """
    gdst = w.original if forward else w.saturated
    m = w.pattern.length
    tail = w.pattern.edges[1:]
    pre_len = len(x.pre)
    per = len(x.period)

    def lookahead(buf: list[Edge], stream: Iterator[Edge], upto: int) -> bool:
        while len(buf) < upto:
            try:
                buf.append(next(stream))
            except StopIteration:
                return False
        return True

    stream = _edge_stream(x)
    buf: list[Edge] = []
    out: list[Edge] = []
    pos = 0  # index into x of the next unconsumed edge
    cut: dict[int, int] = {}  # scanner state -> length of `out` when seen
    out_pre: list[Edge] | None = None
    out_period: list[Edge] | None = None
    while True:
        if per and pos >= pre_len:
            state = (pos - pre_len) % per
            if state in cut:
                out_pre = out[: cut[state]]
                out_period = out[cut[state] :]
                break
            cut[state] = len(out)
        if not lookahead(buf, stream, 1):
            break
        head = buf[0]
        step = 1
        if forward:
            if head.cls == w.new_class:
                out.append(w.eta1(head.idx))
                out.extend(tail)
            elif (
                w.indexing.contains(head)
                and lookahead(buf, stream, m)
                and tuple(buf[1:m]) == tail
            ):
                out.append(w.eta2(head))
                out.extend(tail)
                step = m
            else:
                out.append(head)
        else:
            if (
                w.indexing.contains(head)
                and lookahead(buf, stream, m)
                and tuple(buf[1:m]) == tail
            ):
                n = w.eta1_inverse(head)
                if n is not None:
                    out.append(Edge(w.new_class, n))
                else:
                    out.append(w.eta2_inverse(head))
                    out.extend(tail)
                step = m
            else:
                out.append(head)
        del buf[:step]
        pos += step
    if out_period is None:  # finite input
        return canonicalize(gdst, x.src, out)
    src = x.src if out_pre else gdst.edge_src(out_period[0])
    return canonicalize(gdst, src, out_pre, out_period)

"""Numeric and structural invariants: exact integer determinants of I - A,
reachability, digraph isomorphism, and a consolidated report.  The
determinant is a sparse fraction-free elimination with sparsity-first
(Markowitz-style) pivots, so a graph with a few edges per vertex costs far
less than n^3 steps.  Reachability and isomorphism rest on the component
closure and the refinement search in ``oeg.digraphs``, imported on first
use so that commands which need neither do not load it."""

from __future__ import annotations

from itertools import chain, compress, product
from typing import NamedTuple

from .boundary import boundary_size, tail_class_sizes
from .errors import InputError, UnsupportedScaleError
from .graphs import Graph, condition_l, is_singular, vertex_kind


def det_bareiss(matrix: list[list[int]]) -> int:
    """Exact integer determinant of a dense square matrix, by
    :func:`det_sparse` on its nonzero entries."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise InputError("determinant needs a square matrix")
    return det_sparse([{j: row[j] for j in compress(range(n), row)} for row in matrix])


def det_sparse(rows: list[dict[int, int]]) -> int:
    """Exact integer determinant by sparse fraction-free (Bareiss)
    elimination.

    Row ``i`` holds the nonzero entries of matrix row ``i`` as
    ``{column: value}``, and the dicts are consumed.  Each pivot is taken
    from the active row with the fewest nonzeros, in its column with the
    fewest nonzeros among active rows, and the sign of the implied row and
    column permutation is applied at the end.  Rescaling is lazy: where Bareiss
    multiplies every row with a zero in the pivot column by
    ``p_k / p_(k-1)``, such a row is left alone and keeps the index ``j`` of
    the last pivot it was current at, so its current entries are the stored
    ones times ``p_k / p_j``.  It is brought current only when next used.
    By Sylvester's identity stored and current entries are integer minors,
    so every division is exact.
    """
    from heapq import heapify, heappop, heappush  # only commands that need a determinant load it

    n = len(rows)
    cols: list[set[int]] = [set() for _ in range(n)]  # active rows per column
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    by_size = [(len(row), i) for i, row in enumerate(rows)]  # stale entries skipped
    heapify(by_size)
    level = [0] * n  # index into pivots of the pivot each row is current at
    pivots = [1]
    pivot_col = [-1] * n
    for k in range(1, n + 1):
        size, r = heappop(by_size)
        while pivot_col[r] >= 0 or size != len(rows[r]):
            size, r = heappop(by_size)
        prow = rows[r]
        if not prow:
            return 0
        c = min(prow, key=lambda j: len(cols[j]))
        pivot_col[r] = c
        if level[r] != k - 1:
            prev, pj = pivots[-1], pivots[level[r]]
            prow = {j: v * prev // pj for j, v in prow.items()}
        p = prow.pop(c)
        for j in prow:
            cols[j].discard(r)
        below = cols[c]
        below.discard(r)
        for i in below:
            row = rows[i]
            pj = pivots[level[i]]
            f = row.pop(c)
            for j in prow.keys() - row.keys():
                row[j] = 0
                cols[j].add(i)
            # the Bareiss step of the row rescaled from pivot j to pivot k - 1
            new = {j: (p * row[j] - f * v) // pj for j, v in prow.items()}
            if len(row) > len(new):  # row's keys now include prow's
                for j in row.keys() - prow.keys():
                    new[j] = p * row[j] // pj
            if 0 in new.values():
                for j in [j for j, v in new.items() if not v]:
                    del new[j]
                    cols[j].discard(i)
            rows[i] = new
            level[i] = k
            heappush(by_size, (len(new), i))
        pivots.append(p)
    sign = 1
    seen = [False] * n
    for i in range(n):
        j = i
        while not seen[j]:
            seen[j] = True
            j = pivot_col[j]
            if j != i:
                sign = -sign
    return sign * pivots[-1]


def det_invariant(g: Graph) -> int:
    """det(I - A) for the adjacency matrix A, over exact integers, from
    sparse rows built straight from the edge classes."""
    index = {v: i for i, v in enumerate(g.vertices)}
    rows: list[dict[int, int]] = [{i: 1} for i in range(len(index))]
    for c in g.edge_classes:
        if c.is_infinite:
            raise UnsupportedScaleError(
                "graphs with infinite classes have no adjacency matrix here"
            )
        row, j = rows[index[c.src]], index[c.dst]
        row[j] = row.get(j, 0) - c.mult
    return det_sparse([{j: v for j, v in row.items() if v} for row in rows])


def reachability(g: Graph) -> dict[tuple[str, str], bool]:
    """Positive-length reachability of ordered vertex pairs, read off the
    bitset closure of the component DAG: one row per component, shared by
    its vertices."""
    from .digraphs import closure

    cond, reach, _ = closure(g)
    rows = [[bits >> d & 1 == 1 for d in cond.comp] for bits in reach]
    return dict(zip(product(g.vertices, repeat=2), chain.from_iterable(rows[c] for c in cond.comp)))


def _multiplicity_pattern(g: Graph) -> dict[tuple[str, str], tuple]:
    """Multiset of class multiplicities per vertex pair, with infinity as a
    distinct symbol."""
    pat: dict[tuple[str, str], list] = {}
    for c in g.edge_classes:
        pat.setdefault((c.src, c.dst), []).append("inf" if c.is_infinite else c.mult)
    return {k: tuple(sorted(v, key=str)) for k, v in pat.items()}


def digraph_isomorphic(g1: Graph, g2: Graph) -> dict[str, str] | None:
    """A vertex bijection matching the edge-multiplicity pattern of every
    ordered vertex pair exactly, or ``None``: ``isomorphism`` with one arc
    colour per distinct pattern, numbered by a table both graphs share."""
    from .digraphs import isomorphism

    ids: dict[tuple, int] = {}

    def arcs(g: Graph) -> dict[tuple[int, int], int]:
        index = {v: i for i, v in enumerate(g.vertices)}
        return {
            (index[s], index[d]): ids.setdefault(p, len(ids))
            for (s, d), p in _multiplicity_pattern(g).items()
        }

    phi = isomorphism([0] * len(g1.vertices), arcs(g1), [0] * len(g2.vertices), arcs(g2))
    return None if phi is None else {v: g2.vertices[j] for v, j in zip(g1.vertices, phi)}


class InvariantReport(NamedTuple):
    condition_l: bool
    exitless_loop: str | None
    singular_vertices: dict[str, str]
    boundary_finite: bool
    boundary_size: int | None
    boundary_witness: str | None
    det_i_minus_a: int | None
    fixed_point_count: int
    isotropy_census: dict[int, int] | None  # isotropy generator -> point count, finite boundary only

    def to_json(self) -> dict:
        return {
            "conditionL": self.condition_l,
            "exitlessLoop": self.exitless_loop,
            "singularVertices": self.singular_vertices,
            "boundary": {
                "finite": self.boundary_finite,
                "size": self.boundary_size,
                "witness": self.boundary_witness,
            },
            "detIMinusA": self.det_i_minus_a,
            "fixedPoints": self.fixed_point_count,
            "isotropyCensus": (
                None
                if self.isotropy_census is None
                else {str(k): v for k, v in sorted(self.isotropy_census.items())}
            ),
        }


def invariant_report(g: Graph) -> InvariantReport:
    """Consolidated invariants of a graph.  The boundary fields read
    :func:`boundary_size`, which refuses a boundary over the census limit,
    and :func:`tail_class_sizes`; no point is listed.

    The determinant field det(I - A) is the classical flow-equivalence-style
    invariant of the edge shift; its invariance presumes irreducibility
    hypotheses that are not checked here.
    """
    ok, loop = condition_l(g)
    witness_text = None if ok else ".".join(e.cls for e in loop.edges)
    singular = {
        v: vertex_kind(g, v) for v in g.vertices if is_singular(g, v)
    }
    size = boundary_size(g)
    finite = not isinstance(size, str)
    try:
        det = det_invariant(g)
    except UnsupportedScaleError:
        det = None
    iso_census = {} if finite else None
    for d, n in tail_class_sizes(g) if finite else ():  # each point has its class's isotropy
        iso_census[d] = iso_census.get(d, 0) + n
    return InvariantReport(
        condition_l=ok,
        exitless_loop=witness_text,
        singular_vertices=singular,
        boundary_finite=finite,
        boundary_size=size if finite else None,
        boundary_witness=None if finite else size,
        det_i_minus_a=det,
        # a fixed point repeats one loop edge; an infinite class gives one
        fixed_point_count=sum(1 if c.is_infinite else c.mult for c in g.edge_classes if c.src == c.dst),
        isotropy_census=iso_census,
    )

"""The error surface: each operation refuses bad input with the documented
exception kind."""

from __future__ import annotations

import pytest

from conftest import pt
from oeg.boundary import canonicalize, drop_edges, point_range, prepend, refuse_over_limit
from oeg.dsl import (
    parse_element,
    parse_germ,
    parse_graph,
    parse_groupoid_element,
    parse_partition,
    parse_point,
)
from oeg.dynamics import (
    OrbitWitness,
    PseudogroupElement,
    conjugate_pseudogroup,
    extend_cocycles,
    shift,
    verify_oe_witness,
)
from oeg.errors import DomainError, InputError, ParseError, UnsupportedScaleError, _shown_int
from oeg.graphs import Edge, Graph
from oeg.invariants import det_bareiss
from oeg.moves import Block, OutSplitPartition, check_partition, trivial_partition
from oeg.zoo import amplified_arrow_loop, arrow_into_loop, two_cycle
from test_dynamics import example_witness


def test_boundary_errors(e1):
    x = pt(e1, "a.(b)*")
    with pytest.raises(DomainError):
        point_range(e1, x)
    fin = pt(Graph(["v"]), "@v")
    with pytest.raises(DomainError):
        fin.edge_at(0)
    with pytest.raises(DomainError):
        fin.prefix_edges(1)
    with pytest.raises(InputError):
        prepend(e1, e1.path(["a"]), pt(e1, "a.(b)*"))  # range v != source u
    with pytest.raises(InputError):
        canonicalize(e1, "v", (Edge("a", 0),))  # a does not leave v


def test_graph_errors(e1):
    with pytest.raises(InputError):
        e1.path(["a"], at="v")
    with pytest.raises(InputError):
        e1.path(["b", "a"])
    with pytest.raises(InputError):
        e1.loop(["a"])
    with pytest.raises(InputError):
        e1.loop([])
    with pytest.raises(InputError):
        e1.cls("zzz")
    with pytest.raises(InputError):
        e1.edge(("a", 1))


def test_dynamics_errors(e1):
    with pytest.raises(InputError):
        shift(e1, pt(e1, "(b)*"), -1)
    w = example_witness()
    with pytest.raises(InputError):
        extend_cocycles(w, -1)
    negative = OrbitWitness(
        w.E, w.F, dict(w.h), {k: -1 for k in w.k1}, dict(w.l1), dict(w.k1p), dict(w.l1p)
    )
    with pytest.raises(InputError):
        verify_oe_witness(negative)
    other_graph_el = PseudogroupElement(
        w.F, {pt(w.F, "(c.d)*"): pt(w.F, "(c.d)*")}, {pt(w.F, "(c.d)*"): 0}, {pt(w.F, "(c.d)*"): 0}
    )
    with pytest.raises(InputError):
        conjugate_pseudogroup(w, other_graph_el)
    broken = PseudogroupElement(
        w.E, {pt(w.E, "(b)*"): pt(w.E, "a.(b)*")}, {pt(w.E, "(b)*"): 0}, {pt(w.E, "(b)*"): 0}
    )
    with pytest.raises(InputError):
        conjugate_pseudogroup(w, broken)
    mismatched = PseudogroupElement(w.E, {pt(w.E, "(b)*"): pt(w.E, "(b)*")}, {}, {})
    with pytest.raises(InputError):
        conjugate_pseudogroup(w, mismatched)


def test_partition_errors(e1, e2):
    with pytest.raises(InputError):
        check_partition(e1, OutSplitPartition({"v": ()}))  # u has edges but no blocks
    amp = amplified_arrow_loop()
    with pytest.raises(InputError):
        # an infinite class listed edge by edge
        check_partition(
            amp,
            OutSplitPartition(
                {
                    "u": (Block(frozenset({Edge("A", 0)})),),
                    "v": trivial_partition(amp).blocks["v"],
                }
            ),
        )
    with pytest.raises(InputError):
        # a foreign edge in a block
        check_partition(
            e2,
            OutSplitPartition(
                {
                    "1": (Block(frozenset({Edge("a21", 0), Edge("a11", 0), Edge("a12", 0)})),),
                    "2": trivial_partition(e2).blocks["2"],
                }
            ),
        )
    with pytest.raises(InputError):
        # coverage hole at vertex 1
        check_partition(
            e2,
            OutSplitPartition(
                {
                    "1": (Block(frozenset({Edge("a11", 0)})),),
                    "2": trivial_partition(e2).blocks["2"],
                }
            ),
        )
    g0 = Graph(["v"])
    with pytest.raises(InputError):
        check_partition(g0, OutSplitPartition({"v": (Block(frozenset()),)}))
    with pytest.raises(InputError):
        # blocks under a vertex the graph does not have
        check_partition(e2, OutSplitPartition({**trivial_partition(e2).blocks, "zz": trivial_partition(e2).blocks["1"]}))


def test_codec_errors(e1):
    with pytest.raises(ParseError):
        parse_point(e1, "a..b")
    with pytest.raises(ParseError):
        parse_germ(e1, "b | @v | (b)*")
    with pytest.raises(ParseError):
        parse_germ(e1, "[b | (b)*]")
    with pytest.raises(ParseError):
        parse_groupoid_element(e1, "[a | 1 | b]")
    two_loops = Graph(["w1", "w2"], [("p", "w1", "w1", 1), ("q", "w2", "w2", 1)])
    with pytest.raises(InputError):
        parse_groupoid_element(two_loops, "((p)* | 0 | (q)*)")  # different orbits
    with pytest.raises(ParseError):
        parse_element(e1, '{"alpha": []}')
    with pytest.raises(ParseError):
        parse_partition(e1, "divide v: {b}")
    with pytest.raises(ParseError):
        parse_graph("graph G\nvertex v\nedge a * 0: v -> v\n")


_NINES = "9" * 4000  # int() reads it; str() refuses the integers below
_CHAIN = Graph(["u", "s", "t"], [("a", "u", "s", 2), ("b", "u", "t", 1)])

# (call, exception type) for each site that once put a caller's huge
# integer into its message whole, or failed with ValueError in str()
_HUGE_INTEGER_SITES = {
    "parse_point": (lambda: parse_point(_CHAIN, f"a[{_NINES}]"), InputError),
    "parse_partition": (lambda: parse_partition(_CHAIN, f"split u: {{a[0]}} | {{a[1], b[{_NINES}]}}"), InputError),
    "check_edge": (lambda: _CHAIN.check_edge(Edge("a", 10**5000)), InputError),
    "canonicalize": (lambda: canonicalize(_CHAIN, "u", [Edge("a", 10**5000)]), InputError),
    "drop_edges": (lambda: drop_edges(_CHAIN, pt(_CHAIN, "a[1]"), 10**5000), DomainError),
    "shift": (lambda: shift(_CHAIN, pt(_CHAIN, "a[1]"), 10**5000), DomainError),
    "multiplicity": (lambda: Graph(["v"], [("a", "v", "v", -(10**5000))]), InputError),
    "edge_at": (lambda: pt(_CHAIN, "b").edge_at(10**5000), DomainError),
    "prefix_edges": (lambda: pt(_CHAIN, "b").prefix_edges(10**5000), DomainError),
    "refuse_over_limit": (lambda: refuse_over_limit(10**5000, "{count} over {limit}"), UnsupportedScaleError),
}


@pytest.mark.parametrize("site", list(_HUGE_INTEGER_SITES))
def test_huge_integers_get_short_messages(site):
    """A caller's integer past the 64-bit bound is shown as a power of two
    it passes, so the message stays short and the exception keeps its type."""
    call, kind = _HUGE_INTEGER_SITES[site]
    with pytest.raises(kind) as info:
        call()
    assert len(str(info.value)) < 120, str(info.value)


def test_integers_within_the_bound_print_their_digits():
    for n in (0, 7, -7, 2**64 - 1, -(2**64 - 1)):
        assert _shown_int(n) == str(n)
    assert _shown_int(2**64) == "more than 2^63" and _shown_int(2**64 + 1) == "more than 2^64"
    assert _shown_int(-(2**64)) == "less than -2^63" and _shown_int(-(10**5000)) == "less than -2^16609"
    with pytest.raises(InputError, match=r"^edge index 5 out of range for class 'a'$"):
        _CHAIN.check_edge(Edge("a", 5))
    with pytest.raises(InputError, match=r"^edge index 5 out of range for class 'a'$"):
        canonicalize(_CHAIN, "u", [Edge("a", 5)])
    with pytest.raises(InputError, match=r"^edge class 'a' has multiplicity -3$"):
        Graph(["v"], [("a", "v", "v", -3)])
    with pytest.raises(DomainError, match=r"^cannot shift a point of length 1 by 2$"):
        shift(_CHAIN, pt(_CHAIN, "b"), 2)


def test_det_needs_square():
    with pytest.raises(InputError):
        det_bareiss([[1, 2], [3, 4], [5, 6]])

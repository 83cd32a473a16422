from __future__ import annotations

import pytest
from hypothesis import strategies as st

from oeg.dsl import parse_point
from oeg.graphs import Graph
from oeg.zoo import (
    amplified_arrow_loop,
    arrow_into_loop,
    chained_loops_four,
    full_shift_two,
    lone_loop,
    lone_vertex,
    two_cycle,
)


@pytest.fixture
def e1() -> Graph:
    return arrow_into_loop()


@pytest.fixture
def f1() -> Graph:
    return two_cycle()


@pytest.fixture
def e2() -> Graph:
    return full_shift_two()


@pytest.fixture
def e2m() -> Graph:
    return chained_loops_four()


@pytest.fixture
def g0() -> Graph:
    return lone_vertex()


@pytest.fixture
def floop() -> Graph:
    return lone_loop()


@pytest.fixture
def amp() -> Graph:
    return amplified_arrow_loop()


def pt(g: Graph, text: str):
    return parse_point(g, text)


@st.composite
def small_graph_st(draw, max_vertices: int = 4, max_mult: int = 2):
    n = draw(st.integers(1, max_vertices))
    verts = [f"v{i}" for i in range(n)]
    classes = []
    for i in range(n):
        for j in range(n):
            mult = draw(st.sampled_from([0, 0, 0, 1, 1, max_mult]))
            if mult:
                classes.append((f"e{i}_{j}", verts[i], verts[j], mult))
    return Graph(verts, classes)

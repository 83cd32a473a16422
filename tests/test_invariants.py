from __future__ import annotations

import itertools
import random

import pytest

from refinement_oracle import round_based_isomorphism
from sampling import random_graph
from oeg.digraphs import closure, condensation, isomorphism
from oeg.errors import UnsupportedScaleError
from oeg.graphs import INF, Graph
from oeg.invariants import (
    det_bareiss,
    det_invariant,
    digraph_isomorphic,
    invariant_report,
    reachability,
)
from oeg.moves import amplified_transitive_closure, amplify, decide_amplified_oe
from oeg.zoo import iter_small_graphs


def adjacency_matrix(g):
    """Test oracle: the dense vertex matrix, total edge multiplicity per
    ordered vertex pair (the library's helper before the determinant went
    sparse); only defined when every class is finite."""
    index = {v: i for i, v in enumerate(g.vertices)}
    n = len(g.vertices)
    a = [[0] * n for _ in range(n)]
    for c in g.edge_classes:
        if c.is_infinite:
            raise UnsupportedScaleError("graphs with infinite classes have no adjacency matrix here")
        a[index[c.src]][index[c.dst]] += c.mult
    return a


def cofactor_det(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def dense_bareiss(matrix):
    """Test oracle: dense fraction-free (Bareiss) elimination with row
    pivoting (the library's determinant before sparse elimination)."""
    m = [row[:] for row in matrix]
    n = len(m)
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            pivot = next((r for r in range(i + 1, n) if m[r][i] != 0), None)
            if pivot is None:
                return 0
            m[i], m[pivot] = m[pivot], m[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * (m[-1][-1] if n else 1)


def i_minus_a(g):
    a = adjacency_matrix(g)
    return [[(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(a)]


def permutation_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        length = 0
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def out_degree_two(rng, n):
    vs = [f"v{i}" for i in range(n)]
    return Graph(vs, [
        (f"e{i}_{j}", vs[i], vs[j], rng.randint(1, 2))
        for i in range(n)
        for j in sorted(rng.sample(range(n), 2))
    ])


def multiplicity_pattern(g):
    pat = {}
    for c in g.edge_classes:
        pat.setdefault((c.src, c.dst), []).append("inf" if c.is_infinite else c.mult)
    return {k: tuple(sorted(v, key=str)) for k, v in pat.items()}


def brute_force_isomorphic(g1, g2):
    """Test oracle: backtracking over vertex bijections with degree-profile
    pruning (the library's decision before refinement replaced it)."""
    if len(g1.vertices) != len(g2.vertices):
        return None
    p1, p2 = multiplicity_pattern(g1), multiplicity_pattern(g2)

    def profile(g, pat, v):
        outs = sorted((str(pat.get((v, w), ()))) for w in g.vertices)
        ins = sorted((str(pat.get((w, v), ()))) for w in g.vertices)
        return (tuple(outs), tuple(ins), str(pat.get((v, v), ())))

    prof1 = {v: profile(g1, p1, v) for v in g1.vertices}
    prof2 = {v: profile(g2, p2, v) for v in g2.vertices}
    if sorted(prof1.values()) != sorted(prof2.values()):
        return None
    candidates = {
        v: [w for w in g2.vertices if prof2[w] == prof1[v]] for v in g1.vertices
    }
    order = sorted(g1.vertices, key=lambda v: len(candidates[v]))

    def backtrack(i, assign, used):
        if i == len(order):
            return dict(assign)
        v = order[i]
        for w in candidates[v]:
            if w in used:
                continue
            ok = True
            for u, wu in assign.items():
                if p1.get((v, u), ()) != p2.get((w, wu), ()) or p1.get((u, v), ()) != p2.get((wu, w), ()):
                    ok = False
                    break
            if ok and p1.get((v, v), ()) == p2.get((w, w), ()):
                assign[v] = w
                used.add(w)
                got = backtrack(i + 1, assign, used)
                if got is not None:
                    return got
                del assign[v]
                used.remove(w)
        return None

    return backtrack(0, {}, set())


def degree_profile(g):
    out, inn, loop = ({v: 0 for v in g.vertices} for _ in range(3))
    for c in g.edge_classes:
        out[c.src] += c.mult
        inn[c.dst] += c.mult
        if c.src == c.dst:
            loop[c.src] += c.mult
    return (len(g.vertices), tuple(sorted((out[v], inn[v], loop[v]) for v in g.vertices)))


def relabelled(g, rng, prefix="r"):
    perm = [f"{prefix}{i}" for i in range(len(g.vertices))]
    rng.shuffle(perm)
    relabel = dict(zip(g.vertices, perm))
    classes = [(c.cid, relabel[c.src], relabel[c.dst], c.mult) for c in g.edge_classes]
    rng.shuffle(classes)
    order = list(relabel.values())
    rng.shuffle(order)
    return Graph(order, classes)


def assert_carries_patterns(g1, g2, bij):
    assert sorted(bij) == sorted(g1.vertices) and sorted(bij.values()) == sorted(g2.vertices)
    moved = {(bij[s], bij[d]): p for (s, d), p in multiplicity_pattern(g1).items()}
    assert moved == multiplicity_pattern(g2)


def assert_carries_reachability(g1, g2, bij):
    assert sorted(bij) == sorted(g1.vertices) and sorted(bij.values()) == sorted(g2.vertices)
    r1, r2 = reachability(g1), reachability(g2)
    assert all(r1[(a, b)] == r2[(bij[a], bij[b])] for a, b in r1)


def test_adjacency_examples(e2, e2m, g0):
    assert adjacency_matrix(e2) == [[1, 1], [1, 1]]
    assert adjacency_matrix(e2m) == [
        [1, 1, 0, 0],
        [1, 1, 1, 0],
        [0, 1, 1, 1],
        [0, 0, 1, 1],
    ]
    assert adjacency_matrix(g0) == [[0]]
    with pytest.raises(UnsupportedScaleError):
        adjacency_matrix(amplify(e2))


def test_det_examples(e2, e2m, g0):
    assert det_invariant(e2) == -1
    assert det_invariant(e2m) == 1
    assert det_invariant(g0) == 1


def test_det_against_cofactor_oracle():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert det_bareiss(m) == cofactor_det(m)


def test_det_matches_dense_oracle_on_pool():
    count = 0
    for g in iter_small_graphs(3):
        if any(c.is_infinite for c in g.edge_classes):
            continue
        m = i_minus_a(g)
        assert det_bareiss(m) == dense_bareiss(m)
        count += 1
    assert count == 3459


def sparse_random_matrix(rng):
    """An n x n matrix, n <= 10, at least half of whose entries are zero;
    some get a zero row, a zero column, a repeated row or a zero diagonal."""
    values = (-5, -3, -2, -1, 1, 1, 2, 3, 7)
    while True:
        n = rng.randint(1, 10)
        q = rng.uniform(0.05, 0.4)
        m = [[rng.choice(values) if rng.random() < q else 0 for _ in range(n)] for _ in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        for i, j in enumerate(perm):  # a nonzero transversal, mostly off the diagonal
            m[i][j] = rng.choice(values)
        shape = rng.randrange(5)
        if shape == 1:
            m[rng.randrange(n)] = [0] * n
        elif shape == 2:
            j = rng.randrange(n)
            for row in m:
                row[j] = 0
        elif shape == 3 and n > 1:
            i, k = rng.sample(range(n), 2)
            m[i] = [rng.choice((-2, 1, 3)) * x for x in m[k]]
        elif shape == 4:
            for i in range(n):
                m[i][i] = 0
        if 2 * sum(x != 0 for row in m for x in row) <= n * n:
            return m


def test_det_matches_dense_oracle_on_sparse_random():
    rng = random.Random(41)
    singular = regular = swapped = zero_row = zero_col = 0
    for _ in range(2000):
        m = sparse_random_matrix(rng)
        copy = [row[:] for row in m]
        d = det_bareiss(m)
        assert m == copy
        assert d == dense_bareiss(m)
        singular += d == 0
        regular += d != 0
        swapped += d != 0 and m[0][0] == 0
        zero_row += any(not any(row) for row in m)
        zero_col += any(not any(col) for col in zip(*m))
    assert min(singular, regular, swapped, zero_row, zero_col) >= 200, (
        singular, regular, swapped, zero_row, zero_col)


def test_det_matches_dense_oracle_on_out_degree_two():
    rng = random.Random(42)
    for n in (50, 100, 150):
        m = i_minus_a(out_degree_two(rng, n))
        copy = [row[:] for row in m]
        assert det_bareiss(m) == dense_bareiss(m)
        assert m == copy


def test_det_of_disjoint_union_600():
    # 100 copies of one 6-vertex graph in a shuffled order: det(I - A) of a
    # block-diagonal matrix is the product of the blocks' determinants
    rng = random.Random(43)
    d = 0
    while abs(d) < 2:
        block = out_degree_two(rng, 6)
        d = cofactor_det(i_minus_a(block))
    copies = [relabelled(block, rng, prefix=f"c{k}_") for k in range(100)]
    vs = [v for h in copies for v in h.vertices]
    rng.shuffle(vs)
    classes = [(f"c{k}_{c.cid}", c.src, c.dst, c.mult) for k, h in enumerate(copies) for c in h.edge_classes]
    assert det_invariant(Graph(vs, classes)) == d**100


def test_det_invariant_under_relabelling_300():
    rng = random.Random(44)
    g = out_degree_two(rng, 300)
    d = det_invariant(g)
    assert d != 0 and det_invariant(relabelled(g, rng)) == d


def test_det_of_shuffled_triangular():
    # rows and columns of a sparse upper-triangular matrix permuted by
    # sigma and tau: det = sign(sigma) * sign(tau) * product of the diagonal
    rng = random.Random(45)
    n = 120
    t = [[0] * n for _ in range(n)]
    product = 1
    for i in range(n):
        t[i][i] = rng.choice((-1, 1)) * rng.randint(10**12, 10**13)
        product *= t[i][i]
        for j in rng.sample(range(i + 1, n), min(3, n - i - 1)):
            t[i][j] = rng.randint(-9, 9)
    sigma, tau = list(range(n)), list(range(n))
    rng.shuffle(sigma)
    rng.shuffle(tau)
    m = [[t[sigma[i]][tau[j]] for j in range(n)] for i in range(n)]
    assert det_bareiss(m) == permutation_sign(sigma) * permutation_sign(tau) * product


def test_reachability_examples(e1):
    reach = reachability(e1)
    assert reach[("u", "v")] and reach[("v", "v")]
    assert not reach[("u", "u")] and not reach[("v", "u")]


def sized_random_graph(rng, n, out_deg):
    vs = [f"v{i}" for i in range(n)]
    return Graph(vs, [
        (f"e{i}_{j}", vs[i], vs[j], INF if rng.random() < 0.2 else rng.randint(1, 2))
        for i in range(n)
        for j in range(n)
        if rng.random() < out_deg / n
    ])


def test_reachability_matches_matrix_powers():
    rng = random.Random(9)
    graphs = [random_graph(rng, max_vertices=5, max_mult=2, edge_prob=0.4, inf_prob=0.2) for _ in range(60)]
    graphs += [sized_random_graph(rng, n, 1.3) for n in (20, 20, 40)]
    for g in graphs:
        idx = {v: i for i, v in enumerate(g.vertices)}
        n = len(g.vertices)
        step = [[False] * n for _ in range(n)]
        for c in g.edge_classes:
            step[idx[c.src]][idx[c.dst]] = True
        acc = [row[:] for row in step]
        power = [row[:] for row in step]
        for _ in range(n - 1):
            power = [
                [any(power[i][k] and step[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            acc = [[acc[i][j] or power[i][j] for j in range(n)] for i in range(n)]
        want = {(v, w): acc[idx[v]][idx[w]] for v in g.vertices for w in g.vertices}
        assert reachability(g) == want


def _searched(succ, v):
    """The nodes a path of length >= 1 leads to from ``v``, by a
    breadth-first search along the successor lists ``succ``."""
    seen = set(succ[v])
    frontier = list(seen)
    while frontier:
        frontier = [x for u in frontier for x in succ[u] if x not in seen and not seen.add(x)]
    return seen


def bfs_reachability(g):
    """Test oracle: positive-length reachability of ordered vertex pairs, by
    a breadth-first search from each vertex, keyed in the library's order."""
    succ = {v: [] for v in g.vertices}
    for c in g.edge_classes:
        succ[c.src].append(c.dst)
    reached = {v: _searched(succ, v) for v in g.vertices}
    return {(v, w): w in reached[v] for v in g.vertices for w in g.vertices}


def out_regular_graph(rng, n, out_deg):
    """n vertices, each with ``out_deg`` classes to distinct random ranges."""
    vs = [f"v{i}" for i in range(n)]
    return Graph(vs, [(f"e{i}_{j}", vs[i], vs[j], 1) for i in range(n) for j in rng.sample(range(n), out_deg)])


def test_reachability_matches_the_comprehension():
    """Values and key order agree with a breadth-first search from every
    vertex on the pool and on out-regular digraphs of 50 to 150 vertices."""
    rng = random.Random(19)
    graphs = list(iter_small_graphs(3))
    graphs += [out_regular_graph(rng, n, d) for n in (50, 75, 100, 125, 150) for d in (1, 2)]
    for g in graphs:
        got, want = reachability(g), bfs_reachability(g)
        assert got == want and list(got) == list(want)


def _arc_closure(k, arcs):
    """Bit ``d`` of entry ``c``: a path of length >= 1 along ``arcs`` leads
    from ``c`` to ``d``, found by a search from each of the ``k`` nodes."""
    succ = [[] for _ in range(k)]
    for c, d in arcs:
        succ[c].append(d)
    return [sum(1 << d for d in _searched(succ, c)) for c in range(k)]


def test_closure_matches_a_search_from_every_vertex():
    """On the pool and on 300 random digraphs of up to 14 vertices: the
    components are the classes of mutual reachability, numbered so that a
    component reaches only smaller ones; each cyclic flag is the component's
    self-reach bit; ``reach`` is the breadth-first reachability read per
    component; and ``arcs`` is a transitive reduction, a DAG whose closure
    is ``reach`` off the diagonal and from which no arc can be dropped."""
    rng = random.Random(25)
    graphs = list(iter_small_graphs(3))
    graphs += [random_graph(rng, max_vertices=14, edge_prob=rng.choice((0.1, 0.2, 0.35))) for _ in range(300)]
    for g in graphs:
        cond, reach, arcs = closure(g)
        bfs = bfs_reachability(g)
        comp = dict(zip(g.vertices, cond.comp))
        assert sorted(i for m in cond.members for i in m) == list(range(len(g.vertices)))
        for c, m in enumerate(cond.members):
            assert list(m) == sorted(m) and all(cond.comp[i] == c for i in m)
        for v, w in itertools.product(g.vertices, repeat=2):
            c, d = comp[v], comp[w]
            assert (reach[c] >> d & 1 == 1) == bfs[v, w]
            assert (c == d) == (v == w or bfs[v, w] and bfs[w, v])
            assert not bfs[v, w] or c >= d
        for c, (size, cyclic) in enumerate(cond.label):
            v = g.vertices[cond.members[c][0]]
            assert size == len(cond.members[c]) and cyclic == (reach[c] >> c & 1 == 1) == bfs[v, v]
        k = len(cond.members)
        assert set(arcs.values()) <= {0} and all(c > d for c, d in arcs)
        rows = _arc_closure(k, arcs)
        assert [row | reach[c] & 1 << c for c, row in enumerate(rows)] == list(reach)
        for arc in arcs:
            assert _arc_closure(k, [a for a in arcs if a != arc]) != rows


def test_digraph_isomorphic(f1):
    relabeled = Graph(["x", "y"], [("cc", "x", "y", 1), ("dd", "y", "x", 1)])
    assert digraph_isomorphic(f1, relabeled) is not None
    from oeg.zoo import arrow_into_loop

    assert digraph_isomorphic(arrow_into_loop(), f1) is None
    # multiplicity patterns matter, including infinity as its own symbol
    g1 = Graph(["v"], [("a", "v", "v", 2)])
    g2 = Graph(["v"], [("a", "v", "v", 1), ("b", "v", "v", 1)])
    g3 = amplify(g1)
    assert digraph_isomorphic(g1, g2) is None
    assert digraph_isomorphic(g1, g3) is None
    assert digraph_isomorphic(g2, g2) is not None


def test_digraph_isomorphic_random_relabel():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, max_vertices=5, max_mult=2, edge_prob=0.4, inf_prob=0.1)
        shuffled = relabelled(g, rng)
        assert_carries_patterns(g, shuffled, digraph_isomorphic(g, shuffled))


def test_invariant_report_examples(e1, e2, g0):
    rep1 = invariant_report(e1)
    assert not rep1.condition_l
    assert rep1.det_i_minus_a == 0  # A = [[0,1],[0,1]]
    assert rep1.boundary_finite and rep1.boundary_size == 2
    assert rep1.fixed_point_count == 1
    assert rep1.isotropy_census == {1: 2}

    rep2 = invariant_report(e2)
    assert rep2.condition_l and rep2.det_i_minus_a == -1
    assert not rep2.boundary_finite

    rep0 = invariant_report(g0)
    assert rep0.condition_l and rep0.det_i_minus_a == 1
    assert rep0.boundary_finite and rep0.boundary_size == 1
    assert rep0.isotropy_census == {0: 1}

    js = rep1.to_json()
    assert set(js) == {
        "conditionL", "exitlessLoop", "singularVertices", "boundary",
        "detIMinusA", "fixedPoints", "isotropyCensus",
    }


def test_amplified_oe_preserves_vertex_count():
    rng = random.Random(13)
    pool = [random_graph(rng, max_vertices=4, max_mult=2, edge_prob=0.5) for _ in range(10)]
    for a, b in itertools.combinations(pool, 2):
        ok, bij = decide_amplified_oe(a, b)
        if ok:
            assert len(a.vertices) == len(b.vertices)
            assert set(bij) == set(a.vertices) and set(bij.values()) == set(b.vertices)


def test_report_on_amplified_graph():
    from oeg.zoo import amplified_arrow_loop

    rep = invariant_report(amplified_arrow_loop())
    assert rep.det_i_minus_a is None
    assert not rep.boundary_finite and rep.isotropy_census is None
    assert rep.singular_vertices == {"u": "infinite-emitter", "v": "infinite-emitter"}
    assert rep.fixed_point_count == 1  # the loop-class representative


# -- refinement against the brute-force oracle ----------------------------------


def test_isomorphic_matches_brute_force_in_profile_buckets():
    # every pool graph and a relabelled copy, bucketed by degree profile:
    # each graph meets its own copy ("yes") and every other graph the
    # profile cannot tell apart ("no"; pool graphs are pairwise
    # non-isomorphic)
    rng = random.Random(22)
    buckets = {}
    for g in iter_small_graphs(3):
        for h in (g, relabelled(g, rng)):
            buckets.setdefault(degree_profile(h), []).append(h)
    yes = no = 0
    for graphs in buckets.values():
        for a, b in itertools.combinations(graphs, 2):
            bij = digraph_isomorphic(a, b)
            assert (bij is None) == (brute_force_isomorphic(a, b) is None)
            if bij is None:
                no += 1
            else:
                assert_carries_patterns(a, b, bij)
                yes += 1
    assert (yes, no) == (3459, 1028)


def perturbed(g, rng):
    """A relabelling of ``g`` with one class changed: its multiplicity moves
    between 1, 2 and infinity, or its range moves to another vertex."""
    classes = [tuple(c) for c in g.edge_classes]
    i = rng.randrange(len(classes))
    cid, src, dst, mult = classes[i]
    if rng.random() < 0.5:
        mult = rng.choice([m for m in (1, 2, INF) if m != mult])
    else:
        dst = rng.choice(g.vertices)
    classes[i] = (cid, src, dst, mult)
    return relabelled(Graph(g.vertices, classes), rng)


def test_isomorphic_matches_brute_force_on_infinite_multigraphs():
    rng = random.Random(23)
    yes = no = 0
    for _ in range(150):
        g = random_graph(rng, max_vertices=8, max_mult=2, edge_prob=0.35, inf_prob=0.3)
        if not g.edge_classes:
            continue
        for h in (relabelled(g, rng), perturbed(g, rng)):
            bij = digraph_isomorphic(g, h)
            assert (bij is None) == (brute_force_isomorphic(g, h) is None)
            if bij is None:
                no += 1
            else:
                assert_carries_patterns(g, h, bij)
                yes += 1
    assert yes > 150 and no > 50


def test_decide_amplified_matches_brute_force():
    # each graph against the class representatives met so far with the same
    # number of reachable pairs, as scripts/pool_survey.py counts classes
    rng = random.Random(24)
    graphs = list(itertools.islice(iter_small_graphs(3), 0, None, 5))
    graphs += [random_graph(rng, max_vertices=6, max_mult=1, edge_prob=0.3) for _ in range(60)]
    graphs += [relabelled(g, rng) for g in graphs[::7]]
    reps = {}
    yes = no = 0
    for g in graphs:
        group = reps.setdefault((len(g.vertices), sum(reachability(g).values())), [])
        for r in group:
            ok, bij = decide_amplified_oe(g, r)
            want = brute_force_isomorphic(amplified_transitive_closure(g), amplified_transitive_closure(r))
            assert ok == (want is not None) and ok == (bij is not None)
            if ok:
                assert_carries_reachability(g, r, bij)
                yes += 1
                break
            no += 1
        else:
            group.append(g)
    assert yes > 700 and no > 400


def coloured_digraph(rng, n, colours):
    vertex = [rng.randrange(colours) for _ in range(n)]
    arcs = {(i, j): rng.randrange(colours) for i in range(n) for j in range(n) if rng.random() < 2.5 / n}
    return vertex, arcs


def cycle_union(lengths):
    """Disjoint directed cycles: colour refinement alone leaves every vertex
    in one cell, so only individualisation tells such unions apart."""
    arcs, start = {}, 0
    for m in lengths:
        arcs.update({(start + i, start + (i + 1) % m): 0 for i in range(m)})
        start += m
    return [0] * start, arcs


def permuted(vertex, arcs, rng):
    perm = list(range(len(vertex)))
    rng.shuffle(perm)
    moved = [None] * len(vertex)
    for i, c in enumerate(vertex):
        moved[perm[i]] = c
    return moved, {(perm[i], perm[j]): a for (i, j), a in arcs.items()}


def test_isomorphism_matches_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import DiGraphMatcher

    def to_nx(vertex, arcs):
        d = nx.DiGraph()
        d.add_nodes_from((i, {"c": c}) for i, c in enumerate(vertex))
        d.add_edges_from((i, j, {"c": a}) for (i, j), a in arcs.items())
        return d

    rng = random.Random(25)
    cases = []
    for _ in range(30):
        n = rng.randint(10, 40)
        g = coloured_digraph(rng, n, rng.choice((1, 2, 3)))
        cases.append((g, permuted(*g, rng)))
        h_vertex, h_arcs = permuted(*g, rng)
        if h_arcs and rng.random() < 0.5:
            h_arcs.pop(next(iter(h_arcs)))
            h_arcs[(rng.randrange(n), rng.randrange(n))] = 0
        else:
            h_vertex[rng.randrange(n)] = 1
        cases.append((g, (h_vertex, h_arcs)))
    for _ in range(10):
        n = rng.randint(10, 40)
        cut = rng.randint(3, n - 3)
        other = rng.randint(3, n - 3)
        cases.append((cycle_union([cut, n - cut]), permuted(*cycle_union([other, n - other]), rng)))
    verdicts = set()
    for (v1, a1), (v2, a2) in cases:
        phi = isomorphism(v1, a1, v2, a2)
        want = DiGraphMatcher(
            to_nx(v1, a1), to_nx(v2, a2),
            node_match=lambda x, y: x["c"] == y["c"], edge_match=lambda x, y: x["c"] == y["c"],
        ).is_isomorphic()
        assert (phi is not None) == want
        if phi is not None:
            assert sorted(phi) == list(range(len(v1)))
            assert all(v1[i] == v2[phi[i]] for i in range(len(v1)))
            assert {(phi[i], phi[j]): a for (i, j), a in a1.items()} == a2
        verdicts.add(want)
    assert verdicts == {True, False}


def assert_same_verdict(g, h):
    """``isomorphism`` and the round-based oracle agree on two coloured
    digraphs, and a returned map carries every vertex colour and every
    coloured arc; the verdict."""
    phi = isomorphism(*g, *h)
    assert (phi is None) == (round_based_isomorphism(*g, *h) is None)
    if phi is not None:
        (v1, a1), (v2, a2) = g, h
        assert sorted(phi) == list(range(len(v1)))
        assert all(v1[i] == v2[phi[i]] for i in range(len(v1)))
        assert {(phi[i], phi[j]): a for (i, j), a in a1.items()} == a2
    return phi is not None


def reach_profile(g):
    """The sorted (out-reach, in-reach, self-reach) of every vertex, as
    ``scripts/pool_survey.py`` buckets graphs, read off a breadth-first
    search from every vertex."""
    reach = bfs_reachability(g)
    return tuple(sorted(
        (sum(reach[v, w] for w in g.vertices), sum(reach[w, v] for w in g.vertices), reach[v, v])
        for v in g.vertices
    ))


def closed_dag(g):
    """The labelled component DAG closed under reachability, as
    ``decide_amplified_oe`` compared it before it took the reduction: the
    components are the condensation's, and their reachability is a
    breadth-first search's between first members."""
    cond = condensation(g)
    reach = bfs_reachability(g)
    first = [g.vertices[m[0]] for m in cond.members]
    return cond.label, {(c, d): 0 for c, v in enumerate(first) for d, w in enumerate(first) if c != d and reach[v, w]}


def test_isomorphism_matches_round_based_oracle_in_reach_profile_buckets():
    """Every pair of pool graphs inside a reach-profile bucket, on the
    reduced component DAGs that ``decide_amplified_oe`` compares and on the
    closures it compared before.  Graphs with equal inputs give equal
    answers, so each bucket is checked on its distinct inputs and a
    relabelled copy of each, every ordered pair."""
    rng = random.Random(30)
    buckets = {}
    for g in iter_small_graphs(3):
        bucket = buckets.setdefault((len(g.vertices), reach_profile(g)), {})
        cond, _, arcs = closure(g)
        for dag in ((cond.label, arcs), closed_dag(g)):
            bucket.setdefault((tuple(dag[0]), tuple(sorted(dag[1].items()))), dag)
    yes = no = 0
    for bucket in buckets.values():
        inputs = list(bucket.values())
        inputs += [permuted(list(v), a, rng) for v, a in inputs]
        for g, h in itertools.product(inputs, repeat=2):
            if assert_same_verdict(g, h):
                yes += 1
            else:
                no += 1
    assert len(buckets) == 49 and (yes, no) == (284, 64)


def test_isomorphism_matches_round_based_oracle_on_random_digraphs():
    """2000 random arc-coloured digraphs of up to 8 vertices, self-loops
    included, each against a relabelling and against a relabelled copy with
    one change: an arc moved or recoloured, or a vertex recoloured.  A third
    of them are unions of one or two permutations' cycles, on which
    refinement splits nothing and the search must backtrack."""
    rng = random.Random(31)
    yes = no = 0
    for k in range(2000):
        n = rng.randint(1, 8)
        colours = rng.choice((1, 2, 3))
        if k % 3:
            vertex = [rng.randrange(colours) for _ in range(n)]
            arcs = {
                (i, j): rng.randrange(colours)
                for i in range(n) for j in range(n) if rng.random() < rng.choice((0.15, 0.3, 0.5))
            }
        else:
            vertex, arcs = [0] * n, {}
            for a in range(rng.randint(1, 2)):
                image = list(range(n))
                rng.shuffle(image)
                arcs.update({(i, j): a for i, j in enumerate(image)})
        h_vertex, h_arcs = permuted(vertex, arcs, rng)
        if h_arcs and rng.random() < 0.6:
            h_arcs.pop(rng.choice(list(h_arcs)))
            h_arcs[rng.randrange(n), rng.randrange(n)] = rng.randrange(colours)
        else:
            h_vertex[rng.randrange(n)] = rng.randrange(colours)
        for h in (permuted(vertex, arcs, rng), (h_vertex, h_arcs)):
            if assert_same_verdict((vertex, arcs), h):
                yes += 1
            else:
                no += 1
    assert yes > 2000 and no > 1000


# -- sizes past the brute force -------------------------------------------------


def cubic_bipartite(rng, halves, prefix):
    """Disjoint connected 3-regular bipartite components with the given side
    sizes, every edge from side A to side B: the union of the identity, a
    cyclic shift (which already joins each component into one cycle) and a
    random perfect matching that repeats neither."""
    vs, classes, off = [], [], 0
    for h in halves:
        while True:
            third = list(range(h))
            rng.shuffle(third)
            if all(third[i] not in (i, (i + 1) % h) for i in range(h)):
                break
        for i in range(h):
            for j in (i, (i + 1) % h, third[i]):
                classes.append((f"e{off + i}_{off + j}", f"{prefix}a{off + i}", f"{prefix}b{off + j}", 1))
        off += h
    vs = [f"{prefix}a{i}" for i in range(off)] + [f"{prefix}b{i}" for i in range(off)]
    return Graph(vs, classes)


def test_decide_amplified_cubic_bipartite_30():
    rng = random.Random(26)
    connected = cubic_bipartite(rng, (15,), "c")
    split = cubic_bipartite(rng, (7, 8), "s")
    assert decide_amplified_oe(connected, split) == (False, None)
    assert decide_amplified_oe(split, connected) == (False, None)
    for g in (connected, split):
        h = relabelled(g, rng)
        ok, bij = decide_amplified_oe(g, h)
        assert ok
        assert_carries_reachability(g, h, bij)


def test_decide_amplified_dense_closure_300():
    rng = random.Random(27)
    n = 300
    vs = [f"v{i}" for i in range(n)]
    classes = [(f"c{i}", vs[i], vs[(i + 1) % n], 1) for i in range(n)]
    classes += [(f"x{k}", vs[rng.randrange(n)], vs[rng.randrange(n)], 1) for k in range(n)]
    g = Graph(vs, classes)
    h = relabelled(g, rng)
    ok, bij = decide_amplified_oe(g, h)
    assert ok
    assert_carries_reachability(g, h, bij)
    assert digraph_isomorphic(g, g) is not None


def test_chain_of_two_cycles_1200():
    # a depth-first search of this chain is 1200 calls deep
    n = 1200
    vs = [f"v{i}" for i in range(n)]
    classes = [(f"f{i}", vs[i], vs[i + 1], 1) for i in range(n - 1)]
    classes += [(f"b{i}", vs[i + 1], vs[i], 1) for i in range(n - 1)]
    g = Graph(vs, classes)
    reach = reachability(g)
    assert len(reach) == n * n and all(reach.values())
    del reach
    ok, bij = decide_amplified_oe(g, relabelled(g, random.Random(28)))
    assert ok and len(bij) == n
    # without one back edge the chain falls into two 600-vertex components
    broken = Graph(vs, [c for c in classes if c[0] != "b599"])
    assert decide_amplified_oe(g, broken) == (False, None)


# -- long inputs: the refinement touches only the cells a split reaches ----------


def path_graph(n, prefix="v"):
    vs = [f"{prefix}{i}" for i in range(n)]
    return Graph(vs, [(f"e{i}", vs[i], vs[i + 1], 1) for i in range(n - 1)])


def test_decide_amplified_path_2000():
    g = path_graph(2000)
    h = relabelled(g, random.Random(32))
    ok, bij = decide_amplified_oe(g, h)
    assert ok
    # a path's only reachability isomorphism follows it from its source
    order = {c.src: c.dst for c in h.edge_classes}
    at = next(iter(set(h.vertices) - set(order.values())))
    for v in g.vertices:
        assert bij[v] == at
        at = order.get(at)


def test_decide_amplified_path_2000_without_a_middle_arc():
    g = path_graph(2000)
    broken = Graph(g.vertices, [tuple(c) for c in g.edge_classes if c.cid != "e1000"])
    assert decide_amplified_oe(g, broken) == (False, None)
    assert decide_amplified_oe(broken, g) == (False, None)


def layered_dag(rng, layers, width):
    """Components in ``layers`` layers of 1 to ``width``: a lone vertex, a
    loop or a 2-cycle, each with one to three arcs into random components of
    the next few layers."""
    vs, classes, comps = [], [], []
    for layer in range(layers):
        row = []
        for _ in range(rng.randint(1, width)):
            k = len(vs)
            kind = rng.randrange(3)
            members = [f"v{k}", f"v{k + 1}"] if kind == 2 else [f"v{k}"]
            vs += members
            if kind == 1:
                classes.append((f"l{k}", members[0], members[0], 1))
            if kind == 2:
                classes += [(f"f{k}", members[0], members[1], 1), (f"b{k}", members[1], members[0], 1)]
            row.append(members)
        comps.append(row)
    for layer, row in enumerate(comps[:-1]):
        for members in row:
            for m in range(rng.randint(1, 3)):
                target = rng.choice(comps[rng.randint(layer + 1, min(layer + 3, layers - 1))])
                classes.append((f"x{members[0]}_{m}", rng.choice(members), rng.choice(target), 1))
    return Graph(vs, classes)


def assert_carries_closure(g1, g2, bij):
    """``bij`` carries positive-length reachability, found by a
    breadth-first search from every vertex."""
    r1, r2 = bfs_reachability(g1), bfs_reachability(g2)
    assert all(r2[bij[v], bij[w]] == r for (v, w), r in r1.items())


def test_decide_amplified_layered_dag_500():
    rng = random.Random(33)
    g = layered_dag(rng, 100, 9)
    cond, _, arcs = closure(g)
    assert 400 <= len(cond.members) <= 600
    h = relabelled(g, rng)
    ok, bij = decide_amplified_oe(g, h)
    assert ok
    assert_carries_closure(g, h, bij)
    # every arc of the reduction is needed: dropping the classes that carry
    # one changes the closure
    c, d = sorted(arcs)[len(arcs) // 2]
    cut = [tuple(e) for e in g.edge_classes
           if (cond.comp[g.vertices.index(e.src)], cond.comp[g.vertices.index(e.dst)]) != (c, d)]
    assert decide_amplified_oe(g, Graph(g.vertices, cut)) == (False, None)


def test_digraph_isomorphic_path_2000():
    rng = random.Random(34)
    g = path_graph(2000)
    h = relabelled(g, rng)
    assert_carries_patterns(g, h, digraph_isomorphic(g, h))

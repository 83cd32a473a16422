"""The four workloads: seeded inputs, their DSL round trip, and the queries.

``build(name, seed, workdir)`` does the whole set-up that ``setup_s``
measures after the interpreter has started: import ``oeg``, generate the
inputs from the seed, write them as DSL text and parse them back.  It returns
the queries together with a fingerprint of every generated text.  A query's
``run`` does the library work and reduces the answer to a small verdict; its
``expect`` computes the right verdict with the oracles, never with ``oeg``,
and is only called after the timed loop.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import inputs
import oracles
from inputs import GraphSpec, dsl_text

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-query time limits in seconds.  Each sits at least 3x away from every
# query's time on the reference machine (see README.md), so the set of
# queries that fail repeats exactly from run to run.
LIMITS = {"germ_pool": 1.0, "finite_oe": 10.0, "amplified": 2.0, "cli_cold": 5.0}

# Known defects of the library at the time the benchmark was defined.  Each
# probe stays in its query set; a later fix turns its failure into a pass.
PROBES = {
    "oe_12": "search_oe_witness refuses censuses above 8 points (UnsupportedScaleError) on a 12-point OE pair",
    "census_1200": "boundary_census recurses once per chain vertex and hits RecursionError on a 1200-vertex chain",
    "groupoid_70": "parse_groupoid_element scans 64 steps only, so two 70-edge preperiods are rejected",
    "amp_18": "digraph_isomorphic backtracks for about 8 s on an 18-vertex connected vs two-component pair",
    "cli_census_1200": "oeg census exits 1 (the 'no' code) on the RecursionError of a 1200-vertex chain",
    "cli_compose_70": "oeg groupoid compose exits 2 because the 64-step scan rejects 70-edge preperiods",
    "cli_search_oe_12": "oeg search-oe exits 2 on a 12-point census (UnsupportedScaleError)",
}


@dataclass(eq=False)
class Query:
    kind: str
    run: Callable[[], object]
    expect: Callable[[], object]
    probe: str | None = None
    cli: bool = False  # verdict is (exit code, parsed stdout)
    decision: bool = False  # CLI: exit codes 0/1 carry the verdict


class CliLauncher:
    """Runs ``python -m oeg.cli`` in a fresh interpreter per query.  When
    ``trace_dir`` is set, the command runs under ``cli_child.py`` instead,
    which traces the child and leaves its per-layer figures in ``parts``."""

    def __init__(self, workdir: str | None):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.trace_dir: str | None = None
        self.parts: list[dict] = []

    def run(self, argv: list[str]) -> subprocess.CompletedProcess:
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "oeg.cli", *argv]
        else:
            out = os.path.join(self.trace_dir, f"trace{len(self.parts)}.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), out, *argv]
        try:
            return subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=LIMITS["cli_cold"], cwd=self.workdir)
        finally:
            if self.trace_dir is not None and os.path.exists(out):
                with open(out, encoding="utf-8") as fh:
                    self.parts.append(json.load(fh))
                os.remove(out)


@dataclass
class Setup:
    queries: list[Query]
    limit: float
    cli: CliLauncher
    texts: list[str] = field(default_factory=list)
    graph_texts: list[str] = field(default_factory=list)

    def fingerprint(self, seed: int) -> dict:
        digest = hashlib.sha256()
        for text in self.texts:
            digest.update(text.encode())
            digest.update(b"\0")
        return {
            "seed": seed,
            "sha256": digest.hexdigest(),
            "queries_per_kind": dict(sorted(Counter(q.kind for q in self.queries).items())),
        }


class Loader:
    """Writes every generated input as text, records it for the fingerprint
    and parses it back with the library's DSL."""

    def __init__(self, dsl):
        self.dsl = dsl
        self.texts: list[str] = []
        self.graph_texts: list[str] = []

    def graph(self, spec: GraphSpec):
        text = dsl_text(spec)
        self.texts.append(text)
        self.graph_texts.append(text)
        return self.dsl.parse_graph(text).graph

    def point(self, g, text: str):
        self.texts.append(text)
        return self.dsl.parse_point(g, text)

    def note(self, text: str) -> str:
        self.texts.append(text)
        return text


def build(name: str, seed: int, workdir: str | None = None) -> Setup:
    rng = random.Random(f"{name}:{seed}")
    from oeg import dsl

    load = Loader(dsl)
    cli = CliLauncher(workdir)
    if name == "cli_cold":
        queries = _cli_cold(rng, load, cli)
    else:
        queries = {"germ_pool": _germ_pool, "finite_oe": _finite_oe, "amplified": _amplified}[name](rng, load)
    return Setup(queries, LIMITS[name], cli, load.texts, load.graph_texts)


# -- shared inputs ---------------------------------------------------------------


def _evenly(items: list, k: int, phase: float) -> list:
    """k items at evenly spaced places, ``phase`` of a stride into each."""
    stride = len(items) / k
    return [items[int((i + phase) * stride)] for i in range(k)]


def _merge_chains(la: int, lb: int, name: str) -> tuple[GraphSpec, list[str], list[str]]:
    """Two chains of la and lb edges running into one sink; returns the
    graph and the edge lists of the two full-length points."""
    xs = [f"x{i}" for i in range(la)]
    ys = [f"y{i}" for i in range(lb)]
    classes = [(f"p{i}", xs[i], xs[i + 1] if i + 1 < la else "s", 1) for i in range(la)]
    classes += [(f"q{i}", ys[i], ys[i + 1] if i + 1 < lb else "s", 1) for i in range(lb)]
    spec = GraphSpec(name, tuple(xs + ys + ["s"]), tuple(classes))
    return spec, [f"p{i}" for i in range(la)], [f"q{i}" for i in range(lb)]


def _oe_pair_12(rng) -> tuple[GraphSpec, GraphSpec]:
    e = inputs.functional_graph(inputs.random_successors(rng, 12), "probeE")
    return e, inputs.relabel(rng, e, "probeF", "u")[0]


# -- germ_pool --------------------------------------------------------------------


def _germ_pool(rng, load: Loader) -> list[Query]:
    from oeg import weyl

    specs = [inputs.matrix_graph(rng, m, f"g{i}") for i, m in enumerate(inputs.small_pool())]
    finite = [s for s in specs if oracles.finite_boundary(s)]
    # Every finite-boundary graph, plus a systematic sample of the others
    # ordered by (out-degree, loop multiplicity) per vertex, which tracks the
    # check's cost.  The sample is fixed and the seed draws names and order:
    # the slowest checks set the tail, and a seeded sample changed them.
    rest = sorted((s for s in specs if not oracles.finite_boundary(s)), key=_degree_profile)
    chosen = finite + _evenly(rest, 330, 0.5)
    rng.shuffle(chosen)
    queries = []
    for spec in chosen:
        g = load.graph(spec)

        def run(g=g):
            r = weyl.phi_bijectivity_check(g, 3, max_points=18)
            return (r.ok, r.pool_complete, r.element_count == r.class_count if r.pool_complete else None)

        def expect(spec=spec):
            return (True, True, True) if oracles.finite_boundary(spec) else (True, False, None)

        queries.append(Query("phi_finite" if spec in finite else "phi_sampled", run, expect))
    queries.append(_groupoid_probe(rng, load))
    return queries


def _degree_profile(g: GraphSpec) -> tuple:
    out = {v: [0, 0] for v in g.vertices}
    for _, src, dst, mult in g.classes:
        out[src][0] += mult
        if src == dst:
            out[src][1] += mult
    # no names: ties keep the pool's order, which does not depend on the seed
    return tuple(sorted(map(tuple, out.values())))


def _groupoid_probe(rng, load: Loader) -> Query:
    from oeg import dsl

    spec, x, y = _merge_chains(70, 70, "probe70")
    g = load.graph(spec)
    text = load.note(f"({'.'.join(x)} | 0 | {'.'.join(y)})")

    def run():
        e = dsl.parse_groupoid_element(g, text)
        return (e.k, e.m, e.n)

    return Query("groupoid_probe", run, lambda: (0, *oracles.minimal_exponents(x, y, 0)), probe="groupoid_70")


# -- finite_oe ----------------------------------------------------------------------

# Basin shapes of the OE pairs: (size, cycle length or 0 for a sink) per
# basin.  The exhaustive search's time varies tenfold with the shape, so the
# shapes come from a fixed menu and the seed draws the labelling; otherwise
# the median and tail would mostly measure which shapes a seed drew.
SHAPES_7 = (
    (((3, 0), (4, 0)), ((2, 0), (5, 0))),
    (((1, 0), (2, 0), (4, 0)), ((1, 0), (3, 0), (3, 0))),
    (((7, 0),), ((3, 0), (4, 0))),
    (((2, 0), (2, 0), (3, 0)), ((1, 0), (3, 0), (3, 0))),
    (((1, 0), (6, 0)), ((2, 0), (5, 0))),
    (((1, 0), (1, 0), (5, 0)), ((1, 0), (2, 0), (4, 0))),
)


def _finite_oe(rng, load: Loader) -> list[Query]:
    pairs: list[tuple[str, GraphSpec, GraphSpec]] = []

    def functional(shape, name: str, prefix: str = "v", layout=None) -> GraphSpec:
        return inputs.functional_graph(inputs.shaped_successors(layout or rng, shape), name, prefix)

    # A "no" pair's search tries every bijection, so its cost depends on the
    # order of E's census and not on F's labels: E gets a fixed layout per
    # shape, F a seeded one.
    def fixed():
        return random.Random(0)

    # 70 of the 120 queries that answer are quick "yes" and 4-point "no"
    # pairs, so the median falls inside that cluster, among the 30 7-point
    # "yes" pairs, and not on its edge
    for n, count in ((4, 10), (5, 10), (6, 10), (7, 30)):
        menu = inputs.shape_menu(n)
        for i in range(count):
            e = functional(menu[i * len(menu) // count], f"E{len(pairs)}")
            pairs.append((f"oe_yes_{n}", e, inputs.relabel(rng, e, f"F{len(pairs)}", "u")[0]))
    for n in (4, 5, 6):
        menu = inputs.shape_menu(n)
        for i in range(10):
            a = i * len(menu) // 10
            b = (a + len(menu) // 2) % len(menu)
            while sorted(size for size, _ in menu[b]) == sorted(size for size, _ in menu[a]):
                b = (b + 1) % len(menu)
            pairs.append((f"oe_no_{n}", functional(menu[a], f"E{len(pairs)}", layout=fixed()),
                          functional(menu[b], f"F{len(pairs)}", "u")))
    for shape_e, shape_f in SHAPES_7:
        pairs.append(("oe_no_7", functional(shape_e, f"E{len(pairs)}", layout=fixed()),
                      functional(shape_f, f"F{len(pairs)}", "u")))
    rng.shuffle(pairs)
    queries = [_oe_query(kind, load.graph(e), load.graph(f), e, f) for kind, e, f in pairs]

    curve = [inputs.chain_graph(n, f"chain{n}", rng) for n in range(100, 700, 100)]
    curve += [inputs.functional_graph(inputs.forest_successors(rng, n, 4), f"fun{n}_{i}")
              for n in range(100, 700, 100) for i in range(3)]
    for spec in curve:
        queries.append(_census_query("census_chain" if spec.name.startswith("chain") else "census_functional",
                                     load.graph(spec), len(spec.vertices)))

    e, f = _oe_pair_12(rng)
    probe = _oe_query("oe_probe", load.graph(e), load.graph(f), e, f)
    probe.probe = "oe_12"
    queries.append(probe)
    chain = _census_query("census_probe", load.graph(inputs.chain_graph(1200, "chain1200", rng)), 1200)
    chain.probe = "census_1200"
    queries.append(chain)
    queries.append(_groupoid_probe(rng, load))
    return queries


def _oe_query(kind: str, E, F, e_spec: GraphSpec, f_spec: GraphSpec) -> Query:
    from oeg import boundary, dynamics

    def run():
        sizes = (len(boundary.boundary_census(E).points), len(boundary.boundary_census(F).points))
        w = dynamics.search_oe_witness(E, F)
        if w is None:
            return ("no", *sizes)
        ok = dynamics.verify_oe_witness(w).ok
        ok = ok and all(
            not dynamics.check_extended_identity(w, dynamics.extend_cocycles(w, d)) for d in (1, 2, 3))
        return ("yes", *sizes, ok)

    def expect():
        sizes = (oracles.census_size(e_spec), oracles.census_size(f_spec))
        return ("yes", *sizes, True) if oracles.oe_verdict(e_spec, f_spec) else ("no", *sizes)

    return Query(kind, run, expect)


def _census_query(kind: str, g, n: int) -> Query:
    from oeg import boundary

    def run():
        c = boundary.boundary_census(g)
        return (c.finite, len(c.points))

    return Query(kind, run, lambda: (True, n))


# -- amplified ------------------------------------------------------------------------


def _amplified(rng, load: Loader) -> list[Query]:
    from oeg import boundary, dsl, invariants, moves

    queries = []
    pairs = []
    for n, split, count in ((12, (6, 6), 6), (14, (6, 8), 12)):
        for _ in range(count):
            pairs.append((f"amp_no_{n}", inputs.cubic_bipartite(rng, (n,), "E"),
                          inputs.cubic_bipartite(rng, split, "F"), None, None))
    for n in (12, 14):
        for _ in range(6):
            e = inputs.cubic_bipartite(rng, (n,), "E")
            f, vmap = inputs.relabel(rng, e, "F", "r")
            pairs.append((f"amp_yes_{n}", e, f, vmap, None))
    pairs.append(("amp_probe", inputs.cubic_bipartite(rng, (18,), "E"),
                  inputs.cubic_bipartite(rng, (8, 10), "F"), None, "amp_18"))
    for kind, e, f, vmap, probe in pairs:
        E, F = load.graph(e), load.graph(f)
        queries.append(Query(kind, lambda E=E, F=F: moves.decide_amplified_oe(E, F)[0],
                             lambda e=e, f=f, vmap=vmap: oracles.amplified_verdict(e, f, vmap), probe=probe))

    for n in (50, 75, 100, 125, 150) * 2:
        spec = inputs.out_regular_digraph(rng, n, 2, f"inv{n}")
        g = load.graph(spec)

        def run(g=g):
            r = invariants.invariant_report(g)
            reach = invariants.reachability(g)
            return (r.det_i_minus_a, r.boundary_finite, frozenset(k for k, v in reach.items() if v))

        def expect(spec=spec):
            return (oracles.det_i_minus_a(spec), oracles.finite_boundary(spec), oracles.reachable_pairs(spec))

        queries.append(Query("invariants", run, expect))

    # Each out-split query checks three graphs: a query's time depends on its
    # graph, and with one graph per query the median moved by 10% from seed
    # to seed.
    for i in range(60):
        cases = []
        for j in range(3):
            spec = inputs.random_small_graph(rng, 4, 0.15, f"split{i}_{j}")
            g = load.graph(spec)
            partition = dsl.parse_partition(g, load.note(inputs.partition_text(rng, spec)))
            cases.append((g, partition, [load.point(g, inputs.random_point_text(rng, spec, 6)) for _ in range(40)]))

        def run(cases=cases):
            mismatches = 0
            for g, partition, points in cases:
                split = moves.out_split(g, partition)
                mismatches += sum(
                    moves.out_split_map(g, split, boundary.drop_edges(g, x, 1))
                    != boundary.drop_edges(split.graph, moves.out_split_map(g, split, x), 1)
                    for x in points
                    if x.length >= 1
                )
            return mismatches

        queries.append(Query("out_split", run, lambda: 0))

    for i in range(20):
        spec = inputs.amplified_small_graph(rng, f"amp{i}")
        head, second = rng.choice(inputs.pattern_options(spec))
        ends = {cid: (src, dst) for cid, src, dst, _ in spec.classes}
        sat_spec = GraphSpec(spec.name + "_sat", spec.vertices,
                             spec.classes + (("M", ends[head][0], ends[second][1], inputs.INF),))
        g, gs = load.graph(spec), load.graph(sat_spec)
        pattern = dsl.parse_path(g, load.note(f"{head}[0].{second}[0]"))
        pts_sat = [load.point(gs, inputs.random_point_text(rng, sat_spec, 4)) for _ in range(60)]
        pts_orig = [load.point(g, inputs.random_point_text(rng, spec, 4)) for _ in range(60)]

        def run(g=g, pattern=pattern, pts_sat=pts_sat, pts_orig=pts_orig):
            _, w = moves.saturate(g, pattern)
            return len(moves.check_saturation_identity(w, pts_sat, pts_orig))

        queries.append(Query("saturation", run, lambda: 0))
    rng.shuffle(queries)
    return queries


# -- cli_cold ----------------------------------------------------------------------------


def _cli_cold(rng, load: Loader, cli: CliLauncher) -> list[Query]:
    workdir = cli.workdir
    counter = itertools.count()
    queries: list[Query] = []

    def write(text: str, suffix: str) -> str:
        path = os.path.join(workdir, f"in{next(counter)}{suffix}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def graph_file(spec: GraphSpec) -> str:
        load.graph(spec)
        return write(dsl_text(spec), ".graph")

    def add(kind, argv, parse, expect, probe=None, decision=False):
        load.note(" ".join(os.path.basename(a) if a.startswith(workdir) else a for a in argv))

        def run():
            proc = cli.run(argv)
            return (proc.returncode, parse(proc.stdout) if proc.returncode in (0, 1) else None)

        queries.append(Query(kind, run, expect, probe, cli=True, decision=decision))

    def lines(out: str) -> list[str]:
        return out.strip().splitlines()

    # Graphs from the pool are picked at fixed places in its order and the
    # seed draws their names: the phi-check's time varies threefold between
    # graphs, and a seeded pick moved the tail.
    pool = [inputs.matrix_graph(rng, m, f"pool{i}") for i, m in enumerate(inputs.small_pool(3, 2))]
    finite = [s for s in pool if oracles.finite_boundary(s)]
    infinite = [s for s in pool if not oracles.finite_boundary(s)]

    for spec in _evenly(finite, 5, 0.5) + _evenly(infinite, 3, 0.5) + [
        inputs.functional_graph(inputs.random_successors(rng, 200), "fun200"),
        inputs.functional_graph(inputs.random_successors(rng, 300), "fun300"),
        inputs.chain_graph(200, "chain200", rng),
        inputs.chain_graph(300, "chain300", rng),
    ]:
        expected = (0, ("finite", oracles.census_size(spec)) if oracles.finite_boundary(spec) else ("infinite",))
        add("census", ["census", graph_file(spec)],
            lambda out: ("infinite",) if out.startswith("infinite") else ("finite", len(lines(out))),
            lambda expected=expected: expected)
    add("census", ["census", graph_file(inputs.chain_graph(1200, "chain1200", rng))],
        lambda out: ("finite", len(lines(out))), lambda: (0, ("finite", 1200)), probe="cli_census_1200")

    for n in (20, 30, 40, 50, 60) * 2:
        spec = inputs.random_digraph(rng, n, 2.0, f"det{n}")
        add("det", ["det", graph_file(spec)], lambda out: int(out.strip()),
            lambda spec=spec: (0, oracles.det_i_minus_a(spec)))

    for spec in [inputs.random_digraph(rng, n, 2.0, f"info{n}") for n in (30, 40, 50)] + [
            inputs.functional_graph(inputs.random_successors(rng, n), f"infof{n}") for n in (40, 60, 80)
    ] + _evenly(finite, 2, 0.25):
        def parse_info(out):
            fields = dict(line.split(": ", 1) for line in lines(out))
            return (json.loads(fields["boundary"])["finite"], json.loads(fields["detIMinusA"]))

        add("info", ["info", graph_file(spec)], parse_info,
            lambda spec=spec: (0, (oracles.finite_boundary(spec), oracles.det_i_minus_a(spec))))

    fun = inputs.functional_graph(inputs.random_successors(rng, 30, 0.1), "shift30")
    fun_file = graph_file(fun)
    texts = inputs.point_texts_functional(fun)
    succ = {src: dst for _, src, dst, _ in fun.classes}
    for v in rng.sample(fun.vertices, 10):
        steps, w = 0, v
        while steps < 3 and w in succ:
            steps, w = steps + 1, succ[w]
        add("shift", ["shift", fun_file, load.note(texts[v]), str(steps)], lambda out: out.strip(),
            lambda w=w: (0, texts[w]))

    for n, yes in ((4, True), (5, True), (4, False), (5, False)) * 2 + ((6, True), (6, False)):
        while True:
            a, b = inputs.random_successors(rng, n), inputs.random_successors(rng, n)
            if (inputs.basin_sizes(a) == inputs.basin_sizes(b)) == yes:
                break
        e, f = inputs.functional_graph(a, "E"), inputs.functional_graph(b, "F", "u")
        add("search_oe", ["search-oe", graph_file(e), graph_file(f)], lambda out: None,
            lambda e=e, f=f: (0 if oracles.oe_verdict(e, f) else 1, None), decision=True)
    e, f = _oe_pair_12(rng)
    add("search_oe", ["search-oe", graph_file(e), graph_file(f)], lambda out: None,
        lambda: (0, None), probe="cli_search_oe_12", decision=True)

    for n in (4, 5, 6, 7) * 2:
        e = inputs.functional_graph(inputs.random_successors(rng, n), "E")
        f, vmap = inputs.relabel(rng, e, "F", "u")
        te, tf = inputs.point_texts_functional(e), inputs.point_texts_functional(f)
        moving = [v for v in e.vertices if not te[v].startswith("@")]
        moving_f = [vmap[v] for v in moving]
        witness = {
            "h": [[te[v], tf[vmap[v]]] for v in e.vertices],
            "k1": [[te[v], 0] for v in moving],
            "l1": [[te[v], 1] for v in moving],
            "k1p": [[tf[v], 0] for v in moving_f],
            "l1p": [[tf[v], 1] for v in moving_f],
        }
        add("verify_oe", ["verify-oe", graph_file(e), graph_file(f), write(json.dumps(witness), ".json")],
            lambda out: out.strip(), lambda: (0, "ok"), decision=True)

    for la, lb in ((5, 8), (9, 6), (12, 12), (3, 4), (7, 7), (10, 15), (20, 18), (2, 9)):
        spec, x, y = _merge_chains(la, lb, f"merge{la}_{lb}")
        path = graph_file(spec)
        k = la - lb
        m, n = oracles.minimal_exponents(x, y, k)
        add("groupoid_make", ["groupoid", "make", path, ".".join(x), str(m), str(n), ".".join(y)],
            lambda out: out.strip(), lambda x=x, y=y, k=k: (0, f"({'.'.join(x)} | {k} | {'.'.join(y)})"))
    for la, lb in ((6, 9), (11, 7), (4, 4), (13, 5), (8, 12), (16, 16)):
        spec, x, y = _merge_chains(la, lb, f"compose{la}_{lb}")
        tx, ty = ".".join(x), ".".join(y)
        add("groupoid_compose", ["groupoid", "compose", graph_file(spec), f"({tx} | {la - lb} | {ty})",
                                 f"({ty} | {lb - la} | {tx})"],
            lambda out: out.strip(), lambda tx=tx: (0, f"({tx} | 0 | {tx})"))
    spec, x, y = _merge_chains(70, 70, "compose70")
    tx, ty = ".".join(x), ".".join(y)
    add("groupoid_compose", ["groupoid", "compose", graph_file(spec), f"({tx} | 0 | {ty})", f"({ty} | 0 | {tx})"],
        lambda out: out.strip(), lambda: (0, f"({tx} | 0 | {tx})"), probe="cli_compose_70")

    for spec in _evenly(finite, 8, 0.75):
        add("phi_check", ["weyl", "phi-check", graph_file(spec)], lambda out: "ok: True" in lines(out),
            lambda: (0, True), decision=True)

    for i in range(8):
        spec = inputs.random_small_graph(rng, 4, 0.15, f"split{i}")
        text = inputs.partition_text(rng, spec)
        blocks = {line.split(":")[0][6:]: line.count("|") + 1 for line in text.splitlines()}
        vertices = sum(blocks.get(v, 1) for v in spec.vertices)
        point = inputs.random_point_text(rng, spec, 5)
        add("out_split", ["move", "out-split", graph_file(spec), write(text, ".part"), "--map-point", load.note(point)],
            lambda out: len(out.splitlines()[1].split(",")), lambda vertices=vertices: (0, vertices))

    for i in range(6):
        spec = inputs.amplified_small_graph(rng, f"sat{i}")
        head, second = rng.choice(inputs.pattern_options(spec))
        add("saturate", ["move", "saturate", graph_file(spec), load.note(f"{head}[0].{second}[0]")],
            lambda out: sum(line.startswith("edge M * inf:") for line in lines(out)), lambda: (0, 1))

    for n, yes in ((12, True), (12, False), (14, True), (14, False)) * 2:
        e = inputs.cubic_bipartite(rng, (n,), "E")
        f, vmap = inputs.relabel(rng, e, "F", "r") if yes else (inputs.cubic_bipartite(rng, (6, n - 6), "F"), None)
        add("decide_amplified", ["decide-amplified", graph_file(e), graph_file(f)], lambda out: None,
            lambda e=e, f=f, vmap=vmap: (0 if oracles.amplified_verdict(e, f, vmap) else 1, None), decision=True)
    rng.shuffle(queries)
    return queries

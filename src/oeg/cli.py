"""Command-line interface.

Exit codes: 0 for success or an affirmative decision, 1 for a well-formed
negative (a property fails, a decision is "no"), 2 for input errors, 3 for
an internal failure of the library (any other exception, such as a
``RecursionError``), reported as one line on stderr.  A file that cannot be
read as UTF-8 text (missing, a directory, binary) is an input error.  A
reader that closes the output pipe early ends the output quietly, with the
command's own exit code.

Every command parses a graph file, so the DSL is imported with this module;
each command imports the library modules it runs when it is dispatched, and
no others.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import dsl
from .errors import InputError, OegError

EXIT_OK = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path!r} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def _load_graph(path: str) -> dsl.GraphDocument:
    return dsl.parse_graph(_read_text(path))


def _emit(payload, as_json: bool, text_lines=None):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines if text_lines is not None else [payload]:
            print(line)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="oeg",
        description="Boundary-path dynamics, orbit equivalence and moves of finite directed graphs.",
    )
    ap.add_argument("--json", action="store_true", help="JSON output where applicable")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="consolidated invariant report")
    p.add_argument("graph")

    p = sub.add_parser("census", help="boundary census or infiniteness witness")
    p.add_argument("graph")

    p = sub.add_parser("det", help="det(I - A) over exact integers")
    p.add_argument("graph")

    p = sub.add_parser("shift", help="shift a point n times")
    p.add_argument("graph")
    p.add_argument("point")
    p.add_argument("n", type=int)

    p = sub.add_parser("verify-oe", help="verify an orbit-equivalence witness")
    p.add_argument("graph_e")
    p.add_argument("graph_f")
    p.add_argument("witness")

    p = sub.add_parser("search-oe", help="decide orbit equivalence and print a witness")
    p.add_argument("graph_e")
    p.add_argument("graph_f")

    p = sub.add_parser("extend-cocycles", help="extend witness cocycles to degree n")
    p.add_argument("graph_e")
    p.add_argument("graph_f")
    p.add_argument("witness")
    p.add_argument("n", type=int)

    p = sub.add_parser("verify-pseudo", help="verify a pseudogroup element")
    p.add_argument("graph")
    p.add_argument("element")

    p = sub.add_parser("conjugate-pseudo", help="transport a pseudogroup element through a witness")
    p.add_argument("graph_e")
    p.add_argument("graph_f")
    p.add_argument("witness")
    p.add_argument("element")

    p = sub.add_parser("groupoid", help="groupoid element operations")
    gsub = p.add_subparsers(dest="subcommand", required=True)
    q = gsub.add_parser("make")
    q.add_argument("graph")
    q.add_argument("x")
    q.add_argument("m", type=int)
    q.add_argument("n", type=int)
    q.add_argument("y")
    q = gsub.add_parser("compose")
    q.add_argument("graph")
    q.add_argument("e1")
    q.add_argument("e2")
    q = gsub.add_parser("isotropy")
    q.add_argument("graph")
    q.add_argument("x")
    q = gsub.add_parser("principality")
    q.add_argument("graph")

    p = sub.add_parser("weyl", help="germ operations")
    wsub = p.add_subparsers(dest="subcommand", required=True)
    q = wsub.add_parser("germ")
    q.add_argument("graph")
    q.add_argument("mu")
    q.add_argument("nu")
    q.add_argument("x")
    q = wsub.add_parser("equiv")
    q.add_argument("graph")
    q.add_argument("germ1")
    q.add_argument("germ2")
    q = wsub.add_parser("winding")
    q.add_argument("graph")
    q.add_argument("germ1")
    q.add_argument("germ2")
    q = wsub.add_parser("phi-check")
    q.add_argument("graph")
    q.add_argument("--bound", type=int, default=3)

    p = sub.add_parser("move", help="graph transformations")
    msub = p.add_subparsers(dest="subcommand", required=True)
    q = msub.add_parser("out-split")
    q.add_argument("graph")
    q.add_argument("partition")
    q.add_argument("--map-point", default=None, help="also map this point")
    q = msub.add_parser("amplify")
    q.add_argument("graph")
    q = msub.add_parser("tclose")
    q.add_argument("graph")
    q = msub.add_parser("saturate")
    q.add_argument("graph")
    q.add_argument("pattern")
    q.add_argument("--map-point", default=None, help="map this saturated-graph point")

    p = sub.add_parser("decide-amplified", help="decide amplified orbit equivalence")
    p.add_argument("graph_e")
    p.add_argument("graph_f")

    return ap


def _run(args) -> int:
    as_json = args.json
    cmd = args.command

    if cmd == "info":
        from . import invariants

        doc = _load_graph(args.graph)
        report = invariants.invariant_report(doc.graph)
        if as_json:
            _emit(report.to_json(), True)
        else:
            for key, val in report.to_json().items():
                print(f"{key}: {json.dumps(val, sort_keys=True)}")
        return EXIT_OK

    if cmd == "census":
        from . import boundary

        doc = _load_graph(args.graph)
        census = boundary.boundary_census(doc.graph)
        if census.finite:
            pts = [dsl.print_point(doc.graph, x) for x in census.points]
            _emit({"finite": True, "points": pts}, as_json, pts)
        else:
            _emit(
                {"finite": False, "witness": census.witness},
                as_json,
                [f"infinite: {census.witness}"],
            )
        return EXIT_OK

    if cmd == "det":
        from . import invariants

        doc = _load_graph(args.graph)
        value = invariants.det_invariant(doc.graph)
        _emit({"detIMinusA": value}, as_json, [str(value)])
        return EXIT_OK

    if cmd == "shift":
        from . import boundary

        doc = _load_graph(args.graph)
        x = dsl.parse_point(doc.graph, args.point)
        y = boundary.shift(doc.graph, x, args.n)
        _emit({"point": dsl.print_point(doc.graph, y)}, as_json, [dsl.print_point(doc.graph, y)])
        return EXIT_OK

    if cmd == "verify-oe":
        from . import dynamics

        E = _load_graph(args.graph_e).graph
        F = _load_graph(args.graph_f).graph
        w = dsl.parse_witness(E, F, _read_text(args.witness))
        report = dynamics.verify_oe_witness(w)
        _emit(
            {"ok": report.ok, "failures": report.failures},
            as_json,
            ["ok"] if report.ok else report.failures,
        )
        return EXIT_OK if report.ok else EXIT_NO

    if cmd == "search-oe":
        from . import dynamics

        E = _load_graph(args.graph_e).graph
        F = _load_graph(args.graph_f).graph
        w = dynamics.search_oe_witness(E, F)
        if w is None:
            _emit({"found": False}, as_json, ["not orbit equivalent"])
            return EXIT_NO
        print(dsl.print_witness(w), end="")
        return EXIT_OK

    if cmd == "extend-cocycles":
        from . import dynamics

        E = _load_graph(args.graph_e).graph
        F = _load_graph(args.graph_f).graph
        w = dsl.parse_witness(E, F, _read_text(args.witness))
        report = dynamics.verify_oe_witness(w)
        if not report.ok:
            _emit({"ok": False, "failures": report.failures}, as_json, report.failures)
            return EXIT_NO
        tables = dynamics.extend_cocycles(w, args.n)
        payload = {
            "n": args.n,
            "k": dsl.table_json(E, tables.k),
            "l": dsl.table_json(E, tables.l),
            "kp": dsl.table_json(F, tables.kp),
            "lp": dsl.table_json(F, tables.lp),
        }
        _emit(payload, True)
        return EXIT_OK

    if cmd == "verify-pseudo":
        from . import dynamics

        doc = _load_graph(args.graph)
        el = dsl.parse_element(doc.graph, _read_text(args.element))
        ok = dynamics.verify_pseudogroup_element(el)
        _emit({"ok": ok}, as_json, ["ok" if ok else "not a pseudogroup element"])
        return EXIT_OK if ok else EXIT_NO

    if cmd == "conjugate-pseudo":
        from . import dynamics

        E = _load_graph(args.graph_e).graph
        F = _load_graph(args.graph_f).graph
        w = dsl.parse_witness(E, F, _read_text(args.witness))
        if not dynamics.verify_oe_witness(w).ok:
            _emit({"ok": False}, as_json, ["witness does not verify"])
            return EXIT_NO
        el = dsl.parse_element(E, _read_text(args.element))
        out = dynamics.conjugate_pseudogroup(w, el)
        _emit(dsl.element_to_json(F, out), True)
        return EXIT_OK

    if cmd == "groupoid":
        return _run_groupoid(args, as_json)
    if cmd == "weyl":
        return _run_weyl(args, as_json)
    if cmd == "move":
        return _run_move(args, as_json)

    if cmd == "decide-amplified":
        from . import moves

        E = _load_graph(args.graph_e).graph
        F = _load_graph(args.graph_f).graph
        equivalent, bij = moves.decide_amplified_oe(E, F)
        payload = {"equivalent": equivalent, "vertexBijection": bij}
        _emit(
            payload,
            as_json,
            ["equivalent " + json.dumps(bij, sort_keys=True) if equivalent else "not equivalent"],
        )
        return EXIT_OK if equivalent else EXIT_NO

    raise AssertionError(f"unhandled command {cmd!r}")


def _run_groupoid(args, as_json: bool) -> int:
    from . import groupoid

    doc = _load_graph(args.graph)
    g = doc.graph
    if args.subcommand == "make":
        e = groupoid.make_element(
            g, dsl.parse_point(g, args.x), args.m, args.n, dsl.parse_point(g, args.y)
        )
        _emit(
            {"element": dsl.print_groupoid_element(g, e), "m": e.m, "n": e.n},
            as_json,
            [dsl.print_groupoid_element(g, e)],
        )
        return EXIT_OK
    if args.subcommand == "compose":
        e1 = dsl.parse_groupoid_element(g, args.e1)
        e2 = dsl.parse_groupoid_element(g, args.e2)
        e = groupoid.compose(g, e1, e2)
        _emit({"element": dsl.print_groupoid_element(g, e)}, as_json, [dsl.print_groupoid_element(g, e)])
        return EXIT_OK
    if args.subcommand == "isotropy":
        iso = groupoid.isotropy(g, dsl.parse_point(g, args.x))
        _emit({"generator": iso.d}, as_json, [str(iso)])
        return EXIT_OK
    if args.subcommand == "principality":
        report = groupoid.principality_report(g)
        payload = {"principal": report.principal}
        lines = [f"principal: {report.principal}"]
        if report.witness_unit is not None:
            payload["witnessUnit"] = dsl.print_groupoid_element(g, report.witness_unit)
            payload["isotropy"] = report.witness_isotropy.d
            lines.append(f"witness unit: {payload['witnessUnit']} with isotropy {report.witness_isotropy}")
        _emit(payload, as_json, lines)
        return EXIT_OK if report.principal else EXIT_NO
    raise AssertionError


def _run_weyl(args, as_json: bool) -> int:
    from . import weyl

    doc = _load_graph(args.graph)
    g = doc.graph
    if args.subcommand == "germ":
        germ = weyl.germ_make(
            g, dsl.parse_path(g, args.mu), dsl.parse_path(g, args.nu), dsl.parse_point(g, args.x)
        )
        payload = {
            "germ": dsl.print_germ(g, germ),
            "cocycle": germ.cocycle,
            "image": dsl.print_point(g, weyl.germ_apply(g, germ)),
        }
        _emit(payload, as_json, [payload["germ"], f"cocycle {germ.cocycle}", f"image {payload['image']}"])
        return EXIT_OK
    if args.subcommand == "equiv":
        a = dsl.parse_germ(g, args.germ1)
        b = dsl.parse_germ(g, args.germ2)
        eq = weyl.germ_equivalent(g, a, b)
        _emit({"equivalent": eq}, as_json, ["equivalent" if eq else "not equivalent"])
        return EXIT_OK if eq else EXIT_NO
    if args.subcommand == "winding":
        a = dsl.parse_germ(g, args.germ1)
        b = dsl.parse_germ(g, args.germ2)
        value = weyl.winding(g, a, b)
        _emit({"winding": value}, as_json, [str(value)])
        return EXIT_OK
    if args.subcommand == "phi-check":
        report = weyl.phi_bijectivity_check(g, args.bound)
        payload = {
            "bound": report.bound,
            "poolSize": report.pool_size,
            "poolComplete": report.pool_complete,
            "elements": report.element_count,
            "classes": report.class_count,
            "germs": report.germ_count,
            "ok": report.ok,
            "violations": report.violations,
        }
        _emit(
            payload,
            as_json,
            [f"{k}: {v}" for k, v in payload.items()],
        )
        return EXIT_OK if report.ok else EXIT_NO
    raise AssertionError


def _run_move(args, as_json: bool) -> int:
    from . import moves

    doc = _load_graph(args.graph)
    g = doc.graph
    if args.subcommand == "out-split":
        partition = dsl.parse_partition(g, _read_text(args.partition))
        split = moves.out_split(g, partition)
        print(dsl.print_graph(split.graph, name=f"{doc.name}_split"), end="")
        if args.map_point is not None:
            x = dsl.parse_point(g, args.map_point)
            print(dsl.print_point(split.graph, moves.out_split_map(g, split, x)))
        return EXIT_OK
    if args.subcommand == "amplify":
        print(dsl.print_graph(moves.amplify(g), name=f"{doc.name}_amp"), end="")
        return EXIT_OK
    if args.subcommand == "tclose":
        print(dsl.print_graph(moves.amplified_transitive_closure(g), name=f"{doc.name}_tclose"), end="")
        return EXIT_OK
    if args.subcommand == "saturate":
        pattern = dsl.parse_path(g, args.pattern)
        sat, witness = moves.saturate(g, pattern)
        print(dsl.print_graph(sat, name=f"{doc.name}_sat"), end="")
        if args.map_point is not None:
            x = dsl.parse_point(sat, args.map_point)
            print(dsl.print_point(g, moves.saturate_map(witness, x)))
        return EXIT_OK
    raise AssertionError


class _UntilClosed:
    """Standard output that a reader closing the pipe silences: the first
    ``BrokenPipeError`` points the descriptor at the null device, so the
    command runs on to its own exit code, the rest of its output is
    dropped, and nothing reaches stderr, at exit either."""

    def __init__(self, stream):
        self._stream = stream

    def write(self, text: str) -> int:
        try:
            return self._stream.write(text)
        except BrokenPipeError:
            self._silence()
            return len(text)

    def flush(self) -> None:
        try:
            self._stream.flush()
        except BrokenPipeError:
            self._silence()

    def _silence(self) -> None:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, self._stream.fileno())
        os.close(null)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def main(argv: list[str] | None = None) -> int:
    stdout = sys.stdout
    sys.stdout = _UntilClosed(stdout)
    try:
        code = _main(argv)
        sys.stdout.flush()
        return code
    finally:
        sys.stdout = stdout


def _main(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return _run(args)
    except OegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

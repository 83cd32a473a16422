"""Command-line interface.

Exit codes: 0 for success or an affirmative decision, 1 for a well-formed
negative (a property fails, a decision is "no"), 2 for input errors, 3 for
an internal failure of the library (any other exception, such as a
``RecursionError``), reported as one line on stderr.  A file that cannot be
read as UTF-8 text (missing, a directory, binary) is an input error.

Each command is defined once, in ``_COMMANDS`` (words, help, positionals,
options, handler).  ``build_parser`` builds argparse's subcommands from that
table and argparse picks the handler.  A handler returns its exit code and
its answer, a JSON object or text lines, most through ``_answer``, which
maps the verdict to 0 or 1.  ``main`` alone writes an answer, a line at a
time, so an exit 2 or 3 leaves stdout empty, and a reader that closes the
pipe early ends the output quietly, with the command's own exit code.
Integers print exactly at any size: Python's digit limit is lifted only
while the answer is written, after every input is read.

Every command parses a graph file, so the DSL is imported with this module;
each handler imports the library modules it runs, and no others.
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


def _graph(args):
    """The graph that ``args`` names."""
    return _load_graph(args.graph).graph


def _pair(args) -> tuple:
    """The graphs E and F that ``args`` names."""
    return _load_graph(args.graph_e).graph, _load_graph(args.graph_f).graph


def _witness(args) -> tuple:
    """E, F, the witness file between them that ``args`` names, and its
    verification report."""
    from . import dynamics

    E, F = _pair(args)
    w = dsl.parse_witness(E, F, _read_text(args.witness))
    return E, F, w, dynamics.verify_oe_witness(w)


def _answer(ok: bool, payload: dict, as_json: bool, lines) -> tuple:
    """Exit code 0 on an affirmative ``ok``, 1 on a negative one, and the
    answer: ``payload``, written as JSON, or ``lines``, written as text."""
    return EXIT_OK if ok else EXIT_NO, payload if as_json else lines


def _info(args) -> tuple:
    from . import invariants

    report = invariants.invariant_report(_graph(args)).to_json()
    # formatted as written, when integers of any size print
    return _answer(True, report, args.json, (f"{k}: {json.dumps(v, sort_keys=True)}" for k, v in report.items()))


def _census(args) -> tuple:
    from . import boundary

    g = _graph(args)
    census = boundary.boundary_census(g)
    if not census.finite:
        return _answer(True, {"finite": False, "witness": census.witness}, args.json, [f"infinite: {census.witness}"])
    pts = [dsl.print_point(g, x) for x in census.points]
    return _answer(True, {"finite": True, "points": pts}, args.json, pts)


def _det(args) -> tuple:
    from . import invariants

    value = invariants.det_invariant(_graph(args))
    return _answer(True, {"detIMinusA": value}, args.json, [value])


def _shift(args) -> tuple:
    from . import boundary

    g = _graph(args)
    y = dsl.print_point(g, boundary.shift(g, dsl.parse_point(g, args.point), args.n))
    return _answer(True, {"point": y}, args.json, [y])


def _verify_oe(args) -> tuple:
    report = _witness(args)[3]
    return _answer(report.ok, {"ok": report.ok, "failures": report.failures}, args.json,
                   ["ok"] if report.ok else report.failures)


def _search_oe(args) -> tuple:
    from . import dynamics

    w = dynamics.search_oe_witness(*_pair(args))
    if w is None:
        return _answer(False, {"found": False}, args.json, ["not orbit equivalent"])
    return EXIT_OK, [dsl.print_witness(w)[:-1]]


def _extend_cocycles(args) -> tuple:
    from . import dynamics

    E, F, w, report = _witness(args)
    if not report.ok:
        return _answer(False, {"ok": False, "failures": report.failures}, args.json, report.failures)
    tables = dynamics.extend_cocycles(w, args.n)
    payload = {"n": args.n, "k": dsl.table_json(E, tables.k), "l": dsl.table_json(E, tables.l),
               "kp": dsl.table_json(F, tables.kp), "lp": dsl.table_json(F, tables.lp)}
    return EXIT_OK, payload


def _verify_pseudo(args) -> tuple:
    from . import dynamics

    g = _graph(args)
    ok = dynamics.verify_pseudogroup_element(dsl.parse_element(g, _read_text(args.element)))
    return _answer(ok, {"ok": ok}, args.json, ["ok" if ok else "not a pseudogroup element"])


def _conjugate_pseudo(args) -> tuple:
    from . import dynamics

    E, F, w, report = _witness(args)
    if not report.ok:
        return _answer(False, {"ok": False}, args.json, ["witness does not verify"])
    el = dsl.parse_element(E, _read_text(args.element))
    return EXIT_OK, dsl.element_to_json(F, dynamics.conjugate_pseudogroup(w, el))


def _groupoid_make(args) -> tuple:
    from . import groupoid

    g = _graph(args)
    e = groupoid.make_element(g, dsl.parse_point(g, args.x), args.m, args.n, dsl.parse_point(g, args.y))
    text = dsl.print_groupoid_element(g, e)
    return _answer(True, {"element": text, "m": e.m, "n": e.n}, args.json, [text])


def _groupoid_compose(args) -> tuple:
    from . import groupoid

    g = _graph(args)
    e1 = dsl.parse_groupoid_element(g, args.e1)
    e2 = dsl.parse_groupoid_element(g, args.e2)
    text = dsl.print_groupoid_element(g, groupoid.compose(g, e1, e2))
    return _answer(True, {"element": text}, args.json, [text])


def _groupoid_isotropy(args) -> tuple:
    from . import groupoid

    g = _graph(args)
    iso = groupoid.isotropy(g, dsl.parse_point(g, args.x))
    return _answer(True, {"generator": iso.d}, args.json, [iso])


def _groupoid_principality(args) -> tuple:
    from . import groupoid

    g = _graph(args)
    report = groupoid.principality_report(g)
    payload = {"principal": report.principal}
    lines = [f"principal: {report.principal}"]
    if report.witness_unit is not None:
        payload["witnessUnit"] = dsl.print_groupoid_element(g, report.witness_unit)
        payload["isotropy"] = report.witness_isotropy.d
        lines.append(f"witness unit: {payload['witnessUnit']} with isotropy {report.witness_isotropy}")
    return _answer(report.principal, payload, args.json, lines)


def _weyl_germ(args) -> tuple:
    from . import weyl

    g = _graph(args)
    germ = weyl.germ_make(g, dsl.parse_path(g, args.mu), dsl.parse_path(g, args.nu), dsl.parse_point(g, args.x))
    payload = {"germ": dsl.print_germ(g, germ), "cocycle": germ.cocycle,
               "image": dsl.print_point(g, weyl.germ_apply(g, germ))}
    return _answer(True, payload, args.json, [payload["germ"], f"cocycle {germ.cocycle}", f"image {payload['image']}"])


def _weyl_equiv(args) -> tuple:
    from . import weyl

    g = _graph(args)
    eq = weyl.germ_equivalent(g, dsl.parse_germ(g, args.germ1), dsl.parse_germ(g, args.germ2))
    return _answer(eq, {"equivalent": eq}, args.json, ["equivalent" if eq else "not equivalent"])


def _weyl_winding(args) -> tuple:
    from . import weyl

    g = _graph(args)
    value = weyl.winding(g, dsl.parse_germ(g, args.germ1), dsl.parse_germ(g, args.germ2))
    return _answer(True, {"winding": value}, args.json, [value])


def _weyl_phi_check(args) -> tuple:
    from . import weyl

    report = weyl.phi_bijectivity_check(_graph(args), args.bound)
    payload = {"bound": report.bound, "poolSize": report.pool_size, "poolComplete": report.pool_complete,
               "elements": report.element_count, "classes": report.class_count, "germs": report.germ_count,
               "ok": report.ok, "violations": report.violations}
    return _answer(report.ok, payload, args.json, [f"{k}: {v}" for k, v in payload.items()])


def _move_out_split(args) -> tuple:
    from . import moves

    doc = _load_graph(args.graph)
    g = doc.graph
    split = moves.out_split(g, dsl.parse_partition(g, _read_text(args.partition)))
    lines = [dsl.print_graph(split.graph, name=f"{doc.name}_split")[:-1]]
    if args.map_point is not None:
        lines.append(dsl.print_point(split.graph, moves.out_split_map(g, split, dsl.parse_point(g, args.map_point))))
    return EXIT_OK, lines


def _move_amplify(args) -> tuple:
    from . import moves

    doc = _load_graph(args.graph)
    return EXIT_OK, [dsl.print_graph(moves.amplify(doc.graph), name=f"{doc.name}_amp")[:-1]]


def _move_tclose(args) -> tuple:
    from . import moves

    doc = _load_graph(args.graph)
    return EXIT_OK, [dsl.print_graph(moves.amplified_transitive_closure(doc.graph), name=f"{doc.name}_tclose")[:-1]]


def _move_saturate(args) -> tuple:
    from . import moves

    doc = _load_graph(args.graph)
    g = doc.graph
    sat, witness = moves.saturate(g, dsl.parse_path(g, args.pattern))
    lines = [dsl.print_graph(sat, name=f"{doc.name}_sat")[:-1]]
    if args.map_point is not None:
        lines.append(dsl.print_point(g, moves.saturate_map(witness, dsl.parse_point(sat, args.map_point))))
    return EXIT_OK, lines


def _decide_amplified(args) -> tuple:
    from . import moves

    equivalent, bij = moves.decide_amplified_oe(*_pair(args))
    text = "equivalent " + json.dumps(bij, sort_keys=True) if equivalent else "not equivalent"
    return _answer(equivalent, {"equivalent": equivalent, "vertexBijection": bij}, args.json, [text])


# Every command, once: its name, help, handler, positionals (``m`` and ``n``
# are integers) and, last, any options; a dict in place of the handler holds
# a group's subcommands.
_COMMANDS = {
    "info": ("consolidated invariant report", _info, "graph"),
    "census": ("boundary census or infiniteness witness", _census, "graph"),
    "det": ("det(I - A) over exact integers", _det, "graph"),
    "shift": ("shift a point n times", _shift, "graph point n"),
    "verify-oe": ("verify an orbit-equivalence witness", _verify_oe, "graph_e graph_f witness"),
    "search-oe": ("decide orbit equivalence and print a witness", _search_oe, "graph_e graph_f"),
    "extend-cocycles": ("extend witness cocycles to degree n", _extend_cocycles, "graph_e graph_f witness n"),
    "verify-pseudo": ("verify a pseudogroup element", _verify_pseudo, "graph element"),
    "conjugate-pseudo": ("transport a pseudogroup element through a witness", _conjugate_pseudo,
                         "graph_e graph_f witness element"),
    "groupoid": ("groupoid element operations", {
        "make": ("the element (x, m - n, y), where shift^m x = shift^n y", _groupoid_make, "graph x m n y"),
        "compose": ("compose two composable elements", _groupoid_compose, "graph e1 e2"),
        "isotropy": ("the isotropy group of a point", _groupoid_isotropy, "graph x"),
        "principality": ("decide whether the groupoid is principal", _groupoid_principality, "graph"),
    }),
    "weyl": ("germ operations", {
        "germ": ("the germ [mu | nu | x], its cocycle and image", _weyl_germ, "graph mu nu x"),
        "equiv": ("decide whether two germs are equivalent", _weyl_equiv, "graph germ1 germ2"),
        "winding": ("the winding index of two germs at one anchor", _weyl_winding, "graph germ1 germ2"),
        "phi-check": ("compare germ classes with groupoid elements up to a bound", _weyl_phi_check, "graph",
                      {"--bound": {"type": int, "default": 3}}),
    }),
    "move": ("graph transformations", {
        "out-split": ("out-split along a partition file", _move_out_split, "graph partition",
                      {"--map-point": {"help": "also map this point"}}),
        "amplify": ("one infinite class per joined vertex pair", _move_amplify, "graph"),
        "tclose": ("one infinite class per pair joined by a path", _move_tclose, "graph"),
        "saturate": ("add an infinite class shadowing a path", _move_saturate, "graph pattern",
                     {"--map-point": {"help": "map this saturated-graph point"}}),
    }),
    "decide-amplified": ("decide amplified orbit equivalence", _decide_amplified, "graph_e graph_f"),
}


def _add_commands(parser: argparse.ArgumentParser, commands: dict, dest: str) -> None:
    """Add a table of ``_COMMANDS``' shape to ``parser`` as subcommands."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, run, *arguments) in commands.items():
        p = sub.add_parser(name, help=help_text)
        if isinstance(run, dict):
            _add_commands(p, run, "subcommand")
            continue
        positionals, *options = arguments
        for arg in positionals.split():
            p.add_argument(arg, type=int if arg in ("m", "n") else None)
        for flag, kwargs in (options[0] if options else {}).items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(run=run)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="oeg",
        description="Boundary-path dynamics, orbit equivalence and moves of finite directed graphs.",
    )
    ap.add_argument("--json", action="store_true", help="JSON output where applicable")
    _add_commands(ap, _COMMANDS, "command")
    return ap


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        code, answer = args.run(args)
    except OegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # every input is read: integers of any size print exactly
    try:
        write = sys.stdout.write
        for line in [json.dumps(answer, indent=2, sort_keys=True)] if isinstance(answer, dict) else answer:
            write(str(line))  # as print does: the line, then its end, with no joined copy
            write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: drop the rest, at exit too, and keep the code
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    finally:
        sys.set_int_max_str_digits(limit)
    return code


if __name__ == "__main__":
    sys.exit(main())

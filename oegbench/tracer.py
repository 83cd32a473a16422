"""Span tracing of the library's public functions, from outside the library.

``Tracer.install`` replaces each listed function by a wrapper in its own
module and in every ``oeg`` module (and any extra module) that imported it
by name, so calls through any of those names are seen.  No file of the
library changes.  Spans are kept in memory as ``(name, start, end, parent,
query id)`` and reduced to per-function and per-layer figures at the end.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from stats import self_times

LAYERS = ("graphs", "boundary", "dynamics", "groupoid", "weyl", "moves", "invariants", "dsl", "cli")

SPANNED = {
    "graphs": ("condition_l", "enumerate_simple_loops"),
    "boundary": ("boundary_census", "bounded_points"),
    "dynamics": ("search_oe_witness", "verify_oe_witness", "extend_cocycles", "check_extended_identity"),
    "groupoid": ("enumerate_elements", "make_element", "shift_orbit"),
    "weyl": ("phi_bijectivity_check", "germ_equivalent"),
    "moves": ("amplified_transitive_closure", "out_split", "out_split_map", "saturate_map"),
    "invariants": ("reachability", "digraph_isomorphic", "det_bareiss", "invariant_report"),
    "dsl": ("parse_graph", "parse_point", "print_point", "parse_groupoid_element"),
    "cli": ("main",),
}

# point primitives: call counts only, no spans, to keep the overhead low
COUNTED = {"boundary": ("canonicalize", "drop_edges", "prefix_path")}

WORK = ("boundary.census_points", "weyl.germs", "weyl.classes", "groupoid.elements", "dynamics.witnesses_found")


def _work(name: str, result, work: Counter) -> None:
    if name == "boundary.boundary_census":
        work["boundary.census_points"] += len(result.points)
    elif name == "weyl.phi_bijectivity_check":
        work["weyl.germs"] += result.germ_count
        work["weyl.classes"] += result.class_count
    elif name == "groupoid.enumerate_elements":
        work["groupoid.elements"] += len(result)
    elif name == "dynamics.search_oe_witness":
        work["dynamics.witnesses_found"] += result is not None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.work: Counter = Counter()
        self.qid = "setup"
        self._stack: list[int] = []
        self._replaced: list[tuple] = []

    def _spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                spans[idx] = (name, start, clock(), parent, self.qid)
                stack.pop()
                self.calls[name] += 1
            _work(name, result, self.work)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever an ``oeg`` module binds it by
        name; callers must look functions up through their modules."""
        targets = [m for n, m in sys.modules.items() if m is not None and (n == "oeg" or n.startswith("oeg."))]
        for kinds, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for layer, fns in kinds.items():
                module = sys.modules.get(f"oeg.{layer}")
                if module is None:
                    continue
                for fn in fns:
                    original = getattr(module, fn)
                    wrapped = make(f"{layer}.{fn}", original)
                    for target in targets:
                        for attr, value in list(vars(target).items()):
                            if value is original:
                                setattr(target, attr, wrapped)
                                self._replaced.append((target, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._replaced):
            setattr(target, attr, original)
        self._replaced.clear()

    def query_span(self, qid: str, label: str):
        """Open a root span for one query; call the returned function to close it."""
        self.qid = qid
        idx = len(self.spans)
        self.spans.append(None)
        start = time.perf_counter()

        def close():
            self.spans[idx] = (label, start, time.perf_counter(), -1, qid)

        return close

    def aggregate(self) -> dict[str, float]:
        """Per-function calls, self time and errors, per-layer self time and
        work counts, with every listed name present (zero when unused)."""
        per_fn: Counter = Counter()
        # a span an interval-timer interrupt left unfinished counts as empty
        spans = [s if s is not None else ("", 0.0, 0.0, -1, "") for s in self.spans]
        for span, st in zip(spans, self_times(spans)):
            per_fn[span[0]] += st
        out: dict[str, float] = {}
        for layer in LAYERS:
            total = 0.0
            for fn in SPANNED.get(layer, ()):
                name = f"{layer}.{fn}"
                out[f"{name}.calls"] = self.calls[name]
                out[f"{name}.self_ms"] = per_fn[name] * 1e3
                out[f"{name}.errors"] = self.errors[name]
                total += per_fn[name]
            for fn in COUNTED.get(layer, ()):
                out[f"{layer}.{fn}.calls"] = self.calls[f"{layer}.{fn}"]
            out[f"{layer}.self_ms"] = total * 1e3
        for key in WORK:
            out[key] = self.work[key]
        germs = self.work["weyl.germs"]
        out["weyl.classes_per_germ"] = self.work["weyl.classes"] / germs if germs else 0.0
        return out


def merge(parts: list[dict[str, float]]) -> dict[str, float]:
    """Sum aggregates from several processes (ratios recomputed)."""
    out: Counter = Counter()
    for part in parts:
        out.update(part)
    germs = out["weyl.germs"]
    out["weyl.classes_per_germ"] = out["weyl.classes"] / germs if germs else 0.0
    return dict(out)

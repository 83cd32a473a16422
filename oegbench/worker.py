"""One benchmark process for one workload.

``--setup-only`` sets the workload up and reports when set-up finished, as
a ``time.perf_counter`` reading that the parent compares with its own reading
taken just before it started this interpreter.  Otherwise the process then
runs the queries in a closed loop (one client, one query at a time) in whole
passes for about ``--seconds``, checks every verdict against the oracles, and
prints one JSON object on its last line.

With ``--trace 1`` the passes alternate between untraced and traced; only
the traced passes record spans, and the ratio of the two gives the tracing
overhead.  A traced run reports per-layer figures only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


SAME = "same verdict as this query's first pass"


class QueryTimeout(BaseException):
    """Raised by the interval timer; a BaseException so library code that
    catches Exception cannot swallow it."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def run_query(q, limit: float, in_process: bool):
    """Run one query under the time limit; returns (seconds, status, verdict)."""
    t0 = time.perf_counter()
    try:
        if in_process:
            signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            verdict = q.run()
        finally:
            if in_process:
                signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter() - t0, "ok", verdict
    except (QueryTimeout, subprocess.TimeoutExpired):
        return time.perf_counter() - t0, "timeout", None
    except Exception as exc:  # a failing query is counted, the loop goes on
        return time.perf_counter() - t0, f"error:{type(exc).__name__}", None


def classify(q, status: str, verdict, expected) -> str:
    """'ok', 'wrong' (a verdict that disagrees with the oracle) or the
    failure status ('timeout', 'error:<type>', 'exit:<code>')."""
    if status != "ok":
        return status
    if verdict == expected:
        return "ok"
    if q.cli:
        code, want = verdict[0], expected[0]
        if code != want and not (q.decision and code in (0, 1) and want in (0, 1)):
            return f"exit:{code}"
    return "wrong"


def cli_split_times(root: str, samples: int = 5) -> dict[str, float]:
    """Interpreter start-up (bare ``python -c pass``) and the cumulative
    import time of ``oeg.cli`` from ``-X importtime``, medians in ms."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    bare, imports = [], []
    for _ in range(samples):
        # pipes, as for a query: without them a timed wait polls and adds tens of ms
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True, check=True, timeout=60)
        bare.append((time.perf_counter() - t0) * 1e3)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import oeg.cli"], env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == "oeg.cli":
                imports.append(int(parts[1]) / 1e3)
    return {"cli.interpreter_ms": statistics.median(bare), "cli.import_ms": statistics.median(imports)}


def measure(setup, seconds: float, trace: bool, in_process: bool) -> dict:
    """Run whole passes over the queries, as many as fit in ``seconds``.  In a
    traced run, untraced and traced passes alternate and only the traced
    ones are kept for the verdict check."""
    queries = setup.queries
    n = len(queries)
    # (seconds, status, verdict, index of the last reference reading)
    runs: list[list[tuple[float, str, object, int]]] = [[] for _ in range(n)]
    refs: list[float] = []
    last_ref = 0.0
    tracer = None
    pass_times = {"plain": [], "traced": []}
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    plain_ok: list[float] = []  # untraced query times of a traced run
    target = None
    while True:
        traced = trace and len(pass_times["plain"]) > len(pass_times["traced"])
        if traced:
            tracer.install()
            setup.cli.trace_dir = setup.cli.workdir
        t_pass = time.perf_counter()
        for i, q in enumerate(queries):
            if not in_process:
                refs.append(speed.process_reference())
            elif not refs or time.perf_counter() - last_ref >= speed.EVERY_S:
                refs.append(speed.reference())
                last_ref = time.perf_counter()
            close = tracer.query_span(f"q{i}", f"query.{q.kind}") if traced else None
            try:
                result = run_query(q, setup.limit, in_process)
            finally:
                if close:
                    close()
            if trace and not traced and result[1] == "ok":
                plain_ok.append(result[0])
            if traced or not trace:
                dt, status, verdict = result
                first = next((r[2] for r in runs[i] if r[1] == "ok"), None)
                if status == "ok" and first is not None and verdict == first:
                    verdict = SAME  # keep one copy of a large verdict
                runs[i].append((dt, status, verdict, len(refs) - 1))
        pass_times["traced" if traced else "plain"].append(time.perf_counter() - t_pass)
        if traced:
            tracer.uninstall()
            setup.cli.trace_dir = None
        if target is None:
            target = max(1, round(seconds / pass_times["plain"][0]))
        done = len(pass_times["traced"]) if trace else len(pass_times["plain"])
        if done >= (max(1, target // 2) if trace else target):
            break
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    out = {"passes": len(pass_times["plain"]) + len(pass_times["traced"]),
           "pass_s": pass_times["plain"],
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "runs": runs, "plain_ok_s": plain_ok,
           "refs": refs, "ref_nominal": speed.REF_S if in_process else speed.PROCESS_REF_S}
    if trace:
        # replay set-up's DSL parsing under the tracer: the dsl layer's share of setup_s
        from oeg import dsl

        tracer.install()
        close = tracer.query_span("setup", "setup.parse")
        for text in setup.graph_texts:
            dsl.parse_graph(text)
        close()
        tracer.uninstall()
        layer = tracer.aggregate()
        if setup.cli.parts:
            from tracer import merge

            layer = merge([layer, *setup.cli.parts])
        layer["trace_overhead_share"] = (
            statistics.median(pass_times["traced"]) / statistics.median(pass_times["plain"]) - 1.0)
        out["per_layer"] = layer
    return out


def verify(setup, measured: dict) -> dict:
    """Check every verdict against its oracle and reduce the passes to the
    end-to-end figures.  Timings are rescaled by the speed factor of the
    last reference reading before each query (see speed.py); the ``raw``
    figures are the same without rescaling."""
    attempted = failed = unexpected = wrong = 0
    factor = speed.factors(measured["refs"], measured["ref_nominal"])
    verdict_times: list[float] = []
    raw_times: list[float] = []
    busy = raw_busy = 0.0  # time of every query execution, rescaled and raw
    correct_runs = 0
    probes: dict[str, str] = {}
    per_kind: dict[str, list[float]] = {}
    for q, runs in zip(setup.queries, measured["runs"]):
        if not runs:
            continue
        expected = q.expect()
        times, raw = [], []
        first = next((r[2] for r in runs if r[1] == "ok"), None)
        for dt, status, verdict, ref in runs:
            outcome = classify(q, status, first if verdict is SAME else verdict, expected)
            attempted += 1
            # a stopped query took the limit, whatever the machine's speed
            busy += dt if status == "timeout" else dt * factor[ref]
            raw_busy += dt
            if status == "ok":
                times.append(dt * factor[ref])
                raw.append(dt)
            if outcome == "ok":
                correct_runs += 1
                continue
            failed += 1
            wrong += outcome == "wrong"
            unexpected += outcome == "wrong" or q.probe is None
            if q.probe:
                probes[q.probe] = outcome
        if q.probe and q.probe not in probes:
            probes[q.probe] = "ok"
        if times:
            verdict_times.append(statistics.median(times))
            raw_times.append(statistics.median(raw))
            per_kind.setdefault(q.kind, []).append(verdict_times[-1])
    tail_value, tail_p, tail_n = stats.tail(verdict_times)
    return {
        "attempted": attempted,
        "failed": failed,
        "unexpected_failures": unexpected,
        "wrong": wrong,
        "probes": probes,
        "queries_per_s": correct_runs / busy,
        "query_p50_ms": statistics.median(verdict_times) * 1e3,
        "query_tail_ms": tail_value * 1e3,
        "tail_percentile": tail_p,
        "tail_samples": tail_n,
        "failed_share": failed / attempted,
        "kind_p50_ms": {k: statistics.median(v) * 1e3 for k, v in sorted(per_kind.items())},
        "raw": {
            "queries_per_s": correct_runs / raw_busy,
            "query_p50_ms": statistics.median(raw_times) * 1e3,
            "query_tail_ms": stats.tail(raw_times)[0] * 1e3,
            "reference_ms": statistics.median(measured["refs"]) * 1e3,
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.LIMITS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    work_root = os.path.join(ROOT, ".oegbench-work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        setup = workloads.build(args.workload, args.seed, workdir)
        setup_done = time.perf_counter()
        # the machine's speed just after set-up, to rescale setup_s by
        setup_ref = statistics.median(speed.reference() for _ in range(2 * speed.WINDOW + 1))
        report = {"setup_done": setup_done, "setup_ref": setup_ref, "fingerprint": setup.fingerprint(args.seed)}
        if not args.setup_only:
            in_process = args.workload != "cli_cold"
            if in_process:
                signal.signal(signal.SIGALRM, _on_alarm)
            # split while this process is still small, so starting children is cheap
            split = cli_split_times(ROOT) if args.trace else {}
            measured = measure(setup, args.seconds, bool(args.trace), in_process)
            report.update(verify(setup, measured))
            report["passes"] = measured["passes"]
            report["pass_s"] = measured["pass_s"]
            report["peak_rss_mb"] = measured["peak_rss_mb"]
            if args.trace:
                layer = measured["per_layer"]
                layer.update(split)
                plain = measured["plain_ok_s"]
                layer["cli.command_ms"] = (
                    statistics.median(plain) * 1e3 - split["cli.interpreter_ms"] - split["cli.import_ms"]
                    if plain and not in_process else 0.0)
                report["per_layer"] = layer
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

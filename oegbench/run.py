"""Benchmark entry point.

    python3 oegbench/run.py --workload germ_pool --seed 1 --seconds 22 --trace 0

Run from the repository root.  Every process starts a fresh interpreter:
one worker that sets up and measures, with set-up-only workers before and
after it, so no cache can carry over from one run to the next.  ``setup_s``
is the median over all of them of the time from starting the interpreter to
the end of set-up.  The run's record (fingerprint, environment, probe
outcomes, every figure) is printed before the result line and kept in
``.oegbench-runs/`` for ``compare.py``.  The last line of standard output is
the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402

WORKLOADS = ("germ_pool", "finite_oe", "amplified", "cli_cold")
SETUP_SAMPLES = 7

END_TO_END = {
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "failed_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _worker(root: str, args, extra: list[str], timeout: float) -> tuple[float, dict]:
    """Start a worker interpreter; returns (perf_counter at start, its report)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    # A fixed hash seed makes set and dict orders, and so the library's work
    # on given inputs, the same in every process.
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "oeg", "cli.py")):
        print("error: run from the repository root; src/oeg is missing", file=sys.stderr)
        return 2
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }
    try:
        # set-up samples before and after the measuring worker, so a slow
        # spell of the machine does not bias them all
        samples, raw_samples, fingerprints = [], [], []
        for i in range(SETUP_SAMPLES):
            measuring = i == SETUP_SAMPLES // 2
            start, out = _worker(root, args, [] if measuring else ["--setup-only"],
                                 3 * args.seconds + 100 if measuring else 120)
            raw_samples.append(out["setup_done"] - start)
            samples.append(raw_samples[-1] * speed.REF_S / out["setup_ref"])
            fingerprints.append(out["fingerprint"])
            if measuring:
                rep = out
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if any(fp != fingerprints[0] for fp in fingerprints):
        print("error: set-up is not deterministic: fingerprints differ between processes", file=sys.stderr)
        return 1
    figures = {k: rep[k] for k in END_TO_END if k in rep}
    figures["setup_s"] = statistics.median(samples)
    if args.trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in sorted(rep["per_layer"].items())}
    else:
        metrics = {k: {"value": figures[k], "unit": u} for k, u in END_TO_END.items()}
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "fingerprint": fingerprints[0],
        "environment": env,
        "setup_samples_s": samples,
        "raw": dict(rep["raw"], setup_s=statistics.median(raw_samples)),
        "passes": rep["passes"],
        "pass_s": rep["pass_s"],
        "tail": {"percentile": rep["tail_percentile"], "samples": rep["tail_samples"]},
        "probes": rep["probes"],
        "kind_p50_ms": rep["kind_p50_ms"],
        "attempted": rep["attempted"],
        "failed_all": rep["failed"],
        "wrong": rep["wrong"],
        "metrics": metrics,
    }
    runs = os.path.join(root, ".oegbench-runs")
    os.makedirs(runs, exist_ok=True)
    with open(os.path.join(runs, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": rep["wrong"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["unexpected_failures"],
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name in ("weyl.classes_per_germ", "trace_overhead_share"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

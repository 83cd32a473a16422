"""Alternating parent/change pairs of the benchmark, written to a BENCH file.

    python3 scripts/bench_pairs.py PARENT_REV --workload W --pairs N --seed S \
        [--seconds 22] --out BENCH_<n>.json [--what TEXT] [--claim METRIC]

Run from the repository root.  The parent is a ``git archive`` of
PARENT_REV in a temporary directory; the change is a copy, in another, of
the working tree's files that git lists (tracked, or untracked and not
ignored), so neither side holds a ``__pycache__``.  Both run with
``PYTHONDONTWRITEBYTECODE=1``, so every ``oeg`` module is compiled from
source in each interpreter on both sides, while the standard library is
read from its bytecode as usual.  Pair
``i`` runs ``oegbench/run.py --workload W --seed S+i --seconds T`` once on
each side, one run at a time, the parent first on even ``i`` and the change
first on odd ``i``.  The last line of each run's output is its result, and
the line before it the run's record, whose ``kind_p50_ms`` gives the median
time of each query kind.

The workload's entry in the output file gets, for each end-to-end metric of
``BENCHMARK.json``: the parent's and the change's medians and inclusive
quartiles, the change's median over the parent's, the pairs in which the
change was better, and every run, in pair order.  Under ``kind_p50_ms`` it
gets the same summary of each query kind's p50, so the file shows which
kinds moved ``query_p50_ms``.  A pair in which either run fails is left out
of the figures and its seed listed under ``failed_seeds``.  Other workloads
already in the file are kept, so one file gathers several calls; a workload
already there is refused, so no run made is overwritten.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile


def _copy_listed(root: str, dest: str) -> None:
    """Copy into ``dest`` the files of ``root`` that git lists: tracked ones
    still present, and untracked ones it does not ignore."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], cwd=root,
                            capture_output=True, check=True).stdout.decode().split("\0")
    for name in filter(None, listed):
        if os.path.isfile(os.path.join(root, name)):
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(os.path.join(root, name), os.path.join(dest, name))


def _run(root: str, workload: str, seed: int, seconds: int) -> dict | None:
    """One benchmark run in ``root``, writing no bytecode, read by
    :func:`_parse`, or None on failure."""
    cmd = [sys.executable, "oegbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return None
    return _parse(lines)


def _parse(lines: list[str]) -> dict:
    """A run's metric values, from its result line (the last), and under
    ``kind_p50_ms`` each query kind's p50, from its record line (the one
    before)."""
    metrics = {k: m["value"] for k, m in json.loads(lines[-1])["metrics"].items()}
    return {**metrics, "kind_p50_ms": json.loads(lines[-2])["kind_p50_ms"]}


def _kind_summary(parent: list[dict], change: list[dict]) -> dict:
    """For each query kind, the :func:`_summary` of its p50 over the pairs
    of runs that both time it; a kind timed in fewer than two pairs is left
    out."""
    pairs = [(p["kind_p50_ms"], c["kind_p50_ms"]) for p, c in zip(parent, change)]
    out = {}
    for kind in sorted({k for p, c in pairs for k in p.keys() & c.keys()}):
        timed = [(p[kind], c[kind]) for p, c in pairs if kind in p and kind in c]
        if len(timed) >= 2:
            out[kind] = _summary("lower", [p for p, _ in timed], [c for _, c in timed])
    return out


def _summary(better: str, parent: list[float], change: list[float]) -> dict:
    def quartiles(xs):
        q = statistics.quantiles(xs, n=4, method="inclusive")
        return [round(q[0], 4), round(q[2], 4)]

    p_med, c_med = statistics.median(parent), statistics.median(change)
    won = sum((c > p) if better == "higher" else (c < p) for p, c in zip(parent, change))
    return {
        "better": better,
        "parent_median": round(p_med, 4),
        "parent_quartiles": quartiles(parent),
        "change_median": round(c_med, 4),
        "change_quartiles": quartiles(change),
        "change_over_parent": round(c_med / p_med, 4) if p_med else None,
        "change_better_in": f"{won}/{len(parent)}",
        "parent_runs": [round(x, 4) for x in parent],
        "change_runs": [round(x, 4) for x in change],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_rev")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=22)
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json file to write or extend")
    ap.add_argument("--what", default=None, help="what the change does, for a new file")
    ap.add_argument("--claim", default=None, help="the metric this workload claims a gain on")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    if args.workload in doc.get("workloads", {}):
        ap.error(f"{args.out} already holds {args.workload}; write these runs to another file")
    archive = subprocess.run(["git", "archive", args.parent_rev], cwd=root, capture_output=True, check=True).stdout
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    seeds, failed_seeds = [], []
    with tempfile.TemporaryDirectory(prefix="bench_parent_") as parent_root, \
            tempfile.TemporaryDirectory(prefix="bench_change_") as change_root:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent_root)
        _copy_listed(root, change_root)
        for i in range(args.pairs):
            seed = args.seed + i
            got = {}
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                got[side] = _run(parent_root if side == "parent" else change_root, args.workload, seed, args.seconds)
                print(f"pair {i} seed {seed} {side}: {got[side]}", file=sys.stderr)
            if None in got.values():
                failed_seeds.append(seed)
                continue
            seeds.append(seed)
            for side in runs:
                runs[side].append(got[side])
    entry = {
        "pairs": len(seeds),
        "seeds": seeds,
        "failed_runs": len(failed_seeds),
        "failed_seeds": failed_seeds,
        "metrics": {
            name: _summary(better[name], [r[name] for r in runs["parent"]], [r[name] for r in runs["change"]])
            for name in better
            if len(seeds) >= 2
        },
        "kind_p50_ms": _kind_summary(runs["parent"], runs["change"]),
    }
    doc.setdefault("what", args.what)
    doc["machine"] = (f"{os.cpu_count()} vCPU, Python {platform.python_version()}, {platform.system()}; "
                      "parent = a git archive copy of the parent commit, change = a copy of the working tree's "
                      "listed files, run one at a time, writing no bytecode")
    doc["method"] = (f"scripts/bench_pairs.py {args.parent_rev}: alternating parent/change pairs of "
                     f"`python3 oegbench/run.py --workload W --seed S --seconds {args.seconds}`, parent first on even "
                     "pair index; figures are medians over the pairs, quartiles inclusive; every run made is listed "
                     "under parent_runs and change_runs, in pair order")
    doc.setdefault("claim", None)
    if args.claim:
        doc["claim"] = {"workload": args.workload, "metric": args.claim}
    doc.setdefault("workloads", {})[args.workload] = entry
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for name, m in entry["metrics"].items():
        print(f"{args.workload} {name}: {m['parent_median']} {m['parent_quartiles']} -> "
              f"{m['change_median']} {m['change_quartiles']} ({m['change_better_in']})")
    for kind, m in entry["kind_p50_ms"].items():
        print(f"{args.workload} p50 of {kind}: {m['parent_median']} -> {m['change_median']} ({m['change_better_in']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

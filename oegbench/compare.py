"""Compare two sets of benchmark runs.

    python3 oegbench/compare.py BASE_DIR NEW_DIR

Each directory holds run records as ``run.py`` writes them into
``.oegbench-runs/``.  Runs are paired by workload and seed; the comparison
refuses (exit 2) when a paired run's input fingerprint differs, or when no
runs pair up.  For every end-to-end metric it prints both medians and the
change as a share of the base median, and exits 1 when a metric is worse by
more than its bound in BENCHMARK.json.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory: str) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        if rec.get("trace") == 0:
            runs[(rec["workload"], rec["fingerprint"]["seed"])] = rec
    return runs


def main(argv=None) -> int:
    base_dir, new_dir = (argv or sys.argv[1:])[:2]
    base, new = load(base_dir), load(new_dir)
    paired = sorted(set(base) & set(new))
    if not paired:
        print("refused: no runs with the same workload and seed")
        return 2
    for key in paired:
        if base[key]["fingerprint"] != new[key]["fingerprint"]:
            print(f"refused: {key[0]} seed {key[1]} has different inputs in the two sets")
            return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    worse = 0
    for workload in sorted({w for w, _ in paired}):
        seeds = [s for w, s in paired if w == workload]
        print(f"{workload} ({len(seeds)} paired runs)")
        for name, m in spec.items():
            b = statistics.median(base[(workload, s)]["metrics"][name]["value"] for s in seeds)
            n = statistics.median(new[(workload, s)]["metrics"][name]["value"] for s in seeds)
            change = (n - b) / b if b else 0.0
            regress = change if m["better"] == "lower" else -change
            flag = "WORSE" if regress > m["bound"] else ""
            worse += bool(flag)
            print(f"  {name:15s} {b:12.4f} -> {n:12.4f} {m['unit']:6s} {change:+.3f} {flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

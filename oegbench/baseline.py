"""Record the traced baseline of every workload.

    python3 oegbench/baseline.py [--seed 1] [--seconds 22]

Runs ``run.py --trace 1`` once per workload and writes ``baseline.json`` next
to this file: per-layer self times, the busiest functions, work counts and
``trace_overhead_share`` for each workload, the map from layer metrics to the
end-to-end metric and workload each should move, the prediction per layer
and workload ("no change" where the layer does no work), and why each
known-defect probe fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402
from tracer import LAYERS, WORK  # noqa: E402
from workloads import PROBES  # noqa: E402

# (layers, layer metrics, end-to-end metrics they should move, workloads)
LAYER_MAP = [
    (("weyl",), "weyl.* and weyl.classes_per_germ", "queries_per_s, peak_rss_mb", ("germ_pool",)),
    (("groupoid",), "groupoid.enumerate_elements", "query_p50_ms", ("germ_pool",)),
    (("dynamics",), "dynamics.search_oe_witness", "query_tail_ms, failed_share", ("finite_oe",)),
    (("boundary",), "boundary.boundary_census", "query_tail_ms, failed_share", ("finite_oe",)),
    (("invariants",), "invariants.digraph_isomorphic", "query_tail_ms, failed_share", ("amplified",)),
    (("invariants",), "invariants.reachability, invariants.det_bareiss", "query_p50_ms", ("amplified",)),
    (("moves", "boundary"), "moves.* and the point-primitive counts", "queries_per_s", ("amplified",)),
    (("cli", "dsl"), "cli.import_ms, dsl.parse_graph", "query_p50_ms", ("cli_cold",)),
    (("cli", "dsl"), "cli.import_ms, dsl.parse_graph", "setup_s", ("germ_pool", "finite_oe", "amplified")),
]


def predictions(layer_ms: dict[str, float], workload: str) -> dict[str, str]:
    """What a change to each layer should move on this workload: "no change"
    where the layer does no work here."""
    out = {}
    for layer in LAYERS:
        moved = [f"{e2e} (via {metrics})" for layers, metrics, e2e, where in LAYER_MAP
                 if layer in layers and workload in where]
        if layer_ms[layer] == 0.0 and not (layer in ("cli", "dsl") and moved):
            out[layer] = "no change"
        else:
            out[layer] = "; ".join(moved) if moved else "no change expected: minor share on this workload"
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=22)
    args = ap.parse_args(argv)
    result = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "1"], capture_output=True, text=True, check=True)
        record = json.loads(proc.stdout.strip().splitlines()[-2])
        metrics = {k: v["value"] for k, v in record["metrics"].items()}
        layer_ms = {layer: round(metrics[f"{layer}.self_ms"], 3) for layer in LAYERS}
        fns = {k[: -len(".self_ms")]: round(v, 3) for k, v in metrics.items()
               if k.endswith(".self_ms") and k.count(".") == 2 and v > 0}
        result["environment"] = record["environment"]
        result["workloads"][workload] = {
            "layer_self_ms": layer_ms,
            "busiest_functions_self_ms": dict(sorted(fns.items(), key=lambda kv: -kv[1])[:8]),
            "work": {k: metrics[k] for k in (*WORK, "weyl.classes_per_germ")},
            "cli_split_ms": {k: round(metrics[k], 3) for k in ("cli.interpreter_ms", "cli.import_ms", "cli.command_ms")},
            "trace_overhead_share": round(metrics["trace_overhead_share"], 4),
            "predictions": predictions(layer_ms, workload),
        }
        print(workload, layer_ms, "overhead", result["workloads"][workload]["trace_overhead_share"], flush=True)
    result["layer_map"] = [{"layer_metrics": m, "end_to_end": e, "workloads": list(w)} for _, m, e, w in LAYER_MAP]
    result["probes"] = PROBES
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

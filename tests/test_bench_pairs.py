"""``scripts/bench_pairs.py`` keeps each run's per-kind p50 from the record
line that ``oegbench/run.py`` prints before its result, and sums the kinds
up across pairs.  The script is loaded from its file; nothing is run."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def _script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _output(p50: float, kinds: dict[str, float]) -> list[str]:
    """The last two lines of a made-up run: its record, then its result."""
    record = {"workload": "finite_oe", "kind_p50_ms": kinds, "metrics": {}}
    result = {"correct": True, "metrics": {"query_p50_ms": {"value": p50, "unit": "ms"}}}
    return ["warming up", json.dumps(record), json.dumps(result)]


def test_kind_summary_of_two_made_up_runs():
    bench = _script()
    first = bench._parse(_output(0.47, {"oe_yes_7": 0.70, "oe_no_4": 0.20, "census_chain": 9.0}))
    second = bench._parse(_output(0.41, {"oe_yes_7": 0.60, "oe_no_4": 0.21}))
    assert first == {"query_p50_ms": 0.47, "kind_p50_ms": {"oe_yes_7": 0.70, "oe_no_4": 0.20, "census_chain": 9.0}}
    # pair 0 is first against second; pair 1 the other way round
    got = bench._kind_summary([first, second], [second, first])
    assert list(got) == ["oe_no_4", "oe_yes_7"]  # census_chain is timed in one run only
    yes = got["oe_yes_7"]
    assert yes["parent_runs"] == [0.70, 0.60] and yes["change_runs"] == [0.60, 0.70]
    assert yes["parent_median"] == yes["change_median"] == 0.65
    assert yes["change_better_in"] == "1/2" and yes["better"] == "lower"
    assert got["oe_no_4"]["change_better_in"] == "1/2"

"""``scripts/bench_pairs.py`` keeps each run's per-kind p50 from the record
line that ``oegbench/run.py`` prints before its result, sums the kinds up
across pairs, and runs both sides without bytecode.  The script is loaded
from its file; nothing is run."""

from __future__ import annotations

import importlib.util
import io
import json
import subprocess
import tarfile
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



def test_both_sides_run_without_bytecode(tmp_path, monkeypatch):
    """A stale ``__pycache__`` in the working tree is read on neither side:
    the change runs from a copy of the files git lists, the parent from its
    archive, and both with PYTHONDONTWRITEBYTECODE=1.  ``git`` and the
    benchmark runs are stand-ins."""
    bench = _script()
    tree = tmp_path / "tree"
    for name in ("BENCHMARK.json", "src/oeg/cli.py", "src/oeg/__pycache__/cli.cpython-311.pyc"):
        (tree / name).parent.mkdir(parents=True, exist_ok=True)
        (tree / name).write_text("")
    (tree / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [{"name": "query_p50_ms", "better": "lower"}]}))
    archive = io.BytesIO()
    with tarfile.open(fileobj=archive, mode="w") as tar:
        tar.add(tree / "src" / "oeg" / "cli.py", "src/oeg/cli.py")
    runs = []

    def run(cmd, cwd=None, env=None, **kwargs):
        if cmd[:2] == ["git", "archive"]:
            return subprocess.CompletedProcess(cmd, 0, stdout=archive.getvalue())
        if cmd[:2] == ["git", "ls-files"]:  # the cache is ignored; a deleted file is still listed
            return subprocess.CompletedProcess(cmd, 0, stdout=b"BENCHMARK.json\0src/oeg/cli.py\0gone.py\0")
        files = sorted(str(p.relative_to(cwd)) for p in Path(cwd).rglob("*") if p.is_file())
        runs.append((cwd, env["PYTHONDONTWRITEBYTECODE"], files))
        return subprocess.CompletedProcess(cmd, 0, stdout="\n".join(_output(0.4, {"oe_yes_7": 0.6})))

    monkeypatch.setattr(bench.subprocess, "run", run)
    monkeypatch.chdir(tree)
    out = tmp_path / "BENCH.json"
    assert bench.main(["HEAD", "--workload", "finite_oe", "--pairs", "2", "--seed", "1", "--out", str(out)]) == 0
    assert len(runs) == 4 and len({cwd for cwd, _, _ in runs}) == 2 and str(tree) not in {cwd for cwd, _, _ in runs}
    assert all(flag == "1" and "src/oeg/cli.py" in files for _, flag, files in runs)
    assert not any("__pycache__" in name for _, _, files in runs for name in files)
    assert json.loads(out.read_text())["workloads"]["finite_oe"]["pairs"] == 2

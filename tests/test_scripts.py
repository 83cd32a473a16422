"""The curve scripts run end to end: each, given one small size and one
pass, prints its header and one row per input.  The timings are not read."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import oeg

ROOT = Path(__file__).resolve().parent.parent

# script, its size argument, header columns, rows under the header
CURVES = [
    # a chain and a forest, then the peak RSS line
    ("census_curve.py", "50", ["graph", "vertices", "listed", "edges", "median", "ms", "ns", "per", "edge"], 3),
    # one path, four layered DAGs, and four cubic graphs each against a
    # relabelled copy and a split
    ("amplified_curve.py", "50", ["family", "vertices", "components", "reduced", "arcs", "verdict", "median", "ms"], 13),
    # chains and 2-regular files of one size, then the points
    ("parse_curve.py", "100", ["family", "count", "us", "each"], 3),
]


@pytest.mark.parametrize("script, size, header, rows", CURVES, ids=[c[0] for c in CURVES])
def test_curve_script_runs(script, size, header, rows):
    src = os.path.dirname(os.path.dirname(os.path.abspath(oeg.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--passes", "1", size],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    first, *rest = proc.stdout.splitlines()
    assert first.split() == header
    assert len(rest) == rows

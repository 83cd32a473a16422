"""The benchmark's span tracer names library functions by layer; every name
must resolve, since ``Tracer.install`` looks each one up and a missing one
fails every traced run.  The tracer file is read, not imported."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "oegbench" / "tracer.py"


def _listed(name: str) -> dict[str, tuple[str, ...]]:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no {name}")


@pytest.mark.parametrize("table", ["SPANNED", "COUNTED"])
def test_tracer_names_resolve(table):
    listed = _listed(table)
    assert listed
    missing = [
        f"{layer}.{fn}"
        for layer, names in listed.items()
        for fn in names
        if not callable(getattr(importlib.import_module(f"oeg.{layer}"), fn, None))
    ]
    assert missing == []

"""Run ``oeg.cli.main`` under the tracer and leave the per-layer figures in
a JSON file: ``python cli_child.py OUT.json <oeg arguments...>``.  The exit
code is the command's own."""

from __future__ import annotations

import json
import sys

from tracer import Tracer

import oeg.cli


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    close = tracer.query_span("cli", "query.cli")
    try:
        return oeg.cli.main(argv)
    finally:
        close()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.aggregate(), fh)


if __name__ == "__main__":
    sys.exit(main())

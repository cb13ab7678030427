"""One benchmark invocation in a fresh interpreter.

    python perfbench/child.py setup ARGV_LISTS_JSON
    python perfbench/child.py cli ARGV...

``setup`` imports ellrank and builds the inputs of every invocation (field,
curve, weighted space) without calling any layer; its wall time is the
benchmark's set-up time.  ``cli`` runs ``ellrank.cli.main`` in-process, the
same code ``python -m ellrank`` runs, with the layer spans recorded (see
spans.py), and prints one JSON object on stdout:
``{"exit": code, "report": ..., "spans": [...]}``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent)]


def _setup(argv_lists: list[list[str]]) -> None:
    from ellrank import cli, curves
    from ellrank.counting import WeightedSpace
    from ellrank.fields import make_field
    parser = cli.build_parser()
    for argv in argv_lists:
        args = parser.parse_args(argv)
        make_field(args.prime)
        curves.defining_polynomial()
        WeightedSpace(curves.THREEFOLD_WEIGHTS)


def _cli(argv: list[str]) -> dict:
    from ellrank import cli
    from spans import Tracer
    out = io.StringIO()
    with Tracer() as tracer, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    text = out.getvalue()
    return {"exit": code, "report": json.loads(text) if text.strip() else None,
            "spans": tracer.spans()}


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        _setup(json.loads(argv[1]))
        return 0
    if argv[:1] == ["cli"]:
        sys.stdout.write(json.dumps(_cli(argv[1:])) + "\n")
        return 0
    print("usage: child.py setup ARGV_LISTS_JSON | cli ARGV...", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

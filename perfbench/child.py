"""Traced stand-in for ``python -m canopy`` in the cli workload.

Usage: python perfbench/child.py TRACE_PATH CANOPY_ARGS...

Runs ``canopy.cli.main`` on the arguments with every public canopy
function wrapped, then writes the tracer's snapshot to TRACE_PATH as JSON.
Stdout and the exit code are those of ``python -m canopy``.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import canopy.cli  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return canopy.cli.main(argv)
    finally:
        tracer.remove()
        Path(trace_path).write_text(json.dumps(tracer.snapshot()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())

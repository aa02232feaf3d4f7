"""Traced stand-in for ``python -m repro``: installs the layer wrappers,
then runs ``repro.cli.main`` with the given arguments.

    LAYERBENCH_TRACE_DIR=DIR python -X importtime layerbench/launcher.py ARGS...

Writes ``DIR/<pid>.jsonl``: a header with the process's own timestamps
(first statement, wrappers installed, ``repro.cli`` imported, ``main``
returned) and one line per span.  Pool workers forked from this
process write their own files (see ``tracing.py``).
"""

import time

STARTED = time.monotonic_ns()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import TRACE_DIR_ENV, install  # noqa: E402


def main() -> int:
    recorder = install(Path(os.environ[TRACE_DIR_ENV]))
    installed = time.monotonic_ns()
    import repro.cli

    imported = time.monotonic_ns()
    try:
        return recorder.wrap(repro.cli.main, "cli", None)(sys.argv[1:])
    finally:
        recorder.flush({"pid": os.getpid(), "started": STARTED,
                        "installed": installed, "imported": imported,
                        "returned": time.monotonic_ns()})


if __name__ == "__main__":
    sys.exit(main())

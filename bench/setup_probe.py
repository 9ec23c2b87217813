"""One set-up sample for ``setup_s``, run in a fresh interpreter.

Usage: python3 bench/setup_probe.py WORKLOAD SEED DIRECTORY

Imports ``drtricks.cli`` (from ``src/`` via PYTHONPATH), builds the
workload's inputs under DIRECTORY, then prints ``time.monotonic()`` at the
moment it is ready. The parent started its clock just before spawning this
process, so the difference covers interpreter start, import and inputs.
"""
import sys
import time
from pathlib import Path

import drtricks.cli  # noqa: F401  (the import is part of what is timed)

from spans import Tracer
from workloads import WORKLOADS, Dirs, Session


def main() -> int:
    name, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    dirs = Dirs(directory / "inputs", directory / "out")
    dirs.inputs.mkdir(parents=True)
    if not WORKLOADS[name].setup(Session(), Tracer(only=()), dirs, seed):
        return 1
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

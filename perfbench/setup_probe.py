"""Set-up probe of the pgl benchmark, run in a fresh process.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED DIRECTORY

Imports pgl.cli, builds the workload's corpus under DIRECTORY and prints
the seconds both took, measured from the start of this script.
"""

from time import perf_counter

_started = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent / "src"), str(_HERE)]

import pgl.cli  # noqa: E402,F401

import corpus  # noqa: E402

corpus.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(perf_counter() - _started)

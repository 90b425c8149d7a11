"""One cold set-up, timed by run.py from outside this process.

Usage: python3 setup_probe.py <src dir> <tech config file>

Imports gnoc (the CLI module pulls in every layer), parses the tech config
and builds the segment tables, then prints time.perf_counter().  That clock
is CLOCK_MONOTONIC, shared by all processes, so the parent subtracts the
moment it started this process to get the set-up time.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

import gnoc.cli  # noqa: E402,F401  (the import is what is measured)
from gnoc.characterize import build_tables  # noqa: E402
from gnoc.techlib import load_tech_config  # noqa: E402

with open(sys.argv[2]) as fh:
    build_tables(load_tech_config(fh.read()))
print(repr(time.perf_counter()))

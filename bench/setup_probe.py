"""Time one fresh start of the package.

    python bench/setup_probe.py WORKLOAD SEED

Imports ``dilaton_gme`` and ``dilaton_gme.cli`` from the checkout's ``src``
and builds the workload's first deck of inputs, then prints the seconds
that took.  Interpreter start-up before the first line is not counted.
"""

import os
import sys
import time

START = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import dilaton_gme  # noqa: E402
import dilaton_gme.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.first_deck(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - START)

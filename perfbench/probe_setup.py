"""Set-up time of one workload, measured in this fresh interpreter.

    python3 perfbench/probe_setup.py WORKLOAD SEED

Prints the seconds from the start of ``import bwgan`` to the start of the
workload's first timed unit of work.  ``run.py`` starts several of these
one after another, scales each time to nominal machine speed with the
speed factors it measures around the probe (see ``refspeed``), and reports
the median as ``setup_s``.
"""

import sys
import time

import env

env.prepare()
t0 = time.perf_counter()
import bwgan  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

env.check_origin(bwgan)
name, seed = sys.argv[1], int(sys.argv[2])
print(repr(WORKLOADS[name](seed).first_unit_start() - t0))

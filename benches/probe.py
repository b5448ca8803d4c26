"""Set-up probe: start, import the program, warm up one workload, exit.

`run.py` times whole runs of this script to measure `setup_s`; it does none of
the benchmark's own oracle preparation.  Usage: python3 probe.py <workload>
"""

import sys

import env

env.pin_threads()
env.use_source_tree()

import workloads  # noqa: E402  (imports the program after the pinning above)

workloads.warm_up(workloads.WORKLOADS[sys.argv[1]])

"""Set-up of one benchmark run, in a fresh process: import dplqr, draw inputs.

Usage: python3 perfbench/setup_inputs.py WORKLOAD SEED INPUTS_DIR

run.py times the whole process, so set-up time includes interpreter
start-up and the import of dplqr, numpy and scipy, which every user of
the CLI pays. Expects src/ on PYTHONPATH.
"""

import sys

from workloads import WORKLOADS


def main(argv):
    name, seed, inputs_dir = argv
    WORKLOADS[name](int(seed), inputs_dir).prepare()


if __name__ == "__main__":
    main(sys.argv[1:])

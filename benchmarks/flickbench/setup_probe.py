"""Set-up time of one workload, measured in this fresh interpreter.

``python -m benchmarks.flickbench.setup_probe WORKLOAD SEED [--smoke]``
imports ``repro``, builds the workload's machine(s), compiles and loads
every program (for fig5a: builds every hosted machine and chain), and
prints the seconds that took.  The clock starts before ``repro`` is
imported, because users pay the import on every run.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402


def main(argv) -> None:
    name, seed = argv[0], int(argv[1])
    from benchmarks.flickbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    workload.set_up(workload.inputs(seed, smoke="--smoke" in argv[2:]))
    print(time.perf_counter() - _START)


if __name__ == "__main__":
    main(sys.argv[1:])

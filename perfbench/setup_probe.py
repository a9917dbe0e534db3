"""One benchmark set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED``.  Times the
imports and a real ``run_workflow`` call of ``WORKLOAD`` up to the
first call of the workflow's driver (platform, job allocation,
instrumentation stack, ``workflow.prepare`` and the client connect),
and prints the calibrated seconds (see ``calibration.py``).
"""

import os
import sys
import time

import calibration


class SetUpDone(Exception):
    """Raised by the workflow driver's first call: set-up is over."""


def set_up(workload: str, seed: int) -> float:
    start = time.perf_counter()
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import workloads
    from repro.workflows import runner

    spec = workloads.WORKLOADS[workload]
    workflow = spec.workflow(spec.scale)

    def driver(env, client, cluster):
        raise SetUpDone(time.perf_counter())
    workflow.driver = driver
    try:
        runner.run_workflow(workflow, seed=seed, run_index=0)
    except SetUpDone as done:
        return done.args[0] - start
    raise RuntimeError("run_workflow returned without calling the driver")


if __name__ == "__main__":
    seconds, factor = calibration.calibrated(set_up, sys.argv[1],
                                             int(sys.argv[2]))
    print(seconds * factor)

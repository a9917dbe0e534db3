"""Engine events per kind of the three paper workflows, pinned.

A kernel change that adds or drops an event fails here by kind and
workflow, not only through a golden hash.  The kinds are those of the
benchmark's ``sim.events.*`` metrics, and ``processes`` is its
``sim.processes``: the processes the run starts.  The counts come from
one run per workflow at scale 0.03 and seed 41.  They are the same
under ``PYTHONHASHSEED=0`` and ``1``, so the runs are made in-process.
"""

import pytest

from repro.workflows import (ImageProcessingWorkflow, ResNet152Workflow,
                             XGBoostWorkflow, run_workflow)

from tests.helpers import EventCounter

COUNTS = {
    ImageProcessingWorkflow: {"timeout": 2047, "initialize": 1204,
                              "process": 1178, "condition": 602,
                              "plain": 2360, "processes": 1204},
    ResNet152Workflow: {"timeout": 1852, "initialize": 887,
                        "process": 972, "condition": 390,
                        "plain": 2206, "processes": 998},
    XGBoostWorkflow: {"timeout": 5533, "initialize": 1367,
                      "process": 1341, "condition": 1068,
                      "plain": 2763, "processes": 1367},
}


@pytest.mark.parametrize("factory", list(COUNTS),
                         ids=lambda factory: factory.__name__)
def test_engine_event_counts(factory):
    counter = EventCounter()
    run_workflow(factory(scale=0.03), seed=41, monitor=counter)
    assert dict(counter.counts) == COUNTS[factory]

"""Shared infrastructure for the benchmark harness.

Every bench regenerates one table or figure of the paper's evaluation.
The simulated runs are expensive relative to the analyses, so they are
produced once per session (memoized per workflow) and shared; the
``benchmark`` fixture then times the PERFRECUP analysis that produces
the artifact, and each bench prints (and writes under
``benchmarks/out/``) the same rows/series the paper reports.

Scaling knobs (environment):

* ``REPRO_FULL=1``  — paper scale (151 images / 3929 files / 20 GiB,
  10/10/50 repetitions).  Expect tens of minutes.
* ``REPRO_SCALE=x`` — dataset/task scale factor (default 0.08).
* ``REPRO_RUNS=n``  — repetitions per workflow (default 3).
* ``REPRO_WORKERS=n`` — fan repetitions out over a process pool of
  ``n`` workers (default: serial).
"""

import functools
import os

import pytest

from repro.workflows import (
    ImageProcessingWorkflow,
    ResNet152Workflow,
    XGBoostWorkflow,
    run_many,
)

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

FACTORIES = {
    "ImageProcessing": ImageProcessingWorkflow,
    "ResNet152": ResNet152Workflow,
    "XGBOOST": XGBoostWorkflow,
}


class BenchEnv:
    def __init__(self):
        self.full = os.environ.get("REPRO_FULL") == "1"
        self.scale = float(os.environ.get(
            "REPRO_SCALE", "1.0" if self.full else "0.08"))
        default_runs = "10" if self.full else "3"
        self.runs = int(os.environ.get("REPRO_RUNS", default_runs))
        self.seed = int(os.environ.get("REPRO_SEED", "1"))
        workers = os.environ.get("REPRO_WORKERS")
        self.workers = int(workers) if workers else None
        self._cache = {}

    def runs_of(self, workflow_name: str, n_runs: int | None = None):
        """Memoized multi-run execution of one workflow."""
        factory_cls = FACTORIES[workflow_name]
        if n_runs is None:
            n_runs = self.runs
            if self.full and workflow_name == "XGBOOST":
                n_runs = int(os.environ.get("REPRO_RUNS_XGB", "50"))
        key = (workflow_name, n_runs)
        if key not in self._cache:
            self._cache[key] = run_many(
                functools.partial(factory_cls, scale=self.scale),
                n_runs=n_runs, seed=self.seed,
                workers=self.workers,
            )
        return self._cache[key]

    def one_run(self, workflow_name: str):
        return self.runs_of(workflow_name)[0]


@pytest.fixture(scope="session")
def bench_env():
    return BenchEnv()


def emit(name: str, text: str) -> None:
    """Print a bench artifact and persist it under benchmarks/out/."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"\n{'=' * 72}\n{name}  (saved to {path})\n{'=' * 72}")
    print(text)

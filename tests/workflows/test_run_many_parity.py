"""Fan-out parity: the process pool must never change the data.

The paper's repetition protocol multiplies engine cost, so ``run_many``
fans repetitions out over a process pool — but every number in the
evaluation flows from the event streams, so the parity contract is
strict: for the same ``(seed, run_index)``, serial and process-pool
execution must produce byte-identical event streams.  The pool uses a
fork context precisely so children inherit the parent's hash
randomization (set-iteration order feeds scheduler tie order), keeping
the streams identical without pinning ``PYTHONHASHSEED``.  When the
pool cannot run, ``run_many`` runs the repetitions serially and warns
once with the reason.
"""

import functools
import json
import warnings

import pytest

from repro.workflows import ImageProcessingWorkflow, run_many, runner
from repro.workflows.runner import _chunk_indices

SCALE = 0.03
N_RUNS = 3


def _factory():
    return functools.partial(ImageProcessingWorkflow, scale=SCALE)


def _stream_bytes(result) -> bytes:
    return json.dumps(result.data.events, sort_keys=True).encode()


@pytest.fixture(scope="module")
def serial_runs():
    return run_many(_factory(), n_runs=N_RUNS, seed=7)


# run_many's execution paths, by the ``workers`` value that selects each.
EXECUTOR_WORKERS = {"serial": None, "process": 2}


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_streams_identical_across_executors(serial_runs, executor):
    runs = run_many(_factory(), n_runs=N_RUNS, seed=7,
                    workers=EXECUTOR_WORKERS[executor])
    assert [r.run_index for r in runs] == list(range(N_RUNS))
    for serial, parallel in zip(serial_runs, runs):
        assert _stream_bytes(serial) == _stream_bytes(parallel)
        assert serial.data.logs == parallel.data.logs


def test_auto_prefers_process_when_viable(serial_runs, monkeypatch):
    """``workers > 1`` takes the process pool whenever it can run."""
    pool_calls = []
    real_pool_iter = runner._pool_iter

    def spy_pool_iter(payload, n_runs, workers):
        pool_calls.append((n_runs, workers))
        return real_pool_iter(payload, n_runs, workers)

    monkeypatch.setattr(runner, "_pool_iter", spy_pool_iter)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # viable pool: no serial fallback
        runs = run_many(_factory(), n_runs=N_RUNS, seed=7, workers=2)
    assert pool_calls == [(N_RUNS, 2)]
    for serial, parallel in zip(serial_runs, runs):
        assert _stream_bytes(serial) == _stream_bytes(parallel)


def _runtime_warnings(record) -> list:
    return [w for w in record if w.category is RuntimeWarning]


def test_unpicklable_factory_runs_serially(serial_runs):
    factory = lambda: ImageProcessingWorkflow(scale=SCALE)  # noqa: E731
    with pytest.warns(RuntimeWarning, match="running serially") as record:
        runs = run_many(factory, n_runs=2, seed=7, workers=2)
    (warning,) = _runtime_warnings(record)
    assert "not picklable" in str(warning.message)
    assert warning.filename == __file__  # points at the caller
    assert [r.run_index for r in runs] == [0, 1]
    for serial, fallback in zip(serial_runs, runs):
        assert _stream_bytes(serial) == _stream_bytes(fallback)


def test_observers_run_serially():
    class Monitor:
        steps = 0

        def attach(self, env):
            env.add_monitor(self)

        def on_schedule(self, *a):
            pass

        def on_step(self, *a):
            self.steps += 1

        def before_callback(self, *a):
            pass

    monitor = Monitor()
    with pytest.warns(RuntimeWarning, match="running serially") as record:
        runs = run_many(_factory(), n_runs=2, seed=7, workers=2,
                        monitor=monitor)
    (warning,) = _runtime_warnings(record)
    assert "monitor/telemetry" in str(warning.message)
    assert len(runs) == 2
    assert monitor.steps > 0  # observed in this process


def test_chunk_indices_cover_all_runs_in_order():
    for n_runs in (1, 2, 7, 8, 9):
        for workers in (1, 2, 3, 4, 16):
            chunks = _chunk_indices(n_runs, workers)
            assert len(chunks) == min(workers, n_runs)
            flat = [i for chunk in chunks for i in chunk]
            assert flat == list(range(n_runs))
            sizes = [len(c) for c in chunks]
            assert max(sizes) - min(sizes) <= 1

"""Streaming semantics of :func:`run_many_iter`.

``run_many`` waits for the whole batch; ``run_many_iter`` must hand
results back incrementally — the first repetitions arrive while later
(or slower) ones are still running — and closing it early must not run
the rest of the batch.  These tests pin that contract without relying
on wall-clock timing: the serial test counts factory calls at first
yield, and the process-pool tests coordinate with the pool's children
through files (a gate the test only opens *after* the first result
arrives, and one file per factory call).
"""

import functools
import os
import tempfile
import time

from repro.workflows import ImageProcessingWorkflow, run_many, run_many_iter
from repro.workflows.runner import _adaptive_chunk_count

SCALE = 0.03


class _CountingFactory:
    """Factory that records how many workflows it has built."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return ImageProcessingWorkflow(scale=SCALE)


class _RecordingFactory:
    """Picklable factory that records each call, in any process, as one
    file under ``directory``."""

    def __init__(self, directory):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def __call__(self):
        fd, _ = tempfile.mkstemp(dir=self.directory)
        os.close(fd)
        return ImageProcessingWorkflow(scale=SCALE)

    @property
    def calls(self) -> int:
        return len(os.listdir(self.directory))


class _GatedFactory:
    """Picklable factory whose first call, in any process, claims
    ``claim`` and waits for ``release`` — at most 30 s, after which it
    writes ``timed_out`` and proceeds, so a regression fails an assert
    instead of hanging."""

    def __init__(self, directory):
        self.claim = os.path.join(directory, "claim")
        self.release = os.path.join(directory, "release")
        self.timed_out = os.path.join(directory, "timed_out")

    def __call__(self):
        try:
            os.close(os.open(self.claim,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return ImageProcessingWorkflow(scale=SCALE)
        deadline = time.monotonic() + 30.0
        while not os.path.exists(self.release):
            if time.monotonic() > deadline:
                open(self.timed_out, "w").close()
                break
            time.sleep(0.01)
        return ImageProcessingWorkflow(scale=SCALE)


def test_serial_iter_is_lazy():
    factory = _CountingFactory()
    gen = run_many_iter(factory, n_runs=3, seed=7)
    assert factory.calls == 0  # nothing ran at generator creation
    first = next(gen)
    assert first.run_index == 0
    assert factory.calls == 1  # runs 1 and 2 have not started yet
    rest = list(gen)
    assert [r.run_index for r in rest] == [1, 2]
    assert factory.calls == 3


def test_process_iter_streams_before_slowest_completes(tmp_path):
    # Whichever repetition's factory runs first blocks on a gate we
    # only open after the *other* repetition's result has been
    # yielded.  If run_many_iter buffered until the pool drained,
    # next() would only return once the gate timed out.
    factory = _GatedFactory(str(tmp_path))
    gen = run_many_iter(factory, n_runs=2, seed=7, workers=2)
    try:
        first = next(gen)
        streamed_early = not os.path.exists(factory.timed_out)
        open(factory.release, "w").close()
        rest = list(gen)
    finally:
        open(factory.release, "w").close()
        gen.close()

    assert streamed_early, "first result only arrived after the gate " \
        "timed out — run_many_iter is not streaming"
    assert {r.run_index for r in [first, *rest]} == {0, 1}


def test_close_cancels_unstarted_chunks(tmp_path):
    # Closing the generator after the first result must not run the
    # rest of the batch: chunks the pool has not started are cancelled.
    factory = _RecordingFactory(tmp_path / "calls")
    gen = run_many_iter(factory, n_runs=8, seed=7, workers=2)
    next(gen)
    gen.close()
    assert factory.calls < 8


def test_iter_matches_run_many_results():
    factory = functools.partial(ImageProcessingWorkflow, scale=SCALE)
    batch = run_many(factory, n_runs=3, seed=7)
    streamed = sorted(
        run_many_iter(factory, n_runs=3, seed=7, workers=2),
        key=lambda r: r.run_index)
    assert [r.run_index for r in streamed] == [0, 1, 2]
    for a, b in zip(batch, streamed):
        assert a.data.events == b.data.events
        assert a.data.logs == b.data.logs


def test_adaptive_chunk_count_bounds():
    # Few runs: one chunk per repetition (capped by the oversubscribe
    # ceiling) so every core starts immediately.
    assert _adaptive_chunk_count(1, 4) == 1
    assert _adaptive_chunk_count(3, 4) == 3
    assert _adaptive_chunk_count(16, 4) == 16
    # Many runs: ~4 chunks per worker for pool rebalancing.
    assert _adaptive_chunk_count(1000, 4) == 16
    assert _adaptive_chunk_count(50, 2) == 8
    # At least one chunk, never more chunks than runs or than the
    # oversubscribe ceiling.
    for n_runs in (1, 2, 5, 9, 64):
        for workers in (1, 2, 4, 8):
            count = _adaptive_chunk_count(n_runs, workers)
            assert 1 <= count <= min(n_runs, 4 * workers)

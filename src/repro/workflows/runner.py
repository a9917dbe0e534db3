"""Experiment runner: repeated, fully instrumented workflow executions.

One :func:`run_workflow` call is one "job" in the paper's methodology:
a fresh simulated platform, a batch allocation, the instrumented WMS
stack, the workflow driver, and finally draining the instrumentation.
:func:`run_many` repeats it ``n_runs`` times with the *same* root seed
but distinct run indices — identical code and configuration, different
noise and placement, exactly the repetition protocol behind the
paper's variability analysis (10 runs for ImageProcessing and
ResNet152, 50 for XGBOOST "because it showed more variability").

Results come back as in-memory :class:`~repro.core.RunData` (fast
path) and can optionally be persisted to run directories for the
postprocessing path.
"""

from __future__ import annotations

import os
import pickle
import warnings
from dataclasses import dataclass, field
from typing import Optional

from ..core import RunData
from ..dasklike import DaskConfig
from ..instrument import InstrumentedRun
from ..jobs import BatchSystem, JobSpec
from ..platform import Cluster, ClusterSpec
from ..sim import Environment, RandomStreams
from .base import Workflow

__all__ = ["run_workflow", "run_many", "run_many_iter", "RunResult"]


@dataclass
class RunResult:
    """Everything one repetition produced."""

    data: RunData
    run_index: int
    wall_time: float
    run_dir: Optional[str] = None
    #: The run's :class:`~repro.telemetry.Telemetry` bundle, if one was
    #: passed to :func:`run_workflow` (``None`` otherwise).
    telemetry: Optional[object] = None
    #: Flat records of every fault the injector fired (empty when the
    #: run had no ``faults=`` schedule).  Plain dicts, so results stay
    #: picklable across the ``run_many`` process pool.
    fault_records: list = field(default_factory=list)


def run_workflow(workflow: Workflow, seed: int = 0, run_index: int = 0,
                 config: Optional[DaskConfig] = None,
                 cluster_spec: Optional[ClusterSpec] = None,
                 job_spec: Optional[JobSpec] = None,
                 dxt_buffer_limit: Optional[int] = None,
                 persist_dir: Optional[str] = None,
                 monitor=None,
                 telemetry=None,
                 faults=None,
                 **instrument_kwargs) -> RunResult:
    """Execute one instrumented repetition of ``workflow``.

    ``monitor`` is an optional engine observer (e.g. the event-ordering
    sanitizer from :mod:`repro.analysis`) attached to the environment
    for the whole run — the mechanism behind ``perfrecup sanitize``.

    ``telemetry`` is an optional :class:`~repro.telemetry.Telemetry`
    bundle; when given, the instrumentation stack attaches its periodic
    samplers and span-building plugins (``perfrecup trace`` /
    ``perfrecup metrics``).  Monitors compose: sanitizer and telemetry
    can observe the same run.

    ``faults`` is an optional :class:`~repro.faults.FaultSchedule` (or
    iterable of :class:`~repro.faults.FaultSpec`); when given, a
    :class:`~repro.faults.FaultInjector` replays it against the run and
    the fired faults come back in ``RunResult.fault_records``.  An
    empty schedule attaches nothing and leaves the event stream
    byte-identical to a run without ``faults``.
    """
    env = Environment()
    if monitor is not None:
        monitor.attach(env)
    streams = RandomStreams(seed, run_index=run_index)
    cluster = Cluster(env, cluster_spec or ClusterSpec(), streams)
    batch = BatchSystem(env, cluster, streams)
    spec = job_spec or JobSpec.paper_default(name=workflow.name)
    job = env.run(until=env.process(batch.submit(spec)))

    if config is None and hasattr(workflow, "recommended_config"):
        config = workflow.recommended_config()
    if dxt_buffer_limit is None:
        dxt_buffer_limit = getattr(workflow, "dxt_buffer_limit", None)
    kwargs = dict(instrument_kwargs)
    if dxt_buffer_limit is not None:
        kwargs["dxt_buffer_limit"] = dxt_buffer_limit

    run = InstrumentedRun(env, cluster, job, config=config,
                          streams=streams, run_index=run_index,
                          seed=seed, telemetry=telemetry, **kwargs)
    run.start()
    injector = None
    if faults is not None:
        from ..faults import FaultInjector
        injector = FaultInjector(faults, streams)
        injector.attach(run)
    workflow.prepare(cluster, streams)
    client = run.client(name=f"client-{workflow.name}")

    def main():
        yield env.process(client.connect())
        yield env.process(workflow.driver(env, client, cluster))
        yield env.process(run.drain())

    env.run(until=env.process(main()))
    batch.complete(job)

    run_dir = None
    if persist_dir is not None:
        run_dir = os.path.join(
            persist_dir, workflow.name.lower(), f"run{run_index:04d}")
        run.persist(run_dir, client=client, workflow=workflow.describe())

    data = RunData.load(run, client=client)
    # The run is over: close the cluster, as a Dask user would, and end
    # what still waits on the clock.  That leaves no reference cycle,
    # so reference counting frees the run when this function returns.
    run.dask.close()
    env.close()
    return RunResult(data=data, run_index=run_index,
                     wall_time=data.wall_time, run_dir=run_dir,
                     telemetry=telemetry,
                     fault_records=injector.records if injector else [])


#: Per-pool-worker state: ``(factory, seed, kwargs)`` unpacked once by
#: :func:`_pool_init`.  Module-global so chunk tasks ship only their run
#: indices — the factory and kwargs cross the process boundary once per
#: pool worker (in the initializer), not once per chunk.
_POOL_STATE: Optional[tuple] = None


def _pool_init(payload: bytes) -> None:
    """Pool-worker initializer: unpack the shared run configuration.

    Takes the pickled ``(factory, seed, kwargs)`` tuple rather than the
    objects themselves so a pickling problem surfaces in the parent
    (where it can fall back to a serial run) instead of as an opaque
    pool crash.
    """
    global _POOL_STATE
    _POOL_STATE = pickle.loads(payload)


def _run_index_chunk(indices: list[int]) -> list[RunResult]:
    """Worker-process entry: execute one chunk of run indices against
    the pool-wide :data:`_POOL_STATE` configuration."""
    workflow_factory, seed, kwargs = _POOL_STATE
    return [
        run_workflow(workflow_factory(), seed=seed, run_index=run_index,
                     **kwargs)
        for run_index in indices
    ]


def _chunk_indices(n_runs: int, workers: int) -> list[range]:
    """Split ``range(n_runs)`` into at most ``workers`` even chunks."""
    n_chunks = min(workers, n_runs)
    base, extra = divmod(n_runs, n_chunks)
    chunks: list[range] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(range(start, start + size))
        start += size
    return chunks


def _adaptive_chunk_count(n_runs: int, workers: int) -> int:
    """How many chunks to cut ``n_runs`` repetitions into.

    One chunk per worker minimizes dispatch overhead but strands the
    pool behind its slowest chunk (repetition wall time varies run to
    run — that variability is the paper's subject).  With enough runs
    per worker, oversubscribe ~4 chunks per worker so the pool can
    rebalance; with few runs, fall back to one chunk per repetition so
    every core gets work immediately.
    """
    return min(n_runs, workers * 4)


def _pool_payload(workflow_factory, seed: int,
                  kwargs: dict) -> tuple[Optional[bytes], Optional[str]]:
    """``(payload, None)`` when the process pool can run, else
    ``(None, reason)``.

    ``payload`` is the pickled ``(factory, seed, kwargs)`` tuple the
    pool initializer unpacks.  Three requirements: no per-run live
    objects the parent needs back (``monitor``/``telemetry`` attach to
    the child's environment and their observations would be lost), a
    ``fork`` start method (children must inherit the parent's hash
    randomization so set-iteration order — and therefore the event
    stream — is identical to a serial run), and a picklable
    factory/kwargs.
    """
    if kwargs.get("monitor") is not None or \
            kwargs.get("telemetry") is not None:
        return None, "monitor/telemetry observers cannot cross processes"
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return None, "requires the fork start method for identical streams"
    try:
        return pickle.dumps((workflow_factory, seed, kwargs)), None
    except Exception as exc:  # pickle raises a zoo of types
        return None, f"factory/kwargs not picklable ({exc!r})"


def run_many(workflow_factory, n_runs: int, seed: int = 0,
             workers: Optional[int] = None,
             **kwargs) -> list[RunResult]:
    """Repeat a workflow ``n_runs`` times (fresh workflow per run).

    Repetitions are independent — each gets its own environment,
    cluster, and ``RandomStreams(seed, run_index)`` — so with
    ``workers > 1`` they fan out over a fork ``ProcessPoolExecutor``.
    The factory/seed/kwargs ship once per pool worker via the pool
    initializer; chunks of contiguous run indices (adaptively sized,
    see :func:`_adaptive_chunk_count`) then carry only their indices.
    Repetitions are pure Python, so a process pool is the only fan-out
    that buys wall time; a thread pool would serialize on the GIL.

    Results always come back ordered by ``run_index`` with
    bit-identical event streams whether the pool ran or not;
    parallelism may change wall time, never the data.  When
    ``workers > 1`` is asked for but the pool cannot run (see
    :func:`_pool_payload`), the repetitions run serially and a
    ``RuntimeWarning`` names the reason.
    """
    results = list(run_many_iter(workflow_factory, n_runs, seed=seed,
                                 workers=workers, _warn_stacklevel=3,
                                 **kwargs))
    results.sort(key=lambda result: result.run_index)
    return results


def run_many_iter(workflow_factory, n_runs: int, seed: int = 0,
                  workers: Optional[int] = None,
                  _warn_stacklevel: int = 2, **kwargs):
    """Streaming :func:`run_many`: yield results as they complete.

    Chunks of repetitions stream back incrementally — the first results
    arrive while the slowest chunk is still running, so consumers can
    aggregate, persist, or abort early instead of blocking on the whole
    batch: closing the generator cancels every chunk the pool has not
    started yet.  Yield order is completion order (contiguous within a
    chunk); :func:`run_many` sorts by ``run_index`` for callers that
    want the batch semantics.  Pool selection, the serial fallback, and
    per-repetition results are identical to :func:`run_many`.
    """
    if workers is not None and workers > 1 and n_runs > 1:
        payload, blocker = _pool_payload(workflow_factory, seed, kwargs)
        if blocker is None:
            yield from _pool_iter(payload, n_runs, workers)
            return
        warnings.warn(
            f"run_many: process pool unavailable ({blocker}); "
            f"running serially", RuntimeWarning,
            stacklevel=_warn_stacklevel)

    for run_index in range(n_runs):
        yield run_workflow(workflow_factory(), seed=seed,
                           run_index=run_index, **kwargs)


def _pool_iter(payload: bytes, n_runs: int, workers: int):
    """Run the repetitions on a fork process pool, yielding each chunk's
    results as it completes."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed
    chunks = _chunk_indices(n_runs, _adaptive_chunk_count(n_runs, workers))
    with ProcessPoolExecutor(
            max_workers=min(workers, len(chunks)),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_pool_init,
            initargs=(payload,),
    ) as pool:
        futures = [pool.submit(_run_index_chunk, list(chunk))
                   for chunk in chunks]
        try:
            for future in as_completed(futures):
                yield from future.result()
        finally:
            # An early close (or a failed chunk) must not wait for the
            # chunks nobody will read: the pool's exit joins whatever
            # is still queued.
            for future in futures:
                future.cancel()

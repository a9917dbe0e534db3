"""Tests for worker spill-to-disk memory management."""

import pytest

from repro.dasklike import DaskConfig, TaskGraph, TaskSpec

from tests.helpers import ClusterRecorder, make_wms, run_graphs


def big_output_graph(n=12, nbytes=16 * 2**20, token="51111111"):
    """Independent producers with large pinned outputs + a consumer."""
    tasks = [
        TaskSpec(key=(f"produce-{token}", i), compute_time=0.05,
                 output_nbytes=nbytes)
        for i in range(n)
    ]
    tasks.append(TaskSpec(
        key=f"consume-{token}",
        deps=tuple((f"produce-{token}", i) for i in range(n)),
        compute_time=0.05, output_nbytes=8,
    ))
    return TaskGraph(tasks)


def spill_config(limit=64 * 2**20, target=0.6):
    return DaskConfig(
        memory_limit=limit,
        memory_spill_fraction=target,
        memory_spill_low=0.4,
        # Keep stealing quiet so placements stay put for assertions.
        work_stealing=False,
        gc_base_rate=0.0, gc_pressure_rate=0.0,
    )


def test_spill_events_occur_under_pressure():
    env, cluster, dask, client, job = make_wms(
        config=spill_config(), worker_nodes=1, workers_per_node=1,
        threads=4)
    recorder = ClusterRecorder(dask)
    run_graphs(env, client, big_output_graph(), optimize=False)
    worker = dask.workers[0]
    spills = [e for e in recorder.of(worker).spills
              if e.direction == "spill"]
    assert spills, "expected spills under memory pressure"


def test_memory_kept_below_limit_after_spills():
    env, cluster, dask, client, job = make_wms(
        config=spill_config(), worker_nodes=1, workers_per_node=1,
        threads=2)
    run_graphs(env, client, big_output_graph(), optimize=False)
    worker = dask.workers[0]
    # After the run: in-memory bytes match the data map exactly.
    assert worker.managed_bytes == sum(worker.data.values())


def test_unspill_round_trip_preserves_results():
    """Spilled dependencies are read back and the consumer completes."""
    env, cluster, dask, client, job = make_wms(
        config=spill_config(), worker_nodes=1, workers_per_node=1,
        threads=2)
    recorder = ClusterRecorder(dask)
    results = run_graphs(env, client, big_output_graph(), optimize=False)
    (index, values), = results
    assert values["consume-51111111"] == 8
    worker = dask.workers[0]
    unspills = [e for e in recorder.of(worker).spills
                if e.direction == "unspill"]
    assert unspills, "the consumer must have read spilled inputs back"


def test_spilling_disabled_by_default():
    env, cluster, dask, client, job = make_wms(
        worker_nodes=1, workers_per_node=1, threads=4)
    recorder = ClusterRecorder(dask)
    run_graphs(env, client, big_output_graph(token="52222222"),
               optimize=False)
    assert all(not recorder.of(w).spills for w in dask.workers)


def test_spill_accounting_consistent():
    env, cluster, dask, client, job = make_wms(
        config=spill_config(), worker_nodes=1, workers_per_node=1,
        threads=2)
    recorder = ClusterRecorder(dask)
    run_graphs(env, client, big_output_graph(token="53333333"),
               optimize=False)
    worker = dask.workers[0]
    # No key is simultaneously in memory and on scratch.
    assert not (set(worker.data) & set(worker.spilled))
    # Every spill of a key precedes its unspill.
    last_dir = {}
    for event in recorder.of(worker).spills:
        if event.direction == "unspill":
            assert last_dir.get(event.key) == "spill"
        last_dir[event.key] = event.direction


def test_free_keys_clears_scratch_too():
    env, cluster, dask, client, job = make_wms(
        config=spill_config(), worker_nodes=1, workers_per_node=1,
        threads=2)
    run_graphs(env, client, big_output_graph(token="54444444"),
               optimize=False)
    worker = dask.workers[0]
    # The producers were released after the consumer ran; their copies
    # must be gone from both tiers.
    leftover = [k for k in list(worker.data) + list(worker.spilled)
                if "produce" in k]
    assert leftover == []

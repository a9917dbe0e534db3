"""Tests for the three evaluation workflows and the runner."""

import gc
import io
import json
import os
from collections import Counter

import numpy as np
import pytest

from repro.core import (
    AnalysisSession,
    detect_phases,
    longest_categories,
    oversized_tasks,
)
from repro.dasklike import DaskCluster, DaskConfig
from repro.faults import FAULT_KINDS, FaultSchedule, FaultSpec
from repro.instrument import InstrumentedRun
from repro.mofka import Event
from repro.mofka.topic import Partition
from repro.telemetry import Telemetry
from repro.workflows import (
    ImageProcessingWorkflow,
    ResNet152Workflow,
    XGBoostWorkflow,
    run_many,
    run_workflow,
    scaled,
)


def cyclic_garbage(factory, **run_kwargs):
    """Run ``factory`` at scale 0.03 with the cyclic GC off, and count
    by type the objects that only a collection would free.
    ``run_kwargs`` go to :func:`run_workflow`."""
    return _cyclic_garbage(
        lambda: run_workflow(factory(scale=0.03), seed=41, **run_kwargs))


def _cyclic_garbage(call):
    """``call()`` with the cyclic GC off, and the objects by type that
    only a collection would free."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        result = call()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    return result, left


class TestScaled:
    def test_rounds_and_floors(self):
        assert scaled(151, 1.0) == 151
        assert scaled(151, 0.1) == 15
        assert scaled(151, 0.0001, minimum=4) == 4

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            ImageProcessingWorkflow(scale=0)


@pytest.fixture(scope="module")
def imageproc_run():
    return run_workflow(ImageProcessingWorkflow(scale=0.08), seed=3)


@pytest.fixture(scope="module")
def resnet_run():
    return run_workflow(ResNet152Workflow(scale=0.04), seed=3)


@pytest.fixture(scope="module")
def xgboost_run():
    return run_workflow(XGBoostWorkflow(scale=0.08), seed=3)


class TestImageProcessing:
    def test_three_task_graphs(self, imageproc_run):
        tasks = AnalysisSession.of(imageproc_run.data).task_view()
        assert set(tasks.unique("graph_index")) == {0, 1, 2}

    def test_read_write_phase_structure(self, imageproc_run):
        """Fig. 4: read bursts followed by write bursts."""
        phases = detect_phases(AnalysisSession.of(imageproc_run.data).io_view(), gap=30.0,
                               min_ops=3)
        ops = [p.op for p in phases]
        assert "read" in ops and "write" in ops
        assert ops[0] == "read"
        # At least two read->write alternations.
        alternations = sum(
            1 for a, b in zip(ops, ops[1:]) if (a, b) == ("read", "write")
        )
        assert alternations >= 2

    def test_reads_are_4mb_capped(self, imageproc_run):
        io = AnalysisSession.of(imageproc_run.data).io_view()
        reads = io.filter(np.array([o == "read" for o in io["op"]]))
        assert int(np.max(reads["length"])) <= 4 * 2**20

    def test_later_writes_smaller_than_first(self, imageproc_run):
        """Phase 2/3 written images are KB-scale vs the MB-scale
        normalized images of phase 1 (the Fig.-4 opacity contrast)."""
        io = AnalysisSession.of(imageproc_run.data).io_view()
        writes = io.filter(np.array([o == "write" for o in io["op"]]))
        phase1 = writes.filter(np.array(
            ["normalized.zarr" in f for f in writes["file"]]))
        later = writes.filter(np.array(
            ["preview.zarr" in f or "masks.zarr" in f
             for f in writes["file"]]))
        assert len(phase1) and len(later)
        assert float(np.mean(phase1["length"])) > \
            50 * float(np.mean(later["length"]))
        # And the later phases start after the first write phase began.
        assert float(np.min(later["start"])) > \
            float(np.min(phase1["start"]))

    def test_distinct_files_scale(self, imageproc_run):
        # originals + 3 consolidated stage stores (Table I: 151 files).
        n_images = ImageProcessingWorkflow(scale=0.08).n_images
        files = imageproc_run.data.darshan.distinct_files()
        assert len(files) == n_images + 3


class TestResNet152:
    def test_single_task_graph(self, resnet_run):
        tasks = AnalysisSession.of(resnet_run.data).task_view()
        assert set(tasks.unique("graph_index")) == {0}

    def test_task_count_shape(self, resnet_run):
        """load + transform per file, predict per batch, one model task."""
        wf = ResNet152Workflow(scale=0.04)
        tasks = AnalysisSession.of(resnet_run.data).task_view()
        n = wf.n_files
        batches = -(-n // wf.BATCH_SIZE)
        assert len(tasks) == 2 * n + batches + 1
        prefixes = dict(zip(*np.unique(
            list(tasks["prefix"]), return_counts=True)))
        assert prefixes["load"] == n
        assert prefixes["transform"] == n
        assert prefixes["predict"] == batches

    def test_dxt_truncation_reproduced(self):
        """Footnote 9: default buffers truncate the ResNet I/O count."""
        wf = ResNet152Workflow(scale=0.04)
        result = run_workflow(wf, seed=3, dxt_buffer_limit=8)
        report = result.data.darshan
        assert report.any_truncated
        assert report.dropped_segments > 0

    def test_model_broadcast_generates_comms(self, resnet_run):
        comms = AnalysisSession.of(resnet_run.data).comm_view()
        model_moves = comms.filter(
            np.array(["load_model" in k for k in comms["key"]]))
        assert len(model_moves) >= 1
        assert all(model_moves["nbytes"] ==
                   ResNet152Workflow.MODEL_BYTES)


class TestXGBoost:
    def test_graph_count(self, xgboost_run):
        wf = XGBoostWorkflow(scale=0.08)
        tasks = AnalysisSession.of(xgboost_run.data).task_view()
        n_graphs = len(set(tasks.unique("graph_index")))
        assert n_graphs == 3 + wf.rounds + 1

    def test_fused_read_category_present(self, xgboost_run):
        tasks = AnalysisSession.of(xgboost_run.data).task_view()
        prefixes = set(tasks.unique("prefix"))
        assert "read_parquet-fused-assign" in prefixes
        assert "getitem" in prefixes
        assert "random_split_take" in prefixes
        assert "drop_by_shallow_copy" in prefixes

    def test_fused_reads_are_longest_category(self, xgboost_run):
        """Fig. 6: the red lines are read_parquet-fused-assign."""
        top = longest_categories(AnalysisSession.of(xgboost_run.data).task_view(), top=1)
        assert top["category"][0] == "read_parquet-fused-assign"

    def test_oversized_outputs(self, xgboost_run):
        """Fig. 6: fused-read outputs exceed the recommended 128 MB and
        are the largest outputs in the workflow."""
        big = oversized_tasks(AnalysisSession.of(xgboost_run.data).task_view())
        assert len(big) > 0
        categories = set(big["category"])
        assert "read_parquet-fused-assign" in categories
        assert big["category"][0] == "read_parquet-fused-assign"

    def test_warnings_skew_early(self, xgboost_run):
        """Fig. 7: warnings concentrate while the big frames are live."""
        warnings = AnalysisSession.of(xgboost_run.data).warning_view()
        assert len(warnings) > 0
        wall = xgboost_run.wall_time
        times = warnings["time"].astype(float)
        early = (times < wall / 2).sum()
        late = (times >= wall / 2).sum()
        assert early > late

    def test_checkpoint_and_prediction_writes(self, xgboost_run):
        io = AnalysisSession.of(xgboost_run.data).io_view()
        files = set(io.unique("file"))
        assert "/lus/xgboost/model-checkpoints.ubj" in files
        assert "/lus/xgboost/predictions.parquet" in files


class TestRunner:
    def test_run_many_reseeds(self):
        results = run_many(lambda: ImageProcessingWorkflow(scale=0.04),
                           n_runs=3, seed=5)
        walls = [r.wall_time for r in results]
        assert len(set(walls)) == 3  # noise differs per repetition
        assert [r.run_index for r in results] == [0, 1, 2]

    def test_persist_dir_layout(self, tmp_path):
        result = run_workflow(ImageProcessingWorkflow(scale=0.04),
                              seed=5, persist_dir=str(tmp_path))
        assert result.run_dir is not None
        assert os.path.exists(os.path.join(result.run_dir,
                                           "provenance.json"))
        workflow_meta = __import__("json").load(
            open(os.path.join(result.run_dir, "provenance.json"))
        )["layers"]["application"]["workflow"]
        assert workflow_meta["name"] == "ImageProcessing"

    def test_same_seed_same_run_reproduces(self):
        a = run_workflow(ImageProcessingWorkflow(scale=0.04), seed=9)
        b = run_workflow(ImageProcessingWorkflow(scale=0.04), seed=9)
        assert a.wall_time == b.wall_time

    @pytest.mark.parametrize("factory", [ImageProcessingWorkflow,
                                         ResNet152Workflow,
                                         XGBoostWorkflow])
    def test_live_run_builds_no_mofka_event(self, factory, monkeypatch):
        """The live path keeps each provenance event as the one dict
        the plugin pushed: appending stores it and returns its offset,
        and the live load reads the stored dicts."""
        built = Counter()
        init = Event.__init__

        def counting_init(self, *args, **kwargs):
            built["Event.__init__"] += 1
            init(self, *args, **kwargs)

        read = Partition.read

        def counting_read(self, offset):
            built["Partition.read"] += 1
            return read(self, offset)

        monkeypatch.setattr(Event, "__init__", counting_init)
        monkeypatch.setattr(Partition, "read", counting_read)
        result = run_workflow(factory(scale=0.03), seed=2)
        assert len(result.data.events) > 1000
        assert built == Counter()

    @pytest.mark.parametrize("factory", [ImageProcessingWorkflow,
                                         ResNet152Workflow,
                                         XGBoostWorkflow])
    def test_finished_run_frees_itself(self, factory):
        """A finished run holds no reference cycle: the cluster is
        closed, the processes still waiting on the clock are ended and
        no grant refers to itself, so with the cyclic GC off nothing of
        the run is left for a collection.

        That covers two narrower claims.  The WMS hands each record to
        its plugins and keeps none, so no record outlives its last hook.
        A condition that fired detaches from the components still
        pending, so the Mofka flusher's withdrawn ``Store.get`` and the
        ``AnyOf`` that waited on it do not keep each other alive."""
        result, left = cyclic_garbage(factory)
        assert len(result.data.events) > 1000
        assert left == Counter()

    @pytest.mark.parametrize("variant", [
        "telemetry", "proxystore", *(f"fault-{kind}" for kind in FAULT_KINDS)])
    def test_extended_run_frees_itself(self, variant):
        """The same holds with the telemetry samplers, the proxy store,
        and under each fault kind's injector."""
        if variant == "telemetry":
            kwargs = {"telemetry": Telemetry()}
        elif variant == "proxystore":
            kwargs = {"config": DaskConfig(proxy_enabled=True)}
        else:
            kind = variant[len("fault-"):]
            kwargs = {"faults": FaultSchedule(
                [FaultSpec(kind, 0.8, duration=3.0)])}
        result, left = cyclic_garbage(ImageProcessingWorkflow, **kwargs)
        assert all(record["fired"] for record in result.fault_records)
        assert left == Counter()

    def test_persisted_run_leaves_only_the_indent_encoder(self, tmp_path):
        """Persisting adds only the garbage of the standard library's
        pure-Python ``json.dump(..., indent=2)`` of ``job.json`` and
        ``provenance.json``: its encoder closures refer to each other,
        and none of them to the run."""
        _, encoder = _cyclic_garbage(
            lambda: [json.dump({"a": [1.0]}, io.StringIO(), indent=2)
                     for _ in range(2)])
        assert encoder
        _, left = cyclic_garbage(ImageProcessingWorkflow,
                                 persist_dir=str(tmp_path))
        assert left == encoder

    def test_closed_run_persists_the_same_bytes(self, tmp_path,
                                                monkeypatch):
        """``run_workflow`` closes the run after its persist and live
        load; persisting it once more afterwards, as the benchmark's
        traced journey does, writes what a persist just before the
        close wrote."""
        close = DaskCluster.close
        runs = []

        def persist_then_close(dask):
            (run,) = runs
            run.persist(str(tmp_path / "before"))
            close(dask)
        init = InstrumentedRun.__init__

        def capture(run, *args, **kwargs):
            runs.append(run)
            init(run, *args, **kwargs)
        monkeypatch.setattr(InstrumentedRun, "__init__", capture)
        monkeypatch.setattr(DaskCluster, "close", persist_then_close)
        run_workflow(ImageProcessingWorkflow(scale=0.03), seed=41)
        runs[0].persist(str(tmp_path / "after"))

        def files(root):
            return {path.relative_to(root): path.read_bytes()
                    for path in root.rglob("*") if path.is_file()}
        before, after = files(tmp_path / "before"), files(tmp_path / "after")
        assert len(before) > 10 and before.keys() == after.keys()
        assert [path for path in before if before[path] != after[path]] == []

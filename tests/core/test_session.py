"""AnalysisSession facade: parity, cache semantics, load dispatch.

The contract under test is the one ``docs/perfrecup_api.md``
documents: the columnar view builders produce cell-for-cell the same
tables as the historical per-row builders (kept as the measurement
baseline inside ``benchmarks/bench_perfrecup_ingest.py``), every view
is built at most once per session, and the legacy free functions keep
working as deprecated shims over the session.
"""

import importlib.util
import pathlib
import pickle

import pytest

from repro.core import (
    AnalysisSession,
    RunData,
    sessions_for,
    variability_report,
)
from repro.core import views as views_module
from repro.core.views import VIEW_NAMES
from repro.dasklike import IOOp, TaskGraph, TaskSpec

from tests.helpers import drive_instrumented, make_instrumented

BENCH_PATH = (pathlib.Path(__file__).resolve().parents[2]
              / "benchmarks" / "bench_perfrecup_ingest.py")


@pytest.fixture(scope="module")
def bench():
    """The ingest benchmark module (source of the legacy builders)."""
    spec = importlib.util.spec_from_file_location(
        "bench_perfrecup_ingest", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workload(cluster, token="beef4242"):
    """Small graph exercising I/O, comms, and dependencies."""
    tasks = []
    for i in range(3):
        path = f"/lus/sess{i}.dat"
        cluster.pfs.create_file(path, 4 * 2**20)
        tasks.append(TaskSpec(
            key=(f"load-{token}", i), compute_time=0.02,
            reads=tuple(IOOp(path, "read", k * 2**20, 2**20)
                        for k in range(4)),
            output_nbytes=4 * 2**20,
        ))
    tasks.append(TaskSpec(
        key=f"merge-{token}",
        deps=tuple((f"load-{token}", i) for i in range(3)),
        compute_time=0.05, output_nbytes=512,
    ))
    return TaskGraph(tasks)


@pytest.fixture(scope="module")
def live_run():
    env, cluster, run = make_instrumented(seed=23)
    client, _ = drive_instrumented(env, run, _workload(cluster),
                                   optimize=False)
    return run, client


@pytest.fixture(scope="module")
def run_data(live_run):
    run, client = live_run
    return RunData.load(run, client=client)


def _make_synthetic(n=4):
    """A tiny in-memory run for cache/monkeypatch tests."""
    events = []
    for i in range(n):
        events.append({
            "type": "task_added", "key": f"t-{i}", "group": "t",
            "prefix": "t", "deps": [], "graph_index": i,
            "timestamp": float(i),
        })
        events.append({
            "type": "task_run", "key": f"t-{i}", "group": "t",
            "prefix": "t", "worker": "w0", "hostname": "h0",
            "thread_id": 1, "start": float(i), "stop": float(i) + 0.5,
            "output_nbytes": 10, "graph_index": i, "compute_time": 0.5,
            "io_time": 0.0, "n_reads": 0, "n_writes": 0,
        })
    return RunData(events=events)


class TestParity:
    """Columnar builders == legacy per-row builders, cell for cell."""

    @pytest.mark.parametrize("name", VIEW_NAMES)
    def test_view_matches_legacy(self, run_data, bench, name):
        legacy = bench.LEGACY_BUILDERS[name](run_data)
        fast = AnalysisSession.of(run_data).view(name)
        assert legacy.column_names == fast.column_names
        assert len(legacy) == len(fast)
        for column in legacy.column_names:
            left = legacy[column].tolist()
            right = fast[column].tolist()
            assert left == right, f"{name}.{column} differs"

    def test_io_view_without_darshan_is_empty_schema(self):
        data = _make_synthetic()
        table = AnalysisSession.of(data).io_view()
        assert len(table) == 0
        assert "duration" in table.column_names


class TestCacheSemantics:
    def test_view_identity_across_requests(self, run_data):
        session = AnalysisSession.of(run_data)
        for name in VIEW_NAMES:
            assert session.view(name) is session.view(name)
        assert session.task_view() is session.view("task")

    def test_of_is_canonical_per_run(self, run_data):
        session = AnalysisSession.of(run_data)
        assert AnalysisSession.of(run_data) is session
        assert AnalysisSession.of(session) is session

    def test_of_accepts_run_result_like(self):
        class FakeResult:
            data = _make_synthetic()
        session = AnalysisSession.of(FakeResult())
        assert session.run is FakeResult.data
        assert AnalysisSession.of(FakeResult.data) is session

    def test_builder_invoked_once(self, monkeypatch):
        calls = []
        real = views_module.VIEW_BUILDERS["task"]

        def counting(run):
            calls.append(run)
            return real(run)

        monkeypatch.setitem(views_module.VIEW_BUILDERS, "task", counting)
        session = AnalysisSession.of(_make_synthetic())
        first = session.task_view()
        assert session.task_view() is first
        assert session.view("task") is first
        assert len(calls) == 1

    def test_cached_derived_analysis_builds_once(self):
        session = AnalysisSession.of(_make_synthetic())
        calls = []

        def build():
            calls.append(1)
            return {"x": 1}

        first = session.cached("thing", build)
        assert session.cached("thing", build) is first
        assert calls == [1]

    def test_unknown_view_raises(self):
        session = AnalysisSession.of(_make_synthetic())
        with pytest.raises(KeyError, match="unknown view"):
            session.view("bogus")

    def test_all_views_builds_each_view_once(self, run_data):
        session = AnalysisSession.of(run_data)
        first = session.all_views()
        assert list(first) == list(VIEW_NAMES)
        again = session.all_views()
        for name in VIEW_NAMES:
            assert again[name] is first[name]
        info = session.cache_info()
        assert sorted(info["views_built"]) == sorted(VIEW_NAMES)

    def test_analysed_run_pickles_and_rebuilds_equal_views(self, run_data):
        # The cached session (and its lock) must not travel with the
        # run: the copy rebuilds its views lazily, cell for cell equal.
        views = AnalysisSession.of(run_data).all_views()
        copy = pickle.loads(pickle.dumps(run_data))
        rebuilt = AnalysisSession.of(copy).all_views()
        assert AnalysisSession.of(copy) is not AnalysisSession.of(run_data)
        for name, table in views.items():
            assert rebuilt[name].column_names == table.column_names
            for column in table.column_names:
                assert rebuilt[name][column].tolist() == \
                    table[column].tolist(), f"{name}.{column} differs"


class TestLoadDispatch:
    def test_rundata_passes_through(self, run_data):
        assert RunData.load(run_data) is run_data

    def test_live_dispatch(self, live_run):
        run, client = live_run
        data = RunData.load(run, client=client)
        assert len(data.events) > 0
        assert data.provenance["seed"] == 23

    def test_directory_dispatch(self, live_run, tmp_path):
        run, client = live_run
        run_dir = run.persist(str(tmp_path / "run"), client=client)
        from_path = RunData.load(run_dir)
        assert len(from_path.events) == len(
            RunData.load(run, client=client).events)

    def test_unsupported_source_raises(self):
        with pytest.raises(TypeError, match="cannot load"):
            RunData.load(42)


class TestFanOut:
    def test_sessions_for_preserves_order(self):
        runs = [_make_synthetic(n) for n in (2, 3, 4)]
        sessions = sessions_for(iter(runs))
        assert [s.run for s in sessions] == runs
        assert [len(s.task_view()) for s in sessions] == [2, 3, 4]

    def test_variability_report_smoke(self, run_data):
        report = variability_report([run_data, run_data])
        assert len(report["sessions"]) == 2
        assert report["sessions"][0] is AnalysisSession.of(run_data)
        assert "total" in report["phases"]
        assert "cv" in report["by_prefix"].column_names

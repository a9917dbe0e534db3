"""FaultInjector: determinism, zero idle footprint, observability."""

import pytest

from repro.core import AnalysisSession, warning_histogram, warnings_in_window
from repro.faults import FaultSchedule, FaultSpec
from repro.workflows import ImageProcessingWorkflow, run_workflow


SCALE = 0.05


def run_ip(faults=None, seed=5):
    return run_workflow(ImageProcessingWorkflow(scale=SCALE), seed=seed,
                        faults=faults)


@pytest.fixture(scope="module")
def healthy():
    return run_ip()


@pytest.fixture(scope="module")
def crashed():
    return run_ip(FaultSchedule([FaultSpec("worker_crash", 1.0)]))


class TestZeroIdleFootprint:
    def test_empty_schedule_is_byte_identical(self, healthy):
        idle = run_ip(FaultSchedule([]))
        assert idle.data.events == healthy.data.events
        assert idle.fault_records == []

    def test_no_faults_argument_gives_empty_records(self, healthy):
        assert healthy.fault_records == []
        assert healthy.data.events_of_type("fault") == []


class TestDeterminism:
    def test_same_seed_same_schedule_same_stream(self, crashed):
        again = run_ip(FaultSchedule([FaultSpec("worker_crash", 1.0)]))
        assert again.data.events == crashed.data.events
        assert again.fault_records == crashed.fault_records

    def test_iterable_coerced_to_schedule(self, crashed):
        """Passing a bare list of specs behaves like a FaultSchedule."""
        again = run_ip([FaultSpec("worker_crash", 1.0)])
        assert again.data.events == crashed.data.events


class TestObservability:
    def test_fault_event_carries_shared_identifiers(self, crashed):
        (event,) = crashed.data.events_of_type("fault")
        assert event["kind"] == "worker_crash"
        assert event["worker"]     # joinable with transition/task views
        assert event["hostname"]   # joinable with io/warning views
        assert float(event["timestamp"]) >= 1.0

    def test_fault_records_mirror_events(self, crashed):
        (record,) = crashed.fault_records
        (event,) = crashed.data.events_of_type("fault")
        assert record["fired"] is True
        assert record["kind"] == event["kind"]
        assert record["worker"] == event["worker"]

    def test_worker_fault_lands_in_warning_view(self, crashed):
        warnings = AnalysisSession.of(crashed.data).warning_view()
        kinds = set(warnings["kind"])
        assert "fault_worker_crash" in kinds
        histogram = warning_histogram(warnings, bucket=10.0)
        assert "fault_worker_crash" in set(histogram["kind"])

    def test_platform_fault_lands_in_warning_view(self):
        result = run_ip(FaultSchedule(
            [FaultSpec("network_degrade", 0.5, duration=1.0)]))
        warnings = AnalysisSession.of(result.data).warning_view()
        assert "fault_network_degrade" in set(warnings["kind"])
        t0 = float(result.fault_records[0]["time"])
        assert warnings_in_window(warnings, t0, t0 + 1.0,
                                  kind="fault_network_degrade") == 1

    def test_injection_logged(self, crashed):
        logs = crashed.data.logs
        assert any("fault-injector: injected worker_crash" in
                   entry.get("message", "") for entry in logs)

    def test_crash_recovery_still_converges(self, crashed, healthy):
        tv_h = AnalysisSession.of(healthy.data).transition_view()
        tv_c = AnalysisSession.of(crashed.data).transition_view()
        memory_h = {k for k, f in zip(tv_h["key"], tv_h["finish_state"])
                    if f == "memory"}
        memory_c = {k for k, f in zip(tv_c["key"], tv_c["finish_state"])
                    if f == "memory"}
        assert memory_c == memory_h
        assert crashed.wall_time > healthy.wall_time


class TestTargeting:
    def test_named_worker_target_is_honoured(self, healthy):
        # Learn a real address from the healthy run's fault-free events.
        tv = AnalysisSession.of(healthy.data).transition_view()
        address = next(w for w in tv["worker"] if w)
        result = run_ip(FaultSchedule(
            [FaultSpec("worker_slowdown", 0.5, target=address,
                       duration=0.5)]))
        (record,) = result.fault_records
        assert record["worker"] == address

    def test_unknown_target_skips_with_log(self):
        result = run_ip(FaultSchedule(
            [FaultSpec("worker_crash", 0.5, target="1.2.3.4:99999")]))
        (record,) = result.fault_records
        assert record["fired"] is False
        assert result.data.events_of_type("fault") == []
        assert any("had no eligible target" in entry.get("message", "")
                   for entry in result.data.logs)

    def test_ost_index_target(self):
        result = run_ip(FaultSchedule(
            [FaultSpec("pfs_ost_slowdown", 0.5, target="0",
                       duration=1.0, magnitude=8.0)]))
        (record,) = result.fault_records
        assert record["target"] == "ost0"


class TestResilienceViewIntegration:
    def test_fault_row_joins_report(self, crashed):
        session = AnalysisSession.of(crashed.data)
        view = session.resilience_view()
        assert len(view) == 1
        assert view["kind"][0] == "worker_crash"
        report = session.resilience_report()
        assert report["n_faults"] == 1
        (recovery,) = report["recovery"]
        (correlation,) = report["fault_warnings"]
        assert correlation["n_warnings"] >= 1

    def test_detection_latency_when_recovery_required(self):
        """A crash the scheduler *must* notice yields detection latency.

        The default ``crashed`` fixture kills an idle worker while
        stealing is on, so placement routes around the corpse and the
        run converges with no recovery transitions at all (that is the
        failure-window placement fix working).  To exercise the
        detection metrics, crash the worker mid-task with stealing off:
        heartbeat liveness checking is then the only rescue path, so
        recovery transitions — and the latencies derived from them —
        exist by construction.
        """
        from repro.dasklike import DaskConfig

        result = run_workflow(
            ImageProcessingWorkflow(scale=SCALE), seed=5,
            config=DaskConfig(heartbeat_interval=0.1,
                              work_stealing=False),
            faults=FaultSchedule([FaultSpec("worker_crash", 1.2)]))
        session = AnalysisSession.of(result.data)
        report = session.resilience_report()
        (recovery,) = report["recovery"]
        assert recovery["detected_after"] is not None
        assert recovery["detected_after"] >= 0.0
        assert recovery["recovered_after"] is not None
        assert recovery["recovered_after"] >= recovery["detected_after"]

    def test_healthy_run_reports_nothing(self, healthy):
        session = AnalysisSession.of(healthy.data)
        assert len(session.resilience_view()) == 0
        report = session.resilience_report()
        assert report["n_faults"] == 0
        assert report["recomputed_tasks"] == 0
        assert report["retry_histogram"] == {}


class TestHealing:
    def test_slowdown_restores_exact_speed(self):
        """The heal must restore the saved original, not multiply back
        (repeated faults would accumulate float drift)."""
        from repro.faults import FaultInjector
        from repro.sim import RandomStreams

        from tests.helpers import make_instrumented

        env, cluster, run = make_instrumented()
        injector = FaultInjector(
            FaultSchedule([
                FaultSpec("worker_slowdown", 0.2, duration=0.5,
                          magnitude=3.0),
                FaultSpec("worker_slowdown", 0.3, duration=0.5,
                          magnitude=7.0),
            ]),
            RandomStreams(0),
        )
        injector.attach(run)
        nodes = list({id(w.node): w.node for w in run.dask.workers}
                     .values())
        original = [node.speed for node in nodes]
        env.run(until=env.timeout(5.0))
        assert [node.speed for node in nodes] == original


class TestCrashDuringGCStall:
    """A worker killed while its event loop is stalled by a GC pause
    must stay silent: the stalled tick used to resume at the end of the
    pause and emit ``unresponsive_event_loop`` for the dead worker."""

    def test_dead_worker_emits_no_stall_warning(self):
        from repro.workflows import XGBoostWorkflow

        def run(faults=None):
            return run_workflow(XGBoostWorkflow(scale=0.1), seed=41,
                                faults=faults).data
        healthy = run()
        pause = min((e for e in healthy.events_of_type("warning")
                     if e["kind"] == "gc_collect" and e["duration"] > 1.0),
                    key=lambda e: (e["time"], e["source"]))
        victim = pause["source"]
        crash_at = pause["time"] + pause["duration"] / 2
        # The healthy run's stall ends with the warning the crash must
        # suppress.
        assert any(e["kind"] == "unresponsive_event_loop"
                   and e["source"] == victim
                   and e["time"] >= pause["time"] + pause["duration"]
                   for e in healthy.events_of_type("warning"))

        faulty = run(FaultSchedule([FaultSpec(
            "worker_crash", crash_at - healthy.job["start_time"],
            target=victim)]))
        fired = [e for e in faulty.events_of_type("warning")
                 if e["kind"] == "fault_worker_crash"]
        assert [e["source"] for e in fired] == [victim]
        assert fired[0]["time"] == pytest.approx(crash_at)
        after = [e for e in faulty.events_of_type("warning")
                 if e["source"] == victim and e["time"] > fired[0]["time"]]
        assert after == []

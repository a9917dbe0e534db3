"""Provenance-schema rules on fixture emission sites."""

import textwrap

import pytest

from repro.analysis import EVENT_REQUIREMENTS, LintEngine, ModuleSource, \
    rules_for
from repro.analysis.schema import record_fields, satisfied_identifiers


def lint(code, selectors=("provenance",)):
    module = ModuleSource.parse(
        "fixture.py", textwrap.dedent(code).lstrip("\n"))
    engine = LintEngine(rules=rules_for(selectors), root="/tmp")
    return [f for f in engine.check_module(module) if f.active]


def rule_names(findings):
    return sorted(f.rule for f in findings)


class TestRequirementDerivation:
    def test_every_requirement_maps_to_fair_columns(self):
        from repro.core.fair import IDENTIFIER_COLUMNS
        for event_type, idents in EVENT_REQUIREMENTS.items():
            for ident in idents:
                assert ident in IDENTIFIER_COLUMNS, (event_type, ident)

    def test_record_registry_covers_plugin_payloads(self):
        fields = record_fields()
        for name in ("TransitionRecord", "TaskRun", "CommRecord",
                     "WarningRecord", "SpillRecord", "StealEvent"):
            assert name in fields

    def test_satisfied_identifiers_split(self):
        present, missing = satisfied_identifiers(
            "task_run", {"key", "worker", "hostname", "thread_id",
                         "start"})
        assert present == {"key", "worker", "hostname", "thread",
                           "timestamp"}
        assert missing == set()


class TestEmissionSites:
    def test_complete_dict_literal_clean(self):
        assert lint("""
            def emit(producer, env, rank):
                producer.push({
                    "type": "dxt_segment", "hostname": "nid0",
                    "pthread_id": 3, "start": env.now, "end": env.now,
                })
        """) == []

    def test_missing_identifier_flagged(self):
        findings = lint("""
            def emit(producer, env):
                producer.push({
                    "type": "dxt_segment", "hostname": "nid0",
                    "start": env.now, "end": env.now,
                })
        """)
        assert rule_names(findings) == ["prov-missing-identifier"]
        assert "thread" in findings[0].message

    def test_missing_type_flagged(self):
        findings = lint("""
            def emit(producer):
                producer.push({"worker": "w0", "timestamp": 1.0})
        """)
        assert rule_names(findings) == ["prov-missing-type"]

    def test_unknown_event_type_flagged(self):
        findings = lint("""
            def emit(producer):
                producer.push({"type": "mystery", "timestamp": 1.0})
        """)
        assert rule_names(findings) == ["prov-unknown-event-type"]

    def test_untyped_payload_flagged(self):
        findings = lint("""
            def emit(producer, metadata):
                producer.push(metadata)
        """)
        assert rule_names(findings) == ["prov-untyped-emission"]

    def test_push_funnel_suppressible(self):
        findings = lint("""
            def emit(producer, metadata):
                producer.push(metadata)  # repro: allow[prov-untyped-emission]
        """)
        assert findings == []


#: Record-flattening calls the schema resolves through the parameter's
#: annotation, with the import each fixture needs.
FLATTENERS = {
    "asdict": "from dataclasses import asdict",
    "vars": "",
}


class TestUnderscorePushSites:
    @pytest.mark.parametrize("flatten", sorted(FLATTENERS))
    def test_asdict_of_known_record_clean(self, flatten):
        assert lint(f"""
            {FLATTENERS[flatten]}

            from repro.dasklike.records import TaskRun

            class Plugin:
                def task_finished(self, record: TaskRun) -> None:
                    self._push("task_run", {flatten}(record))
        """) == []

    @pytest.mark.parametrize("flatten", sorted(FLATTENERS))
    def test_asdict_missing_fields_flagged(self, flatten):
        # LogEntry has no key/hostname/thread: wrong record for task_run.
        findings = lint(f"""
            {FLATTENERS[flatten]}

            from repro.dasklike.records import LogEntry

            class Plugin:
                def task_finished(self, record: LogEntry) -> None:
                    self._push("task_run", {flatten}(record))
        """)
        assert rule_names(findings) == ["prov-missing-identifier"] * 3
        missing = {f.message.split("'")[3] for f in findings}
        assert missing == {"key", "hostname", "thread"}

    def test_dict_literal_payload_checked(self):
        findings = lint("""
            class Plugin:
                def task_added(self, key, env):
                    self._push("task_added", {"key": key})
        """)
        assert rule_names(findings) == ["prov-missing-identifier"]
        assert "timestamp" in findings[0].message

    @pytest.mark.parametrize("flatten", sorted(FLATTENERS))
    def test_unresolvable_annotation_flagged(self, flatten):
        findings = lint(f"""
            {FLATTENERS[flatten]}

            class Plugin:
                def hook(self, record: "SomethingUnknown") -> None:
                    self._push("warning", {flatten}(record))
        """)
        assert rule_names(findings) == ["prov-untyped-emission"]

    @pytest.mark.parametrize("flatten", sorted(FLATTENERS))
    def test_unannotated_argument_flagged(self, flatten):
        findings = lint(f"""
            {FLATTENERS[flatten]}

            class Plugin:
                def hook(self, record) -> None:
                    self._push("warning", {flatten}(record))
        """)
        assert rule_names(findings) == ["prov-untyped-emission"]


class TestRealPluginsAreClean:
    def test_instrument_and_producer_lint_clean(self):
        import os

        import repro.instrument as instrument
        import repro.mofka.producer as producer_module

        engine = LintEngine(rules=rules_for(["provenance"]),
                            root=os.getcwd())
        report = engine.run([
            os.path.dirname(os.path.abspath(instrument.__file__)),
            os.path.abspath(producer_module.__file__),
        ])
        assert report.active == []
        # The generic funnel in plugins.py is suppressed, not missing.
        assert len(report.suppressed) == 1

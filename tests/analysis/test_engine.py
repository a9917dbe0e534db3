"""Engine mechanics: discovery, suppression, baseline, selection."""

import json
import os
import textwrap

import pytest

from repro.analysis import (
    LintEngine,
    ModuleSource,
    load_baseline,
    prune_baseline,
    registered_rules,
    rules_for,
    write_baseline,
)

DIRTY = """
import time

def stamp():
    return time.time()
"""


def write(tmp_path, name, code):
    path = tmp_path / name
    path.write_text(textwrap.dedent(code).lstrip("\n"))
    return str(path)


class TestDiscovery:
    def test_walks_directories_sorted(self, tmp_path):
        write(tmp_path, "b.py", "x = 1")
        write(tmp_path, "a.py", "y = 2")
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "c.py").write_text("z = 3")
        (sub / "notes.txt").write_text("not python")
        found = LintEngine.discover([str(tmp_path)])
        assert [os.path.basename(p) for p in found] == \
            ["a.py", "b.py", "c.py"]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            LintEngine.discover(["/nonexistent/nowhere"])


class TestSuppression:
    def test_same_line_comment(self, tmp_path):
        path = write(tmp_path, "m.py", """
            import time
            t = time.time()  # repro: allow[det-wallclock]
        """)
        report = LintEngine(rules=rules_for(["determinism"]),
                            root=str(tmp_path)).run([path])
        assert report.active == []
        assert len(report.suppressed) == 1

    def test_preceding_line_comment(self, tmp_path):
        path = write(tmp_path, "m.py", """
            import time
            # repro: allow[det-wallclock]
            t = time.time()
        """)
        report = LintEngine(rules=rules_for(["determinism"]),
                            root=str(tmp_path)).run([path])
        assert report.active == []

    def test_wildcard_and_multiple_rules(self, tmp_path):
        path = write(tmp_path, "m.py", """
            import time
            # repro: allow[*]
            t = time.time()
            u = {id(x) for x in []}  # repro: allow[det-id-key, det-set-iteration]
        """)
        report = LintEngine(rules=rules_for(["determinism"]),
                            root=str(tmp_path)).run([path])
        assert report.active == []

    def test_wrong_rule_name_does_not_suppress(self, tmp_path):
        path = write(tmp_path, "m.py", """
            import time
            t = time.time()  # repro: allow[det-id-key]
        """)
        report = LintEngine(rules=rules_for(["determinism"]),
                            root=str(tmp_path)).run([path])
        assert [f.rule for f in report.active] == ["det-wallclock"]

    def test_multi_rule_list_covers_distinct_findings_on_one_line(
            self, tmp_path):
        # One allow list, two different rules anchored to the same line.
        path = write(tmp_path, "m.py", """
            import time
            import random
            x = time.time() + random.random()  # repro: allow[det-wallclock, det-unseeded-random]
        """)
        report = LintEngine(rules=rules_for(["determinism"]),
                            root=str(tmp_path)).run([path])
        assert report.active == []
        assert len(report.suppressed) == 2

    def test_comment_above_decorators_reaches_the_def(self, tmp_path):
        # A suppression placed above a decorator stack applies to a
        # finding anchored at the decorated `def` line.
        module = ModuleSource.parse("m.py", textwrap.dedent("""
            # repro: allow[conc-stale-loop-guard]
            @retries(3)
            @traced
            def _loop(self):
                pass
        """).lstrip("\n"))
        def_line = module.tree.body[0].lineno
        assert module.line(def_line).startswith("def _loop")
        assert "conc-stale-loop-guard" in module.allowed_rules(def_line)

    def test_comment_inside_multiline_expression_counts(self, tmp_path):
        # The flagged node spans several lines; a comment on any of
        # them (here: deep inside the parenthesized payload) works.
        path = write(tmp_path, "m.py", """
            def emit(producer, env):
                producer.push({
                    "type": "dxt_segment",
                    "hostname": "nid0",
                    "start": env.now,  # repro: allow[prov-missing-identifier]
                    "end": env.now,
                })
        """)
        report = LintEngine(rules=rules_for(["provenance"]),
                            root=str(tmp_path)).run([path])
        assert report.active == []
        assert len(report.suppressed) == 1


class TestBaseline:
    def test_roundtrip_marks_baselined(self, tmp_path):
        path = write(tmp_path, "m.py", DIRTY)
        engine = LintEngine(rules=rules_for(["determinism"]),
                            root=str(tmp_path))
        report = engine.run([path])
        assert len(report.active) == 1

        baseline_path = str(tmp_path / "baseline.json")
        count = write_baseline(report, baseline_path, str(tmp_path))
        assert count == 1

        engine2 = LintEngine(rules=rules_for(["determinism"]),
                             baseline=load_baseline(baseline_path),
                             root=str(tmp_path))
        report2 = engine2.run([path])
        assert report2.active == []
        assert len(report2.baselined) == 1
        assert report2.exit_code == 0

    def test_baseline_survives_line_shifts(self, tmp_path):
        path = write(tmp_path, "m.py", DIRTY)
        engine = LintEngine(rules=rules_for(["determinism"]),
                            root=str(tmp_path))
        baseline_path = str(tmp_path / "baseline.json")
        write_baseline(engine.run([path]), baseline_path, str(tmp_path))

        # Prepend lines: the finding moves but its text is unchanged.
        shifted = "import os\nimport sys\n" + \
            (tmp_path / "m.py").read_text()
        (tmp_path / "m.py").write_text(shifted)
        engine2 = LintEngine(rules=rules_for(["determinism"]),
                             baseline=load_baseline(baseline_path),
                             root=str(tmp_path))
        assert engine2.run([path]).active == []

    def test_new_findings_stay_active(self, tmp_path):
        path = write(tmp_path, "m.py", DIRTY)
        engine = LintEngine(rules=rules_for(["determinism"]),
                            root=str(tmp_path))
        baseline_path = str(tmp_path / "baseline.json")
        write_baseline(engine.run([path]), baseline_path, str(tmp_path))

        (tmp_path / "m.py").write_text(
            (tmp_path / "m.py").read_text()
            + "\ndef stamp2():\n    return time.monotonic()\n")
        engine2 = LintEngine(rules=rules_for(["determinism"]),
                             baseline=load_baseline(baseline_path),
                             root=str(tmp_path))
        report = engine2.run([path])
        assert len(report.active) == 1
        assert "monotonic" in report.active[0].snippet

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError):
            load_baseline(str(path))


class TestSelection:
    def test_families_and_names(self):
        rules = registered_rules()
        assert {r.family for r in rules.values()} == \
            {"determinism", "provenance", "concurrency", "hotpath",
             "provflow"}
        assert [r.name for r in rules_for(["det-wallclock"])] == \
            ["det-wallclock"]
        det = rules_for(["determinism"])
        assert all(r.family == "determinism" for r in det)
        assert len(det) >= 5
        conc = rules_for(["concurrency"])
        assert {r.name for r in conc} == {
            "conc-stale-loop-guard", "conc-cross-context-mutation",
            "conc-monitor-mutation"}
        assert {r.name for r in rules_for(["hotpath"])} == {
            "hot-linear-scan", "hot-collection-copy"}
        assert {r.name for r in rules_for(["provflow"])} == {
            "flow-missing-identifier", "flow-unknown-event-type",
            "flow-unresolved-emission"}

    def test_unknown_selector_raises(self):
        with pytest.raises(KeyError):
            rules_for(["no-such-rule"])

    def test_every_rule_documented(self):
        for rule in registered_rules().values():
            assert rule.description


class TestReportRendering:
    def test_json_roundtrips(self, tmp_path):
        path = write(tmp_path, "m.py", DIRTY)
        report = LintEngine(rules=rules_for(["determinism"]),
                            root=str(tmp_path)).run([path])
        document = json.loads(report.render_json())
        assert document["exit_code"] == 1
        assert document["findings"][0]["rule"] == "det-wallclock"

    def test_text_contains_location_and_counts(self, tmp_path):
        path = write(tmp_path, "m.py", DIRTY)
        report = LintEngine(rules=rules_for(["determinism"]),
                            root=str(tmp_path)).run([path])
        text = report.render_text()
        assert "m.py:4" in text
        assert "1 finding(s)" in text


class TestBaselineMaintenance:
    def test_stale_entries_reported_in_stats(self, tmp_path):
        path = write(tmp_path, "m.py", DIRTY)
        engine = LintEngine(rules=rules_for(["determinism"]),
                            root=str(tmp_path))
        baseline_path = str(tmp_path / "baseline.json")
        write_baseline(engine.run([path]), baseline_path, str(tmp_path))

        # The flagged code goes away; the baseline entry is now stale.
        write(tmp_path, "m.py", "x = 1\n")
        engine2 = LintEngine(rules=rules_for(["determinism"]),
                             baseline=load_baseline(baseline_path),
                             root=str(tmp_path))
        report = engine2.run([path])
        assert report.stats["stale_baseline_entries"] == 1
        assert report.exit_code == 0

    def test_prune_drops_only_stale_entries(self, tmp_path):
        keep = write(tmp_path, "keep.py", DIRTY)
        gone = write(tmp_path, "gone.py", """
            import random
            r = random.random()
        """)
        engine = LintEngine(rules=rules_for(["determinism"]),
                            root=str(tmp_path))
        baseline_path = str(tmp_path / "baseline.json")
        write_baseline(engine.run([keep, gone]), baseline_path,
                       str(tmp_path))
        assert len(load_baseline(baseline_path)) == 2

        write(tmp_path, "gone.py", "x = 1\n")
        report = engine.run([keep, gone])
        kept, dropped = prune_baseline(report, baseline_path,
                                       str(tmp_path))
        assert (kept, dropped) == (1, 1)
        remaining = load_baseline(baseline_path)
        assert len(remaining) == 1
        assert all("keep.py" in entry for entry in remaining)

    def test_prune_keeps_suppressed_matches(self, tmp_path):
        # An entry whose code is now also inline-suppressed is not
        # stale: pruning must stay idempotent, not fight suppressions.
        path = write(tmp_path, "m.py", DIRTY)
        engine = LintEngine(rules=rules_for(["determinism"]),
                            root=str(tmp_path))
        baseline_path = str(tmp_path / "baseline.json")
        write_baseline(engine.run([path]), baseline_path, str(tmp_path))

        write(tmp_path, "m.py", """
            import time

            def stamp():
                # repro: allow[det-wallclock]
                return time.time()
        """)
        report = engine.run([path])
        kept, dropped = prune_baseline(report, baseline_path,
                                       str(tmp_path))
        assert (kept, dropped) == (1, 0)

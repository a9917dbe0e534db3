"""CI gate: the real tree must stay lint-clean.

This is the enforcement half of the static-analysis tooling: if a
change introduces a wall-clock call, unseeded RNG, an emission site
missing identifier fields, a stale loop guard, an unguarded
cross-context mutation, or a new O(n)-per-event scan, tier-1 pytest
fails here — the same contract ``perfrecup lint`` checks locally.
The gate covers *all* of ``src/repro``: every rule family, including
the whole-program concurrency/hotpath/provflow passes.
"""

import json
import os
import textwrap

import repro
from repro.cli import main

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))


class TestTreeIsClean:
    def test_lint_whole_package_exits_zero(self, capsys, shared_lint_run):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_lint_all_subpackages_explicitly(self, capsys):
        subdirs = sorted(
            entry for entry in os.listdir(PACKAGE_DIR)
            if os.path.isdir(os.path.join(PACKAGE_DIR, entry))
            and entry != "__pycache__")
        # The package keeps growing; the gate must not silently narrow.
        for expected in ("sim", "dasklike", "mofka", "darshan",
                         "workflows", "instrument", "telemetry",
                         "faults", "analysis", "core", "proxystore"):
            assert expected in subdirs
        paths = [os.path.join(PACKAGE_DIR, sub) for sub in subdirs]
        assert main(["lint", *paths]) == 0

    def test_new_families_run_by_default(self, capsys, shared_lint_run):
        assert main(["lint", "--format", "json", PACKAGE_DIR]) == 0
        document = json.loads(capsys.readouterr().out)
        rules_run = set(document["rules_run"])
        for rule in ("conc-stale-loop-guard", "conc-cross-context-mutation",
                     "conc-monitor-mutation", "hot-linear-scan",
                     "hot-collection-copy", "flow-missing-identifier",
                     "flow-unresolved-emission"):
            assert rule in rules_run


class TestPlantedViolationsStillDetected:
    """Guards against the gate rotting into a tautology."""

    def _plant(self, tmp_path, code):
        planted = tmp_path / "planted.py"
        planted.write_text(textwrap.dedent(code).lstrip("\n"))
        return str(planted)

    def test_planted_wallclock_fails(self, tmp_path, capsys):
        planted = self._plant(tmp_path, """
            import time

            def stamp():
                return time.time()
        """)
        assert main(["lint", planted]) == 1
        assert "det-wallclock" in capsys.readouterr().out

    def test_planted_incomplete_emission_fails(self, tmp_path, capsys):
        planted = self._plant(tmp_path, """
            def emit(producer, env):
                producer.push({"type": "task_run", "key": "k1",
                               "start": env.now})
        """)
        assert main(["lint", planted]) == 1
        out = capsys.readouterr().out
        assert "prov-missing-identifier" in out

    def test_planted_bare_proxy_event_fails(self, tmp_path, capsys):
        """The data-plane event types are in the schema registry: a
        proxy emission missing the paper identifiers must trip the
        gate exactly like a task_run one."""
        planted = self._plant(tmp_path, """
            def emit(producer, env):
                producer.push({"type": "proxy_resolve", "key": "k1",
                               "timestamp": env.now})
        """)
        assert main(["lint", planted]) == 1
        assert "prov-missing-identifier" in capsys.readouterr().out

    def test_planted_stale_loop_guard_fails(self, tmp_path, capsys):
        planted = self._plant(tmp_path, """
            class Stealer:
                def _loop(self):
                    while self._running:
                        yield self.env.timeout(1.0)
                        self.balance()
        """)
        assert main(["lint", planted]) == 1
        assert "conc-stale-loop-guard" in capsys.readouterr().out

    def test_planted_cross_context_race_fails(self, tmp_path, capsys):
        planted = self._plant(tmp_path, """
            class Scheduler:
                def task_finished(self, key):
                    ts = self.tasks[key]
                    ts.state = "memory"

            class WorkStealing:
                def start(self):
                    self._running = True
                    self.env.process(self._loop())

                def _loop(self):
                    while self._running:
                        yield self.env.timeout(1.0)
                        if not self._running:
                            return
                        self.balance()

                def balance(self):
                    for key in self.pending:
                        self._steal(key)

                def _steal(self, key):
                    ts = self.scheduler.tasks[key]
                    ts.state = "stolen"
        """)
        assert main(["lint", planted]) == 1
        assert "conc-cross-context-mutation" in capsys.readouterr().out

    def test_planted_hot_scan_fails(self, tmp_path, capsys):
        planted = self._plant(tmp_path, """
            class Scheduler:
                def submit(self, spec):
                    self.env.process(self._dispatch(spec))

                def _dispatch(self, spec):
                    total = sum(self.occupancy.values())
                    yield self.env.timeout(total)
        """)
        assert main(["lint", planted]) == 1
        assert "hot-linear-scan" in capsys.readouterr().out

    def test_planted_flow_violation_fails(self, tmp_path, capsys):
        planted = self._plant(tmp_path, """
            def emit(producer, env, key):
                payload = {"type": "task_run", "key": key}
                payload["start"] = env.now
                producer.push(payload)
        """)
        assert main(["lint", planted]) == 1
        assert "flow-missing-identifier" in capsys.readouterr().out


class TestLintCliFlags:
    """The maintenance flags the gate and CI scripts rely on."""

    def test_prune_baseline_flow(self, tmp_path, capsys):
        planted = tmp_path / "planted.py"
        planted.write_text("import time\nt = time.time()\n")
        baseline = str(tmp_path / "baseline.json")
        assert main(["lint", str(planted),
                     "--write-baseline", baseline]) == 0
        capsys.readouterr()

        # Fix the code: the entry goes stale and a normal run warns.
        planted.write_text("t = 0.0\n")
        assert main(["lint", str(planted), "--baseline", baseline]) == 0
        captured = capsys.readouterr()
        assert "matches no finding" in captured.err
        assert "--prune-baseline" in captured.err

        assert main(["lint", str(planted), "--baseline", baseline,
                     "--prune-baseline"]) == 0
        assert "dropped 1" in capsys.readouterr().out
        document = json.loads(open(baseline).read())
        assert document["entries"] == []

        # Pruned baseline no longer warns.
        assert main(["lint", str(planted), "--baseline", baseline]) == 0
        assert "no finding" not in capsys.readouterr().err

    def test_prune_requires_baseline(self, tmp_path, capsys):
        planted = tmp_path / "planted.py"
        planted.write_text("x = 1\n")
        assert main(["lint", str(planted), "--prune-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().err

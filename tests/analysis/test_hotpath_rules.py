"""Hotpath-family rules: per-event O(n) scans found via the call graph."""

import textwrap

from repro.analysis import LintEngine, rules_for


def lint_sources(tmp_path, sources, selectors=("hotpath",)):
    for name, code in sources.items():
        (tmp_path / name).write_text(textwrap.dedent(code).lstrip("\n"))
    engine = LintEngine(rules=rules_for(list(selectors)),
                        root=str(tmp_path))
    report = engine.run([str(tmp_path)])
    return [f for f in report.findings if f.active]


def rule_names(findings):
    return sorted(f.rule for f in findings)


#: A scheduler whose per-event dispatch path scans and copies the
#: unbounded worker table — the decide_worker shape the scale-out PR
#: has to dismantle.
HOT_SCHEDULER = """
    class Scheduler:
        def submit(self, spec):
            self.env.process(self._dispatch(spec))

        def _dispatch(self, spec):
            worker = self.decide_worker(spec)
            yield self.env.timeout(0.0)

        def decide_worker(self, spec):
            mean_occ = sum(self.occupancy.values()) / 8
            best = None
            for address, worker in self.workers.items():
                if self.occupancy[address] < mean_occ:
                    best = worker
            candidates = dict(self.workers)
            return best or candidates
"""


class TestLinearScan:
    def test_scan_and_aggregate_on_event_path_flagged(self, tmp_path):
        findings = lint_sources(tmp_path, {"sched.py": HOT_SCHEDULER})
        names = rule_names(findings)
        assert names == ["hot-collection-copy", "hot-linear-scan",
                         "hot-linear-scan"]
        attrs = sorted(f.message.split("'")[1] for f in findings
                       if f.rule == "hot-linear-scan")
        assert attrs == ["occupancy", "workers"]
        assert all("decide_worker" in f.message for f in findings)

    def test_comprehension_counts_as_scan(self, tmp_path):
        findings = lint_sources(tmp_path, {"sched.py": """
            class Scheduler:
                def submit(self, spec):
                    self.env.process(self._dispatch(spec))

                def _dispatch(self, spec):
                    idle = [w for w in self.workers.values() if w.idle]
                    yield self.env.timeout(0.0)
        """})
        assert rule_names(findings) == ["hot-linear-scan"]

    def test_unreachable_function_not_flagged(self, tmp_path):
        # Same scan, but nothing the engine spawns ever reaches it.
        assert lint_sources(tmp_path, {"tools.py": """
            class Inspector:
                def dump(self):
                    for address, worker in self.workers.items():
                        print(address, worker)
        """}) == []

    def test_loop_driver_excluded(self, tmp_path):
        # Interval-paced loop drivers may scan: they run per interval,
        # not per transition.
        assert lint_sources(tmp_path, {"live.py": """
            class Scheduler:
                def start(self):
                    self._monitoring = True
                    self.env.process(self._liveness_loop())

                def _liveness_loop(self):
                    while self._monitoring:
                        yield self.env.timeout(1.0)
                        if not self._monitoring:
                            return
                        for address in self.workers:
                            self.check(address)
        """}) == []

    def test_amortized_allowlist_exempts(self, tmp_path):
        assert lint_sources(tmp_path, {"fail.py": """
            class Scheduler:
                def submit(self, spec):
                    self.env.process(self._dispatch(spec))

                def _dispatch(self, spec):
                    self.handle_worker_failure(spec)
                    yield self.env.timeout(0.0)

                def handle_worker_failure(self, address):
                    for key, ts in self.tasks.items():
                        self.check(key, ts)
        """}) == []

    def test_bounded_collection_not_flagged(self, tmp_path):
        # Scanning a small fixed structure is fine.
        assert lint_sources(tmp_path, {"cfg.py": """
            class Scheduler:
                def submit(self, spec):
                    self.env.process(self._dispatch(spec))

                def _dispatch(self, spec):
                    for phase in self.phases:
                        self.enter(phase)
                    yield self.env.timeout(0.0)
        """}) == []

    def test_timed_heap_scan_flagged(self, tmp_path):
        # Anti-rot for the engine entry: the timed heap IS an unbounded
        # collection, and a per-event scan over it must fire.  If this
        # stops failing-when-planted, the rule has silently stopped
        # covering the kernel.
        findings = lint_sources(tmp_path, {"eng.py": """
            class Environment:
                def submit(self, spec):
                    self.process(self._dispatch(spec))

                def _dispatch(self, spec):
                    late = [e for e in self._timed if e[0] > spec.when]
                    nxt = min(self._timed)
                    yield self.timeout(0.0)
        """})
        assert rule_names(findings) == ["hot-linear-scan",
                                        "hot-linear-scan"]
        assert all("'_timed'" in f.message for f in findings)

    def test_suppression_honoured(self, tmp_path):
        code = HOT_SCHEDULER.replace(
            "mean_occ = sum(self.occupancy.values()) / 8",
            "mean_occ = sum(self.occupancy.values()) / 8"
            "  # repro: allow[hot-linear-scan]")
        findings = lint_sources(tmp_path, {"sched.py": code})
        assert "occupancy" not in "".join(f.message for f in findings)


class TestCollectionCopy:
    def test_copy_flagged_with_function_context(self, tmp_path):
        findings = lint_sources(tmp_path, {"sched.py": HOT_SCHEDULER})
        copies = [f for f in findings if f.rule == "hot-collection-copy"]
        assert len(copies) == 1
        assert "dict()" in copies[0].message
        assert "workers" in copies[0].message

    def test_sorted_copy_flagged(self, tmp_path):
        findings = lint_sources(tmp_path, {"sched.py": """
            class Scheduler:
                def submit(self, spec):
                    self.env.process(self._dispatch(spec))

                def _dispatch(self, spec):
                    by_occ = sorted(self.workers.values())
                    yield self.env.timeout(0.0)
        """})
        assert rule_names(findings) == ["hot-collection-copy"]

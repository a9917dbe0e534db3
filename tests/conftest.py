"""Shared fixtures for the tier-1 suite."""

import pytest


@pytest.fixture(scope="session")
def lint_reports():
    """Lint reports made in this session, by the engine's inputs."""
    return {}


@pytest.fixture
def shared_lint_run(monkeypatch, lint_reports):
    """Let the tests that lint the same target share one engine run.

    ``LintEngine.run`` is memoized by its inputs (rule names, baseline,
    root and paths) for the requesting test only, so the first such
    test in a session lints the tree and the others get the same
    report, which they only read. A test without this fixture still
    runs the engine itself.
    """
    from repro.analysis import LintEngine

    run = LintEngine.run

    def memoized(self, paths):
        paths = list(paths)
        key = (tuple(rule.name for rule in self.rules),
               frozenset(self.baseline), self.root, tuple(paths))
        if key not in lint_reports:
            lint_reports[key] = run(self, paths)
        return lint_reports[key]

    monkeypatch.setattr(LintEngine, "run", memoized)

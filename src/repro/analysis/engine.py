"""AST lint engine: rule registry, suppressions, baseline, file walking.

The engine is deliberately tool-shaped rather than workflow-shaped: a
:class:`Rule` inspects one parsed module and yields
:class:`~repro.analysis.findings.Finding`s; the registry groups rules
into *families* (``determinism``, ``provenance``) that the CLI selects;
the engine handles everything generic — discovering files, parsing each
one exactly once, honoring per-line suppression comments, and matching
grandfathered findings against a baseline file.

Suppression syntax
------------------
A finding is suppressed by a comment on the flagged line or on the line
directly above it::

    t = time.time()          # repro: allow[det-wallclock]
    # repro: allow[det-set-iteration, det-id-key]
    for ts in pending_set: ...
    # repro: allow[*]        (suppress every rule on the next line)

Baseline files
--------------
A baseline is a JSON document listing fingerprints of known findings
(``relpath::rule::blake2(line text)``).  Fingerprints use the stripped
source text rather than the line number, so unrelated edits that shift
lines do not resurrect grandfathered findings.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .findings import (
    STATUS_ACTIVE,
    STATUS_BASELINED,
    STATUS_SUPPRESSED,
    Finding,
    LintReport,
)

__all__ = [
    "ModuleSource",
    "Rule",
    "ProjectRule",
    "register",
    "registered_rules",
    "rules_for",
    "LintEngine",
    "load_baseline",
    "write_baseline",
    "prune_baseline",
    "fingerprint",
]

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]")


@dataclass
class ModuleSource:
    """One parsed source file, shared by every rule."""

    path: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    @classmethod
    def parse(cls, path: str, source: Optional[str] = None) -> "ModuleSource":
        if source is None:
            with tokenize.open(path) as fh:
                source = fh.read()
        tree = ast.parse(source, filename=path)
        return cls(path=path, source=source, tree=tree,
                   lines=source.splitlines())

    def line(self, lineno: int) -> str:
        """1-based source line (empty string out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def allowed_rules(self, lineno: int, end_lineno: int = 0) -> set[str]:
        """Rule names suppressed at ``lineno`` (``*`` = everything).

        The scan covers the full flagged span (``lineno`` through
        ``end_lineno``, so a comment inside a parenthesized multi-line
        expression counts), plus the line above the span — skipping
        upward past decorator lines so a suppression above a decorated
        function still reaches the ``def`` the finding anchors to.
        """
        allowed: set[str] = set()
        for ln in range(lineno, max(lineno, end_lineno) + 1):
            self._collect_allow(self.line(ln), allowed)
        above = lineno - 1
        while above >= 1 and self.line(above).lstrip().startswith("@"):
            self._collect_allow(self.line(above), allowed)
            above -= 1
        self._collect_allow(self.line(above), allowed)
        return allowed

    @staticmethod
    def _collect_allow(candidate: str, allowed: set[str]) -> None:
        match = _ALLOW_RE.search(candidate)
        if match:
            allowed.update(
                token.strip() for token in match.group(1).split(",")
                if token.strip())


class Rule:
    """Base class: one named check over one module."""

    name: str = ""
    family: str = ""
    description: str = ""

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleSource, node: ast.AST,
                message: str) -> Finding:
        """Construct a finding anchored at an AST node."""
        lineno = getattr(node, "lineno", 0)
        return Finding(
            rule=self.name, message=message, path=module.path,
            line=lineno, col=getattr(node, "col_offset", 0),
            end_line=getattr(node, "end_lineno", None) or lineno,
            snippet=module.line(lineno),
        )


class ProjectRule(Rule):
    """A rule that needs the whole parsed project, not one module.

    Subclasses implement :meth:`check_project`; the engine builds one
    :class:`~repro.analysis.callgraph.Project` per run and hands it to
    every registered project rule after the per-module rules finish.
    Findings still anchor to a concrete module/line, so suppressions
    and baselines work unchanged.
    """

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        return ()

    def check_project(self, project) -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}


def register(rule_cls: type) -> type:
    """Class decorator adding one rule instance to the global registry."""
    rule = rule_cls()
    if not rule.name or not rule.family:
        raise ValueError(f"rule {rule_cls.__name__} needs name and family")
    if rule.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {rule.name!r}")
    _REGISTRY[rule.name] = rule
    return rule_cls


def registered_rules() -> dict[str, Rule]:
    # Importing the rule modules populates the registry on first use.
    from . import (  # noqa: F401
        concurrency,
        determinism,
        hotpath,
        provflow,
        schema,
    )
    return dict(_REGISTRY)


def rules_for(selectors: Optional[Iterable[str]] = None) -> list[Rule]:
    """Resolve family names and/or rule names to rule instances."""
    rules = registered_rules()
    if not selectors:
        return sorted(rules.values(), key=lambda r: r.name)
    chosen: dict[str, Rule] = {}
    for selector in selectors:
        matched = {
            name: rule for name, rule in rules.items()
            if name == selector or rule.family == selector
        }
        if not matched:
            known = sorted({r.family for r in rules.values()} | set(rules))
            raise KeyError(
                f"unknown rule or family {selector!r}; choose from {known}")
        chosen.update(matched)
    return sorted(chosen.values(), key=lambda r: r.name)


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------

def fingerprint(finding: Finding, root: str) -> str:
    """Stable identity of a finding: path, rule, and line *text*."""
    rel = os.path.relpath(finding.path, root) \
        if os.path.isabs(finding.path) else finding.path
    digest = hashlib.blake2b(
        finding.snippet.strip().encode("utf-8"), digest_size=8).hexdigest()
    return f"{rel.replace(os.sep, '/')}::{finding.rule}::{digest}"


def load_baseline(path: str) -> set[str]:
    with open(path) as fh:
        document = json.load(fh)
    if document.get("version") != 1:
        raise ValueError(f"unsupported baseline version in {path}")
    return set(document.get("entries", []))


def write_baseline(report: LintReport, path: str, root: str) -> int:
    """Persist every *active* finding as grandfathered; returns count."""
    entries = sorted({fingerprint(f, root) for f in report.active})
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"version": 1, "entries": entries}, fh, indent=2)
        fh.write("\n")
    return len(entries)


def prune_baseline(report: LintReport, path: str,
                   root: str) -> tuple[int, int]:
    """Drop baseline entries no current finding matches.

    Returns ``(kept, dropped)``.  A finding of any status counts as a
    match: an entry only goes stale when the flagged code is gone (or
    now rewritten), not when an inline suppression also covers it —
    pruning twice is therefore idempotent.
    """
    baseline = load_baseline(path)
    current = {fingerprint(f, root) for f in report.findings}
    kept = sorted(baseline & current)
    with open(path, "w") as fh:
        json.dump({"version": 1, "entries": kept}, fh, indent=2)
        fh.write("\n")
    return len(kept), len(baseline) - len(kept)


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

class LintEngine:
    """Run a rule set over a file tree and classify the findings."""

    def __init__(self, rules: Optional[Iterable[Rule]] = None,
                 baseline: Optional[set[str]] = None,
                 root: Optional[str] = None):
        self.rules = list(rules) if rules is not None else rules_for(None)
        self.baseline = baseline or set()
        #: Directory baseline fingerprints are relative to.
        self.root = root or os.getcwd()

    # ------------------------------------------------------------------
    @staticmethod
    def discover(paths: Iterable[str]) -> list[str]:
        """Expand files/directories into a sorted list of ``.py`` files."""
        out: set[str] = set()
        for path in paths:
            if os.path.isdir(path):
                for dirpath, dirnames, filenames in os.walk(path):
                    dirnames[:] = sorted(
                        d for d in dirnames
                        if d not in ("__pycache__", ".git"))
                    for name in filenames:
                        if name.endswith(".py"):
                            out.add(os.path.join(dirpath, name))
            elif os.path.isfile(path):
                out.add(path)
            else:
                raise FileNotFoundError(f"no such file or directory: {path}")
        return sorted(out)

    # ------------------------------------------------------------------
    def check_module(self, module: ModuleSource) -> list[Finding]:
        findings: list[Finding] = []
        for rule in self.rules:
            for finding in rule.check(module):
                self._classify(module, finding)
                findings.append(finding)
        return findings

    def _classify(self, module: ModuleSource, finding: Finding) -> None:
        allowed = module.allowed_rules(finding.line, finding.end_line)
        if finding.rule in allowed or "*" in allowed:
            finding.status = STATUS_SUPPRESSED
        elif fingerprint(finding, self.root) in self.baseline:
            finding.status = STATUS_BASELINED
        else:
            finding.status = STATUS_ACTIVE

    # ------------------------------------------------------------------
    def parse_all(self, paths: Iterable[str]) -> list[ModuleSource]:
        """Parse every discovered file, in sorted path order, so the
        finding order (and therefore the report) stays deterministic."""
        return [ModuleSource.parse(path) for path in self.discover(paths)]

    def run(self, paths: Iterable[str]) -> LintReport:
        report = LintReport(rules_run=[r.name for r in self.rules])
        modules = self.parse_all(paths)
        for module in modules:
            report.extend(self.check_module(module))
            report.files_checked += 1

        project_rules = [r for r in self.rules if isinstance(r, ProjectRule)]
        if project_rules:
            from .callgraph import Project
            project = Project(modules)
            by_path = {m.path: m for m in modules}
            for rule in project_rules:
                for finding in rule.check_project(project):
                    module = by_path.get(finding.path)
                    if module is not None:
                        self._classify(module, finding)
                    report.findings.append(finding)

        if self.baseline:
            seen = {fingerprint(f, self.root) for f in report.findings}
            stale = len(self.baseline - seen)
            if stale:
                report.stats["stale_baseline_entries"] = stale
        return report

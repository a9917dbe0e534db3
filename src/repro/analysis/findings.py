"""Finding and report types shared by the static passes and the sanitizer.

A :class:`Finding` is one diagnosed hazard, static (file/line) or
runtime (simulated timestamp).  A :class:`LintReport` aggregates the
findings of one engine run, tracks which of them are *suppressed*
(``# repro: allow[rule]`` comments) or *baselined* (grandfathered in a
baseline file), and renders to both the human text format and the JSON
format CI consumes.  The exit-code convention follows familiar linters:

* ``0`` — no active findings,
* ``1`` — at least one active finding,
* ``2`` — the engine itself could not run (bad path, syntax error).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

__all__ = [
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_ERROR",
    "STATUS_ACTIVE",
    "STATUS_SUPPRESSED",
    "STATUS_BASELINED",
    "Finding",
    "LintReport",
]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

STATUS_ACTIVE = "active"
STATUS_SUPPRESSED = "suppressed"
STATUS_BASELINED = "baselined"


@dataclass
class Finding:
    """One diagnosed hazard."""

    rule: str
    message: str
    #: File path for static findings; "<runtime>" for sanitizer findings.
    path: str = "<runtime>"
    line: int = 0
    col: int = 0
    #: Last line of the flagged expression (multi-line suppressions).
    end_line: int = 0
    #: Simulated timestamp, for sanitizer findings only.
    time: float | None = None
    #: The offending source line (static) or event detail (runtime).
    snippet: str = ""
    status: str = STATUS_ACTIVE

    @property
    def active(self) -> bool:
        return self.status == STATUS_ACTIVE

    def location(self) -> str:
        if self.time is not None:
            return f"t={self.time:.6f}"
        return f"{self.path}:{self.line}:{self.col}"

    def render(self) -> str:
        text = f"{self.location()}: [{self.rule}] {self.message}"
        if self.status != STATUS_ACTIVE:
            text += f" ({self.status})"
        if self.snippet:
            text += f"\n    {self.snippet.strip()}"
        return text


@dataclass
class LintReport:
    """Everything one engine run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: list[str] = field(default_factory=list)
    #: Free-form counters (the sanitizer reports event/tie statistics).
    stats: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def extend(self, findings: list[Finding]) -> None:
        self.findings.extend(findings)

    @property
    def active(self) -> list[Finding]:
        return [f for f in self.findings if f.active]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.status == STATUS_SUPPRESSED]

    @property
    def baselined(self) -> list[Finding]:
        return [f for f in self.findings if f.status == STATUS_BASELINED]

    @property
    def exit_code(self) -> int:
        return EXIT_FINDINGS if self.active else EXIT_CLEAN

    # -- rendering -----------------------------------------------------
    def render_text(self, verbose: bool = False) -> str:
        lines = []
        shown = self.findings if verbose else self.active
        for finding in sorted(
                shown, key=lambda f: (f.path, f.line, f.col, f.rule)):
            lines.append(finding.render())
        summary = (f"{len(self.active)} finding(s)"
                   f" ({len(self.suppressed)} suppressed,"
                   f" {len(self.baselined)} baselined)")
        if self.files_checked:
            summary += f" across {self.files_checked} file(s)"
        if self.stats:
            summary += "; " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.stats.items()))
        lines.append(summary)
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps({
            "findings": [asdict(f) for f in self.findings],
            "files_checked": self.files_checked,
            "rules_run": sorted(self.rules_run),
            "stats": self.stats,
            "exit_code": self.exit_code,
        }, indent=2, sort_keys=True)

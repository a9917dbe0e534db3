#!/usr/bin/env python
"""Static-analysis benchmark: lint wall time and the JSON build artifact.

Two jobs in one script:

* **Timing** — how long one full ``perfrecup lint`` pass over
  ``src/repro`` takes, per rule family and for the whole default rule
  set.  The lint gate runs
  inside tier-1 pytest, so its wall time is a direct tax on every CI
  round: this benchmark is the budget that keeps the whole-program
  passes (call graph + dataflow) from quietly turning the gate into
  the slowest test in the suite.

* **Artifact** — the full ``--format json`` lint report written to
  ``benchmarks/out/lint_report.json``.  That document is the build
  artifact CI archives: the hotpath findings in it are the work-list
  for the scheduler scale-out PR, and the suppressed-finding inventory
  is the audit trail for every ``# repro: allow[...]`` in the tree.

Run::

    PYTHONPATH=src python benchmarks/bench_lint.py
    PYTHONPATH=src python benchmarks/bench_lint.py --smoke
    PYTHONPATH=src python benchmarks/bench_lint.py --json BENCH_lint.json

``--smoke`` runs one timed pass and enforces the wall-time budget
(exit 1 when busted) without writing artifacts; tier-1 pytest invokes
it through ``tests/test_bench_lint_smoke.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "src"))

from repro.analysis import LintEngine, rules_for  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.normpath(os.path.join(HERE, os.pardir))
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")
OUT_TEXT = os.path.join(HERE, "out", "lint.txt")
OUT_REPORT = os.path.join(HERE, "out", "lint_report.json")

FAMILIES = ("determinism", "provenance", "concurrency", "hotpath",
            "provflow")

#: Wall-time budget for one full default-rule pass, seconds.  A clean
#: pass takes ~3 s today; the budget leaves headroom for slower CI
#: machines while still catching a superlinear regression in the call
#: graph or dataflow passes.
SMOKE_BUDGET_SECONDS = 20.0


def timed_run(selectors):
    engine = LintEngine(rules=rules_for(selectors), root=SRC_ROOT)
    start = time.perf_counter()
    report = engine.run([SRC_ROOT])
    elapsed = time.perf_counter() - start
    return report, elapsed


def collect() -> dict:
    document = {
        "meta": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "target": os.path.relpath(SRC_ROOT, REPO_ROOT),
        },
        "families": {},
    }
    for family in FAMILIES:
        report, elapsed = timed_run([family])
        document["families"][family] = {
            "seconds": round(elapsed, 3),
            "rules": len(report.rules_run),
            "active": len(report.active),
            "suppressed": len(report.suppressed),
        }
    full, seconds = timed_run(None)
    document["full"] = {
        "seconds": round(seconds, 3),
        "files": full.files_checked,
        "active": len(full.active),
        "suppressed": len(full.suppressed),
        "exit_code": full.exit_code,
    }
    report = json.loads(full.render_json())
    # Repo-relative paths keep the archived artifact independent of
    # the checkout location.
    for finding in report["findings"]:
        finding["path"] = os.path.relpath(finding["path"], REPO_ROOT)
    document["report"] = report
    return document


def render(document: dict) -> str:
    full = document["full"]
    lines = [
        "lint benchmark",
        f"  target: {document['meta']['target']}",
        f"  files: {full['files']}  active: {full['active']}  "
        f"suppressed: {full['suppressed']}",
        f"  full pass: {full['seconds']:.3f}s",
        "  per family:",
    ]
    for family, row in document["families"].items():
        lines.append(
            f"    {family:<12} {row['seconds']:6.3f}s  "
            f"{row['rules']} rule(s), {row['active']} active, "
            f"{row['suppressed']} suppressed")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=float,
                        default=SMOKE_BUDGET_SECONDS,
                        help="--smoke wall-time budget in seconds")
    parser.add_argument("--smoke", action="store_true",
                        help="single timed pass under the budget; "
                             "no artifact writes")
    parser.add_argument("--json", default=None,
                        help="also write the benchmark document here")
    args = parser.parse_args(argv)

    if args.smoke:
        report, elapsed = timed_run(None)
        print(f"lint benchmark (smoke): {report.files_checked} files, "
              f"{len(report.active)} active finding(s) in {elapsed:.3f}s "
              f"(budget {args.budget:.1f}s)")
        if report.exit_code != 0:
            print("FAIL: the tree must lint clean", file=sys.stderr)
            return 1
        if elapsed > args.budget:
            print(f"FAIL: lint took {elapsed:.3f}s, over the "
                  f"{args.budget:.1f}s budget", file=sys.stderr)
            return 1
        print("within budget")
        return 0

    document = collect()
    text = render(document)
    print(text)

    os.makedirs(os.path.dirname(OUT_REPORT), exist_ok=True)
    with open(OUT_REPORT, "w", encoding="utf-8") as fh:
        json.dump(document["report"], fh, indent=2)
        fh.write("\n")
    print(f"(wrote {OUT_REPORT})")
    with open(OUT_TEXT, "a", encoding="utf-8") as fh:
        fh.write(text + "\n\n")
    print(f"(appended to {OUT_TEXT})")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
        print(f"(wrote {args.json})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

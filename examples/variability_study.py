#!/usr/bin/env python
"""Cross-run variability study (the paper's central experiment).

Runs the XGBoost workflow several times in identical configuration —
only the platform noise, allocation, and dynamic scheduling differ —
then quantifies what varied:

* per-phase durations with error bars (Fig. 3);
* which task categories contribute the most variance;
* how differently the scheduler placed and ordered the shared tasks
  (the "were tasks scheduled in the same order?" analysis of §IV-D).

Run:  python examples/variability_study.py [n_runs] [scale]
"""

import sys

from repro.core import (
    compare_runs,
    format_bar,
    format_records,
    variability_report,
)
from repro.workflows import XGBoostWorkflow, run_many


def main() -> None:
    n_runs = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.08

    print(f"running XGBOOST x{n_runs} at scale {scale} ...")
    results = run_many(lambda: XGBoostWorkflow(scale=scale),
                       n_runs=n_runs, seed=7)

    # One call loads sessions, builds breakdowns and task views (cached
    # per run), and aggregates the cross-run statistics.
    report = variability_report([r.data for r in results])
    stats = report["phases"]

    print("\nNormalized phase durations (mean fraction of wall time, "
          "±std across runs):")
    for phase in ("io", "communication", "computation", "total"):
        print(format_bar(phase, stats["normalized"][phase], 1.0,
                         err=stats["normalized_err"][phase]))

    print("\nRaw phase statistics:")
    print(format_records(
        [stats[p].as_dict() for p in
         ("io", "communication", "computation", "total")]))

    print("\nTask categories by cross-run variability (top 8):")
    print(format_records(report["by_prefix"].head(8).to_records()))

    views = [session.task_view() for session in report["sessions"]]

    print("\nScheduling differences between runs "
          "(1.0 = same placement / identical order):")
    print(format_records(compare_runs(views).to_records()))


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Postprocessing path: persist runs to disk, reload, analyze.

The paper's framework deliberately decouples collection from analysis:
Mofka streams are persistent, Darshan logs are files, and PERFRECUP
fuses them *after* the run (§III-E3).  This example exercises that
path end to end:

1. run the ResNet152 workflow twice, persisting full run directories
   (provenance.json, job.json, logs.jsonl, mofka/, darshan/);
2. reload each directory through ``AnalysisSession`` — no live
   objects involved;
3. compare the two runs: phase breakdown, Darshan summaries (including
   the DXT truncation flag), and scheduling agreement;
4. demonstrate an in-situ style Mofka replay: pull the persisted event
   stream and count event types.

Run:  python examples/postprocess_run_directory.py [out_dir]
"""

import os
import sys
import tempfile
from collections import Counter

from repro.core import format_records, placement_agreement, sessions_for
from repro.instrument import PROVENANCE_TOPIC
from repro.mofka import MofkaService
from repro.workflows import ResNet152Workflow, run_many


def main() -> None:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(
        prefix="repro-runs-")
    print(f"persisting runs under {out_dir}")

    results = run_many(lambda: ResNet152Workflow(scale=0.05),
                       n_runs=2, seed=21, persist_dir=out_dir)
    run_dirs = [r.run_dir for r in results]

    # Reload purely from disk (sessions load the run directories and
    # cache every view/derived analysis they build).
    sessions = sessions_for(run_dirs)

    rows = []
    for i, session in enumerate(sessions):
        data = session.run
        breakdown = session.phase_breakdown()
        darshan = data.darshan.summary()
        rows.append({
            "run": i,
            "wall_s": round(data.wall_time, 2),
            "io_s": round(breakdown.io, 3),
            "comm_s": round(breakdown.communication, 3),
            "io_ops": darshan["total_io_ops"],
            "dxt_truncated": darshan["dxt_truncated"],
            "files": darshan["distinct_files"],
        })
    print(format_records(rows, title="Reloaded runs"))

    views = [session.task_view() for session in sessions]
    agreement = placement_agreement(views[0], views[1])
    print(f"\nplacement agreement between the two runs: {agreement:.2%}")

    # Replay the persisted Mofka stream of run 0.
    topics = MofkaService.load_topics(os.path.join(run_dirs[0], "mofka"))
    counts = Counter(e.metadata["type"]
                     for e in topics[PROVENANCE_TOPIC].events())
    print("\nevent types in the persisted provenance stream:")
    for event_type, count in counts.most_common():
        print(f"  {event_type:>14}: {count}")


if __name__ == "__main__":
    main()

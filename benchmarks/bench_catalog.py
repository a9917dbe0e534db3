#!/usr/bin/env python
"""Data-lake catalog benchmark: ingest cost, query speedup, cache, daemon.

Workload: register ``--runs`` synthetic fast-profile runs (spread over
several shard dates) into a fresh on-disk catalog, then answer the
Fig.-3 cross-run variability question four ways:

* **naive**  — the pre-lake path: a fresh ``variability_report`` over
  freshly constructed ``RunData`` objects, re-parsing every run's
  event stream (O(runs x events) per question);
* **cold**   — a *new* ``Catalog`` object's first query: manifests and
  column blocks read from disk, no event stream opened;
* **warm**   — repeat queries on the same catalog object (manifests
  and blocks now cached in memory);
* **daemon** — the same query over HTTP against ``perfrecup serve``,
  asserted byte-identical to the in-process payload under 8
  concurrent clients.

The catalog answer is asserted numerically identical to the naive
report before any timing is reported, the cold query is required to
beat the naive loop, and the warm query to beat the cold one.  A
session-cache section replays a reuse-heavy view workload and reports
the hit rate while asserting occupancy never exceeds the configured
capacity.  Results go to ``benchmarks/out/catalog.txt``; ``--smoke``
prints only and writes no artifact.

Run::

    PYTHONPATH=src python benchmarks/bench_catalog.py            # 1000 runs
    PYTHONPATH=src python benchmarks/bench_catalog.py --smoke    # CI tier
"""

from __future__ import annotations

import argparse
import concurrent.futures
import math
import os
import shutil
import sys
import tempfile
import threading
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "src"))

from repro.core import variability_report  # noqa: E402
from repro.lake import Catalog, http_query, serve, synthetic_run  # noqa: E402

OUT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "out", "catalog.txt")

WORKFLOW = "synthetic"
DATES = tuple(f"2026-07-{day:02d}" for day in range(1, 9))


def make_runs(n_runs: int, n_tasks: int):
    """The benchmark population: seeded, so regeneration is exact."""
    return [
        synthetic_run(workflow=WORKFLOW, n_tasks=n_tasks, run_index=i,
                      config={"profile": "fast", "bucket": i % 4})
        for i in range(n_runs)
    ]


def check_parity(naive: dict, document: dict) -> None:
    """The catalog answer must equal the naive report numerically."""
    for phase, got in document["phases"].items():
        stat = naive["phases"][phase]
        for field, want in stat.as_dict().items():
            if isinstance(want, str):
                continue
            if not math.isclose(want, got[field],
                                rel_tol=1e-09, abs_tol=1e-12):
                raise AssertionError(
                    f"phase {phase}.{field}: naive={want!r} "
                    f"catalog={got[field]!r}")
    naive_prefixes = set(naive["by_prefix"]["prefix"])
    lake_prefixes = {row["prefix"] for row in document["by_prefix"]}
    if naive_prefixes != lake_prefixes:
        raise AssertionError(
            f"by_prefix mismatch: {naive_prefixes} != {lake_prefixes}")


def bench_cache(root: str, runs_per_date: int, lines: list[str]) -> None:
    """Reuse-heavy view workload against a small session cache."""
    cap = 8
    catalog = Catalog.open(root, max_sessions=cap)
    ids = [entry.run_id for entry in catalog.query()][:20]
    hot, cold_tail = ids[:cap - 2], ids[cap - 2:]
    peak = 0
    for step in range(12 * len(hot)):
        run_id = (cold_tail[step // len(hot) % len(cold_tail)]
                  if step % len(hot) == len(hot) - 1
                  else hot[step % len(hot)])
        catalog.view_document(run_id, "task")
        peak = max(peak, catalog.sessions.stats()["sessions"])
    stats = catalog.sessions.stats()
    assert peak <= cap, f"cache overran capacity: {peak} > {cap}"
    assert stats["hit_rate"] > 0.5, (
        f"reuse-heavy workload should mostly hit: {stats}")
    lines.append(
        f"session cache: {stats['hits']} hits / {stats['misses']} misses "
        f"(hit_rate={stats['hit_rate']:.2f}), peak sessions "
        f"{peak} <= cap {cap}, evictions={stats['evictions']}")


def bench_daemon(root: str, lines: list[str]) -> None:
    """8 concurrent HTTP clients, byte-identical to in-process."""
    catalog = Catalog.open(root, max_sessions=8)
    view_id = catalog.query()[0].run_id
    targets = [
        f"/runs?workflow={WORKFLOW}",
        f"/reports/variability?workflow={WORKFLOW}",
        f"/runs/{view_id}",
        f"/runs/{view_id}/views/task",
    ]
    expected = {target: catalog.query_json(target) for target in targets}
    server = serve(catalog, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        requests = [targets[i % len(targets)] for i in range(32)]
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            payloads = list(pool.map(
                lambda target: (target, http_query(server.address, target)),
                requests))
        for target, payload in payloads:
            assert payload == expected[target], f"daemon differs: {target}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
    lines.append(
        f"daemon: 8 concurrent clients, {len(requests)} requests over "
        f"{len(targets)} routes — all byte-identical to in-process")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=1000,
                        help="catalog population (default 1000)")
    parser.add_argument("--tasks", type=int, default=40,
                        help="tasks per synthetic run")
    parser.add_argument("--smoke", action="store_true",
                        help="small population for CI (48 runs x 24 "
                             "tasks), no artifact write")
    args = parser.parse_args(argv)
    n_runs = 48 if args.smoke else args.runs
    n_tasks = 24 if args.smoke else args.tasks

    lines = [f"bench_catalog: {n_runs} runs x {n_tasks} tasks"
             f"{' (smoke)' if args.smoke else ''}"]
    root = tempfile.mkdtemp(prefix="bench_catalog_")
    try:
        runs = make_runs(n_runs, n_tasks)

        t0 = time.perf_counter()
        catalog = Catalog.open(root)
        for index, run in enumerate(runs):
            catalog.register(run, date=DATES[index % len(DATES)])
        ingest_s = time.perf_counter() - t0
        lines.append(
            f"ingest: {n_runs} runs in {ingest_s:.3f} s "
            f"({n_runs / ingest_s:.0f} runs/s), "
            f"{len(catalog.shard_keys())} shards")

        # Naive baseline re-parses every event stream per question.
        fresh = make_runs(n_runs, n_tasks)
        t0 = time.perf_counter()
        naive = variability_report(fresh)
        naive_s = time.perf_counter() - t0

        cold_catalog = Catalog.open(root)
        t0 = time.perf_counter()
        document = cold_catalog.variability_document(workflow=WORKFLOW)
        cold_s = time.perf_counter() - t0

        warm_s = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            cold_catalog.variability_document(workflow=WORKFLOW)
            warm_s = min(warm_s, time.perf_counter() - t0)

        check_parity(naive, document)
        lines.append("parity: catalog variability matches naive report")
        assert cold_s < naive_s, (
            f"catalog cold ({cold_s:.3f} s) must beat the naive loop "
            f"({naive_s:.3f} s)")
        assert warm_s <= cold_s, (
            f"warm query ({warm_s:.4f} s) must beat cold ({cold_s:.4f} s)")
        lines.append(f"naive loop:   {naive_s:.3f} s")
        lines.append(f"catalog cold: {cold_s:.3f} s  "
                     f"speedup vs naive {naive_s / cold_s:.1f}x")
        lines.append(f"catalog warm: {warm_s * 1000:.2f} ms  "
                     f"speedup vs cold {cold_s / max(warm_s, 1e-9):.1f}x")

        pruned = Catalog.open(root)
        pruned.query(date=DATES[0])
        lines.append(
            f"pruning: date={DATES[0]} opened "
            f"{pruned.manifests_opened} of {len(pruned.shard_keys())} "
            f"manifests")

        bench_cache(root, n_runs // len(DATES), lines)
        bench_daemon(root, lines)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    text = "\n".join(lines)
    print(text)
    if not args.smoke:
        os.makedirs(os.path.dirname(OUT_PATH), exist_ok=True)
        with open(OUT_PATH, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"(saved to {OUT_PATH})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The run catalog: multi-run, multi-workflow, query-at-scale.

:class:`Catalog` is the provenance data lake's one entry point — the
same object answers in-process calls (``Catalog.open(root).query``),
backs the ``perfrecup serve`` daemon (which is a thin HTTP shell over
:meth:`Catalog.query_json`), and resolves ``lake://<root>/<run_id>``
URIs for :meth:`~repro.core.ingest.RunData.load`.

Design (see ``docs/data_lake.md``):

* runs are **registered** into ``(workflow, date)`` shards; each shard
  has an append-only manifest and one cached column block per run
  (:mod:`repro.lake.shards`), extracted from the event stream exactly
  once at ingest;
* **incremental ingest** — :meth:`ingest` walks a results tree and
  skips every directory the source map already knows without opening
  it;
* **queries prune before they parse** — workflow/date predicates prune
  by shard key, config-hash/fault/wall-time predicates via the
  secondary indexes (:mod:`repro.lake.indexes`); listing and
  variability queries are answered from manifests and blocks alone;
* per-run view queries go through a bounded, thread-safe LRU of
  :class:`~repro.core.session.AnalysisSession` objects
  (:mod:`repro.lake.cache`), so concurrent clients share parsed runs
  and memory stays capped.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import Optional
from urllib.parse import parse_qs, urlsplit

import numpy as np

from ..core.ingest import RunData
from ..core.phases import PhaseBreakdown
from ..core.session import AnalysisSession
from ..core.variability import phase_variability, summarize_metric
from ..core.views import VIEW_NAMES
from .cache import DEFAULT_MAX_EVENTS, DEFAULT_MAX_SESSIONS, SessionCache
from .indexes import DEFAULT_WALL_BUCKET_S, SecondaryIndexes
from .manifest import (
    RunEntry,
    ShardManifest,
    atomic_write_json,
    read_json,
)
from .shards import (
    block_path,
    build_block,
    events_path,
    manifest_path,
    read_block,
    read_rundata,
    shard_dir,
    write_rundata,
)

__all__ = ["Catalog", "LakeQueryError", "parse_lake_uri", "resolve_uri",
           "config_hash_of", "CATALOG_VERSION", "DEFAULT_DATE"]

CATALOG_VERSION = 1

#: Partition date used when neither the caller nor the run supplies
#: one.  Simulated runs have no wall-clock date; real deployments pass
#: ``date="2026-08-08"``-style labels at registration.
DEFAULT_DATE = "undated"


class LakeQueryError(Exception):
    """A query the catalog cannot answer (bad route, unknown run...).

    ``status`` follows HTTP semantics so the serve daemon can map it
    directly; in-process callers see it as a normal exception.
    """

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = int(status)
        self.message = message


def config_hash_of(config: dict) -> str:
    """Deterministic short hash of a WMS configuration document."""
    canonical = json.dumps(config or {}, sort_keys=True, default=str)
    return hashlib.blake2b(canonical.encode("utf-8"),
                           digest_size=6).hexdigest()


def parse_lake_uri(uri: str) -> tuple[str, str]:
    """Split ``lake://<root>/<run_id>`` into ``(root, run_id)``."""
    if not isinstance(uri, str) or not uri.startswith("lake://"):
        raise ValueError(f"not a lake URI: {uri!r}")
    rest = uri[len("lake://"):]
    root, sep, run_id = rest.rpartition("/")
    if not sep or not root or not run_id:
        raise ValueError(
            f"malformed lake URI {uri!r}; expected "
            f"lake://<catalog-root>/<run_id>")
    return root, run_id


def resolve_uri(uri: str) -> RunData:
    """The :class:`RunData` behind a ``lake://`` URI (load dispatcher)."""
    root, run_id = parse_lake_uri(uri)
    return Catalog.open(root).run_data(run_id)


def _jsonable(value):
    """Recursively coerce NumPy scalars/arrays for JSON encoding."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(cell) for cell in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(cell) for cell in value]
    return value


class Catalog:
    """A sharded provenance run catalog rooted at one directory."""

    def __init__(self, root: str,
                 max_sessions: int = DEFAULT_MAX_SESSIONS,
                 max_cached_events: int = DEFAULT_MAX_EVENTS,
                 wall_bucket_s: float = DEFAULT_WALL_BUCKET_S):
        self.root = os.path.abspath(os.fspath(root))
        self._lock = threading.RLock()
        self._manifests: dict[tuple[str, str], ShardManifest] = {}
        self._blocks: dict[str, dict] = {}
        self._dirty_shards: set[tuple[str, str]] = set()
        self.sessions = SessionCache(max_sessions=max_sessions,
                                     max_events=max_cached_events)
        #: Shards whose manifest was actually opened since
        #: construction — the observable that pruning is working.
        self.manifests_opened = 0

        meta_path = self._meta_path()
        if os.path.exists(meta_path):
            meta = read_json(meta_path)
            version = meta.get("version")
            if version != CATALOG_VERSION:
                raise ValueError(
                    f"unsupported catalog version {version!r} at "
                    f"{self.root} (this build reads "
                    f"version {CATALOG_VERSION})")
            self._seq = int(meta.get("seq", 0))
            wall_bucket_s = float(meta.get("wall_bucket_s",
                                           wall_bucket_s))
        else:
            self._seq = 0
        index_path = self._index_path()
        if os.path.exists(index_path):
            self.indexes = SecondaryIndexes.load(index_path)
        else:
            self.indexes = SecondaryIndexes(wall_bucket_s=wall_bucket_s)

    @classmethod
    def open(cls, root, **knobs) -> "Catalog":
        """Open (creating on first use) the catalog rooted at ``root``."""
        catalog = cls(root, **knobs)
        os.makedirs(catalog.root, exist_ok=True)
        return catalog

    # -- paths -------------------------------------------------------------
    def _meta_path(self) -> str:
        return os.path.join(self.root, "catalog.json")

    def _index_path(self) -> str:
        return os.path.join(self.root, "indexes.json")

    def uri(self, run_id: str) -> str:
        """The ``lake://`` URI of one registered run."""
        return f"lake://{self.root}/{run_id}"

    # -- shard access ------------------------------------------------------
    def _shard(self, workflow: str, date: str,
               create: bool = False) -> Optional[ShardManifest]:
        key = (workflow, date)
        with self._lock:
            manifest = self._manifests.get(key)
            if manifest is not None:
                return manifest
            path = manifest_path(shard_dir(self.root, workflow, date))
            if os.path.exists(path):
                manifest = ShardManifest.load(path)
                self.manifests_opened += 1
            elif create:
                manifest = ShardManifest(workflow=workflow, date=date)
            else:
                return None
            self._manifests[key] = manifest
            return manifest

    def shard_keys(self) -> list[tuple[str, str]]:
        """Every ``(workflow, date)`` partition, from the indexes."""
        keys = {tuple(shard) for shard in
                self.indexes.run_shards.values()}
        return sorted(keys)

    def _discover_shard_keys(self) -> list[tuple[str, str]]:
        """Shard keys by filesystem walk (manifest files are truth)."""
        keys = set(self._manifests)
        shards_root = os.path.join(self.root, "shards")
        if os.path.isdir(shards_root):
            for dirpath, _dirnames, filenames in os.walk(shards_root):
                if "manifest.json" in filenames:
                    document = read_json(
                        os.path.join(dirpath, "manifest.json"))
                    keys.add((document["workflow"], document["date"]))
        return sorted(keys)

    def rebuild_indexes(self) -> SecondaryIndexes:
        """Recompute ``indexes.json`` from the shard manifests.

        The indexes are derived state; this is the recovery path for a
        lost or corrupted index file.
        """
        entries: list[RunEntry] = []
        for key in self._discover_shard_keys():
            manifest = self._shard(*key)
            if manifest is not None:
                entries.extend(manifest.entries)
        entries.sort(key=lambda e: e.seq)
        with self._lock:
            self.indexes.rebuild(entries)
            self.indexes.save(self._index_path())
        return self.indexes

    # -- registration / ingest --------------------------------------------
    def register(self, source, *, workflow: Optional[str] = None,
                 date: Optional[str] = None,
                 run_id: Optional[str] = None) -> RunEntry:
        """Register one run (a directory path, ``RunResult``, or
        in-memory ``RunData``); returns its catalog entry.

        Registration parses the event stream exactly once — building
        the on-disk column block and the index rows — and primes the
        session cache with the parsed run.  Re-registering a run the
        catalog already knows (same source path, or same explicit
        ``run_id``) is a no-op returning the existing entry.
        """
        entry = self._register_unflushed(source, workflow=workflow,
                                         date=date, run_id=run_id)
        self.flush()
        return entry

    def _register_unflushed(self, source, *, workflow=None, date=None,
                            run_id=None) -> RunEntry:
        path: Optional[str] = None
        data: Optional[RunData] = None
        if isinstance(source, (str, os.PathLike)) \
                and not str(source).startswith("lake://"):
            path = os.path.abspath(os.fspath(source))
        elif isinstance(source, RunData):
            data = source
        else:
            inner = getattr(source, "data", None)
            if isinstance(inner, RunData):
                data = inner
                run_dir = getattr(source, "run_dir", None)
                path = os.path.abspath(run_dir) if run_dir else None
            else:
                raise TypeError(
                    f"cannot register {type(source).__name__!r}; "
                    f"expected a run-directory path, RunData, or "
                    f"RunResult")

        with self._lock:
            if path is not None and path in self.indexes.sources:
                return self.entry(self.indexes.sources[path])
            if run_id is not None and run_id in self.indexes.run_shards:
                return self.entry(run_id)

        if data is None:
            data = RunData.load(path)
        session = AnalysisSession.of(data)
        block = build_block(session)

        provenance = data.provenance or {}
        application = provenance.get("layers", {}).get("application", {})
        if workflow is None:
            workflow = (application.get("workflow") or {}).get("name") \
                or (data.job or {}).get("name") or "unknown"
        workflow = str(workflow).lower()
        if date is None:
            date = str(provenance.get("date", DEFAULT_DATE))
        run_index = int(provenance.get("run_index", data.run_index))
        seed = int(provenance.get("seed", 0))
        config = (application.get("wms") or {}).get("config", {})
        fault_kinds = sorted({str(e.get("kind"))
                              for e in data.store.records("fault")})
        fault_signature = "+".join(fault_kinds) if fault_kinds else "none"

        config_hash = config_hash_of(config)
        if run_id is None:
            run_id = self._default_run_id(
                workflow, date, seed, run_index, config_hash,
                len(data.events), float(data.wall_time))

        with self._lock:
            if run_id in self.indexes.run_shards:
                # Idempotent re-registration: the content-derived id
                # already exists, so this run is already catalogued.
                return self.entry(run_id)
            shard = shard_dir(self.root, workflow, date)
            source = path
            if source is None and data.darshan is None:
                # Make in-memory registrations durable: persist the
                # event payload into the shard so the run's full views
                # stay queryable after the session cache evicts it.
                source = events_path(shard, run_id)
            entry = RunEntry(
                run_id=run_id, workflow=workflow, date=date,
                seq=self._seq, run_index=run_index, seed=seed,
                config_hash=config_hash,
                fault_signature=fault_signature,
                wall_time=float(data.wall_time),
                n_events=len(data.events),
                n_tasks=int(block["counts"]["tasks"]),
                source=source,
            )
            self._seq += 1
            manifest = self._shard(workflow, date, create=True)
            manifest.append(entry)
            self.indexes.add(entry)
            self._blocks[run_id] = block
            self._dirty_shards.add((workflow, date))
        if source is not None and source == events_path(shard, run_id):
            write_rundata(source, data)
        atomic_write_json(block_path(shard, run_id), block)
        self.sessions.get(run_id, lambda: session)
        return entry

    @staticmethod
    def _default_run_id(workflow: str, date: str, seed: int,
                        run_index: int, config_hash: str,
                        n_events: int, wall_time: float) -> str:
        """Deterministic, content-derived id for unnamed registrations.

        The fingerprint suffix makes re-registering the identical run
        a no-op while distinct runs sharing ``(seed, run_index)``
        (e.g. different configs) still get distinct ids.
        """
        fingerprint = hashlib.blake2b(
            repr((workflow, date, seed, run_index, config_hash,
                  n_events, wall_time)).encode("utf-8"),
            digest_size=4).hexdigest()
        return (f"{workflow}-{date}-s{seed}-r{run_index:04d}"
                f"-{fingerprint}")

    def ingest(self, runs_root, *,
               date: Optional[str] = None) -> list[RunEntry]:
        """Register every new run directory under ``runs_root``.

        A run directory is any directory containing ``provenance.json``
        (the layout ``InstrumentedRun.persist`` writes).  Directories
        already in the source map are skipped without being opened —
        the incremental half of the ingest contract.  Manifest appends
        follow path order for determinism.
        """
        runs_root = os.path.abspath(os.fspath(runs_root))
        candidates: list[str] = []
        # followlinks: curated results trees are often symlink farms
        # pointing at per-experiment scratch dirs.  Run dirs don't
        # nest (dirnames.clear()), so link cycles can't recurse.
        for dirpath, dirnames, filenames in os.walk(runs_root,
                                                    followlinks=True):
            if "provenance.json" in filenames:
                candidates.append(dirpath)
                dirnames.clear()  # run dirs don't nest
        candidates.sort()
        with self._lock:
            new_dirs = [d for d in candidates
                        if d not in self.indexes.sources]
        entries = [self._register_unflushed(run_dir, date=date)
                   for run_dir in new_dirs]
        if entries:
            self.flush()
        return entries

    def flush(self) -> None:
        """Persist dirty manifests, the indexes, and catalog metadata."""
        with self._lock:
            for workflow, date in sorted(self._dirty_shards):
                shard = shard_dir(self.root, workflow, date)
                self._manifests[(workflow, date)].save(
                    manifest_path(shard))
            self._dirty_shards = set()
            self.indexes.save(self._index_path())
            atomic_write_json(self._meta_path(), {
                "version": CATALOG_VERSION,
                "seq": self._seq,
                "wall_bucket_s": self.indexes.wall_bucket_s,
            })

    # -- queries -----------------------------------------------------------
    def query(self, workflow: Optional[str] = None,
              date: Optional[str] = None,
              config_hash: Optional[str] = None,
              fault: Optional[str] = None,
              min_wall: Optional[float] = None,
              max_wall: Optional[float] = None,
              prune: bool = True) -> list[RunEntry]:
        """Entries matching every given predicate, in catalog order.

        With ``prune=True`` (the default) the shard keys and secondary
        indexes narrow which manifests are opened before any entry is
        inspected; ``prune=False`` forces the full scan — same answer,
        kept as the correctness oracle for the pruning tests.
        """
        if prune:
            keys = self.shard_keys()
            if workflow is not None:
                keys = [k for k in keys if k[0] == workflow]
            if date is not None:
                keys = [k for k in keys if k[1] == date]
            candidates = self.indexes.candidate_ids(
                config_hash=config_hash, fault=fault,
                min_wall=min_wall, max_wall=max_wall)
            if candidates is not None:
                allowed = self.indexes.shard_keys_of(candidates)
                keys = [k for k in keys if k in allowed]
        else:
            # Full scan: every shard found on disk, indexes untouched.
            # Same answer as the pruned path — the oracle the pruning
            # tests compare against.
            keys = self._discover_shard_keys()

        matched: list[RunEntry] = []
        for key in keys:
            manifest = self._shard(*key)
            if manifest is None:
                continue
            for entry in manifest.entries:
                if workflow is not None and entry.workflow != workflow:
                    continue
                if date is not None and entry.date != date:
                    continue
                if config_hash is not None \
                        and entry.config_hash != config_hash:
                    continue
                if fault is not None \
                        and entry.fault_signature != fault:
                    continue
                if min_wall is not None and entry.wall_time < min_wall:
                    continue
                if max_wall is not None and entry.wall_time > max_wall:
                    continue
                matched.append(entry)
        matched.sort(key=lambda e: e.seq)
        return matched

    def entry(self, run_id: str) -> RunEntry:
        """The catalog entry of one run (raises ``LakeQueryError``)."""
        shard = self.indexes.run_shards.get(run_id)
        if shard is None:
            raise LakeQueryError(404, f"unknown run {run_id!r}")
        manifest = self._shard(shard[0], shard[1])
        entry = manifest.get(run_id) if manifest is not None else None
        if entry is None:
            raise LakeQueryError(
                404, f"run {run_id!r} indexed but missing from shard "
                     f"({shard[0]!r}, {shard[1]!r})")
        return entry

    def block(self, run_id: str) -> dict:
        """The cached column block of one run (memoized in memory)."""
        with self._lock:
            block = self._blocks.get(run_id)
            if block is not None:
                return block
        entry = self.entry(run_id)
        block = read_block(block_path(
            shard_dir(self.root, entry.workflow, entry.date), run_id))
        with self._lock:
            self._blocks[run_id] = block
        return block

    def run_data(self, run_id: str) -> RunData:
        """The full :class:`RunData` of one run (cache, then source)."""
        return self.session(run_id).run

    def session(self, run_id: str) -> AnalysisSession:
        """The (LRU-cached) analysis session of one run."""
        entry = self.entry(run_id)

        def load() -> AnalysisSession:
            if entry.source is None:
                raise LakeQueryError(
                    410, f"run {run_id!r} was registered in-memory "
                         f"without a durable payload and has been "
                         f"evicted; persist the run directory and "
                         f"re-ingest it")
            if os.path.isfile(entry.source):
                return AnalysisSession.of(read_rundata(entry.source))
            return AnalysisSession.of(entry.source)

        return self.sessions.get(run_id, load)

    # -- documents (the JSON-over-HTTP surface) ----------------------------
    def runs_document(self, **predicates) -> dict:
        entries = self.query(**predicates)
        return {
            "n_runs": len(entries),
            "runs": [entry.as_dict() for entry in entries],
        }

    def run_document(self, run_id: str) -> dict:
        entry = self.entry(run_id)
        return {
            "run": entry.as_dict(),
            "uri": self.uri(run_id),
            "block": self.block(run_id),
            "views": list(VIEW_NAMES),
        }

    def view_document(self, run_id: str, name: str) -> dict:
        if name not in VIEW_NAMES:
            raise LakeQueryError(
                404, f"unknown view {name!r}; have {list(VIEW_NAMES)}")
        table = self.session(run_id).view(name)
        return {
            "run_id": run_id,
            "view": name,
            "n_rows": len(table),
            "columns": list(table.column_names),
            "records": _jsonable(table.to_records()),
        }

    def variability_document(self, **predicates) -> dict:
        """Cross-run variability report, answered from column blocks.

        Numerically identical to
        :func:`repro.core.variability.variability_report` over the
        same runs: the blocks store the exact per-run floats the live
        path aggregates.
        """
        entries = self.query(**predicates)
        if not entries:
            raise LakeQueryError(
                404, "no runs match the given predicates")
        blocks = [self.block(entry.run_id) for entry in entries]
        breakdowns = [PhaseBreakdown(**b["phases"]) for b in blocks]
        stats = phase_variability(breakdowns)
        per_prefix: dict[str, list[float]] = {}
        for block in blocks:
            for prefix, total in block["prefix_durations"].items():
                per_prefix.setdefault(prefix, []).append(total)
        by_prefix = []
        for prefix, totals in per_prefix.items():
            s = summarize_metric(prefix, totals)
            by_prefix.append({
                "prefix": prefix, "n_runs": s.n,
                "mean_total_duration": s.mean,
                "std_total_duration": s.std, "cv": s.cv,
            })
        by_prefix.sort(key=lambda row: (-row["cv"], row["prefix"]))
        walls = [entry.wall_time for entry in entries]
        return {
            "n_runs": len(entries),
            "runs": [entry.run_id for entry in entries],
            "phases": {
                phase: stats[phase].as_dict()
                for phase in ("io", "communication", "computation",
                              "total")
            },
            "normalized": stats["normalized"],
            "normalized_err": stats["normalized_err"],
            "wall_time": summarize_metric("wall_time", walls).as_dict(),
            "by_prefix": by_prefix,
        }

    def stats_document(self) -> dict:
        with self._lock:
            n_shards = len(self.shard_keys())
            n_runs = len(self.indexes.run_shards)
        return {
            "root": self.root,
            "n_runs": n_runs,
            "n_shards": n_shards,
            "manifests_opened": self.manifests_opened,
            "session_cache": self.sessions.stats(),
            "wall_bucket_s": self.indexes.wall_bucket_s,
        }

    # -- the unified query surface ----------------------------------------
    def handle_query(self, path: str, params: dict) -> dict:
        """Route one query to its document builder.

        ``path`` is an HTTP-style route (``/runs``,
        ``/runs/<id>``, ``/runs/<id>/views/<name>``,
        ``/reports/variability``, ``/stats``); ``params`` maps
        predicate names to string values.  The serve daemon and the
        in-process ``perfrecup query`` path both land here, so their
        answers cannot diverge.
        """
        segments = [s for s in path.split("/") if s]
        predicates = self._predicates(params)
        if segments == ["runs"]:
            return self.runs_document(**predicates)
        if len(segments) == 2 and segments[0] == "runs":
            return self.run_document(segments[1])
        if len(segments) == 4 and segments[0] == "runs" \
                and segments[2] == "views":
            return self.view_document(segments[1], segments[3])
        if segments == ["reports", "variability"]:
            return self.variability_document(**predicates)
        if segments == ["stats"]:
            return self.stats_document()
        raise LakeQueryError(
            404, f"unknown query path {path!r}; routes: /runs, "
                 f"/runs/<id>, /runs/<id>/views/<name>, "
                 f"/reports/variability, /stats")

    @staticmethod
    def _predicates(params: dict) -> dict:
        """Decode string query parameters into query() keywords."""
        out: dict = {}
        for name in ("workflow", "date", "config_hash", "fault"):
            value = params.get(name)
            if isinstance(value, (list, tuple)):
                value = value[0] if value else None
            if value is not None:
                out[name] = str(value)
        for name in ("min_wall", "max_wall"):
            value = params.get(name)
            if isinstance(value, (list, tuple)):
                value = value[0] if value else None
            if value is not None:
                try:
                    out[name] = float(value)
                except ValueError:
                    raise LakeQueryError(
                        400, f"bad {name}={value!r}; expected a number"
                    ) from None
        unknown = set(params) - {"workflow", "date", "config_hash",
                                 "fault", "min_wall", "max_wall"}
        if unknown:
            raise LakeQueryError(
                400, f"unknown query parameter(s) "
                     f"{sorted(unknown)}; accepted: workflow, date, "
                     f"config_hash, fault, min_wall, max_wall")
        return out

    def query_json(self, target: str) -> bytes:
        """The canonical JSON payload for one query string.

        ``target`` is a path with optional query string, e.g.
        ``/runs?workflow=xgboost``.  Both the daemon and in-process
        clients return exactly these bytes, which is what the
        byte-identity tests assert.
        """
        parts = urlsplit(target)
        params = {name: values[0] if values else None
                  for name, values in parse_qs(
                      parts.query, keep_blank_values=True).items()}
        document = self.handle_query(parts.path, params)
        return (json.dumps(document, sort_keys=True,
                           separators=(",", ":")) + "\n").encode("utf-8")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Catalog {self.root} "
                f"runs={len(self.indexes.run_shards)}>")

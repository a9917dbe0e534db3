"""The Store front door: put/resolve/evict over a pluggable backend.

One :class:`Store` serves a whole cluster.  The scheduler consults
:meth:`has` when placing tasks (a proxied dependency costs no peer
transfer, so placement stops clustering onto replica holders); workers
call :meth:`put` when a large output materialises and drive
:meth:`resolve` from ``_gather`` instead of the peer-fetch path.

Every operation emits a first-class provenance event —
``proxy_put`` / ``proxy_resolve`` / ``proxy_evict`` — carrying the
paper's §III-E3 identifiers (key, worker, hostname, timestamp) plus
the backend, byte count, duration, and the proxy's factory
fingerprint, so :func:`~repro.core.data_plane.data_plane_view` can
join data-plane traffic against tasks and attribute the transfer time
the proxied path saved over the scheduler's estimate.
"""

from __future__ import annotations

from .backends import BackendUnavailable
from .proxy import Proxy

__all__ = ["ProxyResolveError", "Store"]


class ProxyResolveError(RuntimeError):
    """Raised when a blob stays unresolvable after the retry budget.

    Workers catch this and fall back to the classic peer-fetch path
    against the scheduler's replica map; if that is empty too, the
    ordinary data-lost recovery (recompute) takes over.
    """


class Store:
    """Cluster-wide pass-by-reference object store (simulated).

    Parameters
    ----------
    env:
        The simulation environment.
    backend:
        A backend from :mod:`repro.proxystore.backends`.
    threshold:
        Outputs of at least this many bytes are proxied.
    producer:
        Optional Mofka producer for the provenance events; without one
        the events still accumulate in :attr:`events` (unit tests,
        bare clusters).
    baseline_bandwidth:
        The scheduler's flat bandwidth estimate (``DaskConfig.
        bandwidth_estimate``); resolve events record
        ``nbytes / baseline_bandwidth`` as the transfer time the
        scheduler path would have budgeted, so analysis can attribute
        the saving per backend.
    max_retries / retry_backoff:
        Resolve retry budget and base backoff for transient backend
        unavailability (e.g. a blacked-out Mofka partition).
    """

    def __init__(self, env, backend, *, threshold: int,
                 producer=None, baseline_bandwidth: float = 100e6,
                 max_retries: int = 3, retry_backoff: float = 0.05):
        self.env = env
        self.backend = backend
        self.threshold = int(threshold)
        self.baseline_bandwidth = float(baseline_bandwidth)
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self._producer = producer
        self._proxies: dict[str, Proxy] = {}
        #: Every emitted event, in order (mirrors the producer stream).
        self.events: list[dict] = []
        # -- counters (cheap, always on) -----------------------------------
        self.n_puts = 0
        self.n_resolves = 0
        self.n_evictions = 0
        self.n_failed_resolves = 0
        self.bytes_put = 0
        self.bytes_resolved = 0
        self.resolve_seconds = 0.0

    # -- policy ------------------------------------------------------------
    def should_proxy(self, nbytes: int) -> bool:
        """Size-threshold policy: proxy outputs of at least ``threshold``."""
        return nbytes >= self.threshold

    def has(self, key: str) -> bool:
        return key in self._proxies

    def durable(self, key: str) -> bool:
        """True when ``key`` is proxied on a backend that survives the
        crash of every replica holder (PFS, Mofka)."""
        return key in self._proxies and self.backend.durable

    # -- wiring ------------------------------------------------------------
    def attach(self, dask) -> None:
        """Point one Dask-like cluster's scheduler and workers at us."""
        dask.scheduler.proxy_store = self
        for worker in dask.workers:
            worker.proxy_store = self

    # -- operations (simulation generators) --------------------------------
    def put(self, key: str, nbytes: int, worker):
        """Stage one output; returns the registered :class:`Proxy`.

        Driven inside the owning worker's process (``yield from``).
        Returns ``None`` without registering when the worker dies
        mid-staging — a half-staged blob must not advertise itself.
        """
        start = self.env.now
        yield from self.backend.put(key, nbytes, worker)
        if worker.failed:
            return None
        proxy = Proxy.create(key, nbytes, self.backend.name)
        self._proxies[key] = proxy
        self.n_puts += 1
        self.bytes_put += nbytes
        self._push("proxy_put", {
            "key": key,
            "worker": worker.address,
            "hostname": worker.node.name,
            "timestamp": self.env.now,
            "backend": self.backend.name,
            "nbytes": nbytes,
            "duration": self.env.now - start,
            "fingerprint": proxy.fingerprint,
            "status": "ok",
        })
        return proxy

    def resolve(self, key: str, worker):
        """Materialise one blob on ``worker``; returns its byte count.

        Retries transient :class:`BackendUnavailable` with linear
        backoff; after the budget is spent the failure is recorded
        (``status="lost"``) and :class:`ProxyResolveError` raised so
        the caller can fall back to a peer fetch.
        """
        proxy = self._proxies.get(key)
        if proxy is None:
            raise ProxyResolveError(f"{key!r} is not proxied")
        start = self.env.now
        retries = 0
        while True:
            try:
                yield from self.backend.fetch(proxy, worker)
            except BackendUnavailable as exc:
                retries += 1
                if retries > self.max_retries:
                    self.n_failed_resolves += 1
                    self._push("proxy_resolve", {
                        "key": key,
                        "worker": worker.address,
                        "hostname": worker.node.name,
                        "timestamp": self.env.now,
                        "backend": proxy.backend,
                        "nbytes": proxy.nbytes,
                        "duration": self.env.now - start,
                        "baseline_s": proxy.nbytes / self.baseline_bandwidth,
                        "fingerprint": proxy.fingerprint,
                        "retries": retries - 1,
                        "status": "lost",
                    })
                    raise ProxyResolveError(str(exc)) from None
                yield self.env.timeout(self.retry_backoff * retries)
                continue
            break
        duration = self.env.now - start
        self.n_resolves += 1
        self.bytes_resolved += proxy.nbytes
        self.resolve_seconds += duration
        self._push("proxy_resolve", {
            "key": key,
            "worker": worker.address,
            "hostname": worker.node.name,
            "timestamp": self.env.now,
            "backend": proxy.backend,
            "nbytes": proxy.nbytes,
            "duration": duration,
            "baseline_s": proxy.nbytes / self.baseline_bandwidth,
            "fingerprint": proxy.fingerprint,
            "retries": retries,
            "status": "ok",
        })
        return proxy.nbytes

    def evict(self, key: str) -> None:
        """Drop one blob (scheduler release path).  Idempotent."""
        proxy = self._proxies.pop(key, None)
        if proxy is None:
            return
        self.backend.evict(proxy)
        self.n_evictions += 1
        self._push("proxy_evict", {
            "key": key,
            "worker": "",
            "hostname": "",
            "timestamp": self.env.now,
            "backend": proxy.backend,
            "nbytes": proxy.nbytes,
            "duration": 0.0,
            "fingerprint": proxy.fingerprint,
            "status": "ok",
        })

    # -- provenance funnel --------------------------------------------------
    def _push(self, event_type: str, payload: dict) -> None:
        metadata = {"type": event_type}
        metadata.update(payload)
        self.events.append(metadata)
        if self._producer is not None:
            # Generic funnel: schema conformance is checked at the typed
            # _push() call sites, not here.
            self._producer.push(metadata)  # repro: allow[prov-untyped-emission, flow-unresolved-emission]

    # -- introspection -------------------------------------------------------
    def describe(self) -> dict:
        return {
            "backend": self.backend.describe(),
            "threshold": self.threshold,
            "n_blobs": len(self._proxies),
            "n_puts": self.n_puts,
            "n_resolves": self.n_resolves,
            "n_evictions": self.n_evictions,
            "n_failed_resolves": self.n_failed_resolves,
            "bytes_put": self.bytes_put,
            "bytes_resolved": self.bytes_resolved,
            "resolve_seconds": self.resolve_seconds,
        }

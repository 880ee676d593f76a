"""Memoized per-scenario Sessions with LRU eviction — the serving heart.

An HTTP planning server answers many requests against few distinct
scenarios: the same model/cluster/training document arrives again and
again with the same (or near-identical) fields.  A
:class:`SessionPool` memoizes one :class:`~repro.api.session.Session`
per scenario *fingerprint* (the canonical JSON of the validated spec),
so repeated requests reuse the lazily-built model graph, compute
profile, oracle, compiled kernel, and projection cache instead of
re-deriving them — this is what keeps per-request cost in the
microseconds the PR 5/7 fast path made possible.

Capacity is bounded: least-recently-used sessions are evicted once the
pool exceeds ``capacity`` distinct fingerprints, so a scenario-diverse
traffic mix cannot grow memory without bound.  Eviction only drops the
in-memory Session: graphs, profiles and kernels stay in the artifact
store, and a shared ``cache_dir`` keeps its persisted projections on
disk, so the next session for that fingerprint re-loads them warm.

Thread safety: one lock guards the table; Session construction itself
is cheap (everything inside is lazy) and the Session's own memo lock
makes first-touch construction of heavy components single-shot even
when many request threads share one session.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Dict, Optional

from ..api.session import Session
from ..api.spec import ScenarioSpec
from ..faults import FaultError
from ..faults import fire as _fire_fault

__all__ = ["SessionPool", "scenario_fingerprint"]

#: Default number of distinct scenarios kept live.
DEFAULT_CAPACITY = 32


def scenario_fingerprint(scenario: ScenarioSpec) -> str:
    """Stable identity of a validated scenario (the pool key).

    The canonical sorted-key JSON of ``to_dict()`` hashed down to 16 hex
    chars: two documents that validate to the same spec — regardless of
    key order or formatting on the wire — share a fingerprint, and any
    field difference separates them.
    """
    blob = json.dumps(scenario.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class SessionPool:
    """LRU-bounded ``fingerprint -> Session`` memo.

    Parameters
    ----------
    capacity:
        Maximum distinct scenarios kept live; least-recently-used
        sessions are evicted beyond it.
    cache_dir:
        Shared cross-model projection-cache directory handed to every
        Session (see ``Session(cache_dir=...)``): searches for
        different models/clusters persist side by side in
        fingerprint-named files, and evicted sessions re-warm from it.
    tracer / metrics:
        Observability sinks shared by every pooled session, so one
        registry aggregates counters across the whole serving surface.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, *,
                 cache_dir: Optional[str] = None,
                 tracer=None, metrics=None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.cache_dir = cache_dir
        self.tracer = tracer
        self.metrics = metrics
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def session(self, scenario: ScenarioSpec) -> Session:
        """The pooled Session for ``scenario`` (built on first use).

        Fault site ``serve.pool.session``: ``error`` fails the lookup
        (exercising the server's 500 path); ``delay`` stalls it.
        """
        action = _fire_fault("serve.pool.session")
        if action is not None and action.kind == "error":
            raise FaultError(action.describe())
        key = scenario_fingerprint(scenario)
        with self._lock:
            session = self._sessions.get(key)
            if session is not None:
                self.hits += 1
                self._sessions.move_to_end(key)
                return session
            self.misses += 1
            session = Session(
                scenario,
                tracer=self.tracer,
                metrics=self.metrics,
                cache_dir=self.cache_dir,
            )
            self._sessions[key] = session
            while len(self._sessions) > self.capacity:
                self._sessions.popitem(last=False)
                self.evictions += 1
            return session

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, scenario: ScenarioSpec) -> bool:
        with self._lock:
            return scenario_fingerprint(scenario) in self._sessions

    def clear(self) -> None:
        with self._lock:
            self._sessions.clear()

    def stats(self) -> Dict[str, float]:
        """JSON-ready counters (scraped into ``/metricsz``)."""
        with self._lock:
            return {
                "sessions": float(len(self._sessions)),
                "capacity": float(self.capacity),
                "hits": float(self.hits),
                "misses": float(self.misses),
                "evictions": float(self.evictions),
            }

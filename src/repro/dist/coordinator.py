"""Coordinator side of the distributed search executor.

:class:`RemoteCoordinator` owns the fleet for one search: it connects to
the configured ``host:port`` workers, performs the context handshake
(shipping the pickled oracle context only to workers that don't already
hold it), then streams candidate chunks out and folds ``result`` frames
back — exactly once per chunk, whatever the fleet does in between.

Failure model
-------------
* **Dead worker** — a dropped connection, protocol violation, or a
  silence longer than the heartbeat timeout marks the worker lost; the
  chunk it was evaluating returns to the pending queue (unless another
  worker also holds it) and its socket closes.  The search continues on
  the survivors.
* **Straggler** — when the pending queue drains, idle workers *re-
  dispatch* chunks still in flight elsewhere (speculative execution).
  The first result wins; late duplicates are discarded by chunk id, so
  fold-in stays exactly-once.
* **Total fleet loss** — chunks still unfinished when the last worker
  dies are reported via :attr:`leftover`; the engine evaluates them
  locally, so a search never loses candidates to the fleet.
* **Flapping worker** — a lost connection is retried through a
  per-address :class:`~repro.faults.CircuitBreaker`: while work remains
  the coordinator re-handshakes (backoff with jitter via
  :class:`~repro.faults.RetryPolicy`); ``K`` consecutive failures trip
  the breaker and the coordinator stops courting that address for the
  rest of the search.  Trips/rejections surface as ``dist.breaker.*``
  metrics.
* **Zombie worker** — a worker that heartbeats forever without ever
  returning a result is bounded by the *chunk timeout*
  (``REPRO_DIST_CHUNK_TIMEOUT_S``, default 600 s): heartbeats reset the
  silence clock but not the chunk clock, so a livelocked worker is
  eventually declared lost and its chunk redistributed.

Timeouts come from ``REPRO_DIST_CONNECT_TIMEOUT_S`` /
``REPRO_DIST_HEARTBEAT_TIMEOUT_S`` (or constructor arguments); workers
heartbeat every ``REPRO_DIST_HEARTBEAT_S`` seconds while evaluating, so
the heartbeat timeout bounds *silence*, not chunk duration.
"""

from __future__ import annotations

import logging
import os
import queue
import socket
import threading
import time
from collections import deque
from typing import Dict, Iterator, List, Optional, Sequence, Set

from ..faults import CircuitBreaker, RetryPolicy
from .protocol import (
    BYE,
    CHUNK,
    CONTEXT,
    ERROR,
    HEARTBEAT,
    HELLO,
    HELLO_OK,
    PROTOCOL_VERSION,
    READY,
    RESULT,
    ProtocolError,
    parse_address,
    recv_frame,
    send_frame,
)

logger = logging.getLogger(__name__)

__all__ = [
    "RemoteCoordinator",
    "DEFAULT_CONNECT_TIMEOUT_S",
    "DEFAULT_HEARTBEAT_TIMEOUT_S",
    "DEFAULT_CHUNK_TIMEOUT_S",
]

#: Seconds to wait for a worker to accept + handshake before skipping it.
DEFAULT_CONNECT_TIMEOUT_S = 5.0

#: Seconds of *silence* (no result, no heartbeat) before a worker is
#: declared dead and its chunk redistributed.
DEFAULT_HEARTBEAT_TIMEOUT_S = 10.0

#: Ceiling on one chunk's wall time regardless of heartbeats — bounds a
#: zombie worker that keeps the connection warm but never answers.
DEFAULT_CHUNK_TIMEOUT_S = 600.0


def _env_timeout(name: str, default: float) -> float:
    try:
        return float(os.environ.get(name, default))
    except ValueError:
        return default


class _Worker:
    """One live, handshaken worker connection."""

    def __init__(self, address: str, sock: socket.socket) -> None:
        self.address = address
        self.sock = sock

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover
            pass


class RemoteCoordinator:
    """Dispatch candidate chunks to remote workers, exactly-once.

    Parameters
    ----------
    addresses:
        ``host:port`` worker addresses (unreachable ones are skipped
        with a warning; :meth:`connect` reports how many survived).
    payload:
        The pickled oracle context: the ``(oracle, dataset, pruners,
        traced)`` tuple the engine's remote backend builds.
    digest:
        Context-fingerprint digest the workers verify the payload
        against (see :func:`repro.search.cache.fingerprint_digest`).
    connect_timeout / heartbeat_timeout:
        Override the env-configured timeouts (see module docstring).
    chunk_timeout:
        Ceiling on one chunk's wall time even while heartbeats arrive
        (env ``REPRO_DIST_CHUNK_TIMEOUT_S``, default
        :data:`DEFAULT_CHUNK_TIMEOUT_S`).
    retry:
        :class:`~repro.faults.RetryPolicy` for handshakes — both the
        initial :meth:`connect` and mid-search reconnects.  Defaults to
        3 attempts with 50 ms exponential backoff and jitter.
    breaker_failures / breaker_cooldown_s:
        Per-address circuit-breaker configuration: trip after this many
        consecutive handshake/connection failures; admit a half-open
        probe after the cooldown.
    reconnect:
        Re-handshake a lost worker while undone work remains (gated by
        its breaker).  Disable to restore the PR 9 lose-it-forever
        behavior.
    """

    def __init__(
        self,
        addresses: Sequence[str],
        payload: bytes,
        digest: str,
        *,
        connect_timeout: Optional[float] = None,
        heartbeat_timeout: Optional[float] = None,
        chunk_timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        breaker_failures: int = 3,
        breaker_cooldown_s: float = 1.0,
        reconnect: bool = True,
    ) -> None:
        self.addresses = tuple(addresses)
        self.payload = payload
        self.digest = digest
        self.connect_timeout = (
            connect_timeout if connect_timeout is not None
            else _env_timeout("REPRO_DIST_CONNECT_TIMEOUT_S",
                              DEFAULT_CONNECT_TIMEOUT_S))
        self.heartbeat_timeout = (
            heartbeat_timeout if heartbeat_timeout is not None
            else _env_timeout("REPRO_DIST_HEARTBEAT_TIMEOUT_S",
                              DEFAULT_HEARTBEAT_TIMEOUT_S))
        self.chunk_timeout = (
            chunk_timeout if chunk_timeout is not None
            else _env_timeout("REPRO_DIST_CHUNK_TIMEOUT_S",
                              DEFAULT_CHUNK_TIMEOUT_S))
        self.retry = retry if retry is not None else RetryPolicy(
            attempts=3, base_delay_s=0.05, max_delay_s=1.0, seed=0)
        self.reconnect = reconnect
        self._breakers: Dict[str, CircuitBreaker] = {
            address: CircuitBreaker(
                breaker_failures, cooldown_s=breaker_cooldown_s)
            for address in self.addresses
        }
        self._workers: List[_Worker] = []
        self._stop = threading.Event()
        #: Chunk ids unfinished after the whole fleet died; the engine
        #: evaluates these locally.
        self.leftover: List[int] = []
        #: Fleet counters, scraped into the engine's metrics registry
        #: under the ``dist.`` prefix (so ``breaker.trips`` lands as
        #: ``dist.breaker.trips``).
        self.stats: Dict[str, int] = {
            "workers_connected": 0,
            "workers_unreachable": 0,
            "workers_lost": 0,
            "workers_reconnected": 0,
            "contexts_shipped": 0,
            "chunks_dispatched": 0,
            "chunks_redispatched": 0,
            "chunks_completed": 0,
            "chunks_timed_out": 0,
            "results_discarded": 0,
            "heartbeats": 0,
            "handshake_retries": 0,
            "breaker.trips": 0,
            "breaker.rejected": 0,
        }

    # -------------------------------------------------------------- connect
    def connect(self) -> int:
        """Handshake every configured address; returns the live count.

        Unreachable or misbehaving workers are skipped with a warning —
        degradation policy belongs to the caller (the engine falls back
        to the thread executor only when *no* worker survives).
        """
        for address in self.addresses:
            breaker = self._breakers[address]
            try:
                self._workers.append(self._handshake_with_retry(address))
                self.stats["workers_connected"] += 1
                breaker.record_success()
            except (OSError, ValueError, ConnectionError,
                    ProtocolError) as exc:
                logger.warning("dist: worker %s unavailable: %s",
                               address, exc)
                self.stats["workers_unreachable"] += 1
                breaker.record_failure()
        self._sync_breaker_stats()
        return len(self._workers)

    def _handshake_with_retry(self, address: str) -> _Worker:
        """One handshake under the retry policy.  ``ValueError`` (a
        malformed address) is not retried — it will never get better."""

        def count_retry(_attempt: int, _exc: BaseException) -> None:
            self.stats["handshake_retries"] += 1

        return self.retry.call(
            lambda: self._handshake(address),
            retry_on=(OSError, ConnectionError, ProtocolError),
            on_retry=count_retry)

    def _sync_breaker_stats(self) -> None:
        self.stats["breaker.trips"] = sum(
            b.trips for b in self._breakers.values())
        self.stats["breaker.rejected"] = sum(
            b.rejected for b in self._breakers.values())

    def _handshake(self, address: str) -> _Worker:
        host, port = parse_address(address)
        sock = socket.create_connection(
            (host, port), timeout=self.connect_timeout)
        try:
            send_frame(sock, HELLO, version=PROTOCOL_VERSION,
                       digest=self.digest)
            kind, fields = recv_frame(sock, timeout=self.connect_timeout)
            if kind == ERROR:
                raise ProtocolError(fields.get("message", "worker error"))
            if kind != HELLO_OK:
                raise ProtocolError(f"expected hello-ok, got {kind!r}")
            if fields.get("version") != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"protocol version mismatch: {fields.get('version')!r}")
            if not fields.get("have_context"):
                send_frame(sock, CONTEXT, payload=self.payload)
                self.stats["contexts_shipped"] += 1
            kind, fields = recv_frame(sock, timeout=self.connect_timeout)
            if kind == ERROR:
                raise ProtocolError(fields.get("message", "worker error"))
            if kind != READY:
                raise ProtocolError(f"expected ready, got {kind!r}")
        except BaseException:
            sock.close()
            raise
        sock.settimeout(self.heartbeat_timeout)
        logger.debug("dist: worker %s ready (context %s)",
                     address, self.digest)
        return _Worker(address, sock)

    # ------------------------------------------------------------- dispatch
    def run(self, chunks: Sequence[list]) -> Iterator[Dict[str, object]]:
        """Evaluate every chunk across the fleet; yields each completed
        chunk's ``result`` frame fields exactly once, in completion
        order.  Call :meth:`connect` first; after exhaustion,
        :attr:`leftover` lists any chunk ids the fleet failed to finish.
        """
        if not self._workers:
            self.leftover = list(range(len(chunks)))
            return
        n = len(chunks)
        lock = threading.Lock()
        pending = deque(range(n))
        owners: Dict[int, Set[_Worker]] = {cid: set() for cid in range(n)}
        done: Set[int] = set()
        results: "queue.Queue" = queue.Queue()

        def next_chunk(worker: _Worker):
            """Pending chunk first; otherwise steal the lowest-id chunk
            in flight on *other* workers (straggler re-dispatch).
            Returns ``(chunk_id, stolen)`` or ``(None, False)``."""
            with lock:
                while pending:
                    cid = pending.popleft()
                    if cid in done:
                        continue
                    owners[cid].add(worker)
                    return cid, False
                for cid in range(n):
                    if (cid not in done and owners[cid]
                            and worker not in owners[cid]):
                        owners[cid].add(worker)
                        return cid, True
            return None, False

        def work_remains() -> bool:
            with lock:
                return len(done) < n

        def drive(worker: _Worker) -> None:
            """Feed ``worker`` chunks until none are claimable or the
            connection fails (raises).  One chunk's wall time is bounded
            by :attr:`chunk_timeout` even while heartbeats arrive."""
            cid = None
            breaker = self._breakers.get(worker.address)
            try:
                while not self._stop.is_set():
                    cid, stolen = next_chunk(worker)
                    if cid is None:
                        break
                    with lock:
                        self.stats["chunks_dispatched"] += 1
                        if stolen:
                            self.stats["chunks_redispatched"] += 1
                    send_frame(worker.sock, CHUNK, chunk_id=cid,
                               candidates=chunks[cid])
                    t_chunk = time.monotonic()
                    while True:
                        kind, fields = recv_frame(worker.sock)
                        if kind == HEARTBEAT:
                            with lock:
                                self.stats["heartbeats"] += 1
                            if (time.monotonic() - t_chunk
                                    > self.chunk_timeout):
                                with lock:
                                    self.stats["chunks_timed_out"] += 1
                                raise ProtocolError(
                                    f"chunk {cid} exceeded the "
                                    f"{self.chunk_timeout:g}s chunk "
                                    f"timeout (worker heartbeating "
                                    f"but not answering)")
                            continue
                        if kind == RESULT:
                            break
                        raise ProtocolError(
                            f"expected result, got {kind!r}")
                    rcid = fields["chunk_id"]
                    if breaker is not None:
                        breaker.record_success()
                    with lock:
                        owners[rcid].discard(worker)
                        if rcid in done:
                            # A speculative duplicate lost the race;
                            # exactly-once fold-in drops it here.
                            self.stats["results_discarded"] += 1
                            cid = None
                            continue
                        done.add(rcid)
                        self.stats["chunks_completed"] += 1
                    results.put(("result", fields))
                    cid = None
            except BaseException:
                with lock:
                    if cid is not None and cid not in done:
                        owners[cid].discard(worker)
                        if not owners[cid]:
                            pending.append(cid)
                raise

        def try_reconnect(address: str) -> Optional[_Worker]:
            """Re-handshake a lost address while its breaker allows and
            undone work remains.  Returns the fresh connection or
            ``None`` once the breaker trips / work dries up."""
            breaker = self._breakers[address]
            while (self.reconnect and not self._stop.is_set()
                   and work_remains()):
                if not breaker.allow():
                    self._sync_breaker_stats()
                    logger.warning(
                        "dist: breaker open for %s; giving up on it",
                        address)
                    return None
                try:
                    fresh = self._handshake_with_retry(address)
                except (OSError, ConnectionError, ProtocolError,
                        ValueError):
                    breaker.record_failure()
                    self._sync_breaker_stats()
                    continue
                # Deliberately no record_success here: only a *completed
                # chunk* counts (drive() records it).  A worker that
                # accepts handshakes but crashes every chunk must still
                # accumulate consecutive failures and trip the breaker.
                with lock:
                    self.stats["workers_reconnected"] += 1
                logger.info("dist: worker %s reconnected", address)
                return fresh
            return None

        def worker_loop(worker: _Worker) -> None:
            current: Optional[_Worker] = worker
            try:
                while current is not None and not self._stop.is_set():
                    try:
                        drive(current)
                        return
                    except (OSError, ConnectionError, ProtocolError,
                            EOFError, ValueError) as exc:
                        with lock:
                            self.stats["workers_lost"] += 1
                        breaker = self._breakers.get(current.address)
                        if breaker is not None:
                            breaker.record_failure()
                            self._sync_breaker_stats()
                        if not self._stop.is_set():
                            logger.warning(
                                "dist: worker %s lost (%s); "
                                "redistributing", current.address, exc)
                        current.close()
                        current = try_reconnect(worker.address)
                        if current is not None:
                            with lock:
                                self._workers.append(current)
            finally:
                results.put(("exit", worker))

        threads = [
            threading.Thread(
                target=worker_loop, args=(worker,),
                name=f"repro-dist-{worker.address}", daemon=True)
            for worker in self._workers
        ]
        for thread in threads:
            thread.start()
        exited = yielded = 0
        try:
            while exited < len(threads):
                kind, payload = results.get()
                if kind == "exit":
                    exited += 1
                    continue
                yield payload
                yielded += 1
                # Stop on frames *yielded*, not on ``done``: a worker
                # marks its chunk done before queueing the frame, so a
                # full ``done`` set can still have a frame in flight.
                if yielded == n:
                    break
        finally:
            # All chunks folded (or the caller bailed): stop stragglers
            # still evaluating speculative duplicates and reap threads.
            self._stop.set()
            self.close()
            for thread in threads:
                thread.join(timeout=5)
            self._sync_breaker_stats()
            with lock:
                self.leftover = sorted(
                    cid for cid in range(n) if cid not in done)

    def close(self) -> None:
        """Send best-effort ``bye`` frames and close every connection."""
        for worker in self._workers:
            try:
                send_frame(worker.sock, BYE)
            except OSError:
                pass
            worker.close()

"""Worker side of the distributed search executor.

A :class:`WorkerServer` is the out-of-process half of the engine's
``executor="remote"`` backend (see :mod:`repro.search.engine`): it
listens on a socket, receives a pickled oracle context once per
coordinator handshake, rebuilds a single-worker
:class:`~repro.search.engine.SearchEngine` around it, and then evaluates
candidate chunks on demand — streaming each chunk's evaluations, drained
tracer spans, and counter deltas back in one ``result`` frame.

Rebuilt engines are cached per context-fingerprint digest, so repeated
searches (a sweep's per-model engines, a warm re-run) skip re-shipping
and re-unpickling the context; the worker re-derives the digest from the
rebuilt oracle and refuses a mismatch.  While a chunk evaluates, a
helper thread sends ``heartbeat`` frames so the coordinator can tell a
slow worker from a dead one.

Entry point: ``repro worker --bind host:port`` (the CLI installs
SIGTERM/SIGINT handlers around :meth:`WorkerServer.serve_forever` for
graceful shutdown — in-flight chunks finish and sockets close cleanly).
"""

from __future__ import annotations

import logging
import os
import pickle
import socket
import threading
from typing import Dict, Optional

from ..faults import fire as _fire_fault
from ..obs.tracer import Tracer
from ..search.cache import context_fingerprint, fingerprint_digest
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
    format_address,
    recv_frame,
    send_frame,
)

logger = logging.getLogger(__name__)

__all__ = ["WorkerServer", "DEFAULT_HEARTBEAT_INTERVAL_S"]

#: Seconds between keepalive frames while a chunk evaluates; overridable
#: via ``REPRO_DIST_HEARTBEAT_S`` (must stay well under the
#: coordinator's heartbeat timeout).
DEFAULT_HEARTBEAT_INTERVAL_S = 1.0


def _heartbeat_interval() -> float:
    try:
        return float(os.environ.get(
            "REPRO_DIST_HEARTBEAT_S", DEFAULT_HEARTBEAT_INTERVAL_S))
    except ValueError:
        return DEFAULT_HEARTBEAT_INTERVAL_S


class WorkerServer:
    """Socket server evaluating candidate chunks for remote coordinators.

    Parameters
    ----------
    host / port:
        Bind address; port 0 picks an ephemeral port (read it back from
        :attr:`address`).
    heartbeat_interval:
        Seconds between keepalive frames during evaluation; default
        :data:`DEFAULT_HEARTBEAT_INTERVAL_S` (env
        ``REPRO_DIST_HEARTBEAT_S``).
    fail_after_chunks:
        Fault-injection seam for the chunk-redistribution tests: after
        serving this many chunks the worker drops the connection
        mid-chunk without replying, exactly like a crashed host.
        ``None`` (the default) never fails.

    Each coordinator connection is served by its own thread, so several
    searches (e.g. a sweep's per-model engines) can share one worker;
    engines are cached per context digest and reused across connections.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        heartbeat_interval: Optional[float] = None,
        fail_after_chunks: Optional[int] = None,
    ) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.host, self.port = self._listener.getsockname()[:2]
        self._heartbeat = (
            heartbeat_interval if heartbeat_interval is not None
            else _heartbeat_interval())
        self._fail_after = fail_after_chunks
        self._engines: Dict[str, object] = {}
        self._engines_lock = threading.Lock()
        self._closing = threading.Event()
        self._threads: list = []
        self._conns: set = set()
        self._conns_lock = threading.Lock()
        self._accept_thread: Optional[threading.Thread] = None
        #: Chunks fully served (evaluated + result sent), lifetime.
        self.chunks_served = 0

    # ------------------------------------------------------------- identity
    @property
    def address(self) -> str:
        return format_address(self.host, self.port)

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "WorkerServer":
        """Accept connections from a daemon thread; returns self."""
        if self._accept_thread is not None:
            raise RuntimeError("worker already started")
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-worker", daemon=True)
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept connections on the calling thread (the CLI path)."""
        self._accept_loop()

    def close(self) -> None:
        """Graceful shutdown: stop accepting, let in-flight chunks
        finish (their results still send), then close every socket.

        Idempotent — the CLI's signal path and its ``finally`` block may
        both call it.
        """
        already = self._closing.is_set()
        self._closing.set()
        try:
            # Closing alone does not wake a thread blocked in accept()
            # on Linux; shutting the listener down does.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if not already:
            # Unblock handlers idle in recv while leaving the write side
            # open, so a chunk mid-evaluation still delivers its result.
            with self._conns_lock:
                conns = list(self._conns)
            for conn in conns:
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
        for thread in list(self._threads):
            thread.join(timeout=30)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None
        with self._conns_lock:
            for conn in list(self._conns):
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
            self._conns.clear()

    def __enter__(self) -> "WorkerServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # --------------------------------------------------------------- accept
    def _accept_loop(self) -> None:
        logger.info("worker: listening on %s", self.address)
        while not self._closing.is_set():
            try:
                conn, peer = self._listener.accept()
            except OSError:
                break  # listener closed -> clean exit
            with self._conns_lock:
                self._conns.add(conn)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn, peer),
                name=f"repro-worker-{peer[0]}:{peer[1]}", daemon=True)
            self._threads.append(thread)
            thread.start()

    # ------------------------------------------------------------ handshake
    def _engine_for(self, digest: str, payload: Optional[bytes]):
        """The cached engine for ``digest``, building it from ``payload``
        when this is the first time the context arrives.

        Raises :class:`ProtocolError` when the rebuilt context does not
        hash back to the digest the coordinator announced.
        """
        with self._engines_lock:
            engine = self._engines.get(digest)
            if engine is not None or payload is None:
                return engine
        from ..search.engine import SearchEngine

        oracle, dataset, traced = pickle.loads(payload)
        actual = fingerprint_digest(context_fingerprint(oracle))
        if actual != digest:
            raise ProtocolError(
                f"context fingerprint mismatch: coordinator announced "
                f"{digest}, shipped context hashes to {actual}")
        # No pruners: the coordinator ships only the candidates its own
        # pruners passed, and the digest does not cover pruners, so a
        # worker-side stack could only disagree with the coordinator's.
        engine = SearchEngine(
            oracle, dataset, pruners=(), workers=1,
            tracer=Tracer() if traced else None)
        analytical = getattr(oracle, "analytical", None)
        if analytical is not None and hasattr(analytical, "kernel"):
            analytical.kernel  # noqa: B018 - warm the lazy kernel build
        with self._engines_lock:
            self._engines[digest] = engine
        logger.info("worker: context %s installed (model=%s)",
                    digest, getattr(oracle.model, "name", "?"))
        return engine

    def _serve_connection(self, conn: socket.socket, peer) -> None:
        try:
            self._handshake_and_serve(conn)
        except (ConnectionError, OSError):
            pass  # peer vanished; nothing to clean beyond the socket
        except ProtocolError as exc:
            logger.warning("worker: protocol error from %s: %s", peer, exc)
            try:
                send_frame(conn, ERROR, message=str(exc))
            except OSError:
                pass
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def _handshake_and_serve(self, conn: socket.socket) -> None:
        kind, hello = recv_frame(conn)
        if kind != HELLO:
            raise ProtocolError(f"expected hello, got {kind!r}")
        if hello.get("version") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version mismatch: worker speaks "
                f"{PROTOCOL_VERSION}, coordinator sent "
                f"{hello.get('version')!r}")
        digest = str(hello.get("digest", ""))
        engine = self._engine_for(digest, None)
        send_frame(conn, HELLO_OK, version=PROTOCOL_VERSION,
                   have_context=engine is not None)
        if engine is None:
            kind, fields = recv_frame(conn)
            if kind != CONTEXT:
                raise ProtocolError(f"expected context, got {kind!r}")
            engine = self._engine_for(digest, fields.get("payload"))
        send_frame(conn, READY)
        self._chunk_loop(conn, engine)

    # ---------------------------------------------------------------- serve
    def _chunk_loop(self, conn: socket.socket, engine) -> None:
        send_lock = threading.Lock()
        while True:
            try:
                kind, fields = recv_frame(conn)
            except (ConnectionError, OSError):
                return
            if kind == BYE:
                return
            if kind != CHUNK:
                raise ProtocolError(f"expected chunk, got {kind!r}")
            chunk_id = fields["chunk_id"]
            candidates = fields["candidates"]
            action = _fire_fault("dist.worker.chunk")
            crash = action is not None and action.kind == "crash"
            if crash or (self._fail_after is not None
                         and self.chunks_served >= self._fail_after):
                # Fault injection (armed plan, or the legacy
                # fail_after_chunks seam): die without replying, like a
                # crashed host — the coordinator must redistribute this
                # chunk.
                logger.info("worker: injected failure on chunk %s",
                            chunk_id)
                conn.close()
                return
            stop = threading.Event()
            beat = threading.Thread(
                target=self._send_heartbeats,
                args=(conn, send_lock, chunk_id, stop), daemon=True)
            beat.start()
            try:
                result = self._evaluate(engine, candidates)
            finally:
                stop.set()
                beat.join(timeout=self._heartbeat * 2 + 1)
            with send_lock:
                send_frame(conn, RESULT, chunk_id=chunk_id, **result)
            self.chunks_served += 1
            if self._closing.is_set():
                return  # graceful shutdown: in-flight chunk delivered

    def _send_heartbeats(self, conn, send_lock, chunk_id, stop) -> None:
        while not stop.wait(self._heartbeat):
            try:
                with send_lock:
                    if stop.is_set():
                        return
                    send_frame(conn, HEARTBEAT, chunk_id=chunk_id)
            except OSError:
                return  # coordinator gone; the eval thread will notice

    @staticmethod
    def _evaluate(engine, candidates) -> Dict[str, object]:
        """One chunk through the rebuilt engine
        (:meth:`~repro.search.engine.SearchEngine.evaluate_many`: build,
        cache lookup, project — the coordinator already pruned), plus
        the drained tracer spans and the worker-side counter deltas the
        coordinator folds into its metrics registry.

        Deltas are approximate when several coordinators share one
        engine concurrently — metrics are advisory, evaluations are not.
        """
        vec_before = engine._vec_snapshot()
        comm_before = engine._comm_stats()
        evaluations = engine.evaluate_many(candidates)
        vec_after = engine._vec_snapshot()
        counts = {
            key: value - vec_before.get(key, 0)
            for key, value in vec_after.items()
        }
        metrics = {
            "chunks": 1,
            "candidates": len(candidates),
        }
        for key, value in engine._comm_stats().items():
            delta = value - comm_before.get(key, 0)
            if delta:
                metrics[f"comm.{key}"] = delta
        return {
            "evaluations": evaluations,
            "spans": engine.tracer.drain(),
            "counts": counts,
            "metrics": metrics,
        }

"""The distributed executor (repro.dist): protocol, worker, coordinator,
engine integration, CLI, and graceful shutdown.

The load-bearing guarantees under test:

* **Parity** — a remote search over 2 localhost workers is byte-identical
  (JSON-serialized report) to ``executor="thread"`` on the same space.
* **No lost candidates** — killing a worker mid-search redistributes its
  chunks; even the whole fleet dying mid-search still completes with
  identical results (leftover chunks evaluate locally).
* **Graceful degradation** — unreachable fleet or unpicklable context
  falls back to local threads with a ``RuntimeWarning``, never an error.
* **Graceful shutdown** — ``repro worker`` / ``repro serve`` exit 0 on
  SIGTERM / SIGINT.
"""

import json
import os
import pickle
import signal
import socket
import subprocess
import sys
import warnings

import pytest

from repro.core.calibration import profile_model
from repro.core.oracle import ParaDL
from repro.data.datasets import DatasetSpec
from repro.dist import WorkerServer
from repro.dist.coordinator import RemoteCoordinator
from repro.dist.protocol import (
    MAGIC,
    PROTOCOL_VERSION,
    ProtocolError,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.network.topology import abci_like_cluster
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.search.cache import context_fingerprint, fingerprint_digest
from repro.search.engine import SearchEngine
from repro.search.space import SearchSpace

SPACE = SearchSpace(
    pe_budgets=(2, 4, 8, 16), samples_per_pe=(1, 4), segments=(2, 4))

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def oracle(request):
    toy = request.getfixturevalue("toy2d")
    return ParaDL(toy, abci_like_cluster(16),
                  profile_model(toy, samples_per_pe=4))


@pytest.fixture(scope="module")
def dataset(request):
    toy = request.getfixturevalue("toy2d")
    return DatasetSpec(name="tiny", sample=toy.input_spec,
                       num_samples=4096, num_classes=10)


@pytest.fixture(scope="module")
def thread_report(oracle, dataset):
    return SearchEngine(oracle, dataset, executor="thread").search(SPACE)


def _blob(report) -> str:
    return json.dumps(report.asdict(), sort_keys=True)


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_parse_address(self):
        assert parse_address("host:1234") == ("host", 1234)
        assert parse_address(" 10.0.0.1:0 ") == ("10.0.0.1", 0)
        for bad in ("host", ":1234", "host:", "host:port", "host:70000",
                    "host:-1"):
            with pytest.raises(ValueError):
                parse_address(bad)

    def test_frame_round_trip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, "chunk", chunk_id=3, candidates=["x"])
            kind, fields = recv_frame(b)
            assert kind == "chunk"
            assert fields == {"chunk_id": 3, "candidates": ["x"]}
        finally:
            a.close()
            b.close()

    def test_bad_magic_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"HTTP/1.1 200 OK\r\n" + b"\x00" * 32)
            with pytest.raises(ProtocolError, match="magic"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_eof_raises_connection_error(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(ConnectionError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_length_rejected(self):
        import struct

        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!4sQ", MAGIC, 1 << 40))
            with pytest.raises(ProtocolError, match="sanity"):
                recv_frame(b)
        finally:
            a.close()
            b.close()


# ---------------------------------------------------------------------------
# Handshake
# ---------------------------------------------------------------------------

class TestHandshake:
    def test_fingerprint_mismatch_refused(self, oracle, dataset):
        payload = pickle.dumps((oracle, dataset, None, False))
        with WorkerServer() as worker:
            coord = RemoteCoordinator(
                [worker.address], payload, "bogusdigest00000")
            assert coord.connect() == 0
            assert coord.stats["workers_unreachable"] == 1

    def test_context_cached_across_connections(self, oracle, dataset):
        payload = pickle.dumps((oracle, dataset, None, False))
        digest = fingerprint_digest(context_fingerprint(oracle))
        with WorkerServer() as worker:
            first = RemoteCoordinator([worker.address], payload, digest)
            assert first.connect() == 1
            assert first.stats["contexts_shipped"] == 1
            first.close()
            second = RemoteCoordinator([worker.address], payload, digest)
            assert second.connect() == 1
            # The worker kept the rebuilt engine: no re-ship.
            assert second.stats["contexts_shipped"] == 0
            second.close()

    def test_version_mismatch_refused(self, oracle, dataset):
        with WorkerServer() as worker:
            sock = socket.create_connection(
                parse_address(worker.address), timeout=5)
            try:
                send_frame(sock, "hello", version=PROTOCOL_VERSION + 1,
                           digest="d")
                kind, fields = recv_frame(sock, timeout=5)
                assert kind == "error"
                assert "version mismatch" in fields["message"]
            finally:
                sock.close()

    def test_stale_context_tuple_version_refused(self, oracle, dataset):
        """Version 1 shipped a five-field context tuple; a peer still
        speaking it is refused at HELLO instead of failing to unpack."""
        assert PROTOCOL_VERSION >= 2
        with WorkerServer() as worker:
            sock = socket.create_connection(
                parse_address(worker.address), timeout=5)
            try:
                send_frame(sock, "hello", version=1, digest="d")
                kind, fields = recv_frame(sock, timeout=5)
                assert kind == "error"
                assert "version mismatch" in fields["message"]
            finally:
                sock.close()


# ---------------------------------------------------------------------------
# Executor parity + fault tolerance (the ISSUE acceptance criteria)
# ---------------------------------------------------------------------------

class TestRemoteParity:
    def test_two_workers_byte_identical_to_thread(
            self, oracle, dataset, thread_report):
        with WorkerServer() as w1, WorkerServer() as w2:
            engine = SearchEngine(
                oracle, dataset, executor="remote",
                workers=[w1.address, w2.address])
            report = engine.search(SPACE)
            assert w1.chunks_served + w2.chunks_served >= 1
        assert _blob(report) == _blob(thread_report)
        assert report.stats == thread_report.stats

    def test_kill_one_worker_mid_search_loses_nothing(
            self, oracle, dataset, thread_report, monkeypatch):
        # Small chunks force many round-trips, so the failing worker
        # dies with work genuinely in flight.
        monkeypatch.setattr("repro.search.engine._REMOTE_CHUNK", 8)
        with WorkerServer(fail_after_chunks=1) as dying, \
                WorkerServer() as survivor:
            engine = SearchEngine(
                oracle, dataset, executor="remote",
                workers=[dying.address, survivor.address])
            report = engine.search(SPACE)
            assert dying.chunks_served == 1
        assert _blob(report) == _blob(thread_report)

    def test_whole_fleet_dies_leftover_evaluates_locally(
            self, oracle, dataset, thread_report):
        with WorkerServer(fail_after_chunks=0) as b1, \
                WorkerServer(fail_after_chunks=0) as b2:
            engine = SearchEngine(
                oracle, dataset, executor="remote",
                workers=[b1.address, b2.address])
            report = engine.search(SPACE)
        assert _blob(report) == _blob(thread_report)

    def test_unreachable_fleet_degrades_to_threads(
            self, oracle, dataset, thread_report):
        engine = SearchEngine(
            oracle, dataset, executor="remote",
            workers=["127.0.0.1:1"])
        with pytest.warns(RuntimeWarning, match="no remote worker"):
            report = engine.search(SPACE)
        assert _blob(report) == _blob(thread_report)

    def test_unpicklable_context_degrades_to_threads(
            self, oracle, dataset):
        # A lambda pruner can't pickle, so the context can't ship; the
        # reference is a thread engine under the SAME pruners (custom
        # pruners replace the defaults, so thread_report doesn't apply).
        unpicklable = [lambda c, ctx: None]
        ref = SearchEngine(
            oracle, dataset, executor="thread",
            pruners=[lambda c, ctx: None]).search(SPACE)
        with WorkerServer() as worker:
            engine = SearchEngine(
                oracle, dataset, executor="remote",
                workers=[worker.address], pruners=unpicklable)
            with pytest.warns(RuntimeWarning, match="cannot be pickled"):
                report = engine.search(SPACE)
            assert worker.chunks_served == 0
        assert _blob(report) == _blob(ref)

    def test_warm_cache_remote_projects_nothing(self, oracle, dataset):
        from repro.search import ProjectionCache

        cache = ProjectionCache(context=context_fingerprint(oracle))
        SearchEngine(
            oracle, dataset, cache=cache, executor="thread").search(SPACE)
        with WorkerServer() as worker:
            engine = SearchEngine(
                oracle, dataset, cache=cache, executor="remote",
                workers=[worker.address])
            report = engine.search(SPACE)
            # Every candidate answered from the parent-side cache: no
            # chunk ever reaches the fleet.
            assert worker.chunks_served == 0
        assert report.stats["cache_misses"] == 0


class TestCoordinatorFoldIn:
    def test_frame_queued_after_done_is_still_yielded(
            self, oracle, dataset, monkeypatch):
        """A worker marks its chunk done *before* queueing the result
        frame.  Hold the last frame back until the consumer has taken
        the first one and the done set is full: the consumer must still
        wait for it, not stop with the chunk's candidates unreported."""
        import queue
        import threading
        from types import SimpleNamespace

        import repro.dist.coordinator as coordinator_module

        done_full = threading.Event()
        release = threading.Event()
        puts = []
        puts_lock = threading.Lock()

        class HoldLastResult(queue.Queue):
            def put(self, item, *args, **kwargs):
                if item[0] == "result":
                    with puts_lock:
                        puts.append(item)
                        last = len(puts) == 2
                    if last:
                        done_full.set()
                        release.wait(timeout=10)
                super().put(item, *args, **kwargs)

        monkeypatch.setattr(coordinator_module, "queue",
                            SimpleNamespace(Queue=HoldLastResult))
        candidates = list(SPACE.candidates(intra=oracle.cluster.node.gpus))
        half = len(candidates) // 2
        chunks = [candidates[:half], candidates[half:]]
        payload = pickle.dumps((oracle, dataset, None, False))
        digest = fingerprint_digest(context_fingerprint(oracle))
        with WorkerServer() as w1, WorkerServer() as w2:
            coord = RemoteCoordinator(
                [w1.address, w2.address], payload, digest)
            assert coord.connect() == 2
            frames = coord.run(chunks)
            got = [next(frames)]
            assert done_full.wait(timeout=10)
            release.set()
            got.extend(frames)
        assert sorted(f["chunk_id"] for f in got) == [0, 1]
        assert sum(len(f["evaluations"]) for f in got) == len(candidates)
        assert coord.leftover == []

    def test_multi_chunk_remote_matches_thread_repeatedly(
            self, toy2d, dataset):
        """Many chunks over two workers, several times over: every run
        reports exactly what the thread executor reports."""
        big = ParaDL(toy2d, abci_like_cluster(64),
                     profile_model(toy2d, samples_per_pe=4))
        space = SearchSpace(pe_budgets=(64,), samples_per_pe=(1, 4),
                            segments=(2, 4), exhaustive=True)
        reference = _blob(SearchEngine(big, dataset).search(space))
        for _ in range(5):
            # A fresh fleet per run: workers keep a projection memo, and
            # memo answers flip the per-evaluation ``cached`` flag.
            with WorkerServer() as w1, WorkerServer() as w2:
                metrics = MetricsRegistry()
                report = SearchEngine(
                    big, dataset, executor="remote",
                    workers=[w1.address, w2.address],
                    metrics=metrics).search(space)
                assert _blob(report) == reference
                assert metrics.snapshot()[
                    "dist.chunks_completed"]["value"] > 2


class TestObservability:
    def test_worker_spans_and_metrics_fold_back(self, oracle, dataset):
        tracer = Tracer()
        metrics = MetricsRegistry()
        with WorkerServer() as w1, WorkerServer() as w2:
            engine = SearchEngine(
                oracle, dataset, executor="remote",
                workers=[w1.address, w2.address],
                tracer=tracer, metrics=metrics)
            engine.search(SPACE)
        spans = tracer.drain()
        names = {s.name for s in spans}
        # Worker-side evaluation spans shipped back and adopted.
        assert "search.evaluate_chunk" in names
        assert "search" in names
        snap = metrics.snapshot()
        assert snap["dist.workers_connected"]["value"] == 2
        assert snap["dist.chunks_completed"]["value"] >= 1
        assert snap["dist.worker.candidates"]["value"] > 0
        assert snap["dist.worker.chunks"]["value"] == \
            snap["dist.chunks_completed"]["value"]

    def test_redispatch_is_exactly_once(self, oracle, dataset,
                                        thread_report, monkeypatch):
        """A deliberately slow worker gets its chunks stolen; duplicate
        results are discarded, not folded twice."""
        monkeypatch.setattr("repro.search.engine._REMOTE_CHUNK", 8)
        metrics = MetricsRegistry()
        slow = WorkerServer(heartbeat_interval=0.05)
        real_evaluate = slow._evaluate

        def delayed(engine, candidates):
            import time

            time.sleep(0.4)
            return real_evaluate(engine, candidates)

        slow._evaluate = delayed
        with slow, WorkerServer() as fast:
            engine = SearchEngine(
                oracle, dataset, executor="remote",
                workers=[slow.address, fast.address], metrics=metrics)
            report = engine.search(SPACE)
        assert _blob(report) == _blob(thread_report)
        snap = metrics.snapshot()
        n_chunks = snap["dist.chunks_completed"]["value"]
        assert snap.get("dist.chunks_redispatched",
                        {"value": 0})["value"] >= 1
        # Exactly-once fold-in: completed chunks == total chunks even
        # though more dispatches than chunks happened.
        assert snap["dist.chunks_dispatched"]["value"] > n_chunks or \
            snap.get("dist.results_discarded", {"value": 0})["value"] >= 0


class TestEngineValidation:
    def test_remote_needs_addresses(self, oracle, dataset):
        with pytest.raises(ValueError, match="at least one"):
            SearchEngine(oracle, dataset, executor="remote")

    def test_addresses_need_remote_executor(self, oracle, dataset):
        with pytest.raises(ValueError, match="executor='remote'"):
            SearchEngine(oracle, dataset, remote_workers=["a:1"])

    def test_workers_list_and_remote_workers_conflict(
            self, oracle, dataset):
        with pytest.raises(ValueError, match="not both"):
            SearchEngine(oracle, dataset, executor="remote",
                         workers=["a:1"], remote_workers=["b:2"])

    def test_workers_defaults_to_fleet_width(self, oracle, dataset):
        engine = SearchEngine(oracle, dataset, executor="remote",
                              remote_workers=["a:1", "b:2", "c:3"])
        assert engine.workers == 3
        assert engine.remote_workers == ("a:1", "b:2", "c:3")


class TestSpecValidation:
    def test_remote_workers_round_trip(self):
        from repro.api.spec import SearchSpec

        spec = SearchSpec.from_dict(
            {"executor": "remote",
             "remote_workers": ["a:1234", "b:1234"]})
        assert spec.executor == "remote"
        assert spec.remote_workers == ("a:1234", "b:1234")
        blob = spec.to_dict()
        assert blob["remote_workers"] == ["a:1234", "b:1234"]
        assert SearchSpec.from_dict(blob) == spec

    def test_bad_address_rejected(self):
        from repro.api.spec import ScenarioValidationError, SearchSpec

        with pytest.raises(ScenarioValidationError,
                           match=r"remote_workers\[0\]"):
            SearchSpec.from_dict(
                {"executor": "remote", "remote_workers": ["nope"]})

    def test_remote_workers_require_remote_executor(self):
        from repro.api.spec import ScenarioValidationError, SearchSpec

        with pytest.raises(ScenarioValidationError,
                           match="executor 'remote'"):
            SearchSpec.from_dict({"remote_workers": ["a:1234"]})

    def test_remote_executor_requires_addresses(self):
        from repro.api.spec import ScenarioValidationError, SearchSpec

        with pytest.raises(ScenarioValidationError,
                           match="at least one"):
            SearchSpec.from_dict({"executor": "remote"})


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCli:
    def _run_json(self, capsys, argv):
        from repro.cli import main

        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_search_remote_matches_thread(self, capsys):
        with WorkerServer() as w1, WorkerServer() as w2:
            remote = self._run_json(capsys, [
                "search", "--model", "alexnet", "-p", "8", "--json",
                "--executor", "remote",
                "--workers", f"{w1.address},{w2.address}"])
        thread = self._run_json(capsys, [
            "search", "--model", "alexnet", "-p", "8", "--json",
            "--executor", "thread"])
        # The scenario echo legitimately differs (executor +
        # remote_workers); the report payload must not.
        assert remote["scenario"]["search"].pop("remote_workers")
        for doc in (remote, thread):
            doc["scenario"]["search"].pop("executor", None)
        assert remote == thread

    def test_worker_flag_without_colon_is_pool_width(self, capsys):
        doc = self._run_json(capsys, [
            "search", "--model", "alexnet", "-p", "8", "--json",
            "--workers", "2"])
        assert doc["scenario"]["search"]["workers"] == 2

    def test_malformed_workers_flag_is_a_clean_error(self, capsys):
        from repro.cli import main

        assert main(["search", "--model", "alexnet", "-p", "8",
                     "--workers", "two"]) == 2
        assert "search.workers" in capsys.readouterr().err

    def test_remote_executor_without_workers_is_a_clean_error(
            self, capsys):
        from repro.cli import main

        assert main(["search", "--model", "alexnet", "-p", "8",
                     "--executor", "remote"]) == 2
        assert "remote" in capsys.readouterr().err

    def test_worker_bad_bind_is_a_clean_error(self, capsys):
        from repro.cli import main

        assert main(["worker", "--bind", "nope"]) == 2
        assert "host:port" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Graceful shutdown (SIGTERM/SIGINT; the serve/worker satellite)
# ---------------------------------------------------------------------------

def _spawn(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"),
         env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env)


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT])
def test_worker_signal_exits_cleanly(sig):
    proc = _spawn(["worker", "--bind", "127.0.0.1:0"])
    try:
        line = proc.stdout.readline()
        assert "repro worker: listening on 127.0.0.1:" in line
        proc.send_signal(sig)
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        assert "stopped after" in out
    finally:
        if proc.poll() is None:
            proc.kill()


def test_serve_sigterm_exits_cleanly():
    proc = _spawn(["serve", "--port", "0"])
    try:
        line = proc.stdout.readline()
        assert "repro serve: listening on" in line
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
    finally:
        if proc.poll() is None:
            proc.kill()

"""Distributed executor throughput: localhost fleet vs the thread executor.

Measures the acceptance claims of ``repro.dist``: a remote search over
two localhost :class:`~repro.dist.WorkerServer` instances returns a
report byte-identical to ``executor="thread"`` on the same space, and
the candidates/s of each backend is tracked so the wire protocol's
overhead (pickling chunks, heartbeats, result frames) leaves a
machine-readable trajectory.  The remote lane is measured twice: cold
(first handshake ships the pickled context and every projection is
computed) and warm (worker-side engines answer from their memo, so the
number approximates pure protocol throughput).

Alongside ``dist.txt`` the run emits ``BENCH_dist.json`` — the envelope
``scripts/check_perf_regression.py`` guards.
"""

import json
import time

from repro.core.calibration import profile_model
from repro.core.math_utils import power_of_two_budgets
from repro.core.oracle import ParaDL
from repro.data.datasets import IMAGENET
from repro.dist import WorkerServer
from repro.models import build_model
from repro.network.topology import abci_like_cluster
from repro.search import SearchEngine, SearchSpace

from _util import write_report

PES = 64
FLEET = 2

#: Repetitions per measurement; best-of-N guards against scheduler
#: jitter on shared runners.
REPEATS = 3


def _make_oracle():
    model = build_model("resnet50", None)
    cluster = abci_like_cluster(PES)
    profile = profile_model(model, samples_per_pe=32)
    return ParaDL(model, cluster, profile)


def _space():
    return SearchSpace(
        pe_budgets=tuple(power_of_two_budgets(PES, start=4)),
        samples_per_pe=(16, 32),
        segments=(2, 4, 8),
    )


def _timed_search(engine, space):
    t0 = time.perf_counter()
    report = engine.search(space)
    return report, time.perf_counter() - t0


def _blob(report):
    return json.dumps(report.asdict(), sort_keys=True)


def test_bench_dist_fleet_vs_local(tmp_path):
    oracle = _make_oracle()
    space = _space()

    thread_s = float("inf")
    for i in range(REPEATS):
        engine = SearchEngine(
            oracle, IMAGENET, cache=str(tmp_path / f"t{i}.json"),
            executor="thread")
        thread_report, elapsed = _timed_search(engine, space)
        thread_s = min(thread_s, elapsed)

    with WorkerServer() as w1, WorkerServer() as w2:
        fleet = [w1.address, w2.address]
        # Cold: the handshake ships the pickled context and the workers
        # project every candidate from scratch.
        engine = SearchEngine(
            oracle, IMAGENET, cache=str(tmp_path / "r-cold.json"),
            executor="remote", remote_workers=fleet)
        remote_report, remote_cold_s = _timed_search(engine, space)
        # Warm: worker-side engines keep their context and projection
        # memo across connections, so repeats approximate pure protocol
        # throughput (every candidate still crosses the wire).
        remote_warm_s = float("inf")
        for i in range(REPEATS):
            engine = SearchEngine(
                oracle, IMAGENET, cache=str(tmp_path / f"r{i}.json"),
                executor="remote", remote_workers=fleet)
            warm_report, elapsed = _timed_search(engine, space)
            remote_warm_s = min(remote_warm_s, elapsed)
        served = w1.chunks_served + w2.chunks_served

    # Parity: the cold fleet answer is byte-identical to the local one.
    assert _blob(remote_report) == _blob(thread_report)
    # Warm runs answer from the worker-side memo, which truthfully flips
    # the per-evaluation ``cached`` flag (exactly as a warm local cache
    # would); everything else stays byte-identical.
    def _strip_cached(obj):
        if isinstance(obj, dict):
            return {k: _strip_cached(v) for k, v in obj.items()
                    if k != "cached"}
        if isinstance(obj, list):
            return [_strip_cached(v) for v in obj]
        return obj

    assert _strip_cached(warm_report.asdict()) == \
        _strip_cached(thread_report.asdict())
    assert served > 0

    n = thread_report.stats["candidates"]
    write_report("dist", [
        f"Distributed executor — resnet50 at p={PES}, {n} candidates, "
        f"{FLEET} localhost workers ({served} chunks served)",
        f"thread:        {thread_s * 1e3:8.1f} ms   "
        f"{n / thread_s:8.0f} candidates/s",
        f"remote (cold): {remote_cold_s * 1e3:8.1f} ms   "
        f"{n / remote_cold_s:8.0f} candidates/s   (context ship incl.)",
        f"remote (warm): {remote_warm_s * 1e3:8.1f} ms   "
        f"{n / remote_warm_s:8.0f} candidates/s   (worker memo warm)",
        f"parity: remote report byte-identical to thread "
        f"(best {thread_report.best.describe()})",
    ], metrics={
        "candidates": n,
        "workers": FLEET,
        "chunks_served": served,
        "thread_wall_ms": thread_s * 1e3,
        "remote_cold_wall_ms": remote_cold_s * 1e3,
        "remote_warm_wall_ms": remote_warm_s * 1e3,
        "candidates_per_s_thread": n / thread_s,
        "candidates_per_s_remote_cold": n / remote_cold_s,
        "candidates_per_s_remote_warm": n / remote_warm_s,
    }, higher_is_better=(
        "candidates_per_s_thread",
        "candidates_per_s_remote_cold",
        "candidates_per_s_remote_warm",
    ))

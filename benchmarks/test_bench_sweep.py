"""Multi-model sweep: cold and warm wall time and cross-model cache reuse.

Measures the acceptance claims of the sweep orchestrator: a zoo sweep
through ``SweepRunner`` on its default (thread) executor produces
per-model frontiers + a cross-model summary, a warm re-run against the
shared cache directory answers every candidate from the per-model memos
(zero projections), and a sweep over a localhost ``repro worker`` fleet
returns results identical to the thread executor's.
"""

import os
import time

from repro.data.datasets import IMAGENET
from repro.dist import WorkerServer
from repro.search import SweepRunner

from _util import write_report

MODELS = ("resnet50", "vgg16", "alexnet")
PES = 64


def _runner(cache_dir, **engine_kwargs):
    return SweepRunner(
        MODELS,
        IMAGENET,
        pes=PES,
        samples_per_pe=32,
        segments=(2, 4),
        cache_dir=str(cache_dir),
        **engine_kwargs,
    )


def test_bench_sweep_cold_warm_and_report(tmp_path):
    cache_dir = tmp_path / "zoo-cache"
    report_dir = tmp_path / "zoo-report"

    t0 = time.perf_counter()
    cold = _runner(cache_dir).run()
    cold_s = time.perf_counter() - t0

    # Every model produced a feasible best and its own cache file.
    assert all(r.best is not None for r in cold.results)
    cache_files = sorted(os.listdir(cache_dir))
    assert len(cache_files) == len(MODELS)

    t0 = time.perf_counter()
    warm = _runner(cache_dir).run()
    warm_s = time.perf_counter() - t0

    # Warm sweep: nothing is re-projected, results are identical.
    for model_result in warm.results:
        assert model_result.report.stats["cache_misses"] == 0
    for a, b in zip(cold.results, warm.results):
        assert a.best.candidate == b.best.candidate
        assert [e.projection for e in a.report.frontier] == \
               [e.projection for e in b.report.frontier]

    artifacts = warm.write_report(str(report_dir))
    assert os.path.exists(artifacts["summary"])
    for model in MODELS:
        assert os.path.exists(artifacts[f"frontier_{model}"])

    n = sum(r.report.stats["candidates"] for r in cold.results)
    write_report("sweep", [
        f"Multi-model sweep — {', '.join(MODELS)} at p={PES} "
        f"({n} candidates total)",
        f"cold (thread):       {cold_s * 1e3:8.1f} ms   "
        f"{n / cold_s:8.0f} candidates/s",
        f"warm (shared cache): {warm_s * 1e3:8.1f} ms   "
        f"{n / warm_s:8.0f} candidates/s",
        f"speedup: {cold_s / warm_s:.1f}x; "
        f"cache files: {len(cache_files)}",
    ] + [
        f"{row['model']:10s} best={row['best']:28s} "
        f"epoch={row['epoch_s']:8.1f}s frontier={row['frontier']}"
        for row in cold.summary_rows()
    ], metrics={
        "models": len(MODELS),
        "candidates": n,
        "cold_wall_ms": cold_s * 1e3,
        "warm_wall_ms": warm_s * 1e3,
        "candidates_per_s_cold": n / cold_s,
        "candidates_per_s_warm": n / warm_s,
        "warm_speedup": cold_s / warm_s,
    }, higher_is_better=(
        "candidates_per_s_cold", "candidates_per_s_warm",
    ))


def test_bench_sweep_executor_parity(tmp_path):
    """The thread default and a two-worker remote fleet agree
    model-for-model."""
    thread = _runner(tmp_path / "t").run()
    with WorkerServer() as w1, WorkerServer() as w2:
        remote = _runner(tmp_path / "r", executor="remote",
                         remote_workers=[w1.address, w2.address]).run()
    for a, b in zip(thread.results, remote.results):
        assert a.model == b.model
        assert a.best.candidate == b.best.candidate
        assert a.report.stats["candidates"] == b.report.stats["candidates"]
        assert [e.candidate.key for e in a.report.frontier] == \
               [e.candidate.key for e in b.report.frontier]

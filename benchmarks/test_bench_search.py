"""Search throughput: candidates evaluated per second, cold vs. warm cache.

Measures the acceptance claims of the search subsystem: the projection
fast path keeps cold (cache-less) evaluation in the tens of thousands of
candidates per second, a second planning session against a persisted
projection cache answers every candidate from the memo (zero
projections) and never runs slower, and the search result itself is
sound — the scalarized best must match or beat the best feasible
``ParaDL.suggest`` entry at the same budget, since the search space is a
superset of suggest's fixed ranking.

Alongside ``search.txt`` the run emits ``BENCH_search.json`` (cold/warm
wall ms and candidates/s, machine info) — the machine-readable
trajectory ``scripts/check_perf_regression.py`` guards.
"""

import time

from repro.core.calibration import profile_model
from repro.core.math_utils import power_of_two_budgets
from repro.core.oracle import ParaDL
from repro.data.datasets import IMAGENET
from repro.models import build_model
from repro.network.topology import abci_like_cluster
from repro.search import SearchEngine, SearchSpace
from repro.search.pareto import (
    DEFAULT_OBJECTIVES,
    pareto_frontier,
    scalarized_best,
)

from _util import write_report

PES = 64


def _make_oracle():
    model = build_model("resnet50", None)
    cluster = abci_like_cluster(PES)
    profile = profile_model(model, samples_per_pe=32)
    return ParaDL(model, cluster, profile)


def _space(**kw):
    return SearchSpace(
        pe_budgets=tuple(power_of_two_budgets(PES, start=4)),
        samples_per_pe=(16, 32),
        segments=(2, 4, 8),
        **kw,
    )


def _timed_search(engine, space):
    t0 = time.perf_counter()
    report = engine.search(space)
    return report, time.perf_counter() - t0


def _assert_one_at_a_time_matches(oracle, space, report):
    """Each candidate evaluated alone (``engine.evaluate``: one
    ``oracle.project`` call, the route a chunk under the engine's
    vector-batch threshold takes) reproduces the report: the same
    evaluations, so the same count and the same best candidate."""
    engine = SearchEngine(oracle, IMAGENET, workers=1)
    candidates = sorted(space.candidates(intra=oracle.cluster.node.gpus),
                        key=lambda c: c.key)
    evaluations = [engine.evaluate(c) for c in candidates]
    assert len(evaluations) == report.stats["candidates"]
    assert [(e.candidate, e.projection, e.reason) for e in evaluations] == [
        (e.candidate, e.projection, e.reason) for e in report.evaluations]
    feasible = [e for e in evaluations if e.feasible]
    best = scalarized_best(pareto_frontier(feasible, DEFAULT_OBJECTIVES))
    assert best.candidate == report.best.candidate


#: Repetitions per measurement; best-of-N guards the speedup ratio against
#: scheduler jitter when the whole suite runs in parallel with this test.
REPEATS = 5


def test_bench_search_cold_vs_warm(tmp_path):
    oracle = _make_oracle()
    space = _space()

    cold_s = float("inf")
    for i in range(REPEATS):
        path = str(tmp_path / f"cold-cache-{i}.json")
        cold_engine = SearchEngine(oracle, IMAGENET, cache=path, workers=1)
        cold_report, elapsed = _timed_search(cold_engine, space)
        assert cold_engine.cache.hits == 0
        cold_s = min(cold_s, elapsed)
    path = str(tmp_path / f"cold-cache-{REPEATS - 1}.json")

    warm_s = float("inf")
    for _ in range(REPEATS):
        warm_engine = SearchEngine(oracle, IMAGENET, cache=path, workers=1)
        warm_report, elapsed = _timed_search(warm_engine, space)
        warm_s = min(warm_s, elapsed)

    n = cold_report.stats["candidates"]
    assert n == warm_report.stats["candidates"]
    # A warm cache answers everything — no projection is ever recomputed.
    assert warm_report.stats["cache_misses"] == 0
    # Identical results either way.
    assert warm_report.best.candidate == cold_report.best.candidate
    assert [e.projection for e in warm_report.frontier] == \
           [e.projection for e in cold_report.frontier]
    # The warm path should never meaningfully lose to the cold one.
    # (The historical >= 10x bar measured how *slow* cold projection
    # was before the compiled-kernel fast path; now that cold
    # evaluation is itself fast, the ratio is bounded by the shared
    # prune/rank overhead — the robust invariant is the zero-miss
    # assertion above, the absolute throughputs in BENCH_search.json
    # are the guarded quantities, and the 2x margin here only absorbs
    # scheduler noise on shared runners.)
    speedup = cold_s / warm_s
    assert speedup >= 0.5, (
        f"warm cache much slower than cold "
        f"(cold {cold_s * 1e3:.1f} ms, warm {warm_s * 1e3:.1f} ms)"
    )

    # Projected one candidate at a time, the space finds the same answer.
    _assert_one_at_a_time_matches(oracle, space, cold_report)

    # Search must match or beat plain suggest at the same budget.
    feasible = [s for s in oracle.suggest(PES, IMAGENET) if s.feasible]
    sug_best = min(s.epoch_time for s in feasible)
    assert cold_report.best.epoch_time <= sug_best + 1e-9

    # Exhaustive expansion is where the array path earns its keep: the
    # sampled space above is small enough that per-run floors (cache
    # write, ranking, expansion) dominate, while the full divisor sweep
    # projects ~13x more candidates and amortizes them away.
    exh_space = _space(exhaustive=True)
    exh_s = float("inf")
    for i in range(REPEATS):
        epath = str(tmp_path / f"exh-cache-{i}.json")
        exh_engine = SearchEngine(oracle, IMAGENET, cache=epath, workers=1)
        exh_report, elapsed = _timed_search(exh_engine, exh_space)
        exh_s = min(exh_s, elapsed)
    en = exh_report.stats["candidates"]
    assert en > n
    _assert_one_at_a_time_matches(oracle, exh_space, exh_report)
    # The exhaustive superset can only match or improve the sampled best.
    assert exh_report.best.epoch_time <= cold_report.best.epoch_time + 1e-9

    write_report("search", [
        f"Search throughput — resnet50, budgets {power_of_two_budgets(PES)}"
        f" ({n} candidates, {cold_report.stats['pruned']} pruned)",
        f"cold:   {cold_s * 1e3:8.1f} ms   {n / cold_s:8.0f} candidates/s",
        f"warm:   {warm_s * 1e3:8.1f} ms   {n / warm_s:8.0f} candidates/s",
        f"speedup: warm {speedup:.1f}x",
        f"frontier: {len(cold_report.frontier)} points; "
        f"best {cold_report.best.describe()} "
        f"epoch={cold_report.best.epoch_time:.1f}s",
        f"suggest best epoch={sug_best:.1f}s "
        f"(search gain {(1 - cold_report.best.epoch_time / sug_best):.2%})",
        f"exhaustive ({en} candidates):",
        f"cold:   {exh_s * 1e3:8.1f} ms   {en / exh_s:8.0f} candidates/s",
    ], metrics={
        "candidates": n,
        "pruned": cold_report.stats["pruned"],
        "cold_wall_ms": cold_s * 1e3,
        "warm_wall_ms": warm_s * 1e3,
        "candidates_per_s_cold": n / cold_s,
        "candidates_per_s_warm": n / warm_s,
        "warm_speedup": speedup,
        "exhaustive_candidates": en,
        "exhaustive_cold_wall_ms": exh_s * 1e3,
        "candidates_per_s_exhaustive": en / exh_s,
    }, higher_is_better=(
        "candidates_per_s_cold", "candidates_per_s_warm",
        "candidates_per_s_exhaustive",
    ))


def test_bench_search_throughput(benchmark, tmp_path):
    """pytest-benchmark series for trend tracking: warm-cache evaluation."""
    oracle = _make_oracle()
    space = _space()
    path = str(tmp_path / "bench-cache.json")
    SearchEngine(oracle, IMAGENET, cache=path, workers=1).search(space)

    def warm():
        return SearchEngine(
            oracle, IMAGENET, cache=path, workers=1).search(space)

    report = benchmark(warm)
    assert report.best is not None

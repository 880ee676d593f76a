"""Integration + property tests for repro.search.engine (and the Session
facade / CLI wiring around it)."""

import pytest

from repro.core.calibration import profile_model
from repro.core.oracle import ParaDL
from repro.data.datasets import DatasetSpec
from repro.network.topology import abci_like_cluster
from repro.search import (
    Candidate,
    Evaluation,
    ProjectionCache,
    SearchEngine,
    SearchSpace,
    context_fingerprint,
    pareto_frontier,
)


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


SPACE = SearchSpace(pe_budgets=(2, 4, 8, 16), samples_per_pe=(1, 4),
                    segments=(2, 4))


class TestEvaluate:
    def test_feasible_candidate(self, oracle, dataset):
        engine = SearchEngine(oracle, dataset, workers=1)
        ev = engine.evaluate(Candidate("d", 4, batch=16))
        assert ev.feasible and ev.projection is not None
        assert ev.epoch_time > 0 and ev.memory_gb > 0

    def test_pruned_candidate_never_projects(self, oracle, dataset):
        engine = SearchEngine(oracle, dataset, workers=1)
        ev = engine.evaluate(Candidate("d", 8, batch=4))  # p > B
        assert ev.pruned and not ev.feasible
        assert ev.projection is None and ev.strategy is None
        assert engine.cache.misses == 0  # rejected before the memo

    def test_cache_hit_marks_evaluation(self, oracle, dataset):
        engine = SearchEngine(oracle, dataset, workers=1)
        cand = Candidate("d", 4, batch=16)
        first = engine.evaluate(cand)
        second = engine.evaluate(cand)
        assert not first.cached and second.cached
        assert first.projection == second.projection


class TestSearch:
    def test_report_shape(self, oracle, dataset):
        engine = SearchEngine(oracle, dataset, workers=1)
        report = engine.search(SPACE, intra=2)
        st = report.stats
        assert st["candidates"] == SPACE.count(intra=2)
        assert (st["feasible"] + st["pruned"] + st["infeasible"]
                == st["candidates"])
        assert st["frontier"] == len(report.frontier)
        assert report.best is not None
        blob = report.asdict()
        assert blob["best"]["feasible"] is True
        assert len(blob["frontier"]) == len(report.frontier)

    def test_pruned_candidates_never_in_frontier(self, oracle, dataset):
        engine = SearchEngine(oracle, dataset, workers=1)
        report = engine.search(SPACE, intra=2)
        assert report.stats["pruned"] > 0, "space should exercise pruning"
        assert all(not e.pruned for e in report.frontier)
        assert all(e.feasible for e in report.frontier)

    def test_frontier_has_no_dominated_point(self, oracle, dataset):
        engine = SearchEngine(oracle, dataset, workers=1)
        report = engine.search(SPACE, intra=2)
        recomputed = pareto_frontier(report.feasible, report.objectives)
        assert report.frontier == recomputed

    def test_one_worker_equals_many_workers(self, oracle, dataset):
        serial = SearchEngine(oracle, dataset, workers=1)
        parallel = SearchEngine(oracle, dataset, workers=6)
        a = serial.search(SPACE, intra=2)
        b = parallel.search(SPACE, intra=2)
        assert [e.candidate for e in a.evaluations] == \
               [e.candidate for e in b.evaluations]
        assert [e.feasible for e in a.evaluations] == \
               [e.feasible for e in b.evaluations]
        assert [e.projection for e in a.frontier] == \
               [e.projection for e in b.frontier]
        assert a.best.candidate == b.best.candidate

    def test_iter_results_is_incremental_and_complete(self, oracle,
                                                      dataset):
        engine = SearchEngine(oracle, dataset, workers=4)
        seen = [ev for ev in engine.iter_results(SPACE, intra=2)]
        assert len(seen) == SPACE.count(intra=2)
        assert all(isinstance(e, Evaluation) for e in seen)

    def test_best_matches_or_beats_suggest(self, oracle, dataset):
        """The acceptance property: the scalarized pick is at least as
        good as the best feasible suggest() entry at the same budget."""
        report = SearchEngine(oracle, dataset).search(
            SearchSpace(pe_budgets=(16,), samples_per_pe=(4,)))
        feasible = [s for s in oracle.suggest(16, dataset, samples_per_pe=4)
                    if s.feasible]
        assert feasible and report.best is not None
        sug_best = min(s.epoch_time for s in feasible)
        assert report.best.epoch_time <= sug_best + 1e-9


class TestCachePersistence:
    def test_warm_cache_skips_all_projections(self, tmp_path, oracle,
                                              dataset):
        path = str(tmp_path / "cache.json")
        cold = SearchEngine(oracle, dataset, cache=path, workers=1)
        cold_report = cold.search(SPACE, intra=2)
        assert cold.cache.hits == 0

        warm = SearchEngine(oracle, dataset, cache=path, workers=1)
        warm_report = warm.search(SPACE, intra=2)
        assert warm.cache.misses == 0, "warm cache must answer everything"
        assert warm.cache.hits > 0
        assert [e.projection for e in warm_report.frontier] == \
               [e.projection for e in cold_report.frontier]
        assert warm_report.best.candidate == cold_report.best.candidate

    def test_engine_accepts_cache_object(self, oracle, dataset):
        cache = ProjectionCache(context=context_fingerprint(oracle))
        engine = SearchEngine(oracle, dataset, cache=cache, workers=1)
        engine.search(SPACE, intra=2)
        assert len(cache) > 0

    def test_different_dataset_size_is_a_different_key(self, oracle,
                                                       dataset):
        engine = SearchEngine(oracle, dataset, workers=1)
        other = DatasetSpec(name="tiny2", sample=dataset.sample,
                            num_samples=2048, num_classes=10)
        cand = Candidate("d", 4, batch=16)
        assert engine._cache_key(cand) != \
            SearchEngine(oracle, other, workers=1)._cache_key(cand)


class TestFacadeAndCli:
    def test_session_search_facade(self):
        from repro.api import Session

        report = Session({
            "model": {"name": "alexnet"},
            "cluster": {"pes": 8},
            "training": {"samples_per_pe": 4},
            "search": {"strategies": ["d", "df"], "workers": 2},
        }).search().report
        assert report.best is not None
        sids = {e.candidate.sid for e in report.evaluations}
        assert sids <= {"d", "df"}

    def test_cli_search_runs(self, capsys):
        from repro.cli import main

        rc = main(["search", "--model", "resnet50", "-p", "16",
                   "--workers", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "best:" in out and "candidates" in out

    def test_cli_search_json(self, capsys):
        import json as jsonlib

        from repro.cli import main

        rc = main(["search", "--model", "resnet50", "-p", "16", "--json"])
        blob = jsonlib.loads(capsys.readouterr().out)
        assert rc == 0
        assert blob["best"]["feasible"] is True
        assert blob["stats"]["candidates"] > 0
        assert isinstance(blob["frontier"], list)

    def test_cli_search_cache_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "plan.json")
        assert main(["search", "--model", "resnet50", "-p", "16",
                     "--cache", cache, "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["search", "--model", "resnet50", "-p", "16",
                     "--cache", cache, "--json"]) == 0
        second = capsys.readouterr().out
        import json as jsonlib

        a, b = jsonlib.loads(first), jsonlib.loads(second)
        assert a["best"] == dict(b["best"], cached=a["best"]["cached"])
        assert b["stats"]["cache_misses"] == 0

    def test_cli_json_flags_on_other_commands(self, capsys):
        import json as jsonlib

        from repro.cli import main

        assert main(["project", "-p", "16", "--json"]) == 0
        blob = jsonlib.loads(capsys.readouterr().out)
        assert blob["feasible"] is True and "per_iteration" in blob

        assert main(["suggest", "-p", "16", "--json"]) == 0
        blob = jsonlib.loads(capsys.readouterr().out)
        assert any(e["feasible"] for e in blob["entries"])

        assert main(["hybrid", "--model", "vgg16", "-p", "16",
                     "--samples-per-pe", "8", "--json"]) == 0
        blob = jsonlib.loads(capsys.readouterr().out)
        assert "entries" in blob

    def test_harness_search_experiment(self):
        from repro.harness import run_search_best

        rows = run_search_best(quick=True)
        assert rows
        for r in rows:
            assert r.search_epoch_s <= r.suggest_epoch_s + 1e-9
            assert r.improvement >= -1e-9
            assert r.frontier_size >= 1


class TestFastPathPlumbing:
    """Cache-key assembly, batched evaluation, and stage timings."""

    def test_cache_keys_unchanged_by_prefix_assembly(self, oracle, dataset):
        """The micro-contract: prefix+suffix assembly must produce the
        exact historical key strings (persisted caches depend on it)."""
        engine = SearchEngine(oracle, dataset, workers=1)
        cases = [
            Candidate("d", 4, batch=16),
            Candidate("p", 4, batch=16, segments=2),
            Candidate("df", 8, batch=32, p1=4, p2=2),
            Candidate("d", 4, batch=16, comm="auto"),
        ]
        for cand in cases:
            legacy_key = (
                f"{cand.sid}:p={cand.p}:b={cand.batch}"
                f":p1={cand.p1}:p2={cand.p2}:s={cand.segments}"
                f":comm={cand.comm or 'default'}"
            )
            assert cand.key == legacy_key
            assert engine._cache_key(cand) == (
                f"{legacy_key}@D={dataset.num_samples}")

    def test_candidate_key_is_memoized(self):
        cand = Candidate("d", 4, batch=16)
        assert "key" not in cand.__dict__
        first = cand.key
        assert cand.__dict__["key"] is first
        assert cand.key is first  # same object, not a rebuild

    def test_evaluate_many_matches_evaluate(self, oracle, dataset):
        candidates = list(SPACE.candidates(intra=2))
        one = SearchEngine(oracle, dataset, workers=1)
        singles = [one.evaluate(c) for c in candidates]
        many_engine = SearchEngine(oracle, dataset, workers=1)
        many = many_engine.evaluate_many(candidates)
        assert len(many) == len(singles)
        for a, b in zip(singles, many):
            assert a.candidate == b.candidate  # input order preserved
            assert a.feasible == b.feasible
            assert a.pruned == b.pruned
            assert a.reason == b.reason
            assert a.projection == b.projection

    def test_search_reports_stage_timings(self, oracle, dataset):
        engine = SearchEngine(oracle, dataset, workers=1)
        report = engine.search(SPACE, intra=2)
        from repro.search.engine import TIMING_STAGES

        assert set(TIMING_STAGES) <= set(report.timings)
        assert report.timings["total_s"] > 0
        assert report.timings["projection_s"] >= 0
        # The stages never exceed the total by more than jitter.
        known = sum(
            v for k, v in report.timings.items() if k != "total_s")
        assert known <= report.timings["total_s"] * 1.5
        # Timings deliberately stay off the stable JSON envelope.
        assert "timings" not in report.asdict()

    def test_timings_are_per_search_not_cumulative(self, oracle, dataset):
        engine = SearchEngine(oracle, dataset, workers=1)
        first = engine.search(SPACE, intra=2).timings
        second = engine.search(SPACE, intra=2).timings
        # The second (fully cached) search cannot have accumulated the
        # first one's projection time.
        assert second["projection_s"] <= max(
            first["projection_s"], 1e-9) * 1.5 + 1e-3

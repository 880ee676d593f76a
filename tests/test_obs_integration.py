"""Observability wired through the stack: engine, session, CLI.

The first class is the format pin: ``SearchReport.timings`` moved onto
the span layer in the observability refactor and must stay bit-for-bit
compatible — same keys, same order, plain floats.
"""

import json

import pytest

from repro.core.calibration import profile_model
from repro.core.oracle import ParaDL
from repro.data.datasets import DatasetSpec
from repro.network.topology import abci_like_cluster
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.search import SearchEngine, SearchSpace
from repro.search.engine import _MIN_VECTOR_BATCH, TIMING_STAGES


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


SPACE = SearchSpace(pe_budgets=(2, 4, 8), samples_per_pe=(1, 4),
                    segments=(2,))


class TestTimingsFormatPin:
    """``report.timings`` is now a view over spans — the shape must not
    have changed: exactly the :data:`TIMING_STAGES` keys, in that order,
    every value a non-negative float, with or without a live tracer."""

    def test_untraced_timings_identical_shape(self, oracle, dataset):
        report = SearchEngine(oracle, dataset, workers=1).search(SPACE)
        assert tuple(report.timings) == TIMING_STAGES
        assert all(type(v) is float and v >= 0.0
                   for v in report.timings.values())
        assert report.timings["total_s"] > 0

    def test_traced_timings_identical_shape(self, oracle, dataset):
        engine = SearchEngine(oracle, dataset, workers=1, tracer=Tracer())
        report = engine.search(SPACE)
        assert tuple(report.timings) == TIMING_STAGES
        assert all(type(v) is float and v >= 0.0
                   for v in report.timings.values())

    def test_timings_match_spans(self, oracle, dataset):
        tracer = Tracer()
        engine = SearchEngine(oracle, dataset, workers=1, tracer=tracer)
        report = engine.search(SPACE)
        by_name = {s.name: s for s in tracer.spans}
        assert report.timings["total_s"] == by_name["search"].duration
        assert (report.timings["expansion_s"]
                == by_name["search.expansion"].duration)
        assert (report.timings["ranking_s"]
                == by_name["search.ranking"].duration)


class TestEngineTracing:
    def test_span_taxonomy(self, oracle, dataset):
        tracer = Tracer()
        engine = SearchEngine(oracle, dataset, workers=1, tracer=tracer)
        engine.search(SPACE)
        names = {s.name for s in tracer.spans}
        expected = {
            "search", "search.expansion", "search.evaluate_chunk",
            "search.ranking", "search.persistence", "search.evaluate_batch",
        }
        batch = next(
            s for s in tracer.spans if s.name == "search.evaluate_batch")
        assert batch.attrs["candidates"] > 0
        assert names == expected
        root = next(s for s in tracer.spans if s.name == "search")
        assert root.parent_id is None
        assert all(s.parent_id is not None
                   for s in tracer.spans if s is not root)
        assert root.attrs["candidates"] == SPACE.count()

    def test_default_engine_uses_shared_null_tracer(self, oracle, dataset):
        engine = SearchEngine(oracle, dataset, workers=1)
        assert engine.tracer is NULL_TRACER
        engine.search(SPACE)
        assert len(NULL_TRACER) == 0

    def test_metrics_scraped_once_per_run(self, oracle, dataset):
        metrics = MetricsRegistry()
        engine = SearchEngine(oracle, dataset, workers=1, metrics=metrics)
        report = engine.search(SPACE)
        snap = metrics.snapshot()
        assert snap["search.candidates"]["value"] == SPACE.count()
        assert snap["search.feasible"]["value"] == report.stats["feasible"]
        assert snap["search.epoch_s"]["count"] == report.stats["feasible"]
        assert "cache.entries" in snap
        assert snap["search.vectorized_candidates"]["value"] > 0
        assert any(name.startswith("comm.selected.") for name in snap)
        stage = snap["search.stage.total_s"]
        assert stage["count"] == 1.0

    def test_scalar_path_metrics(self, oracle, dataset):
        """A chunk under ``_MIN_VECTOR_BATCH`` cache-miss survivors takes
        the one-candidate path: the choose-memo gauge returns and the
        fallback counter tallies."""
        space = SearchSpace(strategies=("d",), pe_budgets=(2, 4),
                            samples_per_pe=(4,))
        assert space.count() < _MIN_VECTOR_BATCH
        metrics = MetricsRegistry()
        engine = SearchEngine(oracle, dataset, workers=1, metrics=metrics)
        engine.search(space)
        snap = metrics.snapshot()
        assert "search.vectorized_candidates" not in snap
        assert snap["search.scalar_fallback_candidates"]["value"] > 0
        assert "comm.memo_hit_rate" in snap

    def test_search_results_identical_with_and_without_obs(
            self, oracle, dataset):
        plain = SearchEngine(oracle, dataset, workers=1).search(SPACE)
        traced = SearchEngine(
            oracle, dataset, workers=1, tracer=Tracer(),
            metrics=MetricsRegistry()).search(SPACE)
        assert plain.best.describe() == traced.best.describe()
        assert [e.describe() for e in plain.frontier] == [
            e.describe() for e in traced.frontier]
        assert plain.stats == traced.stats


class TestSessionDiagnostics:
    SCENARIO = {
        "model": {"name": "toy_cnn"},
        "cluster": {"pes": 4},
        "training": {"dataset": "imagenet", "samples_per_pe": 8},
        "search": {"segments": [2]},
    }

    def test_session_verb_spans(self):
        from repro.api.session import Session

        tracer = Tracer()
        session = Session(self.SCENARIO, tracer=tracer,
                          metrics=MetricsRegistry())
        session.project()
        session.search()
        names = {s.name for s in tracer.spans}
        assert {"session.project", "session.search", "search"} <= names
        diag = session.diagnostics()
        assert set(diag) == {"spans", "metrics"}
        assert diag["spans"]["session.search"] > 0
        assert diag["metrics"]["search.candidates"]["value"] > 0
        json.dumps(diag)

    def test_default_session_is_noop(self):
        from repro.api.session import Session

        session = Session(self.SCENARIO)
        assert session.tracer is NULL_TRACER
        session.project()
        assert session.diagnostics() == {"spans": {}, "metrics": {}}


class TestCliObservability:
    ARGS = ["--model", "toy_cnn", "-p", "4", "--samples-per-pe", "8",
            "--segments", "2"]

    def test_search_trace_and_metrics_json(self, tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "trace.json")
        rc = main(["search", *self.ARGS, "--trace", trace,
                   "--metrics", "--json"])
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert "diagnostics" in blob
        assert blob["diagnostics"]["metrics"]["search.candidates"][
            "value"] > 0
        events = json.loads(open(trace).read())["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert {"session.search", "search"} <= names
        assert any(e["ph"] == "C" for e in events)

    def test_json_envelope_stable_without_metrics(self, capsys):
        from repro.cli import main

        rc = main(["search", *self.ARGS, "--json"])
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert "diagnostics" not in blob

    def test_trace_jsonl_variant(self, tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "trace.jsonl")
        rc = main(["project", *self.ARGS[:6], "--trace", trace])
        assert rc == 0
        capsys.readouterr()
        rows = [json.loads(line) for line in open(trace)]
        assert any(r["event"] == "span" and r["name"] == "session.project"
                   for r in rows)

    def test_metrics_table_to_stderr(self, capsys):
        from repro.cli import main

        rc = main(["search", *self.ARGS, "--metrics"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "search.candidates" in err


class TestConfigureLogging:
    def test_levels_and_idempotence(self):
        import io
        import logging

        from repro.obs import configure_logging

        stream = io.StringIO()
        configure_logging(1, stream=stream)
        configure_logging(1, stream=stream)  # re-call must not stack
        logger = logging.getLogger("repro")
        try:
            assert logger.level == logging.INFO
            handlers = [h for h in logger.handlers
                        if getattr(h, "_repro_cli", False)]
            assert len(handlers) == 1
            logging.getLogger("repro.search.engine").info("hello %d", 1)
            assert "hello 1" in stream.getvalue()
            configure_logging(2, stream=stream)
            assert logger.level == logging.DEBUG
            configure_logging(0, stream=stream)
            assert logger.level == logging.WARNING
        finally:
            for h in list(logger.handlers):
                if getattr(h, "_repro_cli", False):
                    logger.removeHandler(h)

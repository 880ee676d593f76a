"""Tests for the multi-model sweep orchestrator (repro.search.sweep)
and its executor defaults."""

import csv
import json
import os

import pytest

from repro.api import Session
from repro.api.spec import ScenarioSpec, ScenarioValidationError
from repro.cli import main
from repro.core.calibration import profile_model
from repro.core.oracle import ParaDL
from repro.core.tensors import TensorSpec
from repro.data.datasets import DatasetSpec
from repro.models import toy_cnn
from repro.network.topology import abci_like_cluster
from repro.search import (
    EXECUTORS,
    SearchEngine,
    SearchSpace,
    SweepReport,
    SweepRunner,
    cache_file_for,
    context_fingerprint,
    plot_frontiers,
)


def _toy_oracle(channels=(8, 16), gamma=0.5):
    toy = toy_cnn(TensorSpec(4, (16, 16)), channels=channels)
    return ParaDL(toy, abci_like_cluster(8),
                  profile_model(toy, samples_per_pe=4), gamma=gamma)


@pytest.fixture(scope="module")
def oracle():
    return _toy_oracle()


@pytest.fixture(scope="module")
def dataset(oracle):
    return DatasetSpec(name="tiny", sample=oracle.model.input_spec,
                       num_samples=1024, num_classes=10)


@pytest.fixture(scope="module")
def space():
    return SearchSpace(pe_budgets=(8,), samples_per_pe=(4,), segments=(2,))


def _signature(report):
    """Order-independent identity of a search result."""
    return [
        (e.candidate.key, e.feasible, e.pruned, e.reason,
         e.projection.per_epoch.total if e.projection else None)
        for e in report.evaluations
    ]


class TestProcessExecutor:
    """The process executor is gone: every layer refuses ``"process"``
    with a pointer to its replacements, and every sweep entry point
    defaults to the thread executor."""

    def test_rejects_unknown_executor(self, oracle, dataset):
        assert EXECUTORS == ("thread", "remote")
        for name in ("mpi", "process"):
            with pytest.raises(ValueError, match="unknown executor"):
                SearchEngine(oracle, dataset, executor=name)

    def test_rejects_cache_and_cache_dir(self, oracle, dataset, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            SearchEngine(oracle, dataset, cache=str(tmp_path / "c.json"),
                         cache_dir=str(tmp_path))

    def test_scenario_rejects_process(self):
        with pytest.raises(ScenarioValidationError) as info:
            ScenarioSpec.from_dict({"search": {"executor": "process"}})
        assert info.value.field == "search.executor"
        assert "remote" in str(info.value)
        assert "repro worker" in str(info.value)

    def test_cli_rejects_process(self, capsys):
        assert main(["sweep", "--models", "alexnet", "-p", "8",
                     "--executor", "process"]) == 2
        err = capsys.readouterr().err
        assert "search.executor" in err and "remote" in err

    def test_sweep_runner_defaults_to_thread(self, dataset):
        assert SweepRunner(["alexnet"], dataset).executor == "thread"
        runner = SweepRunner.from_scenario(
            {"cluster": {"pes": 8}, "sweep": {"models": ["alexnet"]}})
        assert runner.executor == "thread"

    def test_session_sweep_defaults_to_thread(self, monkeypatch):
        executors = _record_executors(monkeypatch)
        Session({
            "cluster": {"pes": 8},
            "training": {"samples_per_pe": 4},
            "search": {"strategies": ["d"], "segments": [2]},
            "sweep": {"models": ["alexnet"]},
        }).sweep()
        assert executors == ["thread"]

    def test_cli_sweep_defaults_to_thread(self, capsys, monkeypatch):
        executors = _record_executors(monkeypatch)
        assert main(["sweep", "--models", "alexnet,vgg16", "-p", "8",
                     "--strategies", "d", "--segments", "2"]) == 0
        assert executors == ["thread", "thread"]
        assert "(thread executor," in capsys.readouterr().out


def _record_executors(monkeypatch):
    """Patch the sweep module's engine to log each per-model executor."""
    import repro.search.sweep as sweep_module

    executors = []

    class RecordingEngine(SearchEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            executors.append(self.executor)

    monkeypatch.setattr(sweep_module, "SearchEngine", RecordingEngine)
    return executors


class TestCacheDirectories:
    def test_files_isolated_per_model(self, dataset, space, tmp_path):
        a = _toy_oracle(channels=(8, 16))
        b = _toy_oracle(channels=(4, 8))
        cache_dir = str(tmp_path / "zoo")
        SearchEngine(a, dataset, cache_dir=cache_dir).search(space)
        SearchEngine(b, dataset, cache_dir=cache_dir).search(space)
        files = sorted(os.listdir(cache_dir))
        assert len(files) == 2
        # Each file records its own context and is individually warm.
        warm = SearchEngine(a, dataset, cache_dir=cache_dir).search(space)
        assert warm.stats["cache_misses"] == 0

    def test_fingerprint_change_starts_fresh_file(
            self, dataset, space, tmp_path):
        cache_dir = str(tmp_path / "zoo")
        SearchEngine(
            _toy_oracle(gamma=0.5), dataset, cache_dir=cache_dir,
        ).search(space)
        before = set(os.listdir(cache_dir))
        changed = SearchEngine(
            _toy_oracle(gamma=0.9), dataset, cache_dir=cache_dir)
        cold = changed.search(space)
        # The gamma change re-fingerprints: new file, cold cache, and the
        # old model's file is left untouched for its own future runs.
        assert cold.stats["cache_misses"] == cold.stats["candidates"]
        after = set(os.listdir(cache_dir))
        assert before < after and len(after) == 2

    def test_cache_file_for_names(self, tmp_path):
        ctx = context_fingerprint(_toy_oracle())
        path = cache_file_for(str(tmp_path), ctx)
        assert path.startswith(str(tmp_path))
        assert path.endswith(".json")
        assert os.path.basename(path).startswith("toy_cnn")
        # Deterministic, and sensitive to every fingerprint field.
        assert path == cache_file_for(str(tmp_path), ctx)
        assert path != cache_file_for(str(tmp_path), dict(ctx, gamma=0.9))


class TestSweepRunner:
    @pytest.fixture()
    def runner(self, dataset, tmp_path):
        return SweepRunner(
            ["small", "tiny"],
            dataset,
            pes=8,
            samples_per_pe=4,
            strategies=("d", "z", "df"),
            segments=(2,),
            executor="thread",
            cache_dir=str(tmp_path / "cache"),
            oracle_factory=lambda name: _toy_oracle(
                channels=(8, 16) if name == "small" else (4, 8)),
        )

    def test_validates_inputs(self, dataset):
        with pytest.raises(ValueError, match="at least one model"):
            SweepRunner([], dataset)
        with pytest.raises(ValueError, match="duplicate"):
            SweepRunner(["a", "a"], dataset)

    def test_run_produces_per_model_results(self, runner):
        report = runner.run()
        assert [r.model for r in report.results] == ["small", "tiny"]
        assert all(r.best is not None for r in report.results)
        assert report.result_for("tiny").model == "tiny"
        with pytest.raises(KeyError):
            report.result_for("missing")
        assert report.best_overall in report.results
        rows = report.summary_rows()
        assert [row["model"] for row in rows] == ["small", "tiny"]
        assert all(row["epoch_s"] > 0 for row in rows)

    def test_streaming_callbacks(self, runner):
        seen = []
        finished = []
        runner.run(
            on_result=lambda model, e: seen.append((model, e.candidate.key)),
            on_model=lambda model, r: finished.append(model),
        )
        assert finished == ["small", "tiny"]
        assert {m for m, _ in seen} == {"small", "tiny"}
        per_model = sum(1 for m, _ in seen if m == "small")
        assert per_model == runner.space.count()

    def test_warm_rerun_projects_nothing(self, runner):
        runner.run()
        warm = runner.run()
        for result in warm.results:
            assert result.report.stats["cache_misses"] == 0
            assert result.cache_file is not None
            assert os.path.exists(result.cache_file)

    def test_write_report_artifacts(self, runner, tmp_path):
        report = runner.run()
        out = str(tmp_path / "report")
        artifacts = report.write_report(out)
        assert set(artifacts) == {
            "frontier_small", "frontier_tiny", "summary"}
        with open(artifacts["summary"]) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["model"] for r in rows] == ["small", "tiny"]
        with open(artifacts["frontier_small"]) as fh:
            frontier = list(csv.DictReader(fh))
        assert len(frontier) == len(
            report.result_for("small").report.frontier)
        assert frontier[0]["rank"] == "1"
        # asdict is JSON-serializable (the CLI's --json path).
        json.dumps(report.asdict())

    def test_plot_is_soft_gated(self, runner, tmp_path):
        report = runner.run()
        png = plot_frontiers(report, str(tmp_path / "f.png"))
        try:
            import matplotlib  # noqa: F401
        except ImportError:
            assert png is None
        else:
            assert png is not None and os.path.exists(png)


class TestSweepRunnerStandalone:
    """A directly constructed runner (the engine-level API examples and
    benchmarks use): run, then write the report."""

    def test_run_then_write_report(self, dataset, tmp_path):
        runner = SweepRunner(
            ["small"],
            dataset,
            pes=8,
            samples_per_pe=4,
            strategies=("d", "z"),
            segments=(2,),
            executor="thread",
            cache_dir=str(tmp_path / "cache"),
            oracle_factory=lambda name: _toy_oracle(),
        )
        report = runner.run()
        report.write_report(str(tmp_path / "report"))
        assert isinstance(report, SweepReport)
        assert report.results[0].best is not None
        assert os.path.exists(str(tmp_path / "report" / "summary.csv"))

    def test_comm_policy_dimension(self, dataset, tmp_path):
        report = SweepRunner(
            ["small"],
            dataset,
            pes=8,
            samples_per_pe=4,
            strategies=("d",),
            segments=(2,),
            comm_policies=("paper", "auto"),
            executor="thread",
            oracle_factory=lambda name: _toy_oracle(),
        ).run()
        policies = {
            e.candidate.comm
            for e in report.results[0].report.evaluations
        }
        assert policies == {"paper", "auto"}

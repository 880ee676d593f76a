"""Tests for the Session facade and result objects (repro.api)."""

import pytest

from repro.api import (
    SCHEMA_VERSION,
    Scenario,
    ScenarioValidationError,
    Session,
)

QUICK = {
    "model": {"name": "alexnet"},
    "cluster": {"pes": 8},
    "training": {"samples_per_pe": 4},
}


@pytest.fixture(scope="module")
def session():
    return Session(Scenario.from_dict(dict(QUICK, strategy={"id": "d"})))


class TestLazyConstruction:
    def test_accepts_dict_path_and_spec(self, tmp_path):
        spec = Scenario.from_dict(QUICK)
        path = str(tmp_path / "s.json")
        spec.to_file(path)
        assert Session(spec).scenario == spec
        assert Session(dict(QUICK)).scenario == spec
        assert Session(path).scenario == spec

    def test_objects_are_cached(self, session):
        assert session.model is session.model
        assert session.cluster is session.cluster
        assert session.profile is session.profile
        assert session.comm is session.comm
        assert session.oracle is session.oracle
        assert session.projection_cache is session.projection_cache

    def test_oracle_shares_the_session_comm_model(self, session):
        assert session.oracle.comm is session.comm
        assert session.oracle.scenario is session.scenario

    def test_batch_resolution(self, session):
        assert session.batch == 4 * 8
        explicit = Session(Scenario.from_dict(
            dict(QUICK, training={"samples_per_pe": 4, "batch": 99})))
        assert explicit.batch == 99


class TestVerbs:
    def test_project_envelope(self, session):
        result = session.project()
        blob = result.to_dict()
        assert blob["schema_version"] == SCHEMA_VERSION
        assert blob["kind"] == "project"
        assert blob["scenario"] == session.scenario.to_dict()
        assert blob["model"] == "alexnet"
        assert blob["feasible"] is True
        assert result.exit_code == 0

    def test_project_findings(self, session):
        result = session.project(findings=True)
        assert isinstance(result.findings, tuple)
        if result.findings:
            assert "findings" in result.to_dict()

    def test_suggest(self, session):
        result = session.suggest()
        blob = result.to_dict()
        assert blob["kind"] == "suggest"
        assert any(e["feasible"] for e in blob["entries"])
        assert result.feasible[0].rank == 1

    def test_hybrid(self, session):
        result = session.hybrid(kinds=("df",), top=3)
        blob = result.to_dict()
        assert blob["kind"] == "hybrid"
        assert blob["kinds"] == ["df"]
        assert len(blob["entries"]) <= 3

    def test_search(self):
        session = Session(Scenario.from_dict(dict(
            QUICK, search={"strategies": ["d", "z"], "segments": [2]})))
        result = session.search()
        blob = result.to_dict()
        assert blob["kind"] == "search"
        assert blob["stats"]["candidates"] > 0
        assert blob["best"]["feasible"] is True
        assert result.exit_code == 0

    def test_search_honors_explicit_batch(self):
        session = Session(Scenario.from_dict(dict(
            QUICK, training={"batch": 64},
            search={"strategies": ["d", "f"], "segments": [2]})))
        result = session.search()
        batches = {e.candidate.batch
                   for e in result.report.evaluations if e.feasible}
        assert batches == {64}  # weak AND strong scalers pinned

    def test_sweep_honors_explicit_batch_like_search(self):
        doc = {
            "cluster": {"pes": 8},
            "training": {"samples_per_pe": 4, "batch": 64},
            "search": {"strategies": ["d", "f"], "segments": [2],
                       "executor": "thread"},
        }
        search_best = Session(Scenario.from_dict(doc)).search().report.best
        sweep = Session(Scenario.from_dict(dict(
            doc, model={"name": "resnet50"},
            sweep={"models": ["resnet50"]}))).sweep()
        sweep_best = sweep.report.results[0].best
        assert sweep_best.candidate.batch == 64
        # Same document, same costing, either entry point.
        assert sweep_best.epoch_time == search_best.epoch_time

    def test_search_repeat_is_warm(self):
        session = Session(Scenario.from_dict(dict(
            QUICK, search={"strategies": ["d", "z"], "segments": [2]})))
        first = session.search()
        again = session.search()
        assert again.report.stats["cache_misses"] == 0
        assert first.report.best.candidate == again.report.best.candidate

    def test_search_multi_policy_binds_paper_oracle(self):
        session = Session(Scenario.from_dict(dict(
            QUICK,
            comm={"policy": "auto"},
            search={"strategies": ["d"], "segments": [2],
                    "comm_policies": ["paper", "auto"]})))
        result = session.search()
        policies = {e.projection.comm_policy
                    for e in result.report.evaluations if e.feasible}
        assert policies == {"paper", "auto"}

    def test_search_single_policy_binds_that_policy(self):
        session = Session(Scenario.from_dict(dict(
            QUICK, search={"strategies": ["d"], "segments": [2],
                           "comm_policies": ["auto"]})))
        result = session.search()
        assert all(e.projection.comm_policy == "auto"
                   for e in result.report.evaluations if e.feasible)

    def test_single_policy_binding_renderings(self):
        """A single search policy other than ``comm.policy`` binds per
        entry point: a search binds its oracle to the policy, so the
        candidate carries none; a sweep pins it on every candidate.
        Same costing either way, different renderings (left as is: the
        envelopes are byte-pinned)."""
        doc = {"model": {"name": "alexnet"}, "cluster": {"pes": 16},
               "search": {"strategies": ["d"], "comm_policies": ["auto"]}}
        search = Session(Scenario.from_dict(doc)).search().to_dict()
        sweep = Session(Scenario.from_dict(dict(
            doc, sweep={"models": ["alexnet"]}))).sweep().to_dict()
        assert search["best"]["candidate"] == "d(p=16, B=512)"
        assert sweep["summary"][0]["best"] == "d(p=16) B=512 comm=auto"
        swept = sweep["results"]["alexnet"]["best"]
        assert swept["candidate"] == "d(p=16, B=512, comm=auto)"
        assert search["best"]["comm_policy"] == swept["comm_policy"] == \
            "auto"
        assert search["best"]["epoch_s"] == swept["epoch_s"]

    def test_sweep(self):
        session = Session(Scenario.from_dict({
            "cluster": {"pes": 8},
            "training": {"samples_per_pe": 4},
            "search": {"strategies": ["d", "z"], "segments": [2],
                       "executor": "thread"},
            "sweep": {"models": ["alexnet", "vgg16"]},
        }))
        result = session.sweep()
        blob = result.to_dict()
        assert blob["kind"] == "sweep"
        assert blob["models"] == ["alexnet", "vgg16"]
        assert result.exit_code == 0

    def test_simulate(self, session):
        result = session.simulate(iterations=3)
        blob = result.to_dict()
        assert blob["kind"] == "simulate"
        assert 0.0 < blob["accuracy"] <= 1.0
        assert blob["oracle"]["total"] > 0


class TestIntegrationSeams:
    def test_paradl_from_scenario(self):
        from repro import ParaDL

        oracle = ParaDL.from_scenario(dict(QUICK))
        assert oracle.model.name == "alexnet"
        assert oracle.scenario.cluster.pes == 8

    def test_paradl_legacy_ctor_derives_scenario(self):
        from repro import ParaDL, abci_like_cluster, profile_model
        from repro.models import build_model

        model = build_model("alexnet")
        oracle = ParaDL(model, abci_like_cluster(8), profile_model(model, 4))
        assert oracle.scenario is not None
        assert oracle.scenario.model.name == "alexnet"
        assert oracle.scenario.cluster.pes == 8

    def test_paradl_custom_model_has_no_scenario(self, toy2d):
        from repro import ParaDL, abci_like_cluster, profile_model
        from repro.core.graph import ModelGraph

        bespoke = ModelGraph("bespoke", toy2d.layers)  # not a zoo name
        oracle = ParaDL(bespoke, abci_like_cluster(4),
                        profile_model(bespoke, 2))
        assert oracle.scenario is None

    def test_sweep_runner_binds_the_scenario_comm_policy(self):
        from repro.search.sweep import SweepRunner

        runner = SweepRunner.from_scenario({
            "cluster": {"pes": 8},
            "training": {"samples_per_pe": 4},
            "comm": {"policy": "nccl-like"},
            "search": {"strategies": ["d"], "segments": [2],
                       "executor": "thread"},
            "sweep": {"models": ["alexnet"]},
        })
        assert runner.comm_model.policy == "nccl-like"
        report = runner.run()
        best = report.results[0].best
        assert best.projection.comm_policy == "nccl-like"

    def test_sweep_runner_policy_dimension_keeps_paper_oracle(self):
        from repro.search.sweep import SweepRunner

        runner = SweepRunner.from_scenario({
            "cluster": {"pes": 8},
            "training": {"samples_per_pe": 4},
            "comm": {"policy": "nccl-like"},
            "search": {"strategies": ["d"], "segments": [2],
                       "executor": "thread",
                       "comm_policies": ["paper", "auto"]},
            "sweep": {"models": ["alexnet"]},
        })
        # Candidates pin their own policy; the oracle stays canonical.
        assert runner.comm_model.policy == "paper"
        report = runner.run()
        policies = {e.projection.comm_policy
                    for e in report.results[0].report.evaluations
                    if e.feasible}
        assert policies == {"paper", "auto"}

    def test_simulate_shares_the_scenario_comm_model(self):
        session = Session(Scenario.from_dict(dict(
            QUICK, comm={"policy": "nccl-like"}, strategy={"id": "d"})))
        result = session.simulate(iterations=2)
        assert result.projection.comm_policy == "nccl-like"
        # High accuracy is only possible when both sides cost the same
        # comm model; a policy mismatch would skew the metric.
        assert result.accuracy > 0.9

    def test_sweep_runner_from_scenario(self):
        from repro.search.sweep import SweepRunner

        runner = SweepRunner.from_scenario({
            "cluster": {"pes": 8},
            "training": {"samples_per_pe": 4},
            "search": {"strategies": ["d"], "segments": [2],
                       "executor": "thread"},
            "sweep": {"models": ["alexnet"]},
        })
        assert runner.models == ("alexnet",)
        assert runner.pes == 8
        assert runner.executor == "thread"
        report = runner.run()
        assert report.results[0].best is not None

    def test_sweep_runner_policy_dimension_keeps_algo_forcing(self):
        from repro.search.sweep import SweepRunner

        runner = SweepRunner.from_scenario({
            "cluster": {"pes": 8},
            "training": {"samples_per_pe": 4},
            "comm": {"algo": {"allreduce": "tree"}},
            "search": {"strategies": ["d"], "segments": [2],
                       "executor": "thread",
                       "comm_policies": ["paper", "auto"]},
            "sweep": {"models": ["alexnet"]},
        })
        # The policy dimension opens, but forcing still applies — same
        # costing the single-model search path produces.
        assert runner.comm_model.policy == "paper"
        assert runner.comm_model.algo == {"allreduce": "tree"}
        report = runner.run()
        best = report.results[0].best
        assert ("ge", "allreduce:tree") in best.projection.comm_algorithms

    def test_paradl_nondefault_knobs_have_no_scenario(self):
        from repro import ParaDL, abci_like_cluster, profile_model
        from repro.models import build_model

        model = build_model("alexnet")
        cluster = abci_like_cluster(8)
        profile = profile_model(model, 4)
        assert ParaDL(model, cluster, profile,
                      contention=False).scenario is None
        assert ParaDL(model, cluster, profile, delta=2).scenario is None

    def test_run_scenario_on_result_is_single_arg_for_both(self):
        from repro.harness import run_scenario

        seen = []
        doc = {"cluster": {"pes": 8}, "training": {"samples_per_pe": 4},
               "search": {"strategies": ["d"], "segments": [2],
                          "executor": "thread"}}
        run_scenario(doc, on_result=seen.append)
        searched = len(seen)
        assert searched > 0
        run_scenario(dict(doc, sweep={"models": ["alexnet"]}),
                     on_result=seen.append)
        assert len(seen) > searched  # same 1-arg callback, no TypeError

    def test_harness_run_scenario_dispatch(self):
        from repro.harness import run_scenario

        project = run_scenario(dict(QUICK, strategy={"id": "d"}))
        assert project.kind == "project"
        search = run_scenario(dict(
            QUICK, search={"strategies": ["d"], "segments": [2]}))
        assert search.kind == "search"
        sweep = run_scenario({
            "cluster": {"pes": 8},
            "training": {"samples_per_pe": 4},
            "search": {"strategies": ["d"], "segments": [2],
                       "executor": "thread"},
            "sweep": {"models": ["alexnet"]},
        })
        assert sweep.kind == "sweep"

    def test_invalid_scenario_raises_from_session(self):
        with pytest.raises(ScenarioValidationError):
            Session({"cluster": {"pes": -4}})


class TestExampleScenarios:
    """The shipped examples/scenarios/ documents stay valid and runnable."""

    def test_all_examples_validate(self):
        import glob
        import os

        pytest.importorskip("yaml")
        pattern = os.path.join(os.path.dirname(__file__), os.pardir,
                               "examples", "scenarios", "*.yaml")
        paths = sorted(glob.glob(pattern))
        assert len(paths) >= 3
        for path in paths:
            spec = Scenario.from_file(path)
            assert spec.schema_version == SCHEMA_VERSION

    def test_project_example_runs(self):
        import os

        pytest.importorskip("yaml")
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples", "scenarios",
                            "project_resnet50.yaml")
        result = Session(path).project()
        assert result.exit_code == 0
        assert result.to_dict()["scenario"]["name"] == "resnet50-data-parallel"

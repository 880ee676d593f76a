"""Comm policy as a search dimension + anytime search CLI surfaces."""

import json
import os

import pytest

from repro.core.calibration import profile_model
from repro.core.oracle import ParaDL
from repro.data import IMAGENET
from repro.models import toy_cnn
from repro.network.topology import abci_like_cluster
from repro.search import (
    CACHE_VERSION,
    Candidate,
    ProjectionCache,
    SearchEngine,
    SearchSpace,
    context_fingerprint,
)


@pytest.fixture(scope="module")
def oracle():
    model = toy_cnn()
    cluster = abci_like_cluster(16)
    profile = profile_model(model, samples_per_pe=8)
    return ParaDL(model, cluster, profile)


class TestSpaceCommDimension:
    def test_candidate_key_carries_policy(self):
        a = Candidate("d", 16, 512)
        b = Candidate("d", 16, 512, comm="auto")
        assert a.key != b.key
        assert "comm=auto" in b.key
        assert "comm=auto" in b.describe()

    def test_expansion_multiplies_by_policies(self):
        base = SearchSpace(strategies=("d",), pe_budgets=(8,))
        swept = SearchSpace(strategies=("d",), pe_budgets=(8,),
                            comm_policies=("paper", "auto"))
        assert swept.count() == 2 * base.count()
        policies = {c.comm for c in swept.candidates()}
        assert policies == {"paper", "auto"}

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown comm policies"):
            SearchSpace(strategies=("d",), comm_policies=("fastest",))


class TestEngineCommDimension:
    def test_per_candidate_policy_drives_projection(self, oracle):
        engine = SearchEngine(oracle, IMAGENET)
        paper = engine.evaluate(Candidate("d", 16, 512, comm="paper"))
        auto = engine.evaluate(Candidate("d", 16, 512, comm="auto"))
        assert paper.projection.comm_policy == "paper"
        assert auto.projection.comm_policy == "auto"
        assert auto.projection.per_epoch.communication <= \
            paper.projection.per_epoch.communication * (1 + 1e-12)

    def test_search_with_comm_sweep(self, oracle):
        report = SearchEngine(oracle, IMAGENET).search(SearchSpace(
            strategies=("d", "z"), pe_budgets=(16,),
            comm_policies=("paper", "auto")))
        policies = {
            e.projection.comm_policy for e in report.evaluations if e.feasible
        }
        assert policies == {"paper", "auto"}
        # Swept candidates stay distinguishable in human-readable output.
        described = {e.describe() for e in report.evaluations if e.feasible}
        assert any("comm=auto" in d for d in described)
        assert len(described) == sum(1 for e in report.evaluations
                                     if e.feasible)
        # --json surfaces the chosen algorithm per phase.
        best_row = report.best.asdict()
        assert "comm_policy" in best_row
        assert best_row["comm_algorithms"]

    def test_on_result_callback_sees_every_evaluation(self, oracle):
        seen = []
        report = SearchEngine(oracle, IMAGENET).search(
            SearchSpace(strategies=("d", "s"), pe_budgets=(16,)),
            on_result=seen.append)
        assert len(seen) == len(report.evaluations)


class TestCommOverrideResolution:
    def test_policy_override_preserves_forced_algos_and_threshold(self):
        from repro.collectives import CommModel

        model = toy_cnn()
        cluster = abci_like_cluster(16)
        profile = profile_model(model, samples_per_pe=8)
        bound = CommModel(cluster, "paper", algo={"broadcast": "binomial-tree"},
                          tree_threshold=123456.0)
        oracle = ParaDL(model, cluster, profile, comm=bound)
        resolved = oracle.analytical._resolve_comm("nccl-like")
        assert resolved.policy == "nccl-like"
        assert resolved.tree_threshold == 123456.0
        assert resolved.algo == bound.algo


class TestCacheCommAwareness:
    def test_fingerprint_includes_comm(self, oracle):
        fp = context_fingerprint(oracle)
        assert fp["comm"] == oracle.comm.fingerprint()

    def test_policy_change_invalidates_persisted_cache(self, oracle,
                                                       tmp_path):
        path = str(tmp_path / "cache.json")
        engine = SearchEngine(oracle, IMAGENET, cache=path)
        engine.search(SearchSpace(strategies=("d",), pe_budgets=(16,)))
        assert os.path.exists(path)
        # Same policy -> warm.
        warm = SearchEngine(oracle, IMAGENET, cache=path)
        assert len(warm.cache) > 0 and not warm.cache.invalidated
        # Different policy -> cold.
        model = oracle.model
        auto_oracle = ParaDL(model, oracle.cluster, oracle.profile,
                             comm="auto")
        cold = SearchEngine(auto_oracle, IMAGENET, cache=path)
        assert cold.cache.invalidated and len(cold.cache) == 0

    def test_roundtrip_preserves_comm_metadata(self, oracle, tmp_path):
        path = str(tmp_path / "cache.json")
        engine = SearchEngine(oracle, IMAGENET, cache=path)
        cand = Candidate("d", 16, 512, comm="auto")
        first = engine.evaluate(cand)
        engine.cache.save()
        with open(path) as fh:
            blob = json.load(fh)
        assert blob["version"] == CACHE_VERSION == 2
        warm_engine = SearchEngine(oracle, IMAGENET, cache=path)
        cached = warm_engine.evaluate(cand)
        assert cached.cached
        assert cached.projection.comm_policy == "auto"
        assert cached.projection.comm_algorithms == \
            first.projection.comm_algorithms

    def test_version_1_files_discarded(self, oracle, tmp_path):
        path = str(tmp_path / "cache.json")
        with open(path, "w") as fh:
            json.dump({"version": 1,
                       "context": context_fingerprint(oracle),
                       "entries": {"bogus": {"error": "x"}}}, fh)
        cache = ProjectionCache(path, context=context_fingerprint(oracle))
        assert cache.invalidated and len(cache) == 0


class TestCliAnytimeSearch:
    def test_stream_prints_incremental_frontier_rows(self, capsys):
        from repro.cli import main

        rc = main(["search", "--model", "alexnet", "-p", "8",
                   "--strategies", "d,z,s", "--stream"])
        out = capsys.readouterr().out
        assert rc == 0
        stream_rows = [l for l in out.splitlines()
                       if l.startswith("[") and "frontier" in l]
        assert stream_rows  # at least one row appeared before the table
        assert "best:" in out

    def test_frontier_csv_export(self, tmp_path, capsys):
        from repro.cli import main

        csv_path = str(tmp_path / "frontier.csv")
        rc = main(["search", "--model", "alexnet", "-p", "8",
                   "--strategies", "d,z", "--frontier-csv", csv_path])
        assert rc == 0
        with open(csv_path) as fh:
            lines = [l.strip() for l in fh if l.strip()]
        assert lines[0].startswith("rank,config,strategy,p,")
        assert len(lines) >= 2
        assert "comm_algorithms" in lines[0]

    def test_comm_policy_sweep_flag(self, capsys):
        from repro.cli import main

        rc = main(["search", "--model", "alexnet", "-p", "8",
                   "--strategies", "d", "--comm-policy", "paper,auto",
                   "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        blob = json.loads(out)
        assert blob["best"]["comm_policy"] in ("paper", "auto")

    def test_sweep_cache_warm_regardless_of_policy_order(self, tmp_path,
                                                         capsys):
        from repro.cli import main

        cache = str(tmp_path / "c.json")
        base = ["search", "--model", "alexnet", "-p", "8",
                "--strategies", "d", "--cache", cache, "--json"]
        main(base + ["--comm-policy", "paper,auto"])
        capsys.readouterr()
        rc = main(base + ["--comm-policy", "auto,paper"])
        blob = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert blob["stats"]["cache_misses"] == 0

    def test_bad_comm_policy_fails_cleanly(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["project", "--model", "alexnet", "-p", "8",
                  "--comm-policy", "warp"])
        assert exc.value.code == 2

    def test_policy_list_rejected_outside_search(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["suggest", "--model", "alexnet", "-p", "8",
                  "--comm-policy", "paper,auto"])
        assert exc.value.code == 2
        assert "only 'search'" in capsys.readouterr().err

    def test_stream_with_json_keeps_stdout_parseable(self, capsys):
        from repro.cli import main

        rc = main(["search", "--model", "alexnet", "-p", "8",
                   "--strategies", "d,z", "--stream", "--json"])
        captured = capsys.readouterr()
        assert rc == 0
        blob = json.loads(captured.out)  # stdout is pure JSON
        assert blob["best"] is not None
        assert "frontier" in captured.err  # rows streamed to stderr

    def test_comm_algo_flag_forces_algorithm(self, capsys):
        from repro.cli import main

        rc = main(["project", "--model", "alexnet", "--strategy", "d",
                   "-p", "16", "--comm-algo", "recursive-doubling",
                   "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        blob = json.loads(out)
        assert blob["comm_algorithms"]["ge"] == "allreduce:recursive-doubling"

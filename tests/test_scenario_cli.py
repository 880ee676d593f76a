"""CLI --scenario integration: golden equivalence + unified JSON."""

import json

import pytest

from repro.cli import main

QUICK_DOC = {
    "model": {"name": "alexnet"},
    "cluster": {"pes": 8},
    "training": {"samples_per_pe": 4},
}


def _write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestGoldenEquivalence:
    """Scenario-built and flag-built runs are bit-for-bit identical."""

    def test_project_json_matches_flags(self, tmp_path, capsys):
        """The acceptance contract, under the paper policy."""
        doc = dict(QUICK_DOC, strategy={"id": "d", "segments": 4},
                   comm={"policy": "paper"})
        rc = main(["project", "--scenario", _write(tmp_path, doc), "--json"])
        from_scenario = capsys.readouterr().out
        assert rc == 0
        rc = main(["project", "--model", "alexnet", "-p", "8",
                   "--samples-per-pe", "4", "--strategy", "d",
                   "--comm-policy", "paper", "--json"])
        from_flags = capsys.readouterr().out
        assert rc == 0
        assert from_scenario == from_flags

    def test_project_text_matches_flags(self, tmp_path, capsys):
        doc = dict(QUICK_DOC, strategy={"id": "d"})
        rc = main(["project", "--scenario", _write(tmp_path, doc)])
        from_scenario = capsys.readouterr().out
        assert rc == 0
        rc = main(["project", "--model", "alexnet", "-p", "8",
                   "--samples-per-pe", "4", "--strategy", "d"])
        from_flags = capsys.readouterr().out
        assert rc == 0
        assert from_scenario == from_flags

    def test_search_json_matches_flags(self, tmp_path, capsys):
        doc = dict(QUICK_DOC,
                   search={"strategies": ["d", "z"], "segments": [2]})
        rc = main(["search", "--scenario", _write(tmp_path, doc), "--json"])
        from_scenario = capsys.readouterr().out
        assert rc == 0
        rc = main(["search", "--model", "alexnet", "-p", "8",
                   "--samples-per-pe", "4", "--strategies", "d,z",
                   "--segments", "2", "--json"])
        from_flags = capsys.readouterr().out
        assert rc == 0
        assert from_scenario == from_flags

    def test_suggest_json_matches_flags(self, tmp_path, capsys):
        rc = main(["suggest", "--scenario", _write(tmp_path, QUICK_DOC),
                   "--json"])
        from_scenario = capsys.readouterr().out
        assert rc == 0
        rc = main(["suggest", "--model", "alexnet", "-p", "8",
                   "--samples-per-pe", "4", "--json"])
        from_flags = capsys.readouterr().out
        assert rc == 0
        assert from_scenario == from_flags


class TestFlagOverrides:
    def test_explicit_flag_overrides_scenario_field(self, tmp_path, capsys):
        doc = dict(QUICK_DOC, strategy={"id": "d"})
        path = _write(tmp_path, doc)
        rc = main(["project", "--scenario", path, "-p", "16", "--json"])
        blob = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert blob["scenario"]["cluster"]["pes"] == 16
        assert blob["batch"] == 4 * 16  # samples_per_pe from the file

    def test_unset_flags_do_not_override(self, tmp_path, capsys):
        # --model's argparse default (resnet50) must NOT clobber the file.
        doc = dict(QUICK_DOC, strategy={"id": "d"})
        rc = main(["project", "--scenario", _write(tmp_path, doc), "--json"])
        blob = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert blob["model"] == "alexnet"

    def test_strategy_override(self, tmp_path, capsys):
        doc = dict(QUICK_DOC, strategy={"id": "d"})
        rc = main(["project", "--scenario", _write(tmp_path, doc),
                   "--strategy", "z", "--json"])
        blob = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert blob["strategy"].startswith("z(")

    def test_bad_scenario_file_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, {"model": {"name": "nope"}})
        rc = main(["project", "--scenario", path])
        assert rc == 2
        assert "unknown model" in capsys.readouterr().err

    def test_missing_scenario_file_exits_2(self, capsys):
        rc = main(["project", "--scenario", "does/not/exist.yaml"])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_lazy_document_defect_is_error_not_infeasible(
            self, tmp_path, capsys):
        # Bad layer geometry surfaces during lazy model construction —
        # it must render as a document error, not a planning answer.
        doc = {"model": {"input": {"channels": 3, "spatial": [4, 4]},
                         "layers": [{"kind": "conv", "out": 4,
                                     "kernel": 9}]},
               "cluster": {"pes": 4}, "strategy": {"id": "d"}}
        rc = main(["project", "--scenario", _write(tmp_path, doc), "--json"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out.strip() == ""  # no fake result document
        assert "model.layers[0]" in captured.err


class TestSweepSearchParity:
    """A sweep searches each model's space exactly as ``repro search``
    searches it on that model."""

    def test_exhaustive_sweep_matches_search_candidate_counts(self,
                                                              capsys):
        flags = ["-p", "16", "--strategies", "d,df", "--segments", "2",
                 "--exhaustive", "--json"]
        assert main(["sweep", "--models", "alexnet,vgg16"] + flags) == 0
        sweep = json.loads(capsys.readouterr().out)
        for model in ("alexnet", "vgg16"):
            assert main(["search", "--model", model] + flags) == 0
            search = json.loads(capsys.readouterr().out)
            want = search["stats"]["candidates"]
            assert sweep["results"][model]["stats"]["candidates"] == want
            # The exhaustive lattice is wider than the budget ladder.
            assert want > 10


class TestUnifiedJson:
    """Every --json payload is a schema-versioned result envelope."""

    def test_envelope_on_every_subcommand(self, capsys):
        invocations = {
            "project": ["project", "--model", "alexnet", "-p", "8",
                        "--samples-per-pe", "4", "--json"],
            "suggest": ["suggest", "--model", "alexnet", "-p", "8",
                        "--samples-per-pe", "4", "--json"],
            "hybrid": ["hybrid", "--model", "alexnet", "-p", "8",
                       "--samples-per-pe", "4", "--json"],
            "search": ["search", "--model", "alexnet", "-p", "8",
                       "--samples-per-pe", "4", "--strategies", "d",
                       "--segments", "2", "--json"],
            "sweep": ["sweep", "--models", "alexnet", "-p", "8",
                      "--samples-per-pe", "4", "--strategies", "d",
                      "--segments", "2", "--executor", "thread", "--json"],
            "simulate": ["simulate", "--model", "alexnet", "-p", "8",
                         "--samples-per-pe", "4", "--iterations", "2",
                         "--json"],
        }
        for kind, argv in invocations.items():
            rc = main(argv)
            blob = json.loads(capsys.readouterr().out)
            assert rc == 0, kind
            assert blob["schema_version"] == 1, kind
            assert blob["kind"] == kind
            assert "scenario" in blob, kind
            assert blob["scenario"]["schema_version"] == 1, kind

    def test_explicit_single_policy_clears_file_policy_sweep(
            self, tmp_path, capsys):
        # A pinned --comm-policy must win over the file's multi-policy
        # dimension, not silently coexist with it.
        doc = dict(QUICK_DOC,
                   search={"strategies": ["d"], "segments": [2],
                           "comm_policies": ["paper", "auto"]})
        rc = main(["search", "--scenario", _write(tmp_path, doc),
                   "--comm-policy", "auto", "--json"])
        blob = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert blob["scenario"]["comm"]["policy"] == "auto"
        assert "comm_policies" not in blob["scenario"]["search"]
        assert blob["best"]["comm_policy"] == "auto"

    def test_simulate_json_error_envelope(self, capsys):
        rc = main(["simulate", "--model", "resnet50", "--strategy", "f",
                   "-p", "128", "--batch", "32", "--json"])
        blob = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert blob["feasible"] is False and "error" in blob
        assert blob["kind"] == "simulate"

    def test_bad_segments_flag_is_a_clean_error(self, capsys):
        rc = main(["search", "--model", "alexnet", "-p", "8",
                   "--segments", "two"])
        assert rc == 2
        assert "search.segments" in capsys.readouterr().err

    def test_bad_weights_flag_is_a_clean_error(self, capsys):
        rc = main(["search", "--model", "alexnet", "-p", "8",
                   "--weights", "epoch_time=fast"])
        assert rc == 2
        assert "search.weights" in capsys.readouterr().err

    def test_scenario_echo_reflects_overrides(self, capsys):
        rc = main(["search", "--model", "alexnet", "-p", "8",
                   "--samples-per-pe", "4", "--strategies", "d",
                   "--segments", "2", "--comm-policy", "paper,auto",
                   "--json"])
        blob = json.loads(capsys.readouterr().out)
        assert rc == 0
        echo = blob["scenario"]
        assert echo["search"]["comm_policies"] == ["paper", "auto"]
        assert echo["search"]["strategies"] == ["d"]

    def test_infeasible_project_keeps_envelope(self, capsys):
        rc = main(["project", "--model", "resnet50", "--strategy", "f",
                   "-p", "128", "--batch", "32", "--json"])
        blob = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert blob["feasible"] is False and "error" in blob
        assert blob["schema_version"] == 1
        assert "scenario" in blob


class TestValidateScenario:
    def test_valid_files_exit_zero(self, tmp_path, capsys):
        a = _write(tmp_path, QUICK_DOC, "a.json")
        b = _write(tmp_path, dict(QUICK_DOC, name="b"), "b.json")
        rc = main(["validate", "--scenario", a, b])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("OK") == 2

    def test_invalid_file_exits_one_and_names_field(self, tmp_path, capsys):
        good = _write(tmp_path, QUICK_DOC, "good.json")
        bad = _write(tmp_path, {"cluster": {"pes": -1}}, "bad.json")
        rc = main(["validate", "--scenario", good, bad])
        captured = capsys.readouterr()
        assert rc == 1
        assert "OK" in captured.out
        assert "cluster.pes" in captured.err

    def test_substrate_mode_still_works(self, capsys):
        rc = main(["validate", "--p", "2", "--batch", "4"])
        assert rc == 0
        assert "[OK]" in capsys.readouterr().out


class TestExperimentScenario:
    def test_runs_a_scenario_document(self, tmp_path, capsys):
        doc = dict(QUICK_DOC, strategy={"id": "d"})
        rc = main(["experiment", "scenario",
                   "--scenario", _write(tmp_path, doc)])
        blob = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert blob["kind"] == "project"

    def test_requires_scenario_flag(self, capsys):
        rc = main(["experiment", "scenario"])
        assert rc == 2
        assert "--scenario" in capsys.readouterr().err

    def test_infeasible_scenario_is_a_clean_error(self, tmp_path, capsys):
        # p > B: strategy construction fails — no traceback, exit 2.
        doc = {"model": {"name": "alexnet"}, "cluster": {"pes": 8},
               "training": {"batch": 7}, "strategy": {"id": "d"}}
        rc = main(["experiment", "scenario",
                   "--scenario", _write(tmp_path, doc)])
        assert rc == 2
        assert "infeasible" in capsys.readouterr().err

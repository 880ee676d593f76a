"""Crash-safe sweep checkpoint/resume (repro.search.checkpoint).

The byte-identity contract under test: a sweep killed mid-zoo and
resumed from its journal writes ``summary.csv``, every
``frontier_<model>.csv``, and the ``--json`` envelope **byte-identical**
to an uninterrupted run (with a pinned clock; wall-clock otherwise
differs between runs by nature).
"""

import json
import os

import pytest

from repro.core.calibration import profile_model
from repro.core.oracle import ParaDL
from repro.core.tensors import TensorSpec
from repro.data.datasets import DatasetSpec
from repro.faults import FaultError, FaultPlan, armed
from repro.models import toy_cnn
from repro.network.topology import abci_like_cluster
from repro.search import SweepCheckpoint, SweepRunner
from repro.search.checkpoint import ReplayedReport


def _toy_oracle(channels=(8, 16)):
    toy = toy_cnn(TensorSpec(4, (16, 16)), channels=channels)
    return ParaDL(toy, abci_like_cluster(8),
                  profile_model(toy, samples_per_pe=4))


@pytest.fixture(scope="module")
def dataset():
    oracle = _toy_oracle()
    return DatasetSpec(name="tiny", sample=oracle.model.input_spec,
                       num_samples=1024, num_classes=10)


class _FixedClock:
    """Deterministic perf_counter stand-in: +1.0 s per call."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def _runner(dataset, tmp_path, subdir, **kw):
    return SweepRunner(
        ["small", "tiny", "mini"],
        dataset,
        pes=8,
        samples_per_pe=4,
        strategies=("d", "z", "df"),
        segments=(2,),
        executor="thread",
        cache_dir=str(tmp_path / subdir / "cache"),
        oracle_factory=lambda name: _toy_oracle(
            channels={"small": (8, 16), "tiny": (4, 8),
                      "mini": (2, 4)}[name]),
        clock=_FixedClock(),
        **kw,
    )


def _artifacts(report, out_dir):
    report.write_report(out_dir)
    blobs = {}
    for entry in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, entry), "rb") as fh:
            blobs[entry] = fh.read()
    return blobs


class TestCrashResume:
    def test_resume_is_byte_identical(self, dataset, tmp_path):
        # Ground truth: one uninterrupted run.
        baseline = _runner(dataset, tmp_path, "a").run()
        truth = _artifacts(baseline, str(tmp_path / "a" / "report"))

        # Crash after the first cell (seeded sweep.cell fault), resume.
        journal = str(tmp_path / "b" / "sweep.ckpt")
        crash = FaultPlan(0, [
            {"site": "sweep.cell", "kind": "crash", "after": 1,
             "count": 1},
        ])
        with armed(crash):
            with pytest.raises(FaultError):
                _runner(dataset, tmp_path, "b").run(checkpoint=journal)
        with open(journal) as fh:
            lines = [json.loads(line) for line in fh]
        assert [l["kind"] for l in lines] == ["header", "cell"]
        assert lines[1]["model"] == "small"

        resumed = _runner(dataset, tmp_path, "b").run(
            checkpoint=journal, resume=True)
        assert [r.model for r in resumed.results] == [
            "small", "tiny", "mini"]
        assert isinstance(resumed.results[0].report, ReplayedReport)

        again = _artifacts(resumed, str(tmp_path / "b" / "report"))
        assert truth == again

        # The JSON envelope replays byte-identically too.
        assert json.dumps(baseline.results[0].report.asdict(),
                          sort_keys=True) == \
            json.dumps(resumed.results[0].report.asdict(), sort_keys=True)
        assert baseline.summary_rows() == resumed.summary_rows()

    def test_full_journal_replays_everything(self, dataset, tmp_path):
        journal = str(tmp_path / "sweep.ckpt")
        first = _runner(dataset, tmp_path, "c").run(checkpoint=journal)
        searched = []
        replayed = _runner(
            dataset, tmp_path, "c").run(
                checkpoint=journal, resume=True,
                on_model=lambda name, res: searched.append(name))
        # on_model still fires per replayed cell; nothing re-searches.
        assert searched == ["small", "tiny", "mini"]
        assert all(isinstance(r.report, ReplayedReport)
                   for r in replayed.results)
        assert first.summary_rows() == replayed.summary_rows()

    def test_replayed_report_duck_types(self, dataset, tmp_path):
        journal = str(tmp_path / "sweep.ckpt")
        _runner(dataset, tmp_path, "d").run(checkpoint=journal)
        report = _runner(dataset, tmp_path, "d").run(
            checkpoint=journal, resume=True)
        best = report.best_overall
        assert best is not None
        assert best.best.describe()
        assert best.best.epoch_time > 0
        for res in report.results:
            for e in res.report.frontier:
                assert e.epoch_time > 0 and e.memory_gb > 0
                assert e.candidate.p >= 1

    def test_torn_tail_tolerated(self, dataset, tmp_path):
        journal = str(tmp_path / "sweep.ckpt")
        _runner(dataset, tmp_path, "e").run(checkpoint=journal)
        with open(journal, "a") as fh:
            fh.write('{"kind": "cell", "model": "tru')  # crash mid-append
        report = _runner(dataset, tmp_path, "e").run(
            checkpoint=journal, resume=True)
        assert [r.model for r in report.results] == [
            "small", "tiny", "mini"]


class TestCheckpointGuards:
    def test_meta_mismatch_refused(self, dataset, tmp_path):
        ckpt = SweepCheckpoint(str(tmp_path / "j.ckpt"))
        ckpt.prepare({"models": ["a"]})
        ckpt.close()
        with pytest.raises(ValueError, match="different sweep"):
            SweepCheckpoint(str(tmp_path / "j.ckpt")).prepare(
                {"models": ["b"]}, resume=True)

    def test_exhaustive_is_part_of_the_sweep_identity(self, tmp_path):
        doc = {"cluster": {"pes": 8},
               "search": {"strategies": ["d"], "segments": [2]},
               "sweep": {"models": ["alexnet"]}}
        plain = SweepRunner.from_scenario(doc)
        exhaustive = SweepRunner.from_scenario(dict(
            doc, search=dict(doc["search"], exhaustive=True)))
        # Absent unless set: a journal from before the key existed
        # carries the same header and still resumes a plain sweep.
        assert "exhaustive" not in plain.checkpoint_meta()
        assert exhaustive.checkpoint_meta()["exhaustive"] is True
        journal = str(tmp_path / "j.ckpt")
        first = plain.run(checkpoint=journal)
        with pytest.raises(ValueError, match="different sweep"):
            exhaustive.run(checkpoint=journal, resume=True)
        replayed = SweepRunner.from_scenario(doc).run(
            checkpoint=journal, resume=True)
        assert replayed.summary_rows() == first.summary_rows()

    def test_schema_mismatch_refused(self, tmp_path):
        path = tmp_path / "j.ckpt"
        path.write_text('{"kind": "header", "schema": 99, "meta": {}}\n')
        with pytest.raises(ValueError, match="schema"):
            SweepCheckpoint(str(path)).prepare({}, resume=True)

    def test_without_resume_truncates(self, tmp_path):
        path = tmp_path / "j.ckpt"
        ckpt = SweepCheckpoint(str(path))
        ckpt.prepare({"models": ["a"]})
        ckpt.record({"kind": "cell", "model": "a"})
        ckpt.close()
        fresh = SweepCheckpoint(str(path))
        assert fresh.prepare({"models": ["a"]}) == {}
        fresh.close()
        assert len(path.read_text().splitlines()) == 1  # header only

    def test_missing_file_resume_starts_fresh(self, tmp_path):
        ckpt = SweepCheckpoint(str(tmp_path / "new.ckpt"))
        assert ckpt.prepare({"m": 1}, resume=True) == {}
        ckpt.close()

    def test_record_before_prepare_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="not prepared"):
            SweepCheckpoint(str(tmp_path / "x")).record({})


class TestCli:
    def test_sweep_resume_via_cli(self, tmp_path, capsys):
        from repro.cli import main

        # --resume without --checkpoint is a usage error.
        assert main(["sweep", "--resume"]) == 2
        capsys.readouterr()

    def test_resume_summary_byte_identical_via_cli(self, tmp_path,
                                                   capsys):
        from repro.cli import main

        base = [
            "sweep", "--models", "resnet50", "-p", "4",
            "--samples-per-pe", "1", "--strategies", "d",
            "--segments", "2", "--executor", "thread",
        ]
        truth_dir = str(tmp_path / "truth")
        assert main(base + ["--report", truth_dir]) == 0
        capsys.readouterr()

        journal = str(tmp_path / "sweep.ckpt")
        run_dir = str(tmp_path / "resumed")
        assert main(base + ["--checkpoint", journal]) == 0
        capsys.readouterr()
        assert main(base + ["--checkpoint", journal, "--resume",
                            "--report", run_dir]) == 0
        out = capsys.readouterr().out
        assert "resnet50" in out

        def rows(d):
            with open(os.path.join(d, "frontier_resnet50.csv"),
                      "rb") as fh:
                return fh.read()

        # Frontier artifacts are byte-identical (summary.csv seconds
        # columns are wall-clock, so only the frontier is pinned here;
        # TestCrashResume pins the summary under an injected clock).
        assert rows(truth_dir) == rows(run_dir)

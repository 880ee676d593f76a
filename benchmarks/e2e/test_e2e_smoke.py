"""Smoke test of the end-to-end benchmark (``run.py``).

Runs every workload for a fraction of a second on seeds 0 and 1 and
checks the output contract: the workload and metric names are exactly
those of ``BENCHMARK.json``, each metric carries its unit and sample
count, and no operation fails.  A third run checks against a golden file
with one corrupted entry and must count the mismatches as failures.
Everything the runs write goes under ``tmp_path``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
LINE = re.compile(r"^(\S+) (\S+) (\S+) (\S+) n=(\d+)$")


def _start(tmp_path, name, *args):
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--seconds", "0.4",
         "--setups", "1", "--work-dir", str(tmp_path / name),
         "--out", str(tmp_path / f"{name}.json"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish(proc):
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    assert proc.returncode == 0, err[-2000:]
    return out


def test_e2e_smoke(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text())
    golden["search"]["alexnet@64"]["best"]["epoch_s"] *= 1.01
    corrupt = tmp_path / "golden-corrupt.json"
    corrupt.write_text(json.dumps(golden))

    # The three runs go concurrently to keep the test short; contention
    # only slows them, and correctness is all this test checks.
    runs = {
        "seed0": _start(tmp_path, "seed0", "--seed", "0"),
        "seed1": _start(tmp_path, "seed1", "--seed", "1"),
        "corrupt": _start(tmp_path, "corrupt", "--workload", "plan_cold",
                          "--golden", str(corrupt)),
    }
    outputs = {name: _finish(proc) for name, proc in runs.items()}

    workloads = [w["name"] for w in SPEC["workloads"]]
    metrics = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name in ("seed0", "seed1"):
        printed = {}
        for line in outputs[name].splitlines():
            match = LINE.match(line)
            if match:
                workload, metric, value, unit, n = match.groups()
                printed[(workload, metric)] = (float(value), unit, int(n))
        assert set(printed) == {(w, m) for w in workloads for m in metrics}
        for (_, metric), (value, unit, n) in printed.items():
            assert unit == metrics[metric] and n >= 1 and value > 0
        summary = json.loads(outputs[name].splitlines()[-1])
        assert summary["correct"] and summary["failed"] == 0
        assert summary["attempted"] >= len(workloads)
        full = json.loads((tmp_path / f"{name}.json").read_text())
        assert set(full["workloads"]) == set(workloads)
        for result in full["workloads"].values():
            assert result["failed"] == 0 and result["attempted"] > 0
            assert set(result["metrics"]) == set(metrics)

    summary = json.loads(outputs["corrupt"].splitlines()[-1])
    assert not summary["correct"]
    assert 0 < summary["failed"] < summary["attempted"]
    assert "MISMATCH search[alexnet@64] /best/epoch_s" in outputs["corrupt"]


def test_compare_counts_more_failures_as_regression(tmp_path, capsys):
    import compare  # benchmarks/e2e is on sys.path for this file

    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"], "n": 1}
               for m in SPEC["end_to_end"]}

    def write(side, failed_per_run):
        directory = tmp_path / side
        directory.mkdir()
        for i, failed in enumerate(failed_per_run):
            result = {"attempted": 100, "failed": failed, "metrics": metrics}
            (directory / f"{i}.json").write_text(json.dumps(
                {"traced": False, "workloads": {"plan_cold": result}}))
        return str(directory)

    a = write("a", [0, 0, 0])
    assert compare.main([a, write("same", [0, 0, 0])]) == 0
    # Identical metrics, one more failed op: still a regression.
    assert compare.main([a, write("b", [0, 1, 0])]) == 1
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["plan_cold", "failed", "0/300", "1/300", "0", "regressed"] in rows

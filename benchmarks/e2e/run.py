#!/usr/bin/env python3
"""End-to-end planning benchmark: six workloads over search, sweep, serve
and the worker fleet, each in a fresh child interpreter.

Usage::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1|DIR] [--out FILE] [--work-dir DIR]

Prints every end-to-end metric as ``workload metric value unit n=<samples>``
and, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 1`` (or a directory) makes a
separate traced run instead: it reports the per-layer metrics and writes
a Chrome trace plus a per-layer self-time table per workload.

``setup_s`` is timed from launching the child to its ``READY`` line and
scaled to the nominal host speed (see ``common.host_probe``); the child
is launched ``--setups`` times, all but the last for set-up alone, and
the median is reported.  The
workloads, metrics and bounds are defined in ``BENCHMARK.json`` at the
repository root; ``compare.py`` turns two directories of ``--out`` files
into verdicts.  ``--write-golden`` regenerates ``golden.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import common

#: Per-launch wall-clock allowance beyond the measured seconds.
LAUNCH_SLACK_S = 90.0


def child_command(args, workload: str, *, setup_only: bool) -> list:
    cmd = [sys.executable, str(common.HERE / "workloads.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work-dir", str(args.work_dir),
           "--golden", str(args.golden)]
    if args.trace_dir is not None:
        cmd += ["--trace-dir", str(args.trace_dir)]
    if setup_only:
        cmd.append("--setup-only")
    return cmd


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(args, workload: str, *, setup_only: bool, on_ready=None):
    """One child: returns ``((launch time, READY time), RESULT payload or
    None)``, times from ``time.perf_counter``.

    The child runs in its own process group, so a timeout also takes
    down the server or workers it started.  At ``READY`` a set-up-only
    child is killed with its group: its graceful teardown is not
    measured and would only lengthen the run.  Any other child waits
    until ``on_ready()`` has returned and a ``GO`` line reaches it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(common.SRC), env.get("PYTHONPATH", "")) if p)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        child_command(args, workload, setup_only=setup_only),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        cwd=str(common.ROOT), start_new_session=True)
    watchdog = threading.Timer(args.seconds + LAUNCH_SLACK_S,
                               kill_group, (proc.pid,))
    watchdog.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter()
                if setup_only:
                    break
                if on_ready is not None:
                    on_ready()
                proc.stdin.write("GO\n")
                proc.stdin.flush()
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        if not setup_only:
            proc.wait()
    finally:
        watchdog.cancel()
        # Also reaps anything the child left running in its group.
        kill_group(proc.pid)
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
        # The child's scratch directory (see workloads.main).
        shutil.rmtree(args.work_dir / f"{workload}-{proc.pid}",
                      ignore_errors=True)
    if ready is None or (not setup_only and (
            proc.returncode != 0 or result is None)):
        raise RuntimeError(
            f"{workload}: child exited {proc.returncode} "
            f"({'no READY' if ready is None else 'no RESULT'})")
    return (t0, ready), result


def run_workload(args, spec: dict, workload: str) -> dict:
    # ``args.setups`` launches are timed to READY under per-core probes:
    # all but the last set up only; the probes stop before the last one
    # measures.
    work = args.work_dir / f"setup-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        with contextlib.ExitStack() as probing:
            cores = probing.enter_context(common.CoreProbes(work))
            spans = [launch(args, workload, setup_only=True)[0]
                     for _ in range(args.setups - 1)]
            span, child = launch(args, workload, setup_only=False,
                                 on_ready=probing.close)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups = [common.at_nominal(end - start, cores.around(start, end))
              for start, end in spans + [span]]
    traced = args.trace_dir is not None
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    if traced:
        layers = child.get("layers", {})
        values = {m["name"]: (layers.get(m["name"], 0.0), 1) for m in wanted}
    else:
        values = dict(child["metrics"])
        values["setup_s"] = (common.median(setups), len(setups))
    metrics = {
        m["name"]: {"value": float(values[m["name"]][0]), "unit": m["unit"],
                    "n": int(values[m["name"]][1])}
        for m in wanted
    }
    return {"attempted": child["attempted"], "failed": child["failed"],
            "correct": child["failed"] == 0, "metrics": metrics,
            "notes": child.get("notes", []),
            "diagnostics": child.get("diagnostics", {}),
            "trace": child.get("trace")}


def parse_args(argv, spec: dict):
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="picks the order of the inputs")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measured seconds per workload")
    parser.add_argument("--trace", default="0", metavar="0|1|DIR",
                        help="1 or a directory: traced run reporting the "
                             "per-layer metrics (default directory: "
                             "<work-dir>/trace)")
    parser.add_argument("--setups", type=int, default=5,
                        help="launches whose set-up time is sampled")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the full results as JSON "
                             "(the input of compare.py)")
    parser.add_argument("--work-dir", default=str(common.DEFAULT_WORK_DIR),
                        help="scratch space for cache files and traces")
    parser.add_argument("--golden", default=str(common.GOLDEN_PATH),
                        help="golden outputs to check against")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate --golden from this checkout")
    args = parser.parse_args(argv)
    if args.setups < 1 or args.seconds <= 0:
        parser.error("--setups and --seconds must be positive")
    args.workload = args.workload or names
    args.work_dir = Path(args.work_dir).resolve()
    args.trace_dir = (None if args.trace == "0" else
                      args.work_dir / "trace" if args.trace == "1"
                      else Path(args.trace).resolve())
    return args


def main(argv=None) -> int:
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing "
              f"({common.SRC / 'repro'}); run from a full checkout",
              file=sys.stderr)
        return 2
    spec = common.load_spec()
    args = parse_args(argv, spec)
    if args.write_golden:
        import workloads  # imports the program; only after the check above

        work = args.work_dir / f"golden-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            workloads.write_golden(Path(args.golden), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0
    results = {}
    for workload in args.workload:
        try:
            results[workload] = res = run_workload(args, spec, workload)
        except (RuntimeError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for name, m in res["metrics"].items():
            print(f"{workload} {name} {m['value']:.6g} {m['unit']} "
                  f"n={m['n']}")
        for name, value in res["diagnostics"].items():
            print(f"{workload} ({name} {value:.4g})")
        for note in res["notes"]:
            print(f"{workload} MISMATCH {note}")
        if res["trace"]:
            print(res["trace"]["table"], end="")
            print(f"{workload} chrome trace: {res['trace']['chrome']}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds,
             "traced": args.trace_dir is not None, "workloads": results},
            indent=1, sort_keys=True) + "\n")
    # One workload: plain metric names; several: "<workload>.<metric>".
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (name if len(results) == 1 else f"{w}.{name}"):
                {"value": m["value"], "unit": m["unit"]}
            for w, r in results.items() for name, m in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

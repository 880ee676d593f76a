"""Helpers shared by the benchmark's parent, its workload children and
the A/B comparison tool.

Statistics are computed here rather than with the program's own
``repro.obs.metrics.percentile`` so that a change to the program can
never change how the benchmark scores it.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_PATH = HERE / "golden.json"
DEFAULT_WORK_DIR = HERE / "out"

#: Cache-provenance fields: they say *how* an answer was found (memo hit
#: or fresh projection), not *what* the answer is, so correctness checks
#: ignore them.
IGNORED_KEYS = frozenset({"cached", "cache_hits", "cache_misses"})

#: Float tolerance of the golden comparison (relative).
REL_TOL = 1e-9

#: What one :func:`host_probe` pass iterates over (about 50 µs of CPU
#: time on a quiet host).
_PROBE_DATA = tuple(range(128)) * 16

#: Probe time that defines the nominal host speed every reported timing
#: is converted to: about the probe's time on a quiet core of the 2-CPU
#: machine of the README's baseline.
PROBE_NOMINAL_S = 40e-6

#: Seconds between :class:`CoreProbes` samples.
PROBE_INTERVAL_S = 0.005


def load_spec() -> dict:
    """The benchmark definition (workloads, metrics, bounds)."""
    return json.loads(SPEC_PATH.read_text())


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def strip(obj):
    """``obj`` without the :data:`IGNORED_KEYS`, recursively."""
    if isinstance(obj, dict):
        return {k: strip(v) for k, v in obj.items() if k not in IGNORED_KEYS}
    if isinstance(obj, list):
        return [strip(v) for v in obj]
    return obj


def canonical(obj) -> str:
    """Byte-stable rendering of ``strip(obj)`` (the identity of an
    output for de-duplication)."""
    return json.dumps(strip(obj), sort_keys=True)


def mismatch(got, want, path: str = "") -> Optional[str]:
    """First difference between ``got`` and ``want`` (``None`` if they
    agree): floats within :data:`REL_TOL`, everything else exactly."""
    if isinstance(want, bool) or isinstance(got, bool):
        return None if got is want else f"{path or '/'}: {got!r} != {want!r}"
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if isinstance(want, int) and isinstance(got, int):
            ok = got == want
        elif math.isnan(want) or math.isnan(got):
            ok = math.isnan(want) and math.isnan(got)
        else:
            ok = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
        return None if ok else f"{path or '/'}: {got!r} != {want!r}"
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            extra = sorted(set(got) ^ set(want))
            return f"{path or '/'}: keys differ ({', '.join(extra)})"
        for key in sorted(want):
            found = mismatch(got[key], want[key], f"{path}/{key}")
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path or '/'}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            found = mismatch(g, w, f"{path}/{i}")
            if found:
                return found
        return None
    return None if got == want else f"{path or '/'}: {got!r} != {want!r}"


def host_probe() -> float:
    """CPU seconds one fixed pure-Python loop takes right now.

    The machines this benchmark runs on share their cores with other
    tenants.  Their bursts slow everything on a core by up to 1.5x for
    tens of milliseconds to seconds at a time, and each core's load is
    its own.  Between bursts the host's speed also drifts by up to a
    quarter over minutes.  Every timing is therefore divided by this
    probe's time measured alongside it (by the same thread, or on every
    core with :class:`CoreProbes`) and reported at the nominal speed
    :data:`PROBE_NOMINAL_S` (see :func:`at_nominal`).

    The probe counts its thread's CPU time, so waiting for the
    interpreter lock or for a core busy with the benchmark's own
    processes does not slow it; sharing the core's hardware does.  The
    loop allocates nothing (small ints are shared objects), and only its
    second pass is timed: a first pass right after the thread wakes up
    runs about a quarter slower."""
    elapsed = 0.0
    for _ in range(2):
        t0 = time.thread_time()
        acc = 0
        for k in _PROBE_DATA:
            acc = (acc + k) & 127
        elapsed = time.thread_time() - t0
    return elapsed


def at_nominal(seconds: float, probes: Sequence[float]) -> float:
    """``seconds`` measured while the probe took ``probes`` (their mean),
    converted to the nominal host speed."""
    return seconds * PROBE_NOMINAL_S * len(probes) / sum(probes)


class CoreProbes:
    """One probe process per core, each pinned to its core and probing
    it every :data:`PROBE_INTERVAL_S`, for work spread over cores and
    processes (the sweep's pool, the server, the fleet).  Separate
    processes, so that a probe stalled on a busy core never holds the
    caller's interpreter lock.  Samples are read after the ``with``
    block; :meth:`around` gives each core's mean probe over a span."""

    def __init__(self, work: Path,
                 cpus: Optional[Sequence[int]] = None) -> None:
        if cpus is None:
            cpus = (sorted(os.sched_getaffinity(0))
                    if hasattr(os, "sched_getaffinity") else [-1])
        self.cpus = list(cpus)
        self.paths = [work / f"probe-{i}.txt" for i in range(len(self.cpus))]
        self.samples: List[List[tuple]] = []

    def __enter__(self) -> "CoreProbes":
        self.procs = [
            subprocess.Popen([sys.executable, __file__, "probe", str(cpu),
                              str(path)])
            for cpu, path in zip(self.cpus, self.paths)]
        # Whatever is timed next needs probes from its very start.
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline and not all(
                path.is_file() and path.stat().st_size for path in self.paths):
            time.sleep(PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.wait()
        for path in self.paths:
            rows = []
            for line in path.read_text().splitlines():
                fields = line.split()
                if len(fields) == 2:  # a killed writer may cut its last line
                    rows.append((float(fields[0]), float(fields[1])))
            self.samples.append(rows)

    @property
    def probes(self) -> List[float]:
        return [p for rows in self.samples for _, p in rows]

    def around(self, start: float, end: float) -> List[float]:
        """Per core, the mean of its probes within one interval of
        ``[start, end]`` (the nearest probe if none is that close)."""
        means = []
        for rows in self.samples:
            if not rows:
                continue
            times = [t for t, _ in rows]
            lo = bisect.bisect_left(times, start - PROBE_INTERVAL_S)
            hi = bisect.bisect_right(times, end + PROBE_INTERVAL_S)
            if lo == hi:
                lo = max(0, min(lo, len(rows) - 1))
                hi = lo + 1
            means.append(sum(p for _, p in rows[lo:hi]) / (hi - lo))
        return means


def _probe_core(cpu: int, path: str) -> None:
    """The :class:`CoreProbes` process: probe until terminated."""
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})
    with open(path, "w", buffering=1) as fh:
        while True:
            probe = host_probe()
            fh.write(f"{time.perf_counter()!r} {probe!r}\n")
            time.sleep(PROBE_INTERVAL_S)


def vm_hwm_mib(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` (default: this process)
    in MiB; falls back to ``getrusage`` where ``/proc`` is absent."""
    status = Path(f"/proc/{pid if pid is not None else 'self'}/status")
    try:
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raise OSError(f"cannot read the peak RSS of pid {pid}")


if __name__ == "__main__" and sys.argv[1:2] == ["probe"]:
    _probe_core(int(sys.argv[2]), sys.argv[3])

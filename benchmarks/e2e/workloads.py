"""The six workloads of the end-to-end planning benchmark.

``run.py`` starts this file once per set-up sample, in a fresh
interpreter.  The child builds its workload, prints ``READY`` and, unless
``--setup-only``, waits for a line on its standard input, measures for
``--seconds`` and prints one ``RESULT <json>`` line.  Everything the program is asked to do comes from
the generated inputs below; the seed only picks their order.

Layers are timed from outside, around calls into their public functions
(``SearchEngine``, ``SearchReport.timings``, ``Session.sweep(on_model=)``,
``ScenarioSpec``/``Session``/``SessionPool``, ``PlanningClient``,
``GET /metricsz`` and the engine's ``MetricsRegistry``).  A traced run
(``--trace-dir``) wraps those calls in a ``repro.obs.Tracer`` owned by
this file; no tracer is ever passed into the program.

:func:`write_golden` regenerates the golden outputs every workload is
checked against (``run.py --write-golden``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import logging
import os
import random
import shutil
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import common

sys.path.insert(0, str(common.SRC))

from repro.api import Session  # noqa: E402
from repro.api.spec import ScenarioSpec  # noqa: E402
from repro.core.calibration import profile_model  # noqa: E402
from repro.core.math_utils import power_of_two_budgets  # noqa: E402
from repro.core.oracle import ParaDL  # noqa: E402
from repro.core.strategies import strategy_from_id  # noqa: E402
from repro.data.datasets import IMAGENET  # noqa: E402
from repro.models import build_model  # noqa: E402
from repro.network.topology import abci_like_cluster  # noqa: E402
from repro.obs import MetricsRegistry, Tracer  # noqa: E402
from repro.obs.export import write_chrome_trace  # noqa: E402
from repro.search import SearchEngine, SearchSpace  # noqa: E402
from repro.serve import PlanningClient, SessionPool  # noqa: E402

# --------------------------------------------------------------------------
# Inputs.  Fixed here, independent of the seed, so every run of every
# commit asks the program the same questions.
# --------------------------------------------------------------------------

PLAN_MODELS = ("resnet50", "resnet152", "vgg16", "alexnet")
PLAN_PES = (64, 256)
ZOO_MODELS = ("resnet50", "vgg16", "alexnet")
ZOO_PES = 64
#: dist_fleet's searches each ship exactly one chunk (at most 32
#: cache-miss candidates).  ``RemoteCoordinator.run`` stops at the first
#: yielded result after every chunk is done, dropping results still
#: queued behind it; with two or more chunks that loses the last chunk in
#: about one exhaustive p=64 search in seven.  One chunk cannot race.
FLEET_MODELS = ("resnet50", "vgg16", "resnet152")
#: serve_hot: cheap projections on these models at p=8, and hybrid plans
#: for the heavy model at these PE counts (see :func:`serve_class`).
HOT_MODELS = ("alexnet", "resnet50")
HOT_HEAVY_MODEL = "resnet152"
HOT_HEAVY_PES = (64, 256)
#: serve_cold's universe: every scenario of these models, PE counts and
#: samples/PE, data parallel and sharded; the heavy model's session
#: builds take about three times the other's (see :func:`serve_class`).
COLD_MODELS = ("alexnet", "resnet50")
COLD_HEAVY_MODEL = "resnet50"
COLD_PES = (8, 16, 32, 64, 128, 256)
COLD_SPP = (2, 4, 8, 16, 32, 64)

#: Pool capacity the serve workloads are sized against (``repro serve``'s
#: default ``--pool-size``).
POOL_CAPACITY = 32

STAGES = ("expansion", "pruning", "projection", "ranking", "persistence")


def plan_space(pes: int, *, ladder: bool = True) -> SearchSpace:
    """The space ``repro search`` plans over at ``pes``: the PE-budget
    ladder up to ``pes``, or ``pes`` alone."""
    return SearchSpace(
        pe_budgets=(tuple(power_of_two_budgets(pes, start=4)) if ladder
                    else (pes,)),
        samples_per_pe=(16, 32),
        segments=(2, 4, 8),
    )


def make_oracle(model: str, pes: int) -> ParaDL:
    graph = build_model(model, None)
    return ParaDL(graph, abci_like_cluster(pes),
                  profile_model(graph, samples_per_pe=32))


def hot_docs() -> List[Tuple[str, dict]]:
    """serve_hot's mix: eight scenarios, every request a pool hit."""
    docs = [("project", {"model": {"name": model}, "cluster": {"pes": 8},
                         "training": {"samples_per_pe": 4},
                         "strategy": {"id": sid}})
            for model in HOT_MODELS for sid in ("d", "z", "f")]
    docs += [("hybrid", {"model": {"name": HOT_HEAVY_MODEL},
                         "cluster": {"pes": pes},
                         "training": {"samples_per_pe": 4}})
             for pes in HOT_HEAVY_PES]
    return docs


def cold_docs() -> List[Tuple[str, dict]]:
    """serve_cold's universe: 144 distinct scenarios, 4.5x the pool."""
    return [
        ("project", {"model": {"name": model}, "cluster": {"pes": pes},
                     "training": {"samples_per_pe": spp},
                     "strategy": {"id": sid}})
        for model in COLD_MODELS for pes in COLD_PES
        for spp in COLD_SPP for sid in ("d", "z")
    ]


def serve_class(workload: str, verb: str, doc: dict) -> str:
    """The traffic class of a request of a serve ``workload``; each round
    of requests serves every class once.

    Both serve mixes have four classes of light requests of one cost and
    one class of heavy requests, which take two to four times as long:
    serve_hot's hybrid plans and serve_cold's resnet50 session builds.
    So p50 falls inside the light requests' latencies and p90 inside the
    heavy ones', each where latencies are dense.  With the slower requests
    at two fifths of the traffic and only 1.5-2x the others, p90 sat in
    their jitter tail; with light requests of two costs, p50 sat in the
    gap between them, and either moved by 8-18% between runs."""
    model, sid = doc["model"]["name"], doc.get("strategy", {}).get("id")
    if workload == "serve_hot":
        if verb != "project":
            return "heavy"
        return f"{model}/{'d' if sid == 'd' else 'zf'}"
    if model == COLD_HEAVY_MODEL:
        return "heavy"
    return f"{model}/{sid}/{'few' if doc['cluster']['pes'] <= 32 else 'many'}"


def serve_key(verb: str, doc: dict) -> str:
    return f"{verb} {json.dumps(doc, sort_keys=True)}"


def render(verb: str, doc: dict) -> bytes:
    """The in-process answer to one request, rendered exactly as the
    server's ``--json`` envelope."""
    result = getattr(Session(ScenarioSpec.from_dict(doc)), verb)()
    return (json.dumps(result.to_dict(), indent=2) + "\n").encode()


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(common.SRC), env.get("PYTHONPATH", "")) if p)
    return env


def spawn(args: Sequence[str], cpu: Optional[int] = None
          ) -> Tuple[subprocess.Popen, str]:
    """Start ``python -m repro <args>`` (pinned to core ``cpu`` if given)
    and return it with the address its ``listening on`` banner names."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *args], stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, env=child_env(),
        cwd=str(common.ROOT),
        preexec_fn=(None if cpu is None
                    else lambda: os.sched_setaffinity(0, {cpu})))
    line = proc.stdout.readline()
    if "listening on " not in line:
        stop(proc)
        raise RuntimeError(f"repro {args[0]} did not start: {line!r}")
    return proc, line.split("listening on ", 1)[1].split()[0]


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def span(tracer: Optional[Tracer], name: str, **attrs):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, **attrs)


def rounds(items: Sequence, rng: random.Random, key=None):
    """Endless seeded stream of ``items``.

    Each round serves every class (``key(item)``; default: the item
    itself) once, in a fresh permutation; a class with several items
    serves them in its own permutation, round after round.  Any stretch
    of the stream thus keeps the mix to within one item per class."""
    def cycle(group):
        while True:
            yield from rng.sample(group, len(group))

    groups: Dict[object, list] = {}
    for item in items:
        groups.setdefault(key(item) if key else item, []).append(item)
    streams = {name: cycle(group) for name, group in groups.items()}
    while True:
        for name in rng.sample(list(groups), len(groups)):
            yield next(streams[name])


def counter(snapshot: dict, name: str) -> float:
    return float(snapshot.get(name, {}).get("value", 0.0))


# --------------------------------------------------------------------------
# Correctness bookkeeping: every output is reduced to its canonical text
# right after the op (outside its timing); distinct texts are checked
# against the golden file once, after the measurement.
# --------------------------------------------------------------------------

@dataclass
class Outputs:
    section: str
    seen: Dict[str, Dict[str, int]] = field(default_factory=dict)
    errors: int = 0
    attempted: int = 0

    def add(self, key: str, output) -> Tuple[str, int]:
        """Record one output; returns its identity for :meth:`failures`."""
        self.attempted += 1
        texts = self.seen.setdefault(key, {})
        text = common.canonical(output)
        texts[text] = texts.get(text, 0) + 1
        return key, hash(text)

    def error(self) -> None:
        self.attempted += 1
        self.errors += 1

    def failures(self, golden: dict
                 ) -> Tuple[int, List[str], set]:
        """Failed count, notes, and the identities of wrong outputs."""
        failed, notes, wrong = self.errors, [], set()
        section = golden.get(self.section, {})
        for key, texts in self.seen.items():
            for text, count in texts.items():
                want = section.get(key)
                problem = ("no golden entry" if want is None
                           else common.mismatch(json.loads(text), want))
                if problem:
                    failed += count
                    wrong.add((key, hash(text)))
                    notes.append(f"{self.section}[{key}] {problem}")
        return failed, notes, wrong


# --------------------------------------------------------------------------
# Closed-loop workloads: one caller, the next op starts when one ends.
# --------------------------------------------------------------------------

@dataclass
class Op:
    latency_s: float
    candidates: int
    layers: Dict[str, float] = field(default_factory=dict)
    #: The op's golden key, the probes its time is scaled by, when it
    #: ended, and whether it failed (raised or answered wrongly); set by
    #: the loop.
    key: str = ""
    probes: Tuple[float, ...] = (1.0,)
    end: float = 0.0
    failed: bool = False

    @property
    def nominal_s(self) -> float:
        return common.at_nominal(self.latency_s, self.probes)


def search_layers(reports, wall_s: float, init_s: float) -> Dict[str, float]:
    """Per-op layer sample for ops made of searches: stage times from
    ``SearchReport.timings`` and the unattributed rest of the op's wall
    time."""
    stages = {s: sum(r.timings[f"{s}_s"] for r in reports) for s in STAGES}
    hits = sum(r.stats["cache_hits"] for r in reports)
    misses = sum(r.stats["cache_misses"] for r in reports)
    layers = {f"search.{s}_ms": v * 1e3 for s, v in stages.items()}
    layers.update({
        "search.engine_init_ms": init_s * 1e3,
        "search.unattributed_ms":
            (wall_s - init_s - sum(stages.values())) * 1e3,
        "search.cache_hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "wall_ms": wall_s * 1e3,
    })
    return layers


def registry_ratios(snapshots: Sequence[dict]) -> Dict[str, float]:
    """Vectorized-path share and ``CommModel`` memo hit rate from engine
    registries (summed over ``snapshots``)."""
    def total(name):
        return sum(counter(s, name) for s in snapshots)

    vec = total("search.vectorized_candidates")
    scalar = total("search.scalar_fallback_candidates")
    hits, misses = total("comm.memo_hits"), total("comm.memo_misses")
    return {
        "search.vectorized_share": vec / (vec + scalar) if vec + scalar
        else 0.0,
        "comm.memo_hit_rate": hits / (hits + misses) if hits + misses
        else 0.0,
    }


def record_stages(tracer: Optional[Tracer], start: float, reports) -> None:
    """Lay the reports' stage times out as child spans of the current
    span, in stage order (pruning and projection really interleave per
    chunk; the trace shows their sums)."""
    if tracer is None:
        return
    t = start
    for report in reports:
        for stage in STAGES:
            duration = report.timings[f"{stage}_s"]
            tracer.record(f"search.{stage}", start=t, duration=duration)
            t += duration


class ClosedLoop:
    """Base of every workload: subclasses define the universe (``keys``)
    and one timed op (``run_op``)."""

    name = ""
    section = ""
    #: Whether an op's work runs on several cores (other processes): its
    #: time is then scaled by every core's probes over the op rather than
    #: by this thread's probes around it.
    spread_over_cores = False

    def __init__(self, work: Path) -> None:
        self.work = work
        self.extra_pids: List[int] = []

    def keys(self) -> List:
        raise NotImplementedError

    #: Traffic class of a key for :func:`rounds` (``None``: each key is
    #: its own class).
    traffic_class = None

    def setup(self, tracer: Optional[Tracer]) -> None:
        raise NotImplementedError

    def run_op(self, key, tracer: Optional[Tracer]):
        """Run one op; returns ``(Op, output, golden_key)``."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def extra_layers(self, traced: List["Op"]) -> Dict[str, float]:
        """Layer numbers measured after the loop from the ``traced`` ops
        (traced runs only)."""
        return {}

    def oracles(self) -> List[Tuple[ParaDL, int]]:
        return []

    def rss_pids(self) -> List[Optional[int]]:
        """The processes under test (``None``: this one)."""
        return [None] + self.extra_pids

    def expected(self, golden: dict, outputs: Outputs) -> dict:
        """What the run's ``outputs`` must match (after the loop)."""
        return golden

    def measure(self, seconds: float, rng: random.Random,
                tracer: Optional[Tracer], golden: dict) -> dict:
        outputs = Outputs(self.section)
        order = rounds(self.keys(), rng, key=self.traffic_class)
        # A traced run alternates untraced and traced blocks, so the
        # overhead ratio compares like with like despite drift.
        phases = (["plain", "traced", "plain", "traced"]
                  if tracer is not None else ["plain"])
        ops: Dict[str, List[Op]] = {"plain": [], "traced": []}
        output_ids = {}
        cores = (common.CoreProbes(self.work) if self.spread_over_cores
                 else contextlib.nullcontext())
        with cores:
            before = common.host_probe()
            for phase in phases:
                deadline = time.perf_counter() + seconds / len(phases)
                while time.perf_counter() < deadline:
                    key = next(order)
                    t0 = time.perf_counter()
                    try:
                        op, output, gkey = self.run_op(
                            key, tracer if phase == "traced" else None)
                    except Exception as exc:  # counted, then reported
                        print(f"{self.name}: op {key} failed: {exc!r}",
                              file=sys.stderr)
                        op = Op(time.perf_counter() - t0, 0, failed=True)
                    op.end = time.perf_counter()
                    after = common.host_probe()
                    op.probes, before = (before, after), after
                    ops[phase].append(op)
                    if op.failed:
                        outputs.error()
                    else:
                        op.key = gkey
                        output_ids[id(op)] = outputs.add(gkey, output)
        failed, notes, wrong = outputs.failures(
            self.expected(golden, outputs))
        for op in ops["plain"] + ops["traced"]:
            if output_ids.get(id(op)) in wrong:
                op.failed, op.candidates = True, 0
            if self.spread_over_cores:
                op.probes = tuple(cores.around(op.end - op.latency_s, op.end))
            op.layers = {
                k: common.at_nominal(v, op.probes) if is_time(k) else v
                for k, v in op.layers.items()}
        # Failed ops add their time but no candidates to the throughput,
        # and no sample to the latencies (they count in ``failed``).
        plain = [op for op in ops["plain"] if not op.failed]
        if not plain:
            raise RuntimeError(f"{self.name}: no op succeeded")
        lat_ms = [op.nominal_s * 1e3 for op in plain]
        busy = sum(op.nominal_s for op in ops["plain"])
        pids = self.rss_pids()
        result = {
            "attempted": outputs.attempted, "failed": failed,
            "notes": notes[:5],
            "metrics": {
                "p50_ms": (common.percentile(lat_ms, 50), len(plain)),
                "p90_ms": (common.percentile(lat_ms, 90), len(plain)),
                "candidates_per_s": (
                    sum(op.candidates for op in plain) / busy,
                    len(ops["plain"])),
                "peak_rss_mb": (sum(common.vm_hwm_mib(p) for p in pids),
                                len(pids)),
            },
            "diagnostics": {
                "measured_p50_ms": common.percentile(
                    [op.latency_s * 1e3 for op in ops["plain"]], 50),
                "probe_p50_us": 1e6 * common.median(
                    [p for op in ops["plain"] for p in op.probes]),
            },
        }
        if tracer is not None:
            traced = [op for op in ops["traced"] if not op.failed]
            layers = aggregate([op.layers for op in traced])
            layers["core.project_us"] = core_project_us(self.oracles())
            layers.update(self.extra_layers(traced))
            layers["trace.overhead_ratio"] = common.median(
                [op.nominal_s * 1e3 for op in traced]) / common.median(
                lat_ms) if traced else 0.0
            result["layers"] = layers
            result["reconcile"] = reconcile(traced)
        return result


def is_time(name: str) -> bool:
    return name.endswith(("_ms", "_us"))


def aggregate(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Median per layer metric across ops (counts: mean per op)."""
    names = sorted({k for s in samples for k in s})
    out = {}
    for name in names:
        values = [s[name] for s in samples if name in s]
        if name.startswith("dist.") and not name.endswith("_ratio"):
            out[name] = sum(values) / len(values)
        else:
            out[name] = common.median(values)
    return out


def reconcile(ops: List[Op]) -> Optional[float]:
    """Median share of op wall time no search stage accounts for."""
    shares = [op.layers["search.unattributed_ms"] / op.layers["wall_ms"]
              for op in ops if "wall_ms" in op.layers]
    return common.median(shares) if shares else None


def core_project_us(pairs: Sequence[Tuple[ParaDL, int]]) -> float:
    """Median cost of one ``ParaDL.project`` (data parallel at the
    pair's PE count) on a warm oracle."""
    samples = []
    for oracle, pes in pairs:
        strategy = strategy_from_id("d", pes, oracle.model, 32 * pes)
        oracle.project(strategy, 32 * pes, IMAGENET)
        before = common.host_probe()
        runs = []
        for _ in range(50):
            t0 = time.perf_counter()
            oracle.project(strategy, 32 * pes, IMAGENET)
            runs.append((time.perf_counter() - t0) * 1e6)
        probes = (before, common.host_probe())
        samples.extend(common.at_nominal(v, probes) for v in runs)
    return common.median(samples) if samples else 0.0


class PlanCold(ClosedLoop):
    """``repro search --cache`` as planners run it: a cold sampled search
    that persists a fresh cache file."""

    name = "plan_cold"
    section = "search"

    def keys(self):
        return [(m, p) for m in PLAN_MODELS for p in PLAN_PES]

    def setup(self, tracer):
        self.contexts = {
            (m, p): (make_oracle(m, p), plan_space(p)) for m, p in self.keys()
        }
        for key in self.keys():
            self.run_op(key, None)

    def cache_path(self, key) -> Path:
        path = self.work / "cold.json"
        if path.exists():
            path.unlink()
        return path

    def run_op(self, key, tracer, registry=None):
        oracle, space = self.contexts[key]
        path = self.cache_path(key)
        with span(tracer, "op", workload=self.name, key=f"{key[0]}@{key[1]}"):
            t0 = time.perf_counter()
            with span(tracer, "search.engine_init"):
                engine = SearchEngine(oracle, IMAGENET, cache=str(path),
                                      workers=1, metrics=registry)
            t1 = time.perf_counter()
            with span(tracer, "search.search") as sp:
                report = engine.search(space)
                t2 = time.perf_counter()
                record_stages(tracer, getattr(sp, "start", 0.0), [report])
        op = Op(t2 - t0, report.stats["candidates"])
        if tracer is not None:
            op.layers = search_layers([report], t2 - t0, t1 - t0)
            op.layers["search.cache_file_kib"] = path.stat().st_size / 1024
        return op, report.asdict(), f"{key[0]}@{key[1]}"

    def extra_layers(self, traced):
        """Registry counters from one extra op per space: scraping them
        inside the traced ops would land in their unattributed time."""
        snapshots = []
        for key in self.keys():
            registry = MetricsRegistry()
            self.run_op(key, None, registry)
            snapshots.append(registry.snapshot())
        return registry_ratios(snapshots)

    def oracles(self):
        return [(o, key[1]) for key, (o, _) in self.contexts.items()]


class PlanWarm(PlanCold):
    """The same spaces answered from a cache file persisted at set-up:
    cache load and in-pruning lookups instead of projection and
    persistence."""

    name = "plan_warm"

    def cache_path(self, key) -> Path:
        return self.work / f"warm-{key[0]}@{key[1]}.json"


class SweepZoo(ClosedLoop):
    """``Session.sweep`` over three models with the default executor and
    a fresh ``cache_dir``: the orchestration layer."""

    name = "sweep_zoo"
    section = "sweep"
    spread_over_cores = True

    def keys(self):
        return list(itertools.permutations(ZOO_MODELS))

    def setup(self, tracer):
        self.run_op(ZOO_MODELS, None)

    def run_op(self, key, tracer):
        cache_dir = self.work / "sweep-cache"
        shutil.rmtree(cache_dir, ignore_errors=True)
        doc = {"model": {"name": key[0]}, "cluster": {"pes": ZOO_PES},
               "search": {"cache_dir": str(cache_dir)},
               "sweep": {"models": list(key)}}
        reports = []
        with span(tracer, "op", workload=self.name, key=",".join(key)):
            t0 = time.perf_counter()
            with span(tracer, "sweep.sweep") as sp:
                session = Session(doc)
                result = session.sweep(
                    on_model=lambda _name, res: reports.append(res.report))
                t1 = time.perf_counter()
                record_stages(tracer, getattr(sp, "start", 0.0), reports)
        results = result.to_dict()["results"]
        op = Op(t1 - t0, sum(r.stats["candidates"] for r in reports))
        if tracer is not None:
            search_ms = sum(r.timings["total_s"] for r in reports) * 1e3
            op.layers = search_layers(reports, t1 - t0, 0.0)
            op.layers.update(registry_ratios([session.metrics.snapshot()]))
            op.layers["sweep.search_ms"] = search_ms
            op.layers["sweep.orchestration_ms"] = (t1 - t0) * 1e3 - search_ms
        return op, results, "zoo"

    def oracles(self):
        return [(make_oracle(m, ZOO_PES), ZOO_PES) for m in ZOO_MODELS]


class DistFleet(ClosedLoop):
    """``executor="remote"`` searches at one PE budget on two ``repro
    worker`` processes whose contexts were shipped at set-up: the fleet's
    per-search protocol cost (see :data:`FLEET_MODELS`)."""

    name = "dist_fleet"
    section = "dist"
    spread_over_cores = True

    def keys(self):
        return list(FLEET_MODELS)

    def setup(self, tracer):
        # A silent fall-back to local threads would still pass the
        # report check; make it an op failure instead.
        warnings.simplefilter("error", RuntimeWarning)
        self.procs = []
        self.fleet = []
        for _ in range(2):
            proc, address = spawn(["worker", "--bind", "127.0.0.1:0"])
            self.procs.append(proc)
            self.fleet.append(address)
        self.extra_pids = [p.pid for p in self.procs]
        self.contexts = {
            m: (make_oracle(m, ZOO_PES), plan_space(ZOO_PES, ladder=False))
            for m in FLEET_MODELS
        }
        self.setup_registry = (
            MetricsRegistry() if tracer is not None else None)
        for model in FLEET_MODELS:
            self.engine(model, self.setup_registry).search(
                self.contexts[model][1])

    def engine(self, model, registry):
        return SearchEngine(
            self.contexts[model][0], IMAGENET, executor="remote",
            remote_workers=self.fleet, metrics=registry)

    def run_op(self, key, tracer):
        space = self.contexts[key][1]
        registry = MetricsRegistry() if tracer is not None else None
        with span(tracer, "op", workload=self.name, key=key):
            t0 = time.perf_counter()
            with span(tracer, "search.engine_init"):
                engine = self.engine(key, registry)
            t1 = time.perf_counter()
            with span(tracer, "search.search") as sp:
                report = engine.search(space)
                t2 = time.perf_counter()
                record_stages(tracer, getattr(sp, "start", 0.0), [report])
        op = Op(t2 - t0, report.stats["candidates"])
        if tracer is not None:
            snap = registry.snapshot()
            op.layers = search_layers([report], t2 - t0, t1 - t0)
            op.layers.update(registry_ratios([snap]))
            for name in ("chunks_dispatched", "chunks_redispatched",
                         "results_discarded", "heartbeats", "workers_lost"):
                op.layers[f"dist.{name}"] = counter(snap, f"dist.{name}")
            dispatched = counter(snap, "dist.chunks_dispatched")
            op.layers["dist.useful_ratio"] = (
                counter(snap, "dist.chunks_completed") / dispatched
                if dispatched else 0.0)
        return op, report.asdict(), f"{key}@{ZOO_PES}"

    def extra_layers(self, traced):
        """Remote p50 over thread-executor p50 of the same space (median
        across the spaces), and the contexts shipped while setting up."""
        ratios = []
        for model in FLEET_MODELS:
            remote = [op.nominal_s for op in traced
                      if op.key == f"{model}@{ZOO_PES}"]
            if not remote:
                continue
            oracle, space = self.contexts[model]
            thread = []
            for _ in range(10):
                before = common.host_probe()
                t0 = time.perf_counter()
                SearchEngine(oracle, IMAGENET, workers=1).search(space)
                elapsed = time.perf_counter() - t0
                thread.append(common.at_nominal(
                    elapsed, (before, common.host_probe())))
            ratios.append(common.median(remote) / common.median(thread))
        return {
            "dist.remote_over_thread":
                common.median(ratios) if ratios else 0.0,
            "dist.contexts_shipped": counter(
                self.setup_registry.snapshot(), "dist.contexts_shipped"),
        }

    def oracles(self):
        return [(o, ZOO_PES) for o, _ in self.contexts.values()]

    def close(self):
        for proc in getattr(self, "procs", []):
            stop(proc)


# --------------------------------------------------------------------------
# Serve workloads: `repro serve` in its own process, asked one request at
# a time by this one.
# --------------------------------------------------------------------------

def serve_core() -> Optional[int]:
    """The core the server and its load generator share (the last one
    this process may run on; ``None`` where affinity is not supported)."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    return sorted(os.sched_getaffinity(0))[-1]


class ServeLoad(ClosedLoop):
    """``repro serve`` in its own process, and a closed loop of
    ``PlanningClient`` requests from this one: one request in flight, the
    next sent when the answer is in.

    The server and this process share one core, so the core never idles
    while the loop runs: each request hands the core over to the server
    and back.  An op's time is then the request's own work (connect,
    transport, parse, pool, verb, encode, client decode) and scales with
    the host's speed like the probes around it.  An open loop of Poisson
    arrivals, with the server on a core of its own, measured mostly how
    long an idle core of the shared host took to wake up: between runs of
    the same code its p50 and p90 moved by 7-16% on a quiet host and by
    60-100% in a storm (interquartile range over median of eight to ten
    runs), where this loop's move by 3-6%."""

    section = "serve"

    def __init__(self, name: str, work: Path) -> None:
        super().__init__(work)
        self.name = name
        self.docs = hot_docs() if name == "serve_hot" else cold_docs()
        self.bodies = [json.dumps(doc).encode() for _, doc in self.docs]
        self.proc = None

    def keys(self):
        return list(range(len(self.docs)))

    def traffic_class(self, idx: int) -> str:
        return serve_class(self.name, *self.docs[idx])

    def setup(self, tracer):
        cpu = serve_core()
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        self.proc, url = spawn(
            ["serve", "--port", "0", "--pool-size", str(POOL_CAPACITY)],
            cpu=cpu)
        self.client = PlanningClient(url, timeout=10.0)
        # serve_hot primes every scenario it will ask about; serve_cold
        # only warms the code paths (its universe is 4.5x the pool).
        warm = (list(range(len(self.docs))) * 2 if self.name == "serve_hot"
                else list(range(0, len(self.docs), 8)))
        for idx in warm:
            status, _ = self.client.request_raw(
                "POST", f"/v1/{self.docs[idx][0]}", self.bodies[idx])
            if status != 200:
                raise RuntimeError(f"warm-up request {idx} got {status}")
        self.before = self.client.metrics() if tracer is not None else None

    def close(self):
        if self.proc is not None:
            stop(self.proc)

    def rss_pids(self):
        return [self.proc.pid]

    def run_op(self, idx, tracer):
        verb, doc = self.docs[idx]
        with span(tracer, "serve.request", verb=verb):
            t0 = time.perf_counter()
            status, body = self.client.request_raw(
                "POST", f"/v1/{verb}", self.bodies[idx])
            t1 = time.perf_counter()
        envelope = json.loads(body)
        candidates = (len(envelope.get("entries", ())) if verb == "hybrid"
                      else 1)
        output = {"status": status, "envelope": envelope,
                  "sha256": hashlib.sha256(body).hexdigest()}
        return Op(t1 - t0, candidates), output, serve_key(verb, doc)

    def expected(self, golden, outputs):
        """The golden status and envelope of every request seen, and the
        SHA-256 of the in-process ``Session`` rendering, which the served
        bytes must equal."""
        section = dict(golden.get(self.section, {}))
        for verb, doc in self.docs:
            key = serve_key(verb, doc)
            if key in outputs.seen and key in section:
                section[key] = dict(section[key], sha256=hashlib.sha256(
                    render(verb, doc)).hexdigest())
        return dict(golden, **{self.section: section})

    def extra_layers(self, traced):
        """The server's handler histogram and pool counters from
        ``/metricsz`` over the run, and the in-process replay."""
        if not traced:
            return self.api_replay()
        after = self.client.metrics()
        handler = after["metrics"]["serve.latency_s"]
        scale = common.at_nominal(1.0, [p for op in traced for p in op.probes])
        pool = {k: after["pool"][k] - self.before["pool"][k]
                for k in ("hits", "misses", "evictions")}
        lat_ms = [op.nominal_s * 1e3 for op in traced]
        layers = {
            "serve.handler_p50_ms": handler["p50"] * 1e3 * scale,
            "serve.handler_p90_ms": handler["p90"] * 1e3 * scale,
            "serve.transport_p50_ms": common.percentile(lat_ms, 50)
            - handler["p50"] * 1e3 * scale,
            "serve.pool_hit_ratio": pool["hits"] / max(
                1.0, pool["hits"] + pool["misses"]),
            "serve.pool_evictions": pool["evictions"],
            "serve.p99_ms": common.percentile(lat_ms, 99),
        }
        layers.update(self.api_replay())
        return layers

    def api_replay(self) -> Dict[str, float]:
        """The server's per-request steps replayed in process over the
        workload's documents: parse, pool lookup (miss builds the
        session), verb, envelope encode, and one bare projection."""
        pool = SessionPool(len(self.docs) + 1)
        samples: Dict[str, List[float]] = {}
        oracles = {}
        before = common.host_probe()
        for verb, doc in self.docs:
            t0 = time.perf_counter()
            spec = ScenarioSpec.from_dict(doc)
            t1 = time.perf_counter()
            session = pool.session(spec)
            session.oracle, session.kernel  # noqa: B018 - lazy build
            t2 = time.perf_counter()
            pool.session(spec)
            t3 = time.perf_counter()
            getattr(session, verb)()
            t4 = time.perf_counter()
            result = getattr(session, verb)()
            t5 = time.perf_counter()
            json.dumps(result.to_dict(), indent=2)
            t6 = time.perf_counter()
            for name, value in (
                    ("api.parse_us", (t1 - t0) * 1e6),
                    ("api.session_build_ms", (t2 - t1) * 1e3),
                    ("api.pool_lookup_us", (t3 - t2) * 1e6),
                    ("api.verb_us", (t5 - t4) * 1e6),
                    ("api.encode_us", (t6 - t5) * 1e6)):
                samples.setdefault(name, []).append(value)
            oracles[(doc["model"]["name"], session.pes)] = (
                session.oracle, session.pes)
        probes = (before, common.host_probe())
        layers = {k: common.at_nominal(common.median(v), probes)
                  for k, v in samples.items()}
        layers["core.project_us"] = core_project_us(list(oracles.values()))
        return layers


WORKLOADS = {
    "plan_cold": PlanCold,
    "plan_warm": PlanWarm,
    "sweep_zoo": SweepZoo,
    "serve_hot": lambda work: ServeLoad("serve_hot", work),
    "serve_cold": lambda work: ServeLoad("serve_cold", work),
    "dist_fleet": DistFleet,
}


# --------------------------------------------------------------------------
# Traces, golden outputs, entry point.
# --------------------------------------------------------------------------

def layer_table(spans, name: str, unattributed: Optional[float]) -> str:
    """Self time and count per span name; a layer's self time is its
    span minus the part its child spans cover."""
    covered: Dict[int, float] = {}
    for s in spans:
        if s.parent_id is not None:
            covered[s.parent_id] = covered.get(s.parent_id, 0.0) + s.duration
    rows: Dict[str, List[float]] = {}
    for s in spans:
        row = rows.setdefault(s.name, [0, 0.0])
        row[0] += 1
        row[1] += max(0.0, s.duration - covered.get(s.span_id, 0.0))
    total = sum(v for _, v in rows.values()) or 1.0
    lines = [f"{name}: self time per layer (traced blocks)",
             f"{'span':24s} {'calls':>7s} {'self ms':>10s} "
             f"{'ms/call':>9s} {'share':>7s}"]
    for span_name, (calls, self_s) in sorted(
            rows.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{span_name:24s} {calls:7d} {self_s * 1e3:10.2f} "
                     f"{self_s * 1e3 / calls:9.3f} {self_s / total:7.1%}")
    if unattributed is not None:
        flag = "  <-- over 5%" if unattributed > 0.05 else ""
        lines.append(f"search stages + unattributed = op wall time; "
                     f"unattributed share (median op) "
                     f"{unattributed:.1%}{flag}")
    return "\n".join(lines) + "\n"


def write_trace(tracer: Tracer, trace_dir: Path, result: dict,
                name: str) -> None:
    trace_dir.mkdir(parents=True, exist_ok=True)
    spans = tracer.spans
    chrome = trace_dir / f"{name}.trace.json"
    write_chrome_trace(str(chrome), spans=spans)
    table = layer_table(spans, name, result.get("reconcile"))
    (trace_dir / f"{name}.layers.txt").write_text(table)
    result["trace"] = {"chrome": str(chrome), "table": table}


def write_golden(path: Path, work: Path) -> None:
    """Write every distinct output of every workload's inputs to
    ``path``, computed in process with the thread executor (the remote
    and process executors must reproduce these)."""
    golden: Dict[str, dict] = {"search": {}, "dist": {}, "sweep": {},
                               "serve": {}}
    for model, pes in PlanCold(work).keys():
        report = SearchEngine(make_oracle(model, pes), IMAGENET,
                              workers=1).search(plan_space(pes))
        golden["search"][f"{model}@{pes}"] = common.strip(report.asdict())
    for model in FLEET_MODELS:
        report = SearchEngine(make_oracle(model, ZOO_PES), IMAGENET,
                              workers=1).search(
            plan_space(ZOO_PES, ladder=False))
        golden["dist"][f"{model}@{ZOO_PES}"] = common.strip(report.asdict())
    doc = {"model": {"name": ZOO_MODELS[0]}, "cluster": {"pes": ZOO_PES},
           "search": {"cache_dir": str(work / "golden-sweep"),
                      "executor": "thread"},
           "sweep": {"models": list(ZOO_MODELS)}}
    golden["sweep"]["zoo"] = common.strip(
        Session(doc).sweep().to_dict()["results"])
    for verb, doc in hot_docs() + cold_docs():
        body = render(verb, doc)
        golden["serve"][serve_key(verb, doc)] = {
            "status": 200, "envelope": common.strip(json.loads(body))}
    path.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--work-dir", default=str(common.DEFAULT_WORK_DIR))
    parser.add_argument("--golden", default=str(common.GOLDEN_PATH))
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # The fleet logs a warning each time a search closes a straggler's
    # socket; that is measured (dist.workers_lost), not news.
    logging.getLogger("repro").setLevel(logging.ERROR)
    work = Path(args.work_dir) / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        tracer = Tracer() if args.trace_dir else None
        workload = WORKLOADS[args.workload](work)
        try:
            workload.setup(tracer)
            print("READY", flush=True)
            if args.setup_only:
                return 0
            # run.py stops timing the set-up, and its probes, first.
            sys.stdin.readline()
            golden = json.loads(Path(args.golden).read_text())
            result = workload.measure(
                args.seconds, random.Random(args.seed), tracer, golden)
            if tracer is not None:
                write_trace(tracer, Path(args.trace_dir), result,
                            args.workload)
            print("RESULT " + json.dumps(result), flush=True)
        finally:
            workload.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

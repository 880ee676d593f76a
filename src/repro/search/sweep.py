"""Multi-model sweep orchestration: one search per zoo model, one report.

The oracle answers "which strategy for *this* CNN on *this* cluster?";
a production planning session asks that for a whole model zoo at once.
:class:`SweepRunner` fans a :class:`~repro.search.space.SearchSpace` x
model-zoo x comm-policy grid out over a
:class:`~repro.search.engine.SearchEngine` per model — the in-process
thread executor by default, a ``repro worker`` fleet with
``executor="remote"`` — reusing one
shared cross-model cache directory (per-(model, cluster) files, see
:func:`~repro.search.cache.cache_file_for`), and folds the per-model
Pareto frontiers into a consolidated :class:`SweepReport`:

* per-model frontier CSVs (:func:`write_frontier_csv`),
* a cross-model summary table (``summary.csv`` + formatted text),
* an optional matplotlib frontier plot (soft import — sweeping never
  requires matplotlib; :func:`plot_frontiers` returns ``None`` without it).

Entry point: :meth:`repro.api.Session.sweep` (``repro sweep`` in the
CLI, ``POST /v1`` documents with a ``sweep`` section, and
:func:`repro.harness.experiments.run_sweep` all go through it), which
builds its runner with :meth:`SweepRunner.from_scenario`; constructing a
:class:`SweepRunner` directly is the engine-level API.
"""

from __future__ import annotations

import csv
import logging
import os
import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..data.datasets import DatasetSpec
from ..faults import FaultError, check_deadline
from ..faults import fire as _fire_fault
from ..network.topology import ClusterSpec, abci_like_cluster
from ..obs.tracer import NULL_TRACER
from .checkpoint import ReplayedReport, SweepCheckpoint
from .checkpoint import frontier_rows as _frontier_rows
from .engine import Evaluation, SearchEngine, SearchReport
from .pareto import DEFAULT_OBJECTIVES
from .space import DEFAULT_STRATEGIES, SearchSpace

logger = logging.getLogger(__name__)

__all__ = [
    "SweepResult",
    "SweepReport",
    "SweepRunner",
    "write_frontier_csv",
    "write_summary_csv",
    "plot_frontiers",
    "SUMMARY_COLUMNS",
]

#: Cross-model summary schema (one row per swept model).
SUMMARY_COLUMNS = (
    "model", "best", "epoch_s", "iteration_s", "memory_gb", "comm_policy",
    "frontier", "candidates", "feasible", "pruned", "cache_hits", "seconds",
)


def write_frontier_csv(path: str, report: SearchReport) -> str:
    """Export a search report's Pareto frontier as CSV; returns ``path``."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "rank", "config", "strategy", "p", "p1", "p2", "segments",
            "batch", "comm_policy", "epoch_s", "iteration_s", "memory_gb",
            "comm_algorithms",
        ])
        for row in _frontier_rows(report):
            writer.writerow(row)
    return path


@dataclass
class SweepResult:
    """One model's search outcome inside a sweep."""

    model: str
    report: SearchReport
    seconds: float
    cache_file: Optional[str] = None

    @property
    def best(self) -> Optional[Evaluation]:
        return self.report.best

    def summary_row(self) -> Dict[str, object]:
        """This model's :data:`SUMMARY_COLUMNS` row."""
        best = self.report.best
        stats = self.report.stats
        return {
            "model": self.model,
            "best": best.describe() if best else "(infeasible)",
            "epoch_s": best.epoch_time if best else float("nan"),
            "iteration_s": best.iteration_time if best else float("nan"),
            "memory_gb": best.memory_gb if best else float("nan"),
            "comm_policy": (
                best.projection.comm_policy if best else ""),
            "frontier": stats.get("frontier", 0),
            "candidates": stats.get("candidates", 0),
            "feasible": stats.get("feasible", 0),
            "pruned": stats.get("pruned", 0),
            "cache_hits": stats.get("cache_hits", 0),
            "seconds": self.seconds,
        }

    def asdict(self) -> Dict[str, object]:
        blob = dict(self.summary_row())
        blob["report"] = self.report.asdict()
        blob["cache_file"] = self.cache_file
        return blob


@dataclass
class SweepReport:
    """Consolidated outcome of a multi-model sweep."""

    results: List[SweepResult]
    objectives: Sequence[str] = DEFAULT_OBJECTIVES
    seconds: float = 0.0
    artifacts: Dict[str, str] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.results)

    def result_for(self, model: str) -> SweepResult:
        for result in self.results:
            if result.model == model:
                return result
        raise KeyError(f"model {model!r} not in this sweep")

    @property
    def best_overall(self) -> Optional[SweepResult]:
        """The swept model with the fastest best epoch (``None`` if no
        model had a feasible configuration)."""
        with_best = [r for r in self.results if r.best is not None]
        if not with_best:
            return None
        return min(with_best, key=lambda r: r.best.epoch_time)

    def summary_rows(self) -> List[Dict[str, object]]:
        return [r.summary_row() for r in self.results]

    def asdict(self) -> Dict[str, object]:
        return {
            "models": [r.model for r in self.results],
            "objectives": list(self.objectives),
            "seconds": self.seconds,
            "summary": self.summary_rows(),
            "results": {r.model: r.report.asdict() for r in self.results},
            "artifacts": dict(self.artifacts),
        }

    # ------------------------------------------------------------- artifacts
    def write_report(
        self, out_dir: str, *, plot: bool = False
    ) -> Dict[str, str]:
        """Emit the consolidated frontier report under ``out_dir``.

        Writes ``frontier_<model>.csv`` per model, the cross-model
        ``summary.csv``, and — when ``plot=True`` and matplotlib is
        importable — ``frontier.png``.  Returns {artifact name: path}
        (also recorded on :attr:`artifacts`).
        """
        os.makedirs(out_dir, exist_ok=True)
        artifacts: Dict[str, str] = {}
        for result in self.results:
            path = os.path.join(out_dir, f"frontier_{result.model}.csv")
            artifacts[f"frontier_{result.model}"] = write_frontier_csv(
                path, result.report)
        artifacts["summary"] = write_summary_csv(
            os.path.join(out_dir, "summary.csv"), self)
        if plot:
            png = plot_frontiers(self, os.path.join(out_dir, "frontier.png"))
            if png is not None:
                artifacts["plot"] = png
        self.artifacts.update(artifacts)
        return artifacts


def write_summary_csv(path: str, sweep: SweepReport) -> str:
    """Write the cross-model summary table as CSV; returns ``path``."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(SUMMARY_COLUMNS))
        writer.writeheader()
        for row in sweep.summary_rows():
            writer.writerow(row)
    return path


def plot_frontiers(sweep: SweepReport, path: str) -> Optional[str]:
    """Scatter every model's Pareto frontier (epoch time vs memory).

    matplotlib is a soft dependency: returns ``None`` when it is not
    importable, the written PNG path otherwise.
    """
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return None
    fig, ax = plt.subplots(figsize=(7, 5))
    for result in sweep.results:
        points = [
            (e.epoch_time, e.memory_gb) for e in result.report.frontier
        ]
        if not points:
            continue
        points.sort()
        xs, ys = zip(*points)
        ax.plot(xs, ys, marker="o", linestyle="--", label=result.model)
    ax.set_xlabel("epoch time (s)")
    ax.set_ylabel("memory per PE (GB)")
    ax.set_title("Pareto frontiers per model")
    ax.legend()
    fig.tight_layout()
    fig.savefig(path, dpi=120)
    plt.close(fig)
    return path


class SweepRunner:
    """Fan a search space over a model zoo; stream and consolidate.

    Parameters
    ----------
    models:
        Zoo model names (see :data:`repro.models.MODEL_BUILDERS`).
    dataset:
        Training set shared by every model's search.
    pes:
        PE budget per model (ignored when ``pe_budgets`` is given).
    cluster:
        Target machine; default an ABCI-like cluster sized to ``pes``.
    samples_per_pe / optimizer / gamma:
        Oracle construction knobs (built through the artifact store).
    strategies / pe_budgets / segments / comm_policies:
        The :class:`~repro.search.space.SearchSpace` dimensions; every
        model searches the same space, so frontiers are comparable.
    executor / workers:
        Evaluation backend per model (see
        :class:`~repro.search.engine.SearchEngine`); ``"thread"`` by
        default, ``"remote"`` to scale out over a ``repro worker`` fleet.
    cache_dir:
        Shared cross-model cache directory; each model persists its own
        fingerprinted file there, so a warm re-run projects nothing.
    comm_model:
        The :class:`~repro.collectives.selector.CommModel` (or policy
        name) every per-model oracle binds — how candidates are costed
        when ``comm_policies`` opens no per-candidate dimension.
        ``None`` keeps the oracle default (the paper policy).
    weights:
        Scalarization weights for each model's best pick.
    oracle_factory:
        ``name -> ParaDL`` override (tests inject toy oracles here);
        default builds zoo models against ``cluster``.
    clock:
        Monotonic-seconds source for the ``seconds`` columns (tests pin
        it for deterministic artifacts; the chaos battery relies on
        this to assert resumed sweeps byte-identical).
    """

    def __init__(
        self,
        models: Sequence[str],
        dataset: DatasetSpec,
        *,
        pes: int = 64,
        cluster: Optional[ClusterSpec] = None,
        samples_per_pe: int = 32,
        optimizer: str = "sgd",
        gamma: float = 0.5,
        strategies: Optional[Sequence[str]] = None,
        pe_budgets: Optional[Sequence[int]] = None,
        segments: Sequence[int] = (2, 4, 8),
        fixed_batches: Sequence[int] = (),
        comm_policies: Sequence[str] = (),
        executor: str = "thread",
        workers: Optional[int] = None,
        remote_workers: Optional[Sequence[str]] = None,
        cache_dir: Optional[str] = None,
        comm_model=None,
        weights=None,
        oracle_factory: Optional[Callable[[str], object]] = None,
        tracer=None,
        metrics=None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if not models:
            raise ValueError("need at least one model to sweep")
        self.models = tuple(models)
        if len(set(self.models)) != len(self.models):
            raise ValueError(f"duplicate models in sweep: {self.models}")
        self.dataset = dataset
        self.pes = pes
        self.cluster = cluster or abci_like_cluster(max(pes, 4))
        self.samples_per_pe = samples_per_pe
        self.optimizer = optimizer
        self.gamma = gamma
        self.executor = executor
        self.workers = workers
        self.remote_workers = tuple(remote_workers or ())
        self.cache_dir = cache_dir
        self.comm_model = comm_model
        self.weights = weights
        self.oracle_factory = oracle_factory
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.clock = clock
        self.space = SearchSpace(
            strategies=(
                tuple(strategies) if strategies else DEFAULT_STRATEGIES),
            pe_budgets=tuple(pe_budgets) if pe_budgets else (pes,),
            samples_per_pe=(samples_per_pe,),
            fixed_batches=tuple(fixed_batches),
            segments=tuple(segments),
            comm_policies=tuple(comm_policies),
        )

    # ------------------------------------------------------------ scenarios
    @classmethod
    def from_scenario(cls, scenario, *, cluster: Optional[ClusterSpec] = None,
                      oracle_factory=None, tracer=None,
                      metrics=None) -> "SweepRunner":
        """Build the runner a :class:`~repro.api.spec.ScenarioSpec`
        describes (dicts and file paths are coerced through the spec
        layer).

        The ``sweep`` section names the models (defaulting to the
        standard zoo trio when absent); the ``search`` section supplies
        the space and engine knobs every model shares; ``training`` /
        ``cluster`` / ``comm`` fix the environment.  The ``comm``
        section binds every per-model oracle unless
        ``search.comm_policies`` opens the policy as a per-candidate
        dimension (candidates then pin their own policy and the oracles
        stay on the canonical paper default, keeping cache fingerprints
        independent of the policy-list order).  ``cluster`` may be
        passed pre-built to share one instance with a session.
        """
        from ..api.session import search_space
        from ..api.spec import ScenarioSpec, SearchSpec, SweepSpec
        from ..collectives.selector import CommModel
        from ..data.datasets import DATASETS

        if not isinstance(scenario, ScenarioSpec):
            if isinstance(scenario, (str, os.PathLike)):
                scenario = ScenarioSpec.from_file(scenario)
            else:
                scenario = ScenarioSpec.from_dict(scenario)
        sweep = scenario.sweep or SweepSpec()
        search = scenario.search or SearchSpec()
        if search.cache is not None:
            # from_dict rejects this for documents with a sweep section;
            # repeat the check here for specs assembled programmatically
            # (e.g. Session.sweep on a search-only scenario).
            from ..api.spec import ScenarioValidationError

            raise ScenarioValidationError(
                "search.cache",
                "a sweep persists one cache file per model; use "
                "search.cache_dir instead")
        cluster = cluster or scenario.cluster.build()
        runner = cls(
            sweep.models,
            DATASETS[scenario.training.dataset],
            pes=scenario.cluster.pes,
            cluster=cluster,
            samples_per_pe=scenario.training.samples_per_pe,
            optimizer=scenario.training.optimizer,
            gamma=scenario.training.gamma,
            executor=search.executor or "thread",
            workers=search.workers,
            remote_workers=search.remote_workers or None,
            cache_dir=search.cache_dir,
            comm_model=(
                scenario.comm.build(cluster)
                if not search.comm_policies
                # Policy dimension open: candidates pin their own
                # policy — a single one too — and the oracle stays on
                # the canonical paper default, but per-collective
                # forcing still applies, exactly as
                # Session._search_oracle preserves it.
                else CommModel(cluster, policy="paper",
                               algo=dict(scenario.comm.algo))),
            weights=dict(search.weights) or None,
            oracle_factory=oracle_factory,
            tracer=tracer,
            metrics=metrics,
        )
        runner.space = search_space(scenario)
        return runner

    # ------------------------------------------------------------- plumbing
    def engine_for(self, name: str) -> SearchEngine:
        """The per-model engine (parameterized, not yet run), its oracle
        from ``oracle_factory`` or else the shared artifact store."""
        if self.oracle_factory is not None:
            oracle = self.oracle_factory(name)
        else:
            from ..api.artifacts import ARTIFACTS
            from ..api.spec import ModelSpec

            oracle = ARTIFACTS.get(
                ModelSpec(name=name), self.dataset,
                samples_per_pe=self.samples_per_pe,
                optimizer=self.optimizer, metrics=self.metrics,
            ).oracle(self.cluster, gamma=self.gamma, comm=self.comm_model)
        return SearchEngine(
            oracle,
            self.dataset,
            cache_dir=self.cache_dir,
            executor=self.executor,
            workers=self.workers,
            remote_workers=self.remote_workers or None,
            tracer=self.tracer,
            metrics=self.metrics,
        )

    # ---------------------------------------------------------- checkpoints
    def checkpoint_meta(self) -> Dict[str, object]:
        """The sweep identity pinned in a checkpoint header: resuming a
        journal written by a different zoo or search space is refused."""
        meta: Dict[str, object] = {
            "models": list(self.models),
            "pes": self.pes,
            "strategies": list(self.space.strategies),
            "pe_budgets": list(self.space.pe_budgets),
            "samples_per_pe": list(self.space.samples_per_pe),
            "fixed_batches": list(self.space.fixed_batches),
            "segments": list(self.space.segments),
            "comm_policies": list(self.space.comm_policies),
        }
        # Recorded only when set, so journals that predate the key
        # still resume the (non-exhaustive) sweep they describe.
        if self.space.exhaustive:
            meta["exhaustive"] = True
        return meta

    @staticmethod
    def _replay_cell(cell: Dict[str, object]) -> SweepResult:
        report = ReplayedReport(
            summary_row=cell["summary_row"],
            rows=cell["frontier_rows"],
            report_blob=cell["report"],
        )
        return SweepResult(
            model=str(cell["model"]),
            report=report,
            seconds=cell["seconds"],
            cache_file=cell.get("cache_file"),
        )

    # ------------------------------------------------------------------ run
    def run(
        self,
        *,
        on_result: Optional[Callable[[str, Evaluation], None]] = None,
        on_model: Optional[Callable[[str, SweepResult], None]] = None,
        checkpoint: Optional[str] = None,
        resume: bool = False,
    ) -> SweepReport:
        """Sweep every model; returns the consolidated report.

        ``on_result(model, evaluation)`` streams individual evaluations
        as they complete (anytime consumption — the CLI's ``--stream``);
        ``on_model(model, result)`` fires once per finished model.
        Neither affects the report.

        ``checkpoint`` names a :class:`SweepCheckpoint` journal: each
        finished model is appended durably, and ``resume=True`` replays
        journaled models instead of re-searching them (``on_model``
        still fires for replayed cells; ``on_result`` does not — their
        evaluations already streamed in the original run).  Artifacts
        from a resumed sweep are byte-identical to an uninterrupted one
        (given the same ``clock``; wall-clock ``seconds`` naturally
        differ between runs otherwise).
        """
        t_sweep = self.clock()
        logger.info("sweep: %d models, strategies=%s",
                    len(self.models), ",".join(self.space.strategies))
        ckpt: Optional[SweepCheckpoint] = None
        completed: Dict[str, Dict[str, object]] = {}
        if checkpoint is not None:
            ckpt = SweepCheckpoint(checkpoint)
            completed = ckpt.prepare(self.checkpoint_meta(), resume=resume)
            if completed:
                logger.info(
                    "sweep: resuming from %s — %d/%d models already done",
                    checkpoint, len(completed), len(self.models))
        results: List[SweepResult] = []
        try:
            with self.tracer.span("sweep", models=len(self.models)):
                for name in self.models:
                    cell = completed.get(name)
                    if cell is not None:
                        result = self._replay_cell(cell)
                        logger.info(
                            "sweep: %s replayed from checkpoint", name)
                        results.append(result)
                        if on_model is not None:
                            on_model(name, result)
                        continue
                    check_deadline("sweep.model")
                    action = _fire_fault("sweep.cell")
                    if action is not None and action.kind in (
                            "crash", "error"):
                        # A "crash" here aborts the sweep mid-zoo — the
                        # chaos battery's stand-in for a killed process;
                        # the journal keeps every finished cell.
                        raise FaultError(action.describe())
                    with self.tracer.span("sweep.model", model=name) as sp:
                        engine = self.engine_for(name)
                        callback = (
                            (lambda e, _name=name: on_result(_name, e))
                            if on_result is not None else None
                        )
                        t0 = self.clock()
                        report = engine.search(
                            self.space, weights=self.weights,
                            on_result=callback)
                        result = SweepResult(
                            model=name,
                            report=report,
                            seconds=self.clock() - t0,
                            cache_file=engine.cache.path,
                        )
                        sp.attrs["seconds"] = result.seconds
                        sp.attrs["feasible"] = report.stats.get(
                            "feasible", 0)
                    logger.info(
                        "sweep: %s done in %.2fs", name, result.seconds)
                    if ckpt is not None:
                        ckpt.record({
                            "kind": "cell",
                            "model": name,
                            "seconds": result.seconds,
                            "cache_file": result.cache_file,
                            "summary_row": result.summary_row(),
                            "frontier_rows": _frontier_rows(result.report),
                            "report": result.report.asdict(),
                        })
                    results.append(result)
                    if on_model is not None:
                        on_model(name, result)
        finally:
            if ckpt is not None:
                ckpt.close()
        return SweepReport(
            results=results,
            objectives=tuple(DEFAULT_OBJECTIVES),
            seconds=self.clock() - t_sweep,
        )

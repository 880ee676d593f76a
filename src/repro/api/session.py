"""The Session: one scenario, lazily realized, every oracle verb.

A :class:`Session` turns a declarative :class:`~repro.api.spec.
ScenarioSpec` into live objects exactly once — model graph, cluster,
compute profile, :class:`~repro.collectives.selector.CommModel`,
:class:`~repro.core.oracle.ParaDL` oracle, and (for search workloads)
the :class:`~repro.search.cache.ProjectionCache` — and answers the
paper's questions against them:

>>> from repro.api import Scenario, Session
>>> session = Session(Scenario.from_file("plan.yaml"))   # doctest: +SKIP
>>> session.project().to_dict()                          # doctest: +SKIP
>>> session.search().report.best                         # doctest: +SKIP

Construction is cached (graph, profile and kernel process-wide), so
repeated verbs pay for profiling and cache loading once; a warm
``session.search()`` re-run answers from the in-memory projection
cache.  Every verb returns a typed result (:mod:`repro.api.results`)
whose ``to_dict()`` is the stable JSON the CLI prints — the Session
*is* the service surface a future RPC backend would expose.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import replace
from typing import Callable, Optional, Sequence, Tuple

from ..faults import Deadline, check_deadline, deadline_scope
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER
from .artifacts import ARTIFACTS
from .results import (
    HybridResult,
    ProjectionResult,
    SearchResult,
    SimulationResult,
    SuggestResult,
    SweepResult,
)
from .spec import ScenarioSpec, SearchSpec, StrategySpec, SweepSpec

logger = logging.getLogger(__name__)

__all__ = ["Session", "search_space"]


def search_space(scenario: ScenarioSpec):
    """The :class:`~repro.search.space.SearchSpace` a scenario's
    ``search`` section describes — the one mapping both
    :meth:`Session.search` and :meth:`SweepRunner.from_scenario
    <repro.search.sweep.SweepRunner.from_scenario>` use.

    Strategies default to every id; ``pe_sweep`` widens the budget to
    the power-of-two ladder up to ``cluster.pes``; ``comm_policies``
    become the per-candidate policy list (each entry point decides how
    a single policy binds).  An explicit ``training.batch`` pins the
    global batch at the budget: weak scalers run ``batch // pes``
    samples per PE, strong scalers the fixed batch itself
    (divisibility spec-checked).
    """
    from ..core.math_utils import power_of_two_budgets
    from ..search.space import DEFAULT_STRATEGIES, SearchSpace

    search = scenario.search or SearchSpec()
    training = scenario.training
    pes = scenario.cluster.pes
    batch = training.batch
    return SearchSpace(
        strategies=search.strategies or DEFAULT_STRATEGIES,
        pe_budgets=(
            tuple(power_of_two_budgets(pes)) if search.pe_sweep
            else (pes,)),
        samples_per_pe=(
            (max(1, batch // pes),) if batch is not None
            else (training.samples_per_pe,)),
        fixed_batches=(batch,) if batch is not None else (),
        segments=search.segments,
        comm_policies=search.comm_policies,
        exhaustive=search.exhaustive,
    )


class Session:
    """Lazily-constructed execution context for one scenario.

    Parameters
    ----------
    scenario:
        The validated spec.  Mappings and file paths are accepted for
        convenience and routed through ``Scenario.from_dict`` /
        ``from_file``.
    tracer:
        A :class:`~repro.obs.tracer.Tracer` to record verb/engine spans
        on; default the shared no-op (observability off).
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` the engines scrape
        run counters into; a private registry is created when omitted
        (so :meth:`diagnostics` always works), but nothing is scraped
        into it unless a verb that owns an engine runs; artifact-store
        lookups (``api.artifacts.*``) count only into a supplied one.
    cache_dir:
        Default projection-cache directory used when the scenario names
        neither ``search.cache`` nor ``search.cache_dir``.  This is the
        seam the serving :class:`~repro.serve.pool.SessionPool` uses to
        share one cross-model cache directory between sessions without
        touching the scenario echo in result envelopes (caching never
        changes results, so envelopes stay bit-identical either way).
    """

    def __init__(self, scenario, *, tracer=None, metrics=None,
                 cache_dir: Optional[str] = None) -> None:
        if isinstance(scenario, (str, bytes)) or hasattr(
                scenario, "__fspath__"):
            scenario = ScenarioSpec.from_file(scenario)
        elif not isinstance(scenario, ScenarioSpec):
            scenario = ScenarioSpec.from_dict(scenario)
        self.scenario = scenario
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._caller_metrics = metrics
        self._default_cache_dir = cache_dir
        self._cache = {}
        # Reentrant: one memo's build may consult other memoized
        # properties (projection_cache -> search_oracle -> oracle).
        self._memo_lock = threading.RLock()

    def _memo(self, key: str, build: Callable):
        """Build-once memo, safe under concurrent verb calls.

        A server pool shares one Session between request threads, so
        two threads may race the first access of a lazy component; the
        lock guarantees ``build`` runs exactly once per key and every
        caller sees the same object.
        """
        if key not in self._cache:
            with self._memo_lock:
                if key not in self._cache:
                    self._cache[key] = build()
        return self._cache[key]

    # ----------------------------------------------------- lazy construction
    @property
    def dataset(self):
        """The :class:`~repro.data.datasets.DatasetSpec`."""
        from ..data.datasets import DATASETS

        return DATASETS[self.scenario.training.dataset]

    @property
    def artifacts(self):
        """The shared graph, profile and kernel (:mod:`~repro.api.
        artifacts`): sessions over one model profile it once."""
        training = self.scenario.training
        return self._memo("artifacts", lambda: ARTIFACTS.get(
            self.scenario.model, self.dataset,
            samples_per_pe=training.samples_per_pe,
            optimizer=training.optimizer, metrics=self._caller_metrics))

    @property
    def model(self):
        """The model graph (shared; see :attr:`artifacts`).

        Shape-coupled models (CosmoFlow) default to the dataset's
        sample spec so memory analysis matches the volumes asked about.
        """
        return self.artifacts.graph

    @property
    def cluster(self):
        """The cluster (built once from the :class:`ClusterRef`)."""
        return self._memo("cluster", self.scenario.cluster.build)

    @property
    def profile(self):
        """The per-layer compute profile (shared; see :attr:`artifacts`)."""
        return self.artifacts.profile

    @property
    def comm(self):
        """The bound :class:`~repro.collectives.selector.CommModel`."""
        return self._memo(
            "comm", lambda: self.scenario.comm.build(self.cluster))

    @property
    def oracle(self):
        """The :class:`~repro.core.oracle.ParaDL` oracle (built once)."""
        return self._memo("oracle", lambda: self.artifacts.oracle(
            self.cluster, gamma=self.scenario.training.gamma,
            comm=self.comm, scenario=self.scenario))

    @property
    def kernel(self):
        """The compiled :class:`~repro.core.kernel.ModelKernel` (shared;
        see :attr:`artifacts`)."""
        return self.artifacts.kernel

    @property
    def projection_cache(self):
        """The search :class:`~repro.search.cache.ProjectionCache`.

        Honors ``search.cache`` (one persistent file) or
        ``search.cache_dir`` (per-(model, cluster) fingerprinted files),
        then the constructor's default ``cache_dir``; an in-memory memo
        otherwise.  Built once, so repeated :meth:`search` calls on one
        session stay warm.
        """
        def build():
            from ..search.cache import ProjectionCache, context_fingerprint

            search = self.scenario.search or SearchSpec()
            # Keyed to the *search* oracle: under a multi-policy sweep
            # that is the canonical paper-bound oracle, so the cache
            # fingerprint is independent of the policy-list order.
            oracle = self._search_oracle()
            cache_dir = search.cache_dir
            if cache_dir is None and search.cache is None:
                cache_dir = self._default_cache_dir
            if cache_dir is not None:
                return ProjectionCache.for_oracle(cache_dir, oracle)
            return ProjectionCache(
                search.cache, context=context_fingerprint(oracle))

        return self._memo("projection_cache", build)

    # --------------------------------------------------------------- helpers
    @property
    def pes(self) -> int:
        return self.scenario.cluster.pes

    @property
    def batch(self) -> int:
        """The resolved global mini-batch."""
        return self.scenario.training.resolve_batch(self.pes)

    def _strategy(self):
        """Bind the scenario's strategy spec (default: data parallel)."""
        from ..core.strategies import strategy_from_id

        spec = self.scenario.strategy or StrategySpec()
        return strategy_from_id(
            spec.id, self.pes, self.model, self.batch,
            segments=spec.segments, intra=self.cluster.node.gpus,
        )

    def _search_policies(self) -> Tuple[str, ...]:
        """The comm-policy search dimension (empty = the oracle's own)."""
        search = self.scenario.search or SearchSpec()
        return search.comm_policies

    def _search_oracle(self):
        """The oracle a multi-policy search binds to.

        With a multi-policy sweep every candidate pins its own policy,
        so the engine oracle is bound to the canonical ``paper`` default
        — keeping the cache fingerprint independent of the order the
        policies were listed.  A single (or absent) policy keeps the
        scenario's own comm model.
        """
        policies = self._search_policies()
        if len(policies) > 1:
            policy = "paper"
        elif policies and policies[0] != self.scenario.comm.policy:
            policy = policies[0]
        else:
            return self.oracle

        def build():
            scenario = self.scenario.merged({"comm": {"policy": policy}})
            return self.artifacts.oracle(
                self.cluster, gamma=scenario.training.gamma,
                comm=scenario.comm.build(self.cluster), scenario=scenario)

        return self._memo("search_oracle", build)

    @staticmethod
    def _deadline(deadline_s: Optional[float]):
        """Deadline scope for one verb call.

        ``deadline_s`` opens a fresh :class:`~repro.faults.Deadline`
        budget; ``None`` keeps whatever ambient scope the caller (e.g.
        the HTTP server's per-request budget) already established.
        Long verbs poll :func:`~repro.faults.check_deadline` at their
        cancellation points (per search chunk, per result, per sweep
        cell) and raise :class:`~repro.faults.DeadlineExceeded` — a
        ``TimeoutError`` — when the budget runs out.
        """
        return deadline_scope(
            Deadline(deadline_s) if deadline_s is not None else None)

    # ----------------------------------------------------------------- verbs
    def project(self, *, inference: bool = False, findings: bool = False,
                deadline_s: Optional[float] = None) -> ProjectionResult:
        """Project the scenario's strategy at its operating point.

        Raises :class:`~repro.core.strategies.StrategyError` /
        ``ValueError`` for structurally infeasible configurations, like
        the oracle itself.
        """
        with self._deadline(deadline_s), self.tracer.span(
                "session.project", model=self.scenario.model.name,
                inference=inference):
            check_deadline("session.project")
            strategy = self._strategy()
            if inference:
                projection = self.oracle.analytical.project_inference(
                    strategy, self.batch, self.dataset.num_samples)
            else:
                projection = self.oracle.project(
                    strategy, self.batch, self.dataset)
            found: Tuple = ()
            if findings:
                from ..core.limits import detect_findings

                found = tuple(detect_findings(
                    self.model, projection, profile=self.profile))
        return ProjectionResult(
            scenario=self.scenario,
            strategy=strategy,
            projection=projection,
            batch=self.batch,
            inference=inference,
            findings=found,
        )

    def suggest(self, *,
                deadline_s: Optional[float] = None) -> SuggestResult:
        """Rank every strategy for the scenario's PE budget."""
        with self._deadline(deadline_s), self.tracer.span(
                "session.suggest", pes=self.pes):
            check_deadline("session.suggest")
            suggestions = self.oracle.suggest(
                self.pes, self.dataset,
                samples_per_pe=self.scenario.training.samples_per_pe,
            )
        return SuggestResult(
            scenario=self.scenario,
            model=self.model.name,
            pes=self.pes,
            suggestions=tuple(suggestions),
        )

    def hybrid(self, kinds: Sequence[str] = ("df", "ds"), top: int = 5, *,
               deadline_s: Optional[float] = None) -> HybridResult:
        """Search hybrid ``p = p1 * p2`` factorizations."""
        with self._deadline(deadline_s), self.tracer.span(
                "session.hybrid", pes=self.pes):
            check_deadline("session.hybrid")
            suggestions = self.oracle.search_hybrid(
                self.pes, self.dataset,
                samples_per_pe=self.scenario.training.samples_per_pe,
                kinds=tuple(kinds),
            )
        return HybridResult(
            scenario=self.scenario,
            model=self.model.name,
            pes=self.pes,
            kinds=tuple(kinds),
            suggestions=tuple(suggestions),
            top=top,
        )

    def search(self, *, on_result=None,
               deadline_s: Optional[float] = None) -> SearchResult:
        """Run the automated strategy search the scenario describes.

        ``deadline_s`` bounds the whole search: the engine polls the
        budget per evaluation chunk and per consumed result, raising
        :class:`~repro.faults.DeadlineExceeded` when it runs out.
        """
        from ..search.engine import SearchEngine

        search = self.scenario.search or SearchSpec()
        space = search_space(self.scenario)
        if len(space.comm_policies) == 1:
            # One policy binds the search oracle (see _search_oracle),
            # so candidates carry none of their own.
            space = replace(space, comm_policies=())
        with self._deadline(deadline_s), self.tracer.span(
                "session.search", model=self.scenario.model.name,
                pes=self.pes):
            check_deadline("session.search")
            engine = SearchEngine(
                self._search_oracle(), self.dataset,
                cache=self.projection_cache,
                workers=search.workers,
                executor=search.executor or "thread",
                remote_workers=search.remote_workers or None,
                tracer=self.tracer,
                metrics=self.metrics,
            )
            report = engine.search(
                space, weights=dict(search.weights) or None,
                on_result=on_result)
        return SearchResult(
            scenario=self.scenario, model=self.model.name, report=report)

    def sweep(self, *, on_result=None, on_model=None,
              checkpoint: Optional[str] = None, resume: bool = False,
              deadline_s: Optional[float] = None) -> SweepResult:
        """Run the zoo sweep the scenario describes.

        ``on_result(model, evaluation)`` and ``on_model(model, result)``
        stream progress exactly as :meth:`SweepRunner.run` does.
        ``checkpoint`` / ``resume`` journal finished models durably and
        replay them after a crash (see
        :class:`~repro.search.checkpoint.SweepCheckpoint`);
        ``deadline_s`` bounds the whole sweep.
        """
        from ..search.sweep import SweepRunner

        scenario = self.scenario
        if scenario.sweep is None:
            scenario = scenario.with_(sweep=SweepSpec())
        runner = SweepRunner.from_scenario(
            scenario, cluster=self.cluster,
            tracer=self.tracer, metrics=self.metrics)
        with self._deadline(deadline_s), self.tracer.span(
                "session.sweep", models=len(runner.models)):
            check_deadline("session.sweep")
            report = runner.run(
                on_result=on_result, on_model=on_model,
                checkpoint=checkpoint, resume=resume)
        sweep = scenario.sweep
        if sweep.report_dir is not None:
            report.write_report(sweep.report_dir, plot=sweep.plot)
        return SweepResult(scenario=scenario, report=report)

    def simulate(self, *, iterations: int = 50, congestion: bool = False,
                 seed: int = 42) -> SimulationResult:
        """Project, then simulate a measured run, and compare."""
        from ..network.congestion import CongestionModel
        from ..simulator import SimulationOptions, TrainingSimulator

        with self.tracer.span(
                "session.simulate", model=self.scenario.model.name,
                iterations=iterations):
            strategy = self._strategy()
            projection = self.oracle.project(
                strategy, self.batch, self.dataset)
            sim = TrainingSimulator(
                self.model, self.cluster,
                options=SimulationOptions(
                    iterations=iterations,
                    seed=seed,
                    optimizer=self.scenario.training.optimizer,
                    congestion=(
                        CongestionModel(outlier_rate=0.1, seed=seed)
                        if congestion else None),
                    # Same CommModel on both sides: the accuracy metric
                    # compares projection vs simulation, not policy vs
                    # policy.
                    comm=self.comm,
                ),
            )
            run = sim.run(strategy, self.batch, self.dataset.num_samples)
        return SimulationResult(
            scenario=self.scenario,
            strategy=strategy,
            projection=projection,
            run=run,
            accuracy=projection.accuracy_per_iteration(run.mean_iteration),
            batch=self.batch,
        )

    # ---------------------------------------------------------- diagnostics
    def diagnostics(self) -> dict:
        """Observability snapshot: span roll-up + metrics registry.

        Returns a JSON-ready mapping the CLI injects into the ``--json``
        envelope under ``"diagnostics"`` when asked (off by default, so
        result schemas stay stable).  ``spans`` aggregates per span name
        (calls / total seconds); ``metrics`` is the registry snapshot.
        """
        return {
            "spans": self.tracer.totals(),
            "metrics": self.metrics.snapshot(),
        }

"""ParaDL — the oracle facade (Figure 2 of the paper).

Ties together the pieces: given what can be known beforehand (dataset,
model, cluster specification, user constraints such as a PE budget), ParaDL
projects computation and communication time per training phase, checks
memory feasibility, ranks strategies, and compares projections against
measured runs to compute the paper's accuracy metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..data.datasets import DatasetSpec
from ..network.topology import ClusterSpec
from .analytical import AnalyticalModel, Projection
from .graph import ModelGraph
from .math_utils import divisors
from .profiles import ComputeProfile
from .strategies import (
    ALL_STRATEGY_IDS,
    Strategy,
    StrategyError,
    strategy_from_id,
)

__all__ = ["ParaDL", "Suggestion", "accuracy"]


def accuracy(projected: float, measured: float) -> float:
    """The paper's accuracy metric: ``1 - |proj - meas| / meas``."""
    if measured <= 0:
        raise ValueError("measured time must be > 0")
    return 1.0 - abs(projected - measured) / measured




@dataclass(frozen=True)
class Suggestion:
    """One ranked entry from :meth:`ParaDL.suggest`."""

    strategy: Strategy
    projection: Projection
    rank: int
    feasible: bool
    reason: str = ""

    @property
    def epoch_time(self) -> float:
        return self.projection.per_epoch.total


class ParaDL:
    """The oracle: projection, ranking, and accuracy evaluation.

    Parameters
    ----------
    model:
        The CNN under study.
    cluster:
        Target machine.
    profile:
        Empirical per-layer compute profile.  Use
        :func:`repro.core.calibration.profile_model` to generate one from
        the simulated V100, or supply real measurements.
    comm:
        Communication model: a policy name (``"paper"`` — the default,
        reproducing the seed's ring-everywhere costs — ``"auto"`` or
        ``"nccl-like"``) or a ready
        :class:`~repro.collectives.selector.CommModel`.
    delta / gamma / halo_transport / contention / kernel:
        Forwarded to :class:`~repro.core.analytical.AnalyticalModel`.
    scenario:
        The :class:`~repro.api.spec.ScenarioSpec` this oracle realizes.
        Normally supplied by :class:`~repro.api.session.Session`; direct
        construction is the legacy path — it keeps working, and for zoo
        models at default analytical knobs the shim records a
        *provenance* spec on :attr:`scenario` (profile-level knobs are
        not recoverable, so the echo identifies the configuration
        rather than guaranteeing reproduction; ``None`` when no honest
        echo exists).  Prefer :meth:`from_scenario` / ``Session`` for
        new code: specs serialize, sessions cache.
    """

    def __init__(
        self,
        model: ModelGraph,
        cluster: ClusterSpec,
        profile: ComputeProfile,
        *,
        delta: int = 4,
        gamma: float = 0.5,
        halo_transport: str = "mpi",
        contention: bool = True,
        comm=None,
        scenario=None,
        kernel=None,
    ) -> None:
        self.model = model
        self.cluster = cluster
        self.profile = profile
        self.analytical = AnalyticalModel(
            model,
            cluster,
            profile,
            delta=delta,
            gamma=gamma,
            halo_transport=halo_transport,
            contention=contention,
            comm=comm,
            kernel=kernel,
        )
        #: The bound communication model (shared with ``analytical``).
        self.comm = self.analytical.comm
        #: The scenario this oracle realizes (derived best-effort for
        #: legacy direct construction; ``None`` for custom models the
        #: spec layer cannot name).
        self.scenario = (
            scenario if scenario is not None
            else self._derive_scenario(
                gamma,
                defaults=(delta == 4 and halo_transport == "mpi"
                          and contention),
            )
        )

    @classmethod
    def from_scenario(cls, scenario) -> "ParaDL":
        """Build the oracle a scenario describes (dict, path, or spec).

        This is :class:`~repro.api.session.Session` construction without
        keeping the session — use a ``Session`` when you will ask more
        than one question, so profiles and caches are reused.
        """
        from ..api.session import Session

        return Session(scenario).oracle

    def _derive_scenario(self, gamma: float, *, defaults: bool):
        """Provenance echo for legacy ``ParaDL(model, ...)`` calls.

        Only derived when the model is a zoo model and the analytical
        knobs (delta, halo transport, contention) are at their
        defaults; ``None`` otherwise.  The model, cluster size, comm
        policy/forcing, and gamma are faithful; profile-level knobs
        (``samples_per_pe``, ``optimizer``) are not recoverable from a
        :class:`ComputeProfile` and stay at spec defaults — treat the
        echo as identification, not a guaranteed-reproducible request
        (construct via :meth:`from_scenario` / ``Session`` for that).
        """
        from ..models import MODEL_BUILDERS

        if not defaults or self.model.name not in MODEL_BUILDERS:
            return None
        from ..api.spec import (
            ClusterRef,
            CommSpec,
            ModelSpec,
            ScenarioSpec,
            TrainingSpec,
        )

        return ScenarioSpec(
            model=ModelSpec(name=self.model.name),
            cluster=ClusterRef(
                pes=self.cluster.total_gpus,
                gpus_per_node=self.cluster.node.gpus,
            ),
            training=TrainingSpec(gamma=gamma),
            comm=CommSpec(
                policy=self.comm.policy,
                algo=tuple(sorted(self.comm.algo.items())),
            ),
        )

    # ---------------------------------------------------------------- project
    def project(
        self,
        strategy: Strategy,
        batch: int,
        dataset: DatasetSpec,
        *,
        comm=None,
    ) -> Projection:
        """Project one strategy at global mini-batch ``batch``.

        ``comm`` overrides the oracle's communication policy for this
        projection only.
        """
        return self.analytical.project(
            strategy, batch, dataset.num_samples, comm=comm
        )

    def project_batch(
        self,
        strategies: Sequence[Strategy],
        batches: Sequence[int],
        dataset: DatasetSpec,
        *,
        comms=None,
    ):
        """Project many ``(strategy, batch)`` candidates at once.

        Candidates are grouped by strategy family and each family's
        closed form runs once over numpy columns (see
        :meth:`AnalyticalModel.project_batch`).  Returns one entry per
        input — a :class:`Projection`, or the ``StrategyError`` /
        ``ValueError`` that candidate would have raised under
        :meth:`project`, with the same values.
        """
        return self.analytical.project_batch(
            strategies, batches, dataset.num_samples, comms=comms
        )

    def project_id(
        self,
        sid: str,
        p: int,
        batch: int,
        dataset: DatasetSpec,
        segments: int = 4,
        intra: Optional[int] = None,
    ) -> Projection:
        """Project by short strategy id with default configuration rules
        (hybrids map the model-parallel dimension intra-node)."""
        intra = intra if intra is not None else self.cluster.node.gpus
        strategy = strategy_from_id(
            sid, p, self.model, batch, segments=segments, intra=intra
        )
        return self.project(strategy, batch, dataset)

    # ---------------------------------------------------------------- suggest
    def suggest(
        self,
        p: int,
        dataset: DatasetSpec,
        samples_per_pe: int = 32,
        fixed_batch: Optional[int] = None,
        candidates: Sequence[str] = ("d", "z", "s", "p", "f", "c", "df", "ds"),
        segments: int = 4,
    ) -> List[Suggestion]:
        """Rank strategies for a PE budget of ``p``.

        Weak-scaling strategies use ``batch = samples_per_pe * p`` (the
        paper's de-facto scaling mode); strong-scaling ones (filter,
        channel, pipeline) use ``fixed_batch`` (default
        ``samples_per_pe * node GPUs``).  Infeasible candidates — scaling
        limit exceeded or out of memory — are returned unranked with the
        reason, because *why* data parallelism fails is half the oracle's
        point.
        """
        fixed_batch = fixed_batch or samples_per_pe * self.cluster.node.gpus
        results: List[Tuple[Strategy, Optional[Projection], str]] = []
        for sid in candidates:
            try:
                strategy = strategy_from_id(
                    sid, p, self.model, max(p, fixed_batch),
                    segments=segments, intra=self.cluster.node.gpus,
                )
            except StrategyError as exc:
                results.append((None, None, f"{sid}: {exc}"))
                continue
            batch = (
                samples_per_pe * p if strategy.is_weak_scaling else fixed_batch
            )
            try:
                strategy.check(self.model, batch)
                proj = self.project(strategy, batch, dataset)
            except StrategyError as exc:
                results.append((strategy, None, str(exc)))
                continue
            reason = "" if proj.feasible_memory else (
                f"memory {proj.memory_bytes / 1e9:.1f} GB exceeds "
                f"{proj.memory_capacity / 1e9:.1f} GB/PE"
            )
            results.append((strategy, proj, reason))

        feasible = [
            (s, pr) for s, pr, r in results if pr is not None and not r
        ]
        feasible.sort(key=lambda sp: sp[1].per_epoch.total)
        suggestions: List[Suggestion] = []
        for rank, (s, pr) in enumerate(feasible, start=1):
            suggestions.append(Suggestion(s, pr, rank, True))
        for s, pr, r in results:
            if pr is None or r:
                suggestions.append(
                    Suggestion(s, pr, rank=0, feasible=False, reason=r)
                    if s is not None
                    else Suggestion(
                        strategy=None, projection=None, rank=0,
                        feasible=False, reason=r,
                    )
                )
        return suggestions

    # ------------------------------------------------------- layer-wise plan
    def plan_layerwise(self, p: int, batch: int):
        """Optimal per-layer strategy assignment (Section 3.5 generalized).

        Returns a :class:`~repro.core.layerwise.LayerwisePlan` minimizing
        projected iteration time by choosing, per layer, among data /
        spatial / filter / channel / replicated execution with
        re-decomposition costs — Krizhevsky's "one weird trick" falls out
        of this DP for FC-heavy models.
        """
        from .layerwise import LayerwisePlanner

        planner = LayerwisePlanner(
            self.model, self.cluster, self.profile, p,
            delta=self.analytical.delta,
        )
        return planner.plan(batch)

    # ----------------------------------------------------------- hybrid search
    def search_hybrid(
        self,
        p: int,
        dataset: DatasetSpec,
        samples_per_pe: int = 32,
        kinds: Sequence[str] = ("df", "ds"),
        max_model_dim: Optional[int] = None,
    ) -> List[Suggestion]:
        """Exhaustively search hybrid factorizations ``p = p1 * p2``.

        The paper's hybrids fix the model-parallel dimension at the node
        size; this search relaxes that and enumerates every divisor
        ``p2 <= max_model_dim`` (default: one rack's worth of GPUs),
        ranking feasible configurations by projected epoch time.  This is
        the "suggesting the best strategy for a given resource budget"
        use-case with the configuration space opened up.
        """
        from .strategies import DataFilterParallel, DataSpatialParallel
        from .strategies import _square_grid

        max_model_dim = max_model_dim or (
            self.cluster.node.gpus * self.cluster.fabric.nodes_per_rack
        )
        candidates: List[Strategy] = []
        for p2 in divisors(p):
            if p2 < 2 or p2 > max_model_dim:
                continue
            p1 = p // p2
            if "df" in kinds:
                candidates.append(DataFilterParallel(groups=p1, parts=p2))
            if "ds" in kinds:
                try:
                    grid = _square_grid(p2, self.model.input_spec.ndim)
                except StrategyError:
                    grid = None
                if grid is not None:
                    candidates.append(
                        DataSpatialParallel(groups=p1, grid=grid)
                    )
        results: List[Suggestion] = []
        ok: List[Tuple[Strategy, Projection]] = []
        for strategy in candidates:
            batch = samples_per_pe * strategy.p1
            # Check before projecting, so a structural error wins over
            # project()'s batch/dataset error; through the analyzer's
            # memo, so project()'s own check is a hit.
            err = self.analytical._checked(strategy, batch)
            if err is None:
                try:
                    proj = self.project(strategy, batch, dataset)
                except (StrategyError, ValueError) as exc:
                    err = exc
            if err is not None:
                results.append(Suggestion(strategy, None, 0, False, str(err)))
                continue
            if not proj.feasible_memory:
                results.append(Suggestion(
                    strategy, proj, 0, False,
                    f"memory {proj.memory_bytes / 1e9:.1f} GB"))
                continue
            ok.append((strategy, proj))
        ok.sort(key=lambda sp: sp[1].per_epoch.total)
        ranked = [
            Suggestion(s, pr, rank, True) for rank, (s, pr) in
            enumerate(ok, start=1)
        ]
        return ranked + results

    # ---------------------------------------------------------------- accuracy
    def accuracy_against(
        self, projection: Projection, measured_epoch_time: float
    ) -> float:
        return accuracy(projection.per_epoch.total, measured_epoch_time)

    def breakdown_row(self, projection: Projection) -> Dict[str, float]:
        """Flat per-iteration dict, handy for table printing."""
        it = projection.per_iteration
        row = it.asdict()
        row.update(
            computation=it.computation,
            communication=it.communication,
            total=it.total,
            memory_GB=projection.memory_bytes / 1e9,
            p=projection.p,
        )
        return row

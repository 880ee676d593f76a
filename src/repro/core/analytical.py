"""The analytical performance/memory model of ParaDL (Table 3 + Appendix A).

Every public function here computes, for one parallel strategy, the
*per-epoch* computation time, communication time (broken into the paper's
phases), and maximum per-PE memory, from:

* a :class:`~repro.core.graph.ModelGraph` (tensor sizes),
* a :class:`~repro.core.profiles.ComputeProfile` (empirical ``FW_l``,
  ``BW_l``, ``WU_l`` — the hybrid analytical/empirical split of Section 4),
* a :class:`~repro.network.topology.ClusterSpec` (Hockney alpha/beta per
  communicator scope),
* a :class:`~repro.collectives.selector.CommModel` (which collective
  algorithm each communication phase is costed with — the default
  ``paper`` policy reproduces the seed's ring-everywhere formulas;
  ``auto``/``nccl-like`` re-select per call), and
* the training configuration (global mini-batch ``B``, dataset size ``D``,
  bytes/item ``delta``, memory-reuse factor ``gamma``).

The formulas are the paper's equations (1)-(22); each analyzer cites the
ones it implements.  Costs the oracle deliberately *excludes* (framework
split/concat overhead, redundant tail computation, external congestion) live
in :mod:`repro.simulator` instead — the gap between the two is what the
paper's accuracy metric measures.

Two evaluation paths produce every projection:

* the **reference path** (``path="reference"``) — the original
  per-layer walks, kept verbatim as the executable specification;
* the **fast path** (the default) — closed-form arithmetic over a
  compiled :class:`~repro.core.kernel.ModelKernel` of per-model
  invariants, built lazily once per analyzer.

Both agree to ``rel <= 1e-9`` (floating-point reassociation of
per-layer sums is the only difference); the equivalence is pinned
across the model zoo x strategy families x comm policies by
``tests/test_fast_path_equivalence.py`` and against the golden seed
projections by ``tests/test_comm_golden.py``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import npcompat
from ..collectives.selector import (
    BatchChoice,
    CommChoice,
    CommModel,
    as_comm_model,
)
from ..network.hockney import HockneyParams
from ..network.topology import ClusterSpec
from .caching import cached_property
from .contention import data_filter_phi
from .graph import ModelGraph
from .kernel import ModelKernel
from .layers import Layer
from .profiles import ComputeProfile
from .strategies import (
    ChannelParallel,
    DataFilterParallel,
    DataParallel,
    DataSpatialParallel,
    FilterParallel,
    PipelineParallel,
    Serial,
    ShardedDataParallel,
    SpatialParallel,
    Strategy,
    StrategyError,
)
from .tensors import halo_elements

#: Guards lazy :attr:`AnalyticalModel.kernel` compilation.  Shared by
#: every model instance (first-build contention is a one-off), and kept
#: out of instance state so models pickle cleanly to ``repro worker``.
_KERNEL_BUILD_LOCK = threading.Lock()

__all__ = [
    "PhaseBreakdown",
    "Projection",
    "AnalyticalModel",
    "spatial_extent_of",
]

#: Default bytes per tensor item (fp32).
DEFAULT_DELTA = 4

#: Default memory-reuse factor gamma (Section 4.2).  Framework memory
#: optimizations (buffer sharing between layer l's output and layer l+1's
#: input, in-place ops) roughly halve the naive aggregate; layer-level
#: profiling studies the paper cites report 0.4-0.6.
DEFAULT_GAMMA = 0.5


@dataclass(frozen=True)
class PhaseBreakdown:
    """Time (seconds) split by training phase and communication pattern.

    Phases follow the paper's taxonomy: FB computation (forward/backward),
    WU weight update, GE gradient exchange; communication is further split
    by pattern (GE-Allreduce, FB layer-wise collectives, FB-Halo, FB-layer
    P2P for pipelines) to support the bottleneck analysis of Section 5.3.
    """

    comp_fw: float = 0.0
    comp_bw: float = 0.0
    comp_wu: float = 0.0
    comm_ge: float = 0.0
    comm_fb: float = 0.0
    comm_halo: float = 0.0
    comm_p2p: float = 0.0

    @cached_property
    def computation(self) -> float:
        return self.comp_fw + self.comp_bw + self.comp_wu

    @cached_property
    def communication(self) -> float:
        return self.comm_ge + self.comm_fb + self.comm_halo + self.comm_p2p

    @cached_property
    def total(self) -> float:
        return self.computation + self.communication

    @staticmethod
    def _build(
        fw: float = 0.0,
        bw: float = 0.0,
        wu: float = 0.0,
        ge: float = 0.0,
        fb: float = 0.0,
        halo: float = 0.0,
        p2p: float = 0.0,
        totals: Optional[Tuple[float, float, float]] = None,
    ) -> "PhaseBreakdown":
        """Field-for-field equivalent of ``PhaseBreakdown(comp_fw=fw,
        ...)`` that writes the instance dict directly — the frozen
        ``__init__`` pays one guarded ``object.__setattr__`` per field,
        which adds up when the batch path assembles thousands of rows.

        ``totals`` optionally pre-seeds the ``(computation,
        communication, total)`` memos; callers must produce the values
        with the same operand order the lazy properties use so seeded
        and recomputed totals are bit-identical.
        """
        obj = object.__new__(PhaseBreakdown)
        d = obj.__dict__
        d.update(
            comp_fw=fw, comp_bw=bw, comp_wu=wu, comm_ge=ge,
            comm_fb=fb, comm_halo=halo, comm_p2p=p2p)
        if totals is not None:
            d["computation"], d["communication"], d["total"] = totals
        return obj

    def scaled(self, factor: float) -> "PhaseBreakdown":
        return PhaseBreakdown._build(
            self.comp_fw * factor,
            self.comp_bw * factor,
            self.comp_wu * factor,
            self.comm_ge * factor,
            self.comm_fb * factor,
            self.comm_halo * factor,
            self.comm_p2p * factor,
        )

    def __add__(self, other: "PhaseBreakdown") -> "PhaseBreakdown":
        return PhaseBreakdown._build(
            self.comp_fw + other.comp_fw,
            self.comp_bw + other.comp_bw,
            self.comp_wu + other.comp_wu,
            self.comm_ge + other.comm_ge,
            self.comm_fb + other.comm_fb,
            self.comm_halo + other.comm_halo,
            self.comm_p2p + other.comm_p2p,
        )

    def asdict(self) -> Dict[str, float]:
        return {
            "comp_fw": self.comp_fw,
            "comp_bw": self.comp_bw,
            "comp_wu": self.comp_wu,
            "comm_ge": self.comm_ge,
            "comm_fb": self.comm_fb,
            "comm_halo": self.comm_halo,
            "comm_p2p": self.comm_p2p,
        }


class _AlgoLog:
    """Collects which collective algorithm each phase used (ordered,
    deduplicated) while one projection is being assembled."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: Dict[str, List[str]] = {}

    def add(self, phase: str, choice: CommChoice) -> None:
        if choice.seconds <= 0.0:
            return  # singleton communicators / empty messages are free
        labels = self.entries.setdefault(phase, [])
        if choice.label not in labels:
            labels.append(choice.label)

    def items(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(
            (phase, "+".join(labels))
            for phase, labels in self.entries.items()
        )


class _ScalarFallback(Exception):
    """Internal: a batch handler met a configuration it does not
    vectorize (e.g. checkpointed pipelines); the caller re-projects the
    whole group through the scalar path."""


@dataclass(frozen=True)
class Projection:
    """One oracle projection: per-epoch times + per-PE memory."""

    model_name: str
    strategy: Strategy
    batch: int
    dataset_size: int
    per_epoch: PhaseBreakdown
    memory_bytes: float
    memory_capacity: float
    gamma: float = DEFAULT_GAMMA
    delta: int = DEFAULT_DELTA
    notes: Tuple[str, ...] = ()
    #: Which comm policy costed this projection ("paper" reproduces the
    #: seed model) and which algorithm each communication phase used,
    #: e.g. ``(("ge", "allreduce:ring"),)``.
    comm_policy: str = "paper"
    comm_algorithms: Tuple[Tuple[str, str], ...] = ()

    @property
    def p(self) -> int:
        return self.strategy.p

    @cached_property
    def iterations(self) -> int:
        """``I = D / B`` iterations per epoch."""
        return max(1, self.dataset_size // self.batch)

    @cached_property
    def per_iteration(self) -> PhaseBreakdown:
        return self.per_epoch.scaled(1.0 / self.iterations)

    @property
    def feasible_memory(self) -> bool:
        return self.memory_bytes <= self.memory_capacity

    def accuracy(self, measured_total: float) -> float:
        """The paper's accuracy metric: ``1 - |proj - meas| / meas``."""
        if measured_total <= 0:
            raise ValueError("measured time must be > 0")
        return 1.0 - abs(self.per_epoch.total - measured_total) / measured_total

    def accuracy_per_iteration(self, measured_iter: float) -> float:
        if measured_iter <= 0:
            raise ValueError("measured time must be > 0")
        return 1.0 - abs(self.per_iteration.total - measured_iter) / measured_iter


def spatial_extent_of(model: ModelGraph, grid: Tuple[int, ...]) -> List[Layer]:
    """Layers a ``grid`` spatial decomposition actually parallelizes.

    Following the paper's implementation (Section 4.5.1), spatial
    parallelism applies to the leading layers while the per-dimension
    extent still accommodates the grid; the activation is aggregated before
    the first layer that cannot be split (e.g. the FC head).
    """
    selected: List[Layer] = []
    for layer in model:
        if not layer.spatially_parallelizable:
            break
        if len(grid) != layer.input.ndim:
            break
        if any(g > s for g, s in zip(grid, layer.input.spatial)):
            break
        selected.append(layer)
    if not selected:
        raise ValueError(
            f"grid {grid} cannot parallelize any layer of {model.name}"
        )
    return selected


class AnalyticalModel:
    """Table-3 analyzer bound to a model, cluster, and compute profile."""

    def __init__(
        self,
        model: ModelGraph,
        cluster: ClusterSpec,
        profile: ComputeProfile,
        *,
        delta: int = DEFAULT_DELTA,
        gamma: float = DEFAULT_GAMMA,
        halo_transport: str = "mpi",
        contention: bool = True,
        comm: Optional[object] = None,
        kernel: Optional[ModelKernel] = None,
    ) -> None:
        profile.validate_against(model)
        if kernel is not None and not (
                kernel.model is model and kernel.profile is profile):
            raise ValueError("kernel built for a different model or profile")
        if delta <= 0:
            raise ValueError("delta must be positive")
        if not 0 < gamma <= 1:
            raise ValueError("gamma must be in (0, 1]")
        self.model = model
        self.cluster = cluster
        self.profile = profile
        self.delta = delta
        self.gamma = gamma
        self.halo_transport = halo_transport
        self.contention = contention
        #: Communication model: a policy name ("paper" / "auto" /
        #: "nccl-like") or a ready CommModel.  Every collective the
        #: analyzers cost goes through it.
        self.comm: CommModel = as_comm_model(comm, cluster)
        self._kernel: Optional[ModelKernel] = kernel
        self._comm_overrides: Dict[Tuple, CommModel] = {}
        # (strategy, batch) -> True | (exc_type, message).  Feasibility
        # checks are pure in (model, strategy, batch) and the search
        # re-asks them per comm policy, so both projection paths (and
        # every adopter of a shared kernel) share this memo.  Bounded
        # below; unhashable strategies skip it.
        self._check_memo = {} if kernel is None else kernel.check_memo

    @property
    def kernel(self) -> ModelKernel:
        """The compiled projection kernel (built lazily, exactly once).

        Everything the fast path precomputes about ``(model, profile)``
        — see :class:`~repro.core.kernel.ModelKernel`.  Oracles built
        from the artifact store (:mod:`repro.api.artifacts`) adopt its
        shared kernel instead.

        Double-checked against a module lock so concurrent first calls
        (an HTTP server fanning request threads over one shared oracle)
        compile the kernel exactly once; the lock is module-level, not
        an instance attribute, so the model stays picklable for the
        remote executor.
        """
        if self._kernel is None:
            with _KERNEL_BUILD_LOCK:
                if self._kernel is None:
                    self._kernel = ModelKernel(self.model, self.profile)
        return self._kernel

    def __getstate__(self):
        """Drop the (possibly shared) kernel and memo; workers recompile."""
        state = self.__dict__.copy()
        state["_kernel"] = None
        state["_check_memo"] = {}
        return state

    def _resolve_comm(self, comm: Optional[object]) -> CommModel:
        """Per-call comm override: ``None`` keeps the bound model; a
        policy string resolves to a per-policy selector, memoized so the
        selector's own choice memo stays warm across candidates.

        The memo key includes the bound model's forcing/threshold
        inputs (the override inherits them), so mutating ``self.comm``
        in place builds a fresh override instead of serving a stale one
        — matching the pre-memo behaviour of constructing a throwaway
        selector per call.
        """
        if comm is None:
            return self.comm
        if isinstance(comm, CommModel):
            return comm
        key = (
            str(comm),
            self.comm.tree_threshold,
            tuple(sorted(self.comm.algo.items())),
        )
        cached = self._comm_overrides.get(key)
        if cached is None:
            cached = CommModel(
                self.cluster, policy=key[0], algo=self.comm.algo,
                tree_threshold=self.comm.tree_threshold,
            )
            self._comm_overrides[key] = cached
        return cached

    def _checked(self, strategy: Strategy, batch: int) -> Optional[Exception]:
        """Memoized ``strategy.check``: ``None`` when feasible, else the
        (reconstructed) :class:`StrategyError`/`ValueError` it raised."""
        key = (strategy, batch)
        try:
            hit = self._check_memo.get(key)
        except TypeError:  # unhashable strategy: check directly
            hit = None
            key = None
        if hit is not None:
            return None if hit is True else hit[0](hit[1])
        try:
            strategy.check(self.model, batch)
        except (StrategyError, ValueError) as exc:
            if key is not None:
                self._check_memo[key] = (type(exc), str(exc))
            return exc
        if key is not None:
            if len(self._check_memo) >= 65536:
                self._check_memo.clear()
            self._check_memo[key] = True
        return None

    # ------------------------------------------------------------------ api
    #: Evaluation paths: ``fast`` (the default) projects from the
    #: compiled kernel; ``reference`` runs the original per-layer walks.
    PATHS = ("fast", "reference")

    def project(
        self,
        strategy: Strategy,
        batch: int,
        dataset_size: int,
        *,
        comm: Optional[object] = None,
        path: Optional[str] = None,
    ) -> Projection:
        """Project one strategy.  ``batch`` is the *global* mini-batch B.

        ``comm`` optionally overrides the bound communication model for
        this projection only (a policy string or a ``CommModel``).
        ``path`` picks the evaluation path: ``None``/``"fast"`` uses the
        compiled :attr:`kernel` closed forms, ``"reference"`` forces the
        original per-layer walk (the golden specification both paths are
        tested against).
        """
        if batch < 1 or dataset_size < batch:
            raise ValueError("need dataset_size >= batch >= 1")
        if path is None:
            path = "fast"
        if path not in self.PATHS:
            raise ValueError(
                f"unknown projection path {path!r}; expected one of "
                f"{self.PATHS}"
            )
        err = self._checked(strategy, batch)
        if err is not None:
            raise err
        if path == "fast":
            handler = {
                "serial": self._fast_serial,
                "d": self._fast_data,
                "z": self._fast_sharded_data,
                "s": self._fast_spatial,
                "p": self._fast_pipeline,
                "f": self._fast_filter,
                "c": self._fast_channel,
                "df": self._fast_data_filter,
                "ds": self._fast_data_spatial,
            }[strategy.id]
        else:
            handler = {
                "serial": self._serial,
                "d": self._data,
                "z": self._sharded_data,
                "s": self._spatial,
                "p": self._pipeline,
                "f": self._filter,
                "c": self._channel,
                "df": self._data_filter,
                "ds": self._data_spatial,
            }[strategy.id]
        comm_model = self._resolve_comm(comm)
        log = _AlgoLog()
        per_epoch, memory, notes = handler(
            strategy, batch, dataset_size, comm_model, log
        )
        return Projection(
            model_name=self.model.name,
            strategy=strategy,
            batch=batch,
            dataset_size=dataset_size,
            per_epoch=per_epoch,
            memory_bytes=memory,
            memory_capacity=self.cluster.gpu_memory_bytes,
            gamma=self.gamma,
            delta=self.delta,
            notes=tuple(notes),
            comm_policy=comm_model.policy,
            comm_algorithms=log.items(),
        )

    def project_inference(
        self,
        strategy: Strategy,
        batch: int,
        dataset_size: int,
        *,
        comm: Optional[object] = None,
        path: Optional[str] = None,
    ) -> Projection:
        """Forward-only projection for distributed inference (Section 5.4.2).

        The paper notes that several training limitations carry over to
        distributed inference (Table 6's "I" column): the layer-wise
        collectives of filter/channel, halo exchanges, pipeline P2P, and
        the memory redundancies — while gradient exchange and weight
        update vanish.  This derives the inference projection from the
        training one: forward compute and the forward share of each
        communication pattern, with gradient/optimizer memory dropped.
        """
        train = self.project(strategy, batch, dataset_size, comm=comm,
                             path=path)
        e = train.per_epoch
        sid = strategy.id
        # Forward share of the layer-wise collectives: the forward leg
        # only (Eq. 15's Allgather for filter-style splits — 1 of the
        # 3(p-1) ring-step groups — and Eq. 19's Allreduce for channel),
        # re-costed under the active policy so non-ring selections keep a
        # correct split; halos halve (no dL/dy exchange); pipeline P2P
        # halves (no backward sweep).
        inf_log = _AlgoLog()
        if sid in ("f", "c", "df") and e.comm_fb > 0:
            comm_model = self._resolve_comm(comm)
            leg = (
                self._layerwise_forward_leg if path == "reference"
                else self._fast_layerwise_forward_leg
            )
            comm_fb = (dataset_size // batch) * leg(
                strategy, batch, comm_model, inf_log)
        else:
            comm_fb = e.comm_fb
        per_epoch = PhaseBreakdown(
            comp_fw=e.comp_fw,
            comm_fb=comm_fb,
            comm_halo=e.comm_halo / 2,
            comm_p2p=e.comm_p2p / 2,
        )
        # Memory: activations once (no cached gradients), weights once (no
        # gradient buffer, no optimizer state).  The training formula
        # counts both at 2x, so inference memory is half.
        memory = train.memory_bytes / 2
        return Projection(
            model_name=train.model_name,
            strategy=strategy,
            batch=batch,
            dataset_size=dataset_size,
            per_epoch=per_epoch,
            memory_bytes=memory,
            memory_capacity=train.memory_capacity,
            gamma=self.gamma,
            delta=self.delta,
            notes=train.notes + ("inference (forward-only)",),
            comm_policy=train.comm_policy,
            # Only the collectives the forward-only projection actually
            # contains (gradient exchange vanishes; fb shrinks to the
            # re-costed Allgather leg).
            comm_algorithms=inf_log.items(),
        )

    # ---------------------------------------------------------------- pieces
    def _weights_bytes(self) -> float:
        """``delta * sum_l |w_l|`` — the gradient-exchange message."""
        return self.delta * self.model.weight_elements

    def _memory_terms(
        self,
        batch_act: float,
        weight_div: float = 1.0,
        act_div: float = 1.0,
        layers: Optional[List[Layer]] = None,
    ) -> float:
        """``gamma * delta * sum_l (2 B'(|x|+|y|)/act_div + 2|w|/w_div + |bi|)``.

        ``batch_act`` is the per-PE batch multiplying activations; the
        factor 2 on activations covers their gradients and the factor 2 on
        weights covers weight gradients (Appendix Eq. 7 etc.).
        """
        layers = self.model.layers if layers is None else layers
        total = 0.0
        for l in layers:
            act = 2.0 * batch_act * (l.input.elements + l.output.elements) / act_div
            w = 2.0 * l.weight_elements / weight_div
            total += act + w + l.bias_elements
        return self.gamma * self.delta * total

    def _comp(self, D: int, I: int, p_div: float, wu_div: float = 1.0
              ) -> PhaseBreakdown:
        """Computation terms: ``D/p sum(FW+BW) + I/wu_div sum(WU)``."""
        return PhaseBreakdown(
            comp_fw=D / p_div * self.profile.total_fw(),
            comp_bw=D / p_div * self.profile.total_bw(),
            comp_wu=I / wu_div * self.profile.total_wu(),
        )

    def _coll(
        self,
        comm: CommModel,
        log: _AlgoLog,
        phase: str,
        collective: str,
        p: int,
        nbytes: float,
        *,
        params: Optional[HockneyParams] = None,
        scope: str = "auto",
        transport: str = "nccl",
    ) -> float:
        """One policy-selected collective: cost it and log the choice."""
        choice = comm.choose(
            collective, p, nbytes, params=params, scope=scope,
            transport=transport,
        )
        log.add(phase, choice)
        return choice.seconds

    def _layerwise_forward_leg(
        self, strategy: Strategy, B: int, comm: CommModel, log: _AlgoLog
    ) -> float:
        """Per-iteration cost of just the *forward* leg of the layer-wise
        collectives (the share an inference projection keeps), under the
        active policy: the partial-activation Allgather for filter-style
        splits (f, df), the partial-sum Allreduce for channel — whose
        patterns are reversed (Eq. 17-19)."""
        sid = strategy.id
        if sid == "df":
            group_p, msg_div = strategy.p2, strategy.p
            params = self.cluster.hockney_intra(strategy.p2)
            scope = "intra-node"
        else:  # f / c
            group_p, msg_div = strategy.p, strategy.p
            params, scope = None, "auto"
        if group_p <= 1:
            return 0.0
        total = 0.0
        for l in self.model.weighted_layers[:-1]:
            seg = B * l.output.elements * self.delta / msg_div
            if sid == "c":
                choice = comm.choose(
                    "allreduce", group_p, seg * group_p,
                    params=params, scope=scope,
                )
            else:
                choice = comm.choose(
                    "allgather", group_p, seg, params=params, scope=scope
                )
            log.add("fb", choice)
            total += choice.seconds
        return total

    # -------------------------------------------------------------- serial
    def _serial(self, strategy: Serial, B: int, D: int, comm, log):
        I = D // B
        comp = self._comp(D, I, p_div=1.0)
        memory = self._memory_terms(batch_act=B)
        return comp, memory, []

    # ---------------------------------------------------------------- data
    def _data(self, strategy: DataParallel, B: int, D: int, comm, log):
        """Eqs. (5)-(7): compute / p, one Allreduce of all gradients
        (ring under the paper policy)."""
        p = strategy.p
        I = D // B
        comp = self._comp(D, I, p_div=p)
        ge = I * self._coll(
            comm, log, "ge", "allreduce", p, self._weights_bytes()
        )
        per_epoch = replace(comp, comm_ge=ge)
        memory = self._memory_terms(batch_act=B / p)
        return per_epoch, memory, []

    # -------------------------------------------------------- sharded data
    def _sharded_data(self, strategy: ShardedDataParallel, B: int, D: int,
                      comm, log):
        """ZeRO-style data parallelism (Section 5.3.2's alternative).

        Weights, gradients and optimizer state are sharded 1/p; the price
        is two weight Allgathers (forward + backward) on top of a gradient
        ReduceScatter — "extra communication of 50%" over the plain
        Allreduce.  The weight update itself shrinks by 1/p (each PE
        updates only its shard — the cross-replica sharding of [52]).
        """
        p = strategy.p
        I = D // B
        comp = self._comp(D, I, p_div=p, wu_div=p)
        wbytes = self._weights_bytes()
        ge = I * (
            self._coll(comm, log, "ge", "reduce_scatter", p, wbytes)
            + 2 * self._coll(comm, log, "ge", "allgather", p, wbytes / p)
        )
        per_epoch = replace(comp, comm_ge=ge)
        memory = self.gamma * self.delta * sum(
            2.0 * (B / p) * (l.input.elements + l.output.elements)
            + (2.0 * l.weight_elements + l.bias_elements) / p
            for l in self.model
        )
        return per_epoch, memory, ["weights/optimizer state sharded 1/p"]

    # -------------------------------------------------------------- spatial
    def _spatial(self, strategy: SpatialParallel, B: int, D: int, comm, log):
        """Eqs. (8)-(10): data-parallel-style GE plus per-layer halos."""
        p = strategy.p
        I = D // B
        comp = self._comp(D, I, p_div=p)
        ge = I * self._coll(
            comm, log, "ge", "allreduce", p, self._weights_bytes()
        )
        halo_params = self.cluster.hockney(p, transport=self.halo_transport)
        halo = I * self._halo_epoch_time(strategy.grid, B, halo_params)
        per_epoch = replace(comp, comm_ge=ge, comm_halo=halo)
        memory = self._spatial_memory(strategy.grid, B, group_batch=B)
        notes = [f"halo over {self.halo_transport} transport"]
        return per_epoch, memory, notes

    def _halo_epoch_time(
        self, grid: Tuple[int, ...], B: int, params: HockneyParams
    ) -> float:
        """Per-iteration halo total, Eq. (10): for every spatially-split
        layer, two exchanges (x in forward, dL/dy in backward), each a pair
        of sends (hence ``2 alpha``)."""
        total = 0.0
        for layer in spatial_extent_of(self.model, grid):
            if not layer.kernel or max(layer.kernel, default=1) <= 1:
                continue
            hx = halo_elements(layer.input, grid, layer.kernel)
            hy = halo_elements(layer.output, grid, layer.kernel)
            if hx == 0 and hy == 0:
                continue
            total += 2 * (2 * params.alpha + B * (hx + hy) * self.delta * params.beta)
        return total

    def _spatial_memory(
        self, grid: Tuple[int, ...], B: int, group_batch: float
    ) -> float:
        """Eq. (8) with the implementation refinement that only the leading
        spatially-split layers divide their activations by p."""
        split = {l.name for l in spatial_extent_of(self.model, grid)}
        p2 = 1
        for g in grid:
            p2 *= g
        total = 0.0
        for l in self.model:
            act_div = p2 if l.name in split else 1.0
            act = 2.0 * group_batch * (l.input.elements + l.output.elements) / act_div
            total += act + 2.0 * l.weight_elements + l.bias_elements
        return self.gamma * self.delta * total

    # ------------------------------------------------------------- pipeline
    def _pipeline(self, strategy: PipelineParallel, B: int, D: int, comm, log):
        """Eqs. (12)-(14): GPipe schedule of p stages and S micro-batches."""
        p, S = strategy.stages, strategy.segments
        I = D // B
        groups = self.model.partition_depth(p)
        fw_g = [self.profile.group_fw(g) for g in groups]
        bw_g = [self.profile.group_bw(g) for g in groups]
        wu_g = [self.profile.group_wu(g) for g in groups]
        bubble = (p + S - 1) / S
        checkpoint = getattr(strategy, "checkpoint", False)
        # Gradient checkpointing recomputes each stage's activations during
        # the backward sweep: one extra forward per sample (Section 5.3.2).
        fw_factor = 2.0 if checkpoint else 1.0
        comp = PhaseBreakdown(
            comp_fw=D * bubble * max(fw_g) * fw_factor,
            comp_bw=D * bubble * max(bw_g),
            comp_wu=I * max(wu_g),
        )
        params = self.cluster.hockney(p)
        # Boundary activation of each stage i < p: output of its last layer.
        boundary = [g[-1].output.elements for g in groups[:-1]]
        if boundary and p > 1:
            per_stage = max(
                comm.p2p(B / S * y * self.delta, params=params)
                for y in boundary
            )
            comm_p2p = 2 * D * (p + S - 2) / B * per_stage
        else:
            comm_p2p = 0.0
        per_epoch = replace(comp, comm_p2p=comm_p2p)
        if checkpoint:
            # Live activations: one micro-batch inside the stage being
            # recomputed, plus the stored stage-boundary activations of all
            # S micro-batches, plus full weights/gradients.
            memory = 0.0
            for g in groups:
                act_micro = self._memory_terms(batch_act=B / S, layers=g)
                boundary = (
                    self.gamma * self.delta * 2.0 * B
                    * g[-1].output.elements
                )
                memory = max(memory, act_micro + boundary)
            notes = [
                f"stages balanced by FLOPs: {[len(g) for g in groups]}",
                "gradient checkpointing at stage boundaries (+1 forward)",
            ]
        else:
            memory = max(
                self._memory_terms(batch_act=B, layers=g) for g in groups
            )
            notes = [f"stages balanced by FLOPs: {[len(g) for g in groups]}"]
        return per_epoch, memory, notes

    # --------------------------------------------------------------- filter
    def _filter(self, strategy: FilterParallel, B: int, D: int, comm, log):
        """Eqs. (15)-(16): Allgather(fwd) + Allreduce(bwd) per layer."""
        p = strategy.p
        I = D // B
        comp = self._comp(D, I, p_div=p, wu_div=p)
        fb = I * self._layerwise_collectives(p, p, B, comm, log)
        per_epoch = replace(comp, comm_fb=fb)
        memory = self._memory_terms(batch_act=B, weight_div=p)
        return per_epoch, memory, []

    def _layerwise_collectives(
        self,
        group_p: int,
        msg_div: int,
        B: float,
        comm: CommModel,
        log: _AlgoLog,
        params: Optional[HockneyParams] = None,
        scope: str = "auto",
    ) -> float:
        """Per-iteration layer-wise collectives of filter/channel
        parallelism over a ``group_p``-wide communicator: an Allgather of
        the partial activations (segments of ``B |y_l| delta / msg_div``)
        plus an Allreduce of the input gradients.  Under the paper policy
        both are rings, recovering Eq. (15)/(19)'s
        ``3 (p-1) sum_{l<G} (alpha + B |y_l| delta beta / p)``
        (the Allgather's ``p-1`` steps + the Allreduce's ``2(p-1)``).

        ``msg_div`` is the activation-sharding denominator — the *total*
        parallelism p, which differs from ``group_p`` for Data+Filter
        where each filter group only spans p2 PEs.
        """
        if group_p <= 1:
            return 0.0
        layers = self.model.weighted_layers
        total = 0.0
        for l in layers[:-1]:
            seg = B * l.output.elements * self.delta / msg_div
            total += self._coll(
                comm, log, "fb", "allgather", group_p, seg,
                params=params, scope=scope,
            )
            total += self._coll(
                comm, log, "fb", "allreduce", group_p, seg * group_p,
                params=params, scope=scope,
            )
        return total

    # -------------------------------------------------------------- channel
    def _channel(self, strategy: ChannelParallel, B: int, D: int, comm, log):
        """Eqs. (17)-(19): same totals as filter with reversed patterns
        (Allreduce forward, Allgather backward)."""
        p = strategy.p
        I = D // B
        comp = self._comp(D, I, p_div=p, wu_div=p)
        fb = I * self._layerwise_collectives(p, p, B, comm, log)
        per_epoch = replace(comp, comm_fb=fb)
        memory = self._memory_terms(batch_act=B, weight_div=p)
        return per_epoch, memory, []

    # ---------------------------------------------------------- data+filter
    def _data_filter(self, strategy: DataFilterParallel, B: int, D: int,
                     comm, log):
        """Eqs. (20)-(22): filter intra-group, data inter-group, with the
        segmented-Allreduce contention penalty phi (Section 5.2 uses 2x)."""
        p1, p2, p = strategy.p1, strategy.p2, strategy.p
        I = D // B
        comp = self._comp(D, I, p_div=p, wu_div=p2)
        # Filter collectives run inside a group; the paper maps groups
        # intra-node, so they see intra-node (NVLink) parameters.
        intra = self.cluster.hockney_intra(p2)
        fb = self._layerwise_collectives(
            p2, p, B, comm, log, params=intra, scope="intra-node"
        )
        # Gradient exchange: p2 disjoint segmented Allreduces over the p1
        # groups, sharing the node's NIC rails -> contention penalty.
        ge = 0.0
        if p1 > 1:
            inter = self.cluster.hockney(p)
            if self.contention:
                inter = inter.with_contention(data_filter_phi(self.cluster, p2))
            # Each group allreduces its 1/p2 weight shard over p1 PEs.
            ge = self._coll(
                comm, log, "ge", "allreduce", p1,
                self._weights_bytes() / p2,
                params=inter, scope="inter-node",
            )
        per_epoch = replace(comp, comm_fb=I * fb, comm_ge=I * ge)
        memory = self._memory_terms(
            batch_act=B / p1, weight_div=p2
        )
        notes = []
        if self.contention and p1 > 1:
            notes.append(
                f"GE beta scaled by phi={data_filter_phi(self.cluster, p2):.2f}"
            )
        return per_epoch, memory, notes

    # --------------------------------------------------------- data+spatial
    def _data_spatial(self, strategy: DataSpatialParallel, B: int, D: int,
                      comm, log):
        """Spatial intra-group + data inter-group with the hierarchical
        (leader-based) gradient exchange of Section 4.5.1."""
        p1, p2, p = strategy.p1, strategy.p2, strategy.p
        I = D // B
        group_batch = B / p1
        comp = self._comp(D, I, p_div=p, wu_div=1.0)
        intra = self.cluster.hockney_intra(
            p2, transport=self.halo_transport, floor=2
        )
        halo = 0.0
        if p2 > 1:
            halo = I * self._halo_epoch_time(strategy.grid, int(group_batch) or 1,
                                             intra)
        # Hierarchical GE: reduce to the node leader(s), Allreduce between
        # groups, broadcast back ("time for Allreduce is more than 2x as
        # those of data" -- Section 5.3.1).  With L > 1 leaders each
        # carries 1/L of the weights concurrently (the multi-leader fix of
        # Nguyen et al. that the paper cites), at the price of contention
        # once L exceeds the NIC rail count.
        L = getattr(strategy, "leaders", 1)
        wbytes = self._weights_bytes()
        nvl = self.cluster.hockney_intra(p2, floor=2)
        ge = (
            self._coll(comm, log, "ge", "reduce", p2, wbytes / L,
                       params=nvl, scope="intra-node")
            + self._coll(comm, log, "ge", "broadcast", p2, wbytes / L,
                         params=nvl, scope="intra-node")
        )
        if p1 > 1:
            inter = self.cluster.hockney(p)
            if self.contention and L > self.cluster.node.nics:
                inter = inter.with_contention(L / self.cluster.node.nics)
            ge += self._coll(comm, log, "ge", "allreduce", p1, wbytes / L,
                             params=inter, scope="inter-node")
        per_epoch = replace(comp, comm_halo=halo, comm_ge=I * ge)
        memory = self._ds_memory(strategy.grid, group_batch)
        notes = [] if L == 1 else [f"multi-leader allreduce: L={L}"]
        return per_epoch, memory, notes

    def _ds_memory(self, grid: Tuple[int, ...], group_batch: float) -> float:
        return self._spatial_memory(grid, int(group_batch) or 1,
                                    group_batch=group_batch)

    # ------------------------------------------------------------ fast path
    # Closed-form re-statements of the reference analyzers above, over the
    # compiled :attr:`kernel` invariants.  Each mirrors its reference
    # handler term for term: identical collective calls (same sizes, same
    # order of first appearance, so the algorithm log matches exactly),
    # identical error messages, and sums that differ only by floating-
    # point reassociation (<= 1e-9 relative, pinned by
    # tests/test_fast_path_equivalence.py).

    def _fast_comp(self, D: int, I: int, p_div: float, wu_div: float = 1.0
                   ) -> PhaseBreakdown:
        """`_comp` over the kernel's profile totals (bit-identical)."""
        k = self.kernel
        return PhaseBreakdown(
            comp_fw=D / p_div * k.fw_total,
            comp_bw=D / p_div * k.bw_total,
            comp_wu=I / wu_div * k.wu_total,
        )

    def _fast_memory(
        self,
        batch_act: float,
        weight_div: float = 1.0,
        act_div: float = 1.0,
    ) -> float:
        """`_memory_terms` as one closed form over exact element sums."""
        k = self.kernel
        return self.gamma * self.delta * (
            2.0 * batch_act * k.io_elements / act_div
            + 2.0 * k.weight_elements / weight_div
            + k.bias_elements
        )

    def _fast_halo(
        self, grid: Tuple[int, ...], B: int, params: HockneyParams
    ) -> float:
        """`_halo_epoch_time` from the kernel's per-grid halo table."""
        st = self.kernel.spatial(grid)
        if st.halo_pairs == 0:
            return 0.0
        return (
            4.0 * params.alpha * st.halo_pairs
            + 2.0 * B * st.halo_elements * self.delta * params.beta
        )

    def _fast_spatial_memory(
        self, grid: Tuple[int, ...], group_batch: float
    ) -> float:
        """`_spatial_memory` from the kernel's split/unsplit sums."""
        st = self.kernel.spatial(grid)
        p2 = 1
        for g in grid:
            p2 *= g
        k = self.kernel
        return self.gamma * self.delta * (
            2.0 * group_batch * (st.split_io / p2 + st.rest_io)
            + 2.0 * k.weight_elements + k.bias_elements
        )

    def _fast_layerwise(
        self,
        group_p: int,
        msg_div: int,
        B: float,
        comm: CommModel,
        log: _AlgoLog,
        params: Optional[HockneyParams] = None,
        scope: str = "auto",
    ) -> float:
        """`_layerwise_collectives` over the distinct-activation table:
        one Allgather + Allreduce choice per distinct ``|y_l|`` (in
        first-appearance order, so the log dedups identically), scaled
        by multiplicity."""
        if group_p <= 1:
            return 0.0
        delta = self.delta
        total = 0.0
        for y, count in self.kernel.layerwise_sizes:
            seg = B * y * delta / msg_div
            ag = comm.choose(
                "allgather", group_p, seg, params=params, scope=scope)
            log.add("fb", ag)
            ar = comm.choose(
                "allreduce", group_p, seg * group_p, params=params,
                scope=scope)
            log.add("fb", ar)
            total += count * (ag.seconds + ar.seconds)
        return total

    def _fast_layerwise_forward_leg(
        self, strategy: Strategy, B: int, comm: CommModel, log: _AlgoLog
    ) -> float:
        """`_layerwise_forward_leg` over the distinct-activation table."""
        sid = strategy.id
        if sid == "df":
            group_p, msg_div = strategy.p2, strategy.p
            params = self.cluster.hockney_intra(strategy.p2)
            scope = "intra-node"
        else:  # f / c
            group_p, msg_div = strategy.p, strategy.p
            params, scope = None, "auto"
        if group_p <= 1:
            return 0.0
        total = 0.0
        for y, count in self.kernel.layerwise_sizes:
            seg = B * y * self.delta / msg_div
            if sid == "c":
                choice = comm.choose(
                    "allreduce", group_p, seg * group_p,
                    params=params, scope=scope,
                )
            else:
                choice = comm.choose(
                    "allgather", group_p, seg, params=params, scope=scope
                )
            log.add("fb", choice)
            total += count * choice.seconds
        return total

    def _fast_serial(self, strategy: Serial, B: int, D: int, comm, log):
        I = D // B
        comp = self._fast_comp(D, I, p_div=1.0)
        memory = self._fast_memory(batch_act=B)
        return comp, memory, []

    def _fast_data(self, strategy: DataParallel, B: int, D: int, comm, log):
        p = strategy.p
        I = D // B
        comp = self._fast_comp(D, I, p_div=p)
        ge = I * self._coll(
            comm, log, "ge", "allreduce", p, self._weights_bytes()
        )
        per_epoch = replace(comp, comm_ge=ge)
        memory = self._fast_memory(batch_act=B / p)
        return per_epoch, memory, []

    def _fast_sharded_data(self, strategy: ShardedDataParallel, B: int,
                           D: int, comm, log):
        p = strategy.p
        I = D // B
        comp = self._fast_comp(D, I, p_div=p, wu_div=p)
        wbytes = self._weights_bytes()
        ge = I * (
            self._coll(comm, log, "ge", "reduce_scatter", p, wbytes)
            + 2 * self._coll(comm, log, "ge", "allgather", p, wbytes / p)
        )
        per_epoch = replace(comp, comm_ge=ge)
        k = self.kernel
        memory = self.gamma * self.delta * (
            2.0 * (B / p) * k.io_elements + k.weight2_plus_bias / p
        )
        return per_epoch, memory, ["weights/optimizer state sharded 1/p"]

    def _fast_spatial(self, strategy: SpatialParallel, B: int, D: int,
                      comm, log):
        p = strategy.p
        I = D // B
        comp = self._fast_comp(D, I, p_div=p)
        ge = I * self._coll(
            comm, log, "ge", "allreduce", p, self._weights_bytes()
        )
        halo_params = self.cluster.hockney(p, transport=self.halo_transport)
        halo = I * self._fast_halo(strategy.grid, B, halo_params)
        per_epoch = replace(comp, comm_ge=ge, comm_halo=halo)
        memory = self._fast_spatial_memory(strategy.grid, B)
        notes = [f"halo over {self.halo_transport} transport"]
        return per_epoch, memory, notes

    def _fast_pipeline(self, strategy: PipelineParallel, B: int, D: int,
                       comm, log):
        p, S = strategy.stages, strategy.segments
        I = D // B
        table = self.kernel.pipeline(p)
        bubble = (p + S - 1) / S
        checkpoint = getattr(strategy, "checkpoint", False)
        fw_factor = 2.0 if checkpoint else 1.0
        comp = PhaseBreakdown(
            comp_fw=D * bubble * table.max_fw * fw_factor,
            comp_bw=D * bubble * table.max_bw,
            comp_wu=I * table.max_wu,
        )
        params = self.cluster.hockney(p)
        if p > 1 and len(table.sizes) > 1:
            # p2p is monotone in the message size, so the heaviest
            # boundary activation decides the per-stage cost.
            per_stage = comm.p2p(
                B / S * table.max_boundary * self.delta, params=params)
            comm_p2p = 2 * D * (p + S - 2) / B * per_stage
        else:
            comm_p2p = 0.0
        per_epoch = replace(comp, comm_p2p=comm_p2p)
        gd = self.gamma * self.delta
        if checkpoint:
            memory = max(
                gd * (B / S * io2 + wb) + gd * 2.0 * B * last
                for io2, wb, last in table.mem_groups
            )
            notes = [
                f"stages balanced by FLOPs: {list(table.sizes)}",
                "gradient checkpointing at stage boundaries (+1 forward)",
            ]
        else:
            memory = max(
                gd * (B * io2 + wb) for io2, wb, _ in table.mem_groups
            )
            notes = [f"stages balanced by FLOPs: {list(table.sizes)}"]
        return per_epoch, memory, notes

    def _fast_filter(self, strategy: FilterParallel, B: int, D: int,
                     comm, log):
        p = strategy.p
        I = D // B
        comp = self._fast_comp(D, I, p_div=p, wu_div=p)
        fb = I * self._fast_layerwise(p, p, B, comm, log)
        per_epoch = replace(comp, comm_fb=fb)
        memory = self._fast_memory(batch_act=B, weight_div=p)
        return per_epoch, memory, []

    def _fast_channel(self, strategy: ChannelParallel, B: int, D: int,
                      comm, log):
        p = strategy.p
        I = D // B
        comp = self._fast_comp(D, I, p_div=p, wu_div=p)
        fb = I * self._fast_layerwise(p, p, B, comm, log)
        per_epoch = replace(comp, comm_fb=fb)
        memory = self._fast_memory(batch_act=B, weight_div=p)
        return per_epoch, memory, []

    def _fast_data_filter(self, strategy: DataFilterParallel, B: int,
                          D: int, comm, log):
        p1, p2, p = strategy.p1, strategy.p2, strategy.p
        I = D // B
        comp = self._fast_comp(D, I, p_div=p, wu_div=p2)
        intra = self.cluster.hockney_intra(p2)
        fb = self._fast_layerwise(
            p2, p, B, comm, log, params=intra, scope="intra-node"
        )
        ge = 0.0
        if p1 > 1:
            inter = self.cluster.hockney(p)
            if self.contention:
                inter = inter.with_contention(data_filter_phi(self.cluster, p2))
            ge = self._coll(
                comm, log, "ge", "allreduce", p1,
                self._weights_bytes() / p2,
                params=inter, scope="inter-node",
            )
        per_epoch = replace(comp, comm_fb=I * fb, comm_ge=I * ge)
        memory = self._fast_memory(batch_act=B / p1, weight_div=p2)
        notes = []
        if self.contention and p1 > 1:
            notes.append(
                f"GE beta scaled by phi={data_filter_phi(self.cluster, p2):.2f}"
            )
        return per_epoch, memory, notes

    def _fast_data_spatial(self, strategy: DataSpatialParallel, B: int,
                           D: int, comm, log):
        p1, p2, p = strategy.p1, strategy.p2, strategy.p
        I = D // B
        group_batch = B / p1
        comp = self._fast_comp(D, I, p_div=p, wu_div=1.0)
        intra = self.cluster.hockney_intra(
            p2, transport=self.halo_transport, floor=2
        )
        halo = 0.0
        if p2 > 1:
            halo = I * self._fast_halo(
                strategy.grid, int(group_batch) or 1, intra)
        L = getattr(strategy, "leaders", 1)
        wbytes = self._weights_bytes()
        nvl = self.cluster.hockney_intra(p2, floor=2)
        ge = (
            self._coll(comm, log, "ge", "reduce", p2, wbytes / L,
                       params=nvl, scope="intra-node")
            + self._coll(comm, log, "ge", "broadcast", p2, wbytes / L,
                         params=nvl, scope="intra-node")
        )
        if p1 > 1:
            inter = self.cluster.hockney(p)
            if self.contention and L > self.cluster.node.nics:
                inter = inter.with_contention(L / self.cluster.node.nics)
            ge += self._coll(comm, log, "ge", "allreduce", p1, wbytes / L,
                             params=inter, scope="inter-node")
        per_epoch = replace(comp, comm_halo=halo, comm_ge=I * ge)
        memory = self._fast_spatial_memory(strategy.grid, group_batch)
        notes = [] if L == 1 else [f"multi-leader allreduce: L={L}"]
        return per_epoch, memory, notes

    # ------------------------------------------------------------ batch path
    # Structure-of-arrays re-statements of the fast handlers above: one
    # strategy family per sub-batch, candidate columns (p, p1, p2, B) as
    # float64 vectors, collective costs via CommModel.time_batch.  Array
    # expressions are written operator-for-operator like the fast
    # handlers, so elementwise terms are bit-identical; only the
    # layer-wise reductions (numpy pairwise sums vs. sequential Python
    # sums) reassociate, keeping batch == fast == reference within
    # rel <= 1e-9 (pinned by tests/test_vectorized_equivalence.py).

    def project_batch(
        self,
        strategies: Sequence[Strategy],
        batches: Sequence[int],
        dataset_size: int,
        *,
        comms: Optional[Sequence[object]] = None,
    ) -> List[Union[Projection, Exception]]:
        """Project many ``(strategy, batch)`` candidates at once.

        Returns one entry per input, aligned: a :class:`Projection`, or
        the :class:`StrategyError`/:class:`ValueError` that candidate
        would have raised under :meth:`project` (other exception types
        propagate).  ``comms`` optionally carries a per-candidate comm
        override (``None`` / policy string / ``CommModel``), like
        :meth:`project`'s ``comm``.

        Candidates are grouped by (strategy family, resolved comm model)
        and each group is evaluated as array expressions over the
        compiled kernel.  Without numpy — or for the rare configuration
        a batch handler does not vectorize — candidates fall back to the
        scalar fast path with identical results.
        """
        n = len(strategies)
        if len(batches) != n:
            raise ValueError("strategies and batches must align")
        if comms is None:
            comms = [None] * n
        elif len(comms) != n:
            raise ValueError("comms must align with strategies")
        results: List[Union[Projection, Exception]] = [None] * n  # type: ignore[list-item]
        np = npcompat.np
        if np is None:
            for i in range(n):
                try:
                    results[i] = self.project(
                        strategies[i], batches[i], dataset_size,
                        comm=comms[i])
                except (StrategyError, ValueError) as exc:
                    results[i] = exc
            return results
        groups: Dict[Tuple[str, int], List[int]] = {}
        models: Dict[Tuple[str, int], CommModel] = {}
        alive: List[CommModel] = []  # pin ids used as group keys
        for i in range(n):
            b = batches[i]
            if b < 1 or dataset_size < b:
                results[i] = ValueError("need dataset_size >= batch >= 1")
                continue
            err = self._checked(strategies[i], b)
            if err is not None:
                results[i] = err
                continue
            cm = self._resolve_comm(comms[i])
            alive.append(cm)
            key = (strategies[i].id, id(cm))
            models[key] = cm
            groups.setdefault(key, []).append(i)
        # Loop-invariant Projection fields, applied via object.__new__ +
        # __dict__.update below: field-for-field identical to calling
        # Projection(...), minus the frozen __init__'s per-field guarded
        # setattr — measurable over thousands of assembled rows.
        proto = {
            "model_name": self.model.name,
            "dataset_size": dataset_size,
            "memory_capacity": self.cluster.gpu_memory_bytes,
            "gamma": self.gamma,
            "delta": self.delta,
        }
        for key, idxs in groups.items():
            handler = self._BATCH_HANDLERS.get(key[0])
            cm = models[key]
            sub = [strategies[i] for i in idxs]
            bat = [batches[i] for i in idxs]
            rows = None
            if handler is not None:
                try:
                    rows = handler(self, np, sub, bat, dataset_size, cm)
                except (_ScalarFallback, StrategyError, ValueError):
                    # Unvectorizable configuration, or a resolution error
                    # the scalar path raises per candidate: re-project
                    # the group one by one (identical answers).
                    rows = None
            if rows is None:
                for i in idxs:
                    try:
                        results[i] = self.project(
                            strategies[i], batches[i], dataset_size,
                            comm=comms[i])
                    except (StrategyError, ValueError) as exc:
                        results[i] = exc
                continue
            policy = cm.policy
            for i, row in zip(idxs, rows):
                if isinstance(row, Exception):
                    results[i] = row
                    continue
                per_epoch, memory, notes, algos = row
                proj = object.__new__(Projection)
                proj.__dict__.update(
                    proto,
                    strategy=strategies[i],
                    batch=batches[i],
                    per_epoch=per_epoch,
                    memory_bytes=memory,
                    notes=notes,
                    comm_policy=policy,
                    comm_algorithms=algos,
                )
                results[i] = proj
        return results

    # ------------------------------------------------------- batch helpers
    def _batch_base(self, np, strats, batches):
        n = len(strats)
        p_int = np.fromiter((s.p for s in strats), dtype=np.int64, count=n)
        B = np.asarray(batches, dtype=np.int64)
        return n, p_int, B

    def _per_unique(self, np, keys_int, fn):
        """``fn(int)`` once per unique value of ``keys_int``, mapped back
        per element as two float64 (alpha, beta) columns."""
        uvals, inv = np.unique(keys_int, return_inverse=True)
        inv = inv.reshape(keys_int.shape)
        res = [fn(int(v)) for v in uvals]
        a = np.asarray([x.alpha for x in res], dtype=np.float64)[inv]
        b = np.asarray([x.beta for x in res], dtype=np.float64)[inv]
        return a, b

    def _choice_labels(self, np, bc: BatchChoice, n):
        """Per-item ``collective:algorithm`` labels + seconds for a
        ``(n,)``-shaped :class:`BatchChoice`."""
        lbls = bc.labels()
        secs = np.broadcast_to(bc.seconds, (n,)).tolist()
        if bc.index is None:
            lab = [lbls[0]] * n
        else:
            lab = [
                lbls[j]
                for j in np.broadcast_to(bc.index, (n,)).tolist()
            ]
        return lab, secs

    @staticmethod
    def _ge_algos(parts):
        """Assemble one ``("ge", "a+b")`` log entry from ``(label,
        seconds)`` pairs in add order, mirroring _AlgoLog (zero-cost
        choices skipped, labels deduplicated, ordered)."""
        seen: List[str] = []
        for lbl, sec in parts:
            if sec > 0.0 and lbl not in seen:
                seen.append(lbl)
        return (("ge", "+".join(seen)),) if seen else ()

    def _batch_layerwise(
        self, np, group_p_int, msg_div, B, comm, params=None, scope="auto"
    ):
        """`_fast_layerwise` as a ``(candidates, distinct sizes)`` matrix:
        per-iteration totals plus the Allgather/Allreduce BatchChoices
        (for log assembly).  ``msg_div`` is a float64 column; ``params``
        is ``None`` or ``(alpha, beta)`` columns shaped ``(n, 1)``."""
        ka = self.kernel.arrays()
        y = ka.layerwise_y
        counts = ka.layerwise_count
        gp_col = group_p_int[:, None]
        seg = B[:, None] * y[None, :] * self.delta / msg_div[:, None]
        ag = comm.time_batch(
            "allgather", gp_col, seg, params=params, scope=scope)
        ar = comm.time_batch(
            "allreduce", gp_col, seg * group_p_int.astype(np.float64)[:, None],
            params=params, scope=scope)
        per_size = ag.seconds + ar.seconds
        total = (counts[None, :] * per_size).sum(axis=1)
        return total, ag, ar

    def _layerwise_log(self, np, ag: BatchChoice, ar: BatchChoice, n):
        """Per-item "fb" label strings (or ``None``) for the layer-wise
        leg, in `_fast_layerwise`'s interleaved add order."""
        ag_l, ar_l = ag.labels(), ar.labels()
        pos_ag = ag.seconds > 0.0
        pos_ar = ar.seconds > 0.0
        if ag.index is None and ar.index is None:
            row_ag = pos_ag.any(axis=1)
            row_ar = pos_ar.any(axis=1)
            if bool((pos_ag.all(axis=1) == row_ag).all()) and bool(
                (pos_ar.all(axis=1) == row_ar).all()
            ):
                # Uniform rows (the common case: every size positive for
                # p > 1, every size zero for p <= 1).
                out = []
                for a_on, r_on in zip(row_ag.tolist(), row_ar.tolist()):
                    parts = [ag_l[0]] if a_on else []
                    if r_on and ar_l[0] not in parts:
                        parts.append(ar_l[0])
                    out.append("+".join(parts) if parts else None)
                return out
        ia = None if ag.index is None else ag.index.tolist()
        ir = None if ar.index is None else ar.index.tolist()
        pa = pos_ag.tolist()
        pr = pos_ar.tolist()
        out = []
        for i in range(n):
            parts: List[str] = []
            for j in range(len(pa[i])):
                if pa[i][j]:
                    lbl = ag_l[0] if ia is None else ag_l[ia[i][j]]
                    if lbl not in parts:
                        parts.append(lbl)
                if pr[i][j]:
                    lbl = ar_l[0] if ir is None else ar_l[ir[i][j]]
                    if lbl not in parts:
                        parts.append(lbl)
            out.append("+".join(parts) if parts else None)
        return out

    # ------------------------------------------------------ batch handlers
    def _batch_serial(self, np, strats, batches, D, comm):
        n, _, B = self._batch_base(np, strats, batches)
        I = D // B
        k = self.kernel
        fw = (D / 1.0 * k.fw_total) + np.zeros(n)
        bw = (D / 1.0 * k.bw_total) + np.zeros(n)
        wu = I / 1.0 * k.wu_total
        mem = self.gamma * self.delta * (
            2.0 * B * k.io_elements
            + 2.0 * k.weight_elements
            + k.bias_elements
        )
        cp = fw + bw + wu
        return [
            (
                PhaseBreakdown._build(f, b, w, totals=(c, 0.0, c)),
                m, (), (),
            )
            for f, b, w, m, c in zip(
                fw.tolist(), bw.tolist(), wu.tolist(), mem.tolist(),
                cp.tolist())
        ]

    def _batch_data(self, np, strats, batches, D, comm):
        n, p_int, B = self._batch_base(np, strats, batches)
        p = p_int.astype(np.float64)
        I = D // B
        k = self.kernel
        fw = D / p * k.fw_total
        bw = D / p * k.bw_total
        wu = I / 1.0 * k.wu_total
        bc = comm.time_batch("allreduce", p_int, float(self._weights_bytes()))
        ge = I * bc.seconds
        mem = self.gamma * self.delta * (
            2.0 * (B / p) * k.io_elements
            + 2.0 * k.weight_elements
            + k.bias_elements
        )
        labs, secs = self._choice_labels(np, bc, n)
        cp = fw + bw + wu
        tt = cp + ge
        return [
            (
                PhaseBreakdown._build(f, b, w, g, totals=(c, g, t)),
                m, (), self._ge_algos([(labs[i], secs[i])]),
            )
            for i, (f, b, w, g, m, c, t) in enumerate(zip(
                fw.tolist(), bw.tolist(), wu.tolist(), ge.tolist(),
                mem.tolist(), cp.tolist(), tt.tolist()))
        ]

    def _batch_sharded_data(self, np, strats, batches, D, comm):
        n, p_int, B = self._batch_base(np, strats, batches)
        p = p_int.astype(np.float64)
        I = D // B
        k = self.kernel
        fw = D / p * k.fw_total
        bw = D / p * k.bw_total
        wu = I / p * k.wu_total
        wbytes = self._weights_bytes()
        rs = comm.time_batch("reduce_scatter", p_int, float(wbytes))
        ag = comm.time_batch("allgather", p_int, wbytes / p)
        ge = I * (rs.seconds + 2 * ag.seconds)
        mem = self.gamma * self.delta * (
            2.0 * (B / p) * k.io_elements + k.weight2_plus_bias / p
        )
        rs_lab, rs_sec = self._choice_labels(np, rs, n)
        ag_lab, ag_sec = self._choice_labels(np, ag, n)
        notes = ("weights/optimizer state sharded 1/p",)
        cp = fw + bw + wu
        tt = cp + ge
        return [
            (
                PhaseBreakdown._build(f, b, w, g, totals=(c, g, t)),
                m, notes,
                self._ge_algos(
                    [(rs_lab[i], rs_sec[i]), (ag_lab[i], ag_sec[i])]),
            )
            for i, (f, b, w, g, m, c, t) in enumerate(zip(
                fw.tolist(), bw.tolist(), wu.tolist(), ge.tolist(),
                mem.tolist(), cp.tolist(), tt.tolist()))
        ]

    def _batch_spatial(self, np, strats, batches, D, comm):
        n, p_int, B = self._batch_base(np, strats, batches)
        p = p_int.astype(np.float64)
        I = D // B
        k = self.kernel
        tables = self._spatial_tables(strats)
        ok = [not isinstance(t, Exception) for t in tables]
        fw = D / p * k.fw_total
        bw = D / p * k.bw_total
        wu = I / 1.0 * k.wu_total
        bc = comm.time_batch("allreduce", p_int, float(self._weights_bytes()))
        ge = I * bc.seconds
        ha, hb = self._per_unique(
            np, p_int,
            lambda v: self.cluster.hockney(v, transport=self.halo_transport),
        )
        pairs = np.asarray(
            [float(t.halo_pairs) if o else 0.0 for t, o in zip(tables, ok)])
        helems = np.asarray(
            [float(t.halo_elements) if o else 0.0
             for t, o in zip(tables, ok)])
        halo_iter = 4.0 * ha * pairs + 2.0 * B * helems * self.delta * hb
        halo = np.where(pairs == 0.0, 0.0, I * halo_iter)
        gridp = np.asarray(
            [float(_grid_product(s.grid)) for s in strats])
        split = np.asarray(
            [float(t.split_io) if o else 0.0 for t, o in zip(tables, ok)])
        rest = np.asarray(
            [float(t.rest_io) if o else 0.0 for t, o in zip(tables, ok)])
        mem = self.gamma * self.delta * (
            2.0 * B * (split / gridp + rest)
            + 2.0 * k.weight_elements + k.bias_elements
        )
        labs, secs = self._choice_labels(np, bc, n)
        notes = (f"halo over {self.halo_transport} transport",)
        cp = fw + bw + wu
        cc = ge + halo
        tt = cp + cc
        rows = []
        for i, (f, b, w, g, h, m, c, v, t) in enumerate(zip(
                fw.tolist(), bw.tolist(), wu.tolist(), ge.tolist(),
                halo.tolist(), mem.tolist(), cp.tolist(), cc.tolist(),
                tt.tolist())):
            if not ok[i]:
                rows.append(tables[i])
                continue
            rows.append((
                PhaseBreakdown._build(f, b, w, g, halo=h, totals=(c, v, t)),
                m, notes, self._ge_algos([(labs[i], secs[i])]),
            ))
        return rows

    def _spatial_tables(self, strats):
        """Per-item kernel spatial tables; a bad grid maps to the
        ValueError the scalar path raises for it."""
        memo: Dict[Tuple[int, ...], object] = {}
        out = []
        for s in strats:
            grid = tuple(s.grid)
            entry = memo.get(grid)
            if entry is None:
                try:
                    entry = self.kernel.spatial(grid)
                except ValueError as exc:
                    entry = exc
                memo[grid] = entry
            out.append(entry)
        return out

    def _batch_pipeline(self, np, strats, batches, D, comm):
        if any(getattr(s, "checkpoint", False) for s in strats):
            raise _ScalarFallback  # rare; the scalar memory max differs
        n = len(strats)
        p_int = np.fromiter(
            (s.stages for s in strats), dtype=np.int64, count=n)
        S_int = np.fromiter(
            (s.segments for s in strats), dtype=np.int64, count=n)
        B = np.asarray(batches, dtype=np.int64)
        I = D // B
        tmemo: Dict[int, object] = {}
        tables = []
        for s in strats:
            entry = tmemo.get(s.stages)
            if entry is None:
                try:
                    entry = self.kernel.pipeline(s.stages)
                except ValueError as exc:
                    entry = exc
                tmemo[s.stages] = entry
            tables.append(entry)
        ok = [not isinstance(t, Exception) for t in tables]
        bubble = (p_int + S_int - 1) / S_int
        max_fw = np.asarray(
            [t.max_fw if o else 0.0 for t, o in zip(tables, ok)])
        max_bw = np.asarray(
            [t.max_bw if o else 0.0 for t, o in zip(tables, ok)])
        max_wu = np.asarray(
            [t.max_wu if o else 0.0 for t, o in zip(tables, ok)])
        fw = D * bubble * max_fw
        bw = D * bubble * max_bw
        wu = I * max_wu
        pa, pb = self._per_unique(
            np, p_int, lambda v: self.cluster.hockney(v))
        boundary = np.asarray(
            [float(t.max_boundary) if o else 0.0
             for t, o in zip(tables, ok)])
        per_stage = pa + (B / S_int * boundary * self.delta) * pb
        active = (p_int > 1) & np.asarray(
            [o and len(t.sizes) > 1 for t, o in zip(tables, ok)])
        p2p = np.where(
            active, 2 * D * (p_int + S_int - 2) / B * per_stage, 0.0)
        gd = self.gamma * self.delta
        mem = np.zeros(n)
        by_table: Dict[int, List[int]] = {}
        for i, s in enumerate(strats):
            if ok[i]:
                by_table.setdefault(s.stages, []).append(i)
        for stages, sel in by_table.items():
            t = tmemo[stages]
            io2 = np.asarray([g[0] for g in t.mem_groups], dtype=np.float64)
            wb = np.asarray([g[1] for g in t.mem_groups], dtype=np.float64)
            bsel = B[sel].astype(np.float64)
            mem[sel] = (gd * (bsel[:, None] * io2[None, :] + wb[None, :])
                        ).max(axis=1)
        cp = fw + bw + wu
        tt = cp + p2p
        rows = []
        for i, (f, b, w, c, m, o, t) in enumerate(zip(
                fw.tolist(), bw.tolist(), wu.tolist(), p2p.tolist(),
                mem.tolist(), cp.tolist(), tt.tolist())):
            if not ok[i]:
                rows.append(tables[i])
                continue
            rows.append((
                PhaseBreakdown._build(f, b, w, p2p=c, totals=(o, c, t)),
                m,
                (f"stages balanced by FLOPs: {list(tables[i].sizes)}",),
                (),
            ))
        return rows

    def _batch_layerwise_family(self, np, strats, batches, D, comm):
        """Shared f/c handler (identical totals, reversed patterns)."""
        n, p_int, B = self._batch_base(np, strats, batches)
        p = p_int.astype(np.float64)
        I = D // B
        k = self.kernel
        fw = D / p * k.fw_total
        bw = D / p * k.bw_total
        wu = I / p * k.wu_total
        fbtot, ag, ar = self._batch_layerwise(np, p_int, p, B, comm)
        fb = I * fbtot
        mem = self.gamma * self.delta * (
            2.0 * B * k.io_elements
            + 2.0 * k.weight_elements / p
            + k.bias_elements
        )
        fb_lab = self._layerwise_log(np, ag, ar, n)
        cp = fw + bw + wu
        tt = cp + fb
        return [
            (
                PhaseBreakdown._build(f, b, w, fb=c, totals=(o, c, t)),
                m, (),
                (("fb", fb_lab[i]),) if fb_lab[i] else (),
            )
            for i, (f, b, w, c, m, o, t) in enumerate(zip(
                fw.tolist(), bw.tolist(), wu.tolist(), fb.tolist(),
                mem.tolist(), cp.tolist(), tt.tolist()))
        ]

    def _batch_data_filter(self, np, strats, batches, D, comm):
        n, p_int, B = self._batch_base(np, strats, batches)
        p = p_int.astype(np.float64)
        p1_int = np.fromiter(
            (s.p1 for s in strats), dtype=np.int64, count=n)
        p2_int = np.fromiter(
            (s.p2 for s in strats), dtype=np.int64, count=n)
        p1 = p1_int.astype(np.float64)
        p2 = p2_int.astype(np.float64)
        I = D // B
        k = self.kernel
        fw = D / p * k.fw_total
        bw = D / p * k.bw_total
        wu = I / p2 * k.wu_total
        ia, ib = self._per_unique(
            np, p2_int, lambda v: self.cluster.hockney_intra(v))
        fbtot, ag, ar = self._batch_layerwise(
            np, p2_int, p, B, comm,
            params=(ia[:, None], ib[:, None]), scope="intra-node",
        )
        fb = I * fbtot
        # Contended inter-node parameters per unique (p, p2) pair; the
        # phi note is keyed by p2 alone.
        ea = np.zeros(n)
        eb = np.zeros(n)
        phi_note: Dict[int, str] = {}
        pairs: Dict[Tuple[int, int], List[int]] = {}
        for i, (pv, p2v) in enumerate(
                zip(p_int.tolist(), p2_int.tolist())):
            pairs.setdefault((pv, p2v), []).append(i)
        for (pv, p2v), sel in pairs.items():
            inter = self.cluster.hockney(pv)
            if self.contention:
                phi = data_filter_phi(self.cluster, p2v)
                inter = inter.with_contention(phi)
                phi_note.setdefault(p2v, f"GE beta scaled by phi={phi:.2f}")
            ea[sel] = inter.alpha
            eb[sel] = inter.beta
        ge_bc = comm.time_batch(
            "allreduce", p1_int, self._weights_bytes() / p2,
            params=(ea, eb), scope="inter-node",
        )
        ge = I * ge_bc.seconds
        mem = self.gamma * self.delta * (
            2.0 * (B / p1) * k.io_elements
            + 2.0 * k.weight_elements / p2
            + k.bias_elements
        )
        fb_lab = self._layerwise_log(np, ag, ar, n)
        ge_lab, ge_sec = self._choice_labels(np, ge_bc, n)
        cp = fw + bw + wu
        cc = ge + fb
        tt = cp + cc
        rows = []
        for i, (f, b, w, cfb, g, m, o, v, t) in enumerate(zip(
                fw.tolist(), bw.tolist(), wu.tolist(), fb.tolist(),
                ge.tolist(), mem.tolist(), cp.tolist(), cc.tolist(),
                tt.tolist())):
            algos = []
            if fb_lab[i]:
                algos.append(("fb", fb_lab[i]))
            if ge_sec[i] > 0.0:
                algos.append(("ge", ge_lab[i]))
            p1v = int(p1_int[i])
            notes = (
                (phi_note[int(p2_int[i])],)
                if self.contention and p1v > 1
                else ()
            )
            rows.append((
                PhaseBreakdown._build(
                    f, b, w, g, fb=cfb, totals=(o, v, t)),
                m, notes, tuple(algos),
            ))
        return rows

    def _batch_data_spatial(self, np, strats, batches, D, comm):
        n, p_int, B = self._batch_base(np, strats, batches)
        p = p_int.astype(np.float64)
        p1_int = np.fromiter(
            (s.p1 for s in strats), dtype=np.int64, count=n)
        p2_int = np.fromiter(
            (s.p2 for s in strats), dtype=np.int64, count=n)
        p1 = p1_int.astype(np.float64)
        I = D // B
        k = self.kernel
        group_batch = B / p1
        fw = D / p * k.fw_total
        bw = D / p * k.bw_total
        wu = I / 1.0 * k.wu_total
        tables = self._spatial_tables(strats)
        ok = [not isinstance(t, Exception) for t in tables]
        ha, hb = self._per_unique(
            np, p2_int,
            lambda v: self.cluster.hockney_intra(
                v, transport=self.halo_transport, floor=2),
        )
        # int(group_batch) or 1, elementwise.
        gb = np.trunc(group_batch)
        gb = np.where(gb == 0.0, 1.0, gb)
        pairs = np.asarray(
            [float(t.halo_pairs) if o else 0.0 for t, o in zip(tables, ok)])
        helems = np.asarray(
            [float(t.halo_elements) if o else 0.0
             for t, o in zip(tables, ok)])
        halo_iter = 4.0 * ha * pairs + 2.0 * gb * helems * self.delta * hb
        halo = np.where((p2_int > 1) & (pairs > 0.0), I * halo_iter, 0.0)
        L_int = np.fromiter(
            (getattr(s, "leaders", 1) for s in strats),
            dtype=np.int64, count=n)
        wl = self._weights_bytes() / L_int.astype(np.float64)
        na, nb = self._per_unique(
            np, p2_int, lambda v: self.cluster.hockney_intra(v, floor=2))
        rd = comm.time_batch(
            "reduce", p2_int, wl, params=(na, nb), scope="intra-node")
        bc = comm.time_batch(
            "broadcast", p2_int, wl, params=(na, nb), scope="intra-node")
        ea = np.zeros(n)
        eb = np.zeros(n)
        lpairs: Dict[Tuple[int, int], List[int]] = {}
        for i, (pv, lv) in enumerate(zip(p_int.tolist(), L_int.tolist())):
            lpairs.setdefault((pv, lv), []).append(i)
        nics = self.cluster.node.nics
        for (pv, lv), sel in lpairs.items():
            inter = self.cluster.hockney(pv)
            if self.contention and lv > nics:
                inter = inter.with_contention(lv / nics)
            ea[sel] = inter.alpha
            eb[sel] = inter.beta
        arr = comm.time_batch(
            "allreduce", p1_int, wl, params=(ea, eb), scope="inter-node")
        ge = I * ((rd.seconds + bc.seconds) + arr.seconds)
        gridp = np.asarray(
            [float(_grid_product(s.grid)) for s in strats])
        split = np.asarray(
            [float(t.split_io) if o else 0.0 for t, o in zip(tables, ok)])
        rest = np.asarray(
            [float(t.rest_io) if o else 0.0 for t, o in zip(tables, ok)])
        mem = self.gamma * self.delta * (
            2.0 * group_batch * (split / gridp + rest)
            + 2.0 * k.weight_elements + k.bias_elements
        )
        rd_lab, rd_sec = self._choice_labels(np, rd, n)
        bc_lab, bc_sec = self._choice_labels(np, bc, n)
        ar_lab, ar_sec = self._choice_labels(np, arr, n)
        cp = fw + bw + wu
        cc = ge + halo
        tt = cp + cc
        rows = []
        for i, (f, b, w, h, g, m, o, v, t) in enumerate(zip(
                fw.tolist(), bw.tolist(), wu.tolist(), halo.tolist(),
                ge.tolist(), mem.tolist(), cp.tolist(), cc.tolist(),
                tt.tolist())):
            if not ok[i]:
                rows.append(tables[i])
                continue
            lv = int(L_int[i])
            rows.append((
                PhaseBreakdown._build(f, b, w, g, halo=h, totals=(o, v, t)),
                m,
                () if lv == 1 else (f"multi-leader allreduce: L={lv}",),
                self._ge_algos([
                    (rd_lab[i], rd_sec[i]),
                    (bc_lab[i], bc_sec[i]),
                    (ar_lab[i], ar_sec[i]),
                ]),
            ))
        return rows

    #: Strategy family -> batch handler (unbound; called with ``self``).
    _BATCH_HANDLERS = {
        "serial": _batch_serial,
        "d": _batch_data,
        "z": _batch_sharded_data,
        "s": _batch_spatial,
        "p": _batch_pipeline,
        "f": _batch_layerwise_family,
        "c": _batch_layerwise_family,
        "df": _batch_data_filter,
        "ds": _batch_data_spatial,
    }


def _grid_product(grid: Tuple[int, ...]) -> int:
    out = 1
    for g in grid:
        out *= g
    return out

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

Each strategy family's closed form is written once (the ``_*_form``
functions) over a compiled :class:`~repro.core.kernel.ModelKernel` of
per-model invariants, and runs two ways: one candidate as plain Python
numbers (:meth:`AnalyticalModel.project`) or one family's candidates as
numpy columns (:meth:`AnalyticalModel.project_batch`).  The original
per-layer walks survive as ``path="reference"``, the executable
specification.  Both paths agree to ``rel <= 1e-9`` (floating-point
reassociation of per-layer sums is the only difference), pinned across
the model zoo x strategy families x comm policies by
``tests/test_fast_path_equivalence.py`` and against the golden seed
projections by ``tests/test_comm_golden.py``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from itertools import repeat, starmap
from operator import attrgetter
from typing import (
    Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union)

import numpy as np

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
        comm_model = self._resolve_comm(comm)
        reference, form = _FAMILIES[strategy.id]
        if path == "fast":
            return form(_Row(self, strategy, batch, comm_model), dataset_size)
        log = _AlgoLog()
        per_epoch, memory, notes = reference(
            self, strategy, batch, dataset_size, comm_model, log
        )
        return self._projection(
            strategy, batch, dataset_size, per_epoch, memory, tuple(notes),
            comm_model.policy, log.items())

    def _projection(self, strategy, batch, dataset_size, per_epoch, memory,
                    notes, policy, algorithms) -> Projection:
        """``Projection(...)`` field for field, minus the frozen
        ``__init__``'s per-field guarded setattr."""
        proj = object.__new__(Projection)
        proj.__dict__.update(
            model_name=self.model.name, strategy=strategy, batch=batch,
            dataset_size=dataset_size, per_epoch=per_epoch,
            memory_bytes=memory,
            memory_capacity=self.cluster.gpu_memory_bytes, gamma=self.gamma,
            delta=self.delta, notes=notes, comm_policy=policy,
            comm_algorithms=algorithms,
        )
        return proj

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
        # The log keeps only the collectives the forward-only projection
        # contains (gradient exchange vanishes; fb shrinks to the re-costed
        # Allgather leg).
        return self._projection(
            strategy, batch, dataset_size, per_epoch, memory,
            train.notes + ("inference (forward-only)",), train.comm_policy,
            inf_log.items())

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

    # ------------------------------------------------------ production path

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
        and each group evaluates its family's closed form once, as numpy
        columns.  A group whose columns hit a resolution error (a stage
        count, grid or communicator the model or cluster cannot host) is
        re-projected row by row, so every candidate gets exactly the
        answer or error :meth:`project` gives it.
        """
        n = len(strategies)
        if len(batches) != n:
            raise ValueError("strategies and batches must align")
        if comms is None:
            comms = [None] * n
        elif len(comms) != n:
            raise ValueError("comms must align with strategies")
        results: List[Union[Projection, Exception]] = [None] * n  # type: ignore[list-item]
        groups: Dict[Tuple[str, CommModel], List[int]] = {}
        for i in range(n):
            b = batches[i]
            if b < 1 or dataset_size < b:
                results[i] = ValueError("need dataset_size >= batch >= 1")
                continue
            err = self._checked(strategies[i], b)
            if err is not None:
                results[i] = err
                continue
            key = (strategies[i].id, self._resolve_comm(comms[i]))
            groups.setdefault(key, []).append(i)
        for (sid, cm), idxs in groups.items():
            xp = _Cols(self, [strategies[i] for i in idxs],
                       [batches[i] for i in idxs], cm)
            try:
                rows = _FAMILIES[sid][1](xp, dataset_size)
            except (StrategyError, ValueError):
                for i in idxs:
                    try:
                        results[i] = self.project(
                            strategies[i], batches[i], dataset_size,
                            comm=comms[i])
                    except (StrategyError, ValueError) as exc:
                        results[i] = exc
                continue
            for i, row in zip(idxs, rows):
                results[i] = row
        return results

    def _fast_layerwise_forward_leg(
        self, strategy: Strategy, B: int, comm: CommModel, log: _AlgoLog
    ) -> float:
        """`_layerwise_forward_leg` over the distinct-activation table."""
        xp = _Row(self, strategy, B, comm, log)
        if strategy.id == "df":
            return xp.layerwise(
                strategy.p2, strategy.p, B,
                self.cluster.hockney_intra(strategy.p2), "intra-node",
                legs=("allgather",))
        return xp.layerwise(strategy.p, strategy.p, B, legs=(
            ("allreduce",) if strategy.id == "c" else ("allgather",)))


# ---------------------------------------------------------------- evaluators
# ``path="fast"`` writes each strategy family's closed form once (the
# ``_*_form`` functions below) against an evaluator ``xp`` that runs it
# two ways: :class:`_Row` (one candidate as plain Python numbers, for
# ``project``) and :class:`_Cols` (numpy columns over one family's
# candidates, for ``project_batch``).  Forms read candidate columns with
# ``col`` (integers) / ``objs`` (anything else), map per-value functions
# with ``each`` / ``hockney`` (memoized per unique key in column mode),
# cost collectives with ``coll`` / ``layerwise``, and hand the finished
# terms to ``build``; everything else is arithmetic that reads the same
# over Python numbers and numpy arrays.  Forms mirror the reference walks
# term for term: identical collective calls (same sizes, same order of
# first appearance, so the algorithm log matches exactly), identical
# error messages, and sums that differ only by floating-point
# reassociation (<= 1e-9 relative, pinned by
# tests/test_fast_path_equivalence.py).


class _Row:
    """One candidate as plain Python numbers: collectives costed with
    :meth:`CommModel.choose` and logged in an :class:`_AlgoLog`."""

    __slots__ = ("a", "k", "s", "B", "comm", "log")

    def __init__(self, analyzer: AnalyticalModel, strategy: Strategy,
                 batch: int, comm: CommModel,
                 log: Optional[_AlgoLog] = None) -> None:
        self.a = analyzer
        self.k = analyzer.kernel
        self.s = strategy
        self.B = batch
        self.comm = comm
        self.log = _AlgoLog() if log is None else log

    def col(self, get):
        return get(self.s)

    objs = col

    @staticmethod
    def each(fn, *cols):
        return fn(*cols)

    hockney = each

    @staticmethod
    def fields(obj, *names):
        return [getattr(obj, name) for name in names]

    @staticmethod
    def where(cond, a, b):
        return a if cond else b

    maximum = staticmethod(max)

    @staticmethod
    def rowmax(fn, groups):
        return max(starmap(fn, groups))

    def coll(self, phase, collective, p, nbytes, params=None, scope="auto"):
        choice = self.comm.choose(
            collective, p, nbytes, params=params, scope=scope)
        self.log.add(phase, choice)
        return choice.seconds

    def layerwise(self, group_p, msg_div, B, params=None, scope="auto",
                  legs=("allgather", "allreduce")):
        """Per-iteration layer-wise collectives (`_layerwise_collectives`)
        over the kernel's distinct-activation table: one choice per leg
        (the activation Allgather, the gradient Allreduce) per distinct
        ``|y_l|``, in first-appearance order, scaled by multiplicity."""
        if group_p <= 1:
            return 0.0
        choose, add, delta = self.comm.choose, self.log.add, self.a.delta
        total = 0.0
        for y, count in self.k.layerwise_sizes:
            seg = B * y * delta / msg_div
            seconds = 0.0
            for collective in legs:
                choice = choose(
                    collective, group_p,
                    seg if collective == "allgather" else seg * group_p,
                    params=params, scope=scope)
                add("fb", choice)
                seconds += choice.seconds
            total += count * seconds
        return total

    def build(self, D, fw, bw, wu, mem, notes=(), ge=0.0, fb=0.0, halo=0.0,
              p2p=0.0) -> Projection:
        return self.a._projection(
            self.s, self.B, D,
            PhaseBreakdown._build(fw, bw, wu, ge, fb, halo, p2p), mem, notes,
            self.comm.policy, self.log.items())


class _AB(NamedTuple):
    """Hockney parameters as ``(alpha, beta)`` columns."""

    alpha: Any
    beta: Any


class _Cols:
    """One strategy family's candidates as numpy columns: collectives
    costed with :meth:`CommModel.time_batch`, per-row algorithm logs
    assembled as :class:`_AlgoLog` would build them."""

    def __init__(self, analyzer: AnalyticalModel,
                 strategies: List[Strategy], batches: List[int],
                 comm: CommModel) -> None:
        self.a = analyzer
        self.k = analyzer.kernel
        self.strategies = strategies
        self.batches = batches
        self.n = len(strategies)
        self.B = np.asarray(batches, dtype=np.int64)
        self.comm = comm
        #: ``(phase, options, codes)`` per collective leg, in add order:
        #: row ``i`` added the labels ``options[codes[i]]``.
        self.log: List[Tuple[str, List[Tuple[str, ...]], List[int]]] = []

    def col(self, get):
        return np.fromiter(map(get, self.strategies), dtype=np.int64,
                           count=self.n)

    def objs(self, get):
        return list(map(get, self.strategies))

    def each(self, fn, *cols):
        keys = list(zip(*[
            c.tolist() if isinstance(c, np.ndarray) else c for c in cols]))
        memo = {key: fn(*key) for key in dict.fromkeys(keys)}
        return [memo[key] for key in keys]

    def hockney(self, fn, *cols):
        params = self.each(fn, *cols)
        return _AB(np.array([h.alpha for h in params]),
                   np.array([h.beta for h in params]))

    @staticmethod
    def fields(objs, *names):
        return [np.array([getattr(o, name) for o in objs], dtype=np.float64)
                for name in names]

    where = staticmethod(np.where)
    maximum = staticmethod(np.maximum)

    def rowmax(self, fn, groups):
        """``max_g fn(*groups[i][g])`` per row, with ``fn`` broadcast over
        ``(stages, rows)`` matrices of the ``(io2, wb, last)`` triples."""
        cols = np.zeros((3, max(map(len, groups)), self.n))
        cols[1] = -np.inf  # padding for shallower rows never wins the max
        rows: Dict[int, Tuple[Any, List[int]]] = {}
        for i, g in enumerate(groups):
            rows.setdefault(id(g), (g, []))[1].append(i)
        for g, sel in rows.values():
            cols[:, :len(g), sel] = np.array(g, dtype=np.float64).T[:, :, None]
        return fn(*cols).max(axis=0)

    def _log(self, phase, bc: BatchChoice) -> None:
        """Record one ``(n,)`` collective leg for per-row log assembly."""
        sec = np.broadcast_to(bc.seconds, (self.n,))
        index = 0 if bc.index is None else bc.index
        codes = np.where(sec > 0.0, index, -1)
        options = [(label,) for label in bc.labels()] + [()]
        self.log.append((phase, options, codes.tolist()))

    def coll(self, phase, collective, p, nbytes, params=None, scope="auto"):
        bc = self.comm.time_batch(
            collective, p, nbytes, params=params, scope=scope)
        self._log(phase, bc)
        return bc.seconds

    def layerwise(self, group_p, msg_div, B, params=None, scope="auto"):
        """The layer-wise leg as one ``(rows, distinct sizes)`` matrix."""
        ka = self.k.arrays()
        gp = group_p[:, None]
        seg = B[:, None] * ka.layerwise_y * self.a.delta / msg_div[:, None]
        if params is not None:
            params = (params.alpha[:, None], params.beta[:, None])
        comm = self.comm
        ag = comm.time_batch(
            "allgather", gp, seg, params=params, scope=scope)
        ar = comm.time_batch(
            "allreduce", gp, seg * gp, params=params, scope=scope)
        pos_ag, pos_ar = ag.seconds > 0.0, ar.seconds > 0.0
        row_ag, row_ar = pos_ag.any(axis=1), pos_ar.any(axis=1)
        if (ag.index is None and ar.index is None
                and (pos_ag.all(axis=1) == row_ag).all()
                and (pos_ar.all(axis=1) == row_ar).all()):
            # Uniform rows (the common case: every size positive for
            # p > 1, none for p <= 1) log one leg of four outcomes.
            ag_l, ar_l = ag.labels()[0], ar.labels()[0]
            self.log.append(("fb", [(), (ag_l,), (ar_l,), (ag_l, ar_l)],
                             (row_ag + 2 * row_ar).tolist()))
        else:  # one leg per size, in the loop's interleaved add order
            for j in range(len(ka.layerwise_y)):
                for bc in (ag, ar):
                    self._log("fb", BatchChoice(
                        bc.collective, bc.seconds[:, j], bc.algorithms,
                        None if bc.index is None else bc.index[:, j]))
        return (ka.layerwise_count * (ag.seconds + ar.seconds)).sum(axis=1)

    def _algorithms(self):
        """Per-row ``comm_algorithms``, assembled once per distinct
        pattern of logged labels."""
        if not self.log:
            return repeat(())
        memo: Dict[Tuple[int, ...], Tuple[Tuple[str, str], ...]] = {}
        out = []
        for key in zip(*[codes for _, _, codes in self.log]):
            algos = memo.get(key)
            if algos is None:
                entries: Dict[str, List[str]] = {}
                for (phase, options, _), code in zip(self.log, key):
                    for label in options[code]:
                        labels = entries.setdefault(phase, [])
                        if label not in labels:
                            labels.append(label)
                algos = memo[key] = tuple(
                    (phase, "+".join(labels))
                    for phase, labels in entries.items())
            out.append(algos)
        return out

    def build(self, D, fw, bw, wu, mem, notes=(), ge=0.0, fb=0.0, halo=0.0,
              p2p=0.0) -> List[Projection]:
        # Seed PhaseBreakdown's lazy totals, written as its properties are.
        comp = fw + bw + wu
        comm = ge + fb + halo + p2p
        total = comp + comm

        def rows(x):
            return x.tolist() if isinstance(x, np.ndarray) else repeat(x)

        projection, build = self.a._projection, PhaseBreakdown._build
        policy = self.comm.policy
        return [
            projection(s, b, D, build(f, w_bw, w_wu, g, l, h, q,
                                      totals=(c, v, t)), m, nt, policy, algos)
            for s, b, f, w_bw, w_wu, g, l, h, q, m, c, v, t, nt, algos in zip(
                self.strategies, self.batches, rows(fw), rows(bw), rows(wu),
                rows(ge), rows(fb), rows(halo), rows(p2p), rows(mem),
                rows(comp), rows(comm), rows(total),
                notes if isinstance(notes, list) else repeat(notes),
                self._algorithms())
        ]


# ------------------------------------------------------------ closed forms
# One function per strategy family: Table 3's computation, communication
# and memory terms (the reference walk each mirrors is named in its
# docstring), evaluated by ``xp`` as one row or as columns.

_P = attrgetter("p")
_P1 = attrgetter("p1")
_P2 = attrgetter("p2")
_GRID = attrgetter("grid")


def _comp(k: ModelKernel, D, I, p_div, wu_div=1.0):
    """`_comp`: ``D/p sum(FW), D/p sum(BW), I/wu_div sum(WU)``."""
    per_pe = D / p_div
    return per_pe * k.fw_total, per_pe * k.bw_total, I / wu_div * k.wu_total


def _memory(xp, batch_act, weight_div=1.0):
    """`_memory_terms` as one closed form over exact element sums."""
    k = xp.k
    return xp.a.gamma * xp.a.delta * (
        2.0 * batch_act * k.io_elements
        + 2.0 * k.weight_elements / weight_div
        + k.bias_elements
    )


def _inter_params(a: AnalyticalModel, p: int, p1: int, phi: float):
    """Fabric parameters of the gradient exchange between ``p1`` groups,
    beta scaled by contention ``phi``; a single group exchanges nothing,
    so its parameters are never resolved."""
    if p1 <= 1:
        return HockneyParams(0.0, 0.0)
    return a.cluster.hockney(p).with_contention(phi)


def _serial_form(xp, D):
    """`AnalyticalModel._serial`."""
    I = D // xp.B
    return xp.build(D, *_comp(xp.k, D, I, 1.0), _memory(xp, xp.B))


def _data_form(xp, D):
    """`AnalyticalModel._data`: Eqs. (5)-(7)."""
    p, B = xp.col(_P), xp.B
    I = D // B
    ge = I * xp.coll("ge", "allreduce", p, xp.a._weights_bytes())
    return xp.build(D, *_comp(xp.k, D, I, p), _memory(xp, B / p), ge=ge)


def _sharded_data_form(xp, D):
    """`AnalyticalModel._sharded_data`: ZeRO-style data parallelism."""
    a, k = xp.a, xp.k
    p, B = xp.col(_P), xp.B
    I = D // B
    wbytes = a._weights_bytes()
    ge = I * (
        xp.coll("ge", "reduce_scatter", p, wbytes)
        + 2 * xp.coll("ge", "allgather", p, wbytes / p)
    )
    mem = a.gamma * a.delta * (
        2.0 * (B / p) * k.io_elements + k.weight2_plus_bias / p)
    return xp.build(D, *_comp(k, D, I, p, p), mem,
                    ("weights/optimizer state sharded 1/p",), ge=ge)


def _spatial_form(xp, D):
    """`AnalyticalModel._spatial`: Eqs. (8)-(10)."""
    a, k = xp.a, xp.k
    p, B = xp.col(_P), xp.B
    I = D // B
    ge = I * xp.coll("ge", "allreduce", p, a._weights_bytes())
    hp = xp.hockney(
        lambda v: a.cluster.hockney(v, transport=a.halo_transport), p)
    st = xp.each(k.spatial, xp.objs(_GRID))
    pairs, helems, split, rest = xp.fields(
        st, "halo_pairs", "halo_elements", "split_io", "rest_io")
    halo = xp.where(pairs == 0, 0.0, I * (
        4.0 * hp.alpha * pairs + 2.0 * B * helems * a.delta * hp.beta))
    mem = a.gamma * a.delta * (
        2.0 * B * (split / p + rest)
        + 2.0 * k.weight_elements + k.bias_elements
    )
    return xp.build(D, *_comp(k, D, I, p), mem,
                    (f"halo over {a.halo_transport} transport",),
                    ge=ge, halo=halo)


def _pipeline_form(xp, D):
    """`AnalyticalModel._pipeline`: Eqs. (12)-(14), GPipe schedule."""
    a, k = xp.a, xp.k
    p = xp.col(attrgetter("stages"))
    S = xp.col(attrgetter("segments"))
    ckpt = xp.col(lambda s: getattr(s, "checkpoint", False))
    B = xp.B
    I = D // B
    tables = xp.each(k.pipeline, p)
    max_fw, max_bw, max_wu, boundary = xp.fields(
        tables, "max_fw", "max_bw", "max_wu", "max_boundary")
    bubble = (p + S - 1) / S
    fw = D * bubble * max_fw * xp.where(ckpt, 2.0, 1.0)
    bw = D * bubble * max_bw
    wu = I * max_wu
    # p2p is monotone in the message size, so the heaviest boundary
    # activation decides the per-stage cost.  A p-stage partition has
    # exactly p groups, so p > 1 is "there is a boundary".
    hp = xp.hockney(a.cluster.hockney, p)
    per_stage = hp.alpha + (B / S * boundary * a.delta) * hp.beta
    p2p = xp.where(p > 1, 2 * D * (p + S - 2) / B * per_stage, 0.0)
    # Per stage: gamma delta (B' io2 + wb), where checkpointing keeps one
    # micro-batch inside the stage (B' = B/S) plus the stored boundary
    # activations of all S micro-batches.
    gd = a.gamma * a.delta
    b_act = xp.where(ckpt, B / S, B)
    b_last = xp.where(ckpt, gd * 2.0 * B, 0.0)
    mem = xp.rowmax(
        lambda io2, wb, last: gd * (b_act * io2 + wb) + b_last * last,
        xp.each(lambda v: k.pipeline(v).mem_groups, p),
    )

    def notes(v, c):
        balanced = f"stages balanced by FLOPs: {list(k.pipeline(v).sizes)}"
        return (balanced,) + (
            ("gradient checkpointing at stage boundaries (+1 forward)",)
            if c else ())

    return xp.build(D, fw, bw, wu, mem, xp.each(notes, p, ckpt), p2p=p2p)


def _layerwise_form(xp, D):
    """`AnalyticalModel._filter` / `_channel`: Eqs. (15)-(19), the same
    totals with reversed collective patterns."""
    p, B = xp.col(_P), xp.B
    I = D // B
    fb = I * xp.layerwise(p, p, B)
    return xp.build(D, *_comp(xp.k, D, I, p, p), _memory(xp, B, p), fb=fb)


def _data_filter_form(xp, D):
    """`AnalyticalModel._data_filter`: Eqs. (20)-(22)."""
    a, k = xp.a, xp.k
    p, p1, p2, B = xp.col(_P), xp.col(_P1), xp.col(_P2), xp.B
    I = D // B
    intra = xp.hockney(a.cluster.hockney_intra, p2)
    fb = xp.layerwise(p2, p, B, intra, "intra-node")
    # p2 disjoint segmented Allreduces over the p1 groups share the
    # node's NIC rails: contention penalty phi.
    inter = xp.hockney(lambda pv, p1v, p2v: _inter_params(
        a, pv, p1v, data_filter_phi(a.cluster, p2v) if a.contention else 1.0,
    ), p, p1, p2)
    ge = xp.coll("ge", "allreduce", p1, a._weights_bytes() / p2, inter,
                 "inter-node")
    notes = xp.each(
        lambda p1v, p2v: (
            (f"GE beta scaled by phi={data_filter_phi(a.cluster, p2v):.2f}",)
            if a.contention and p1v > 1 else ()),
        p1, p2,
    )
    return xp.build(D, *_comp(k, D, I, p, p2), _memory(xp, B / p1, p2),
                    notes, ge=I * ge, fb=I * fb)


def _data_spatial_form(xp, D):
    """`AnalyticalModel._data_spatial`: hierarchical gradient exchange."""
    a, k = xp.a, xp.k
    p, p1, p2, B = xp.col(_P), xp.col(_P1), xp.col(_P2), xp.B
    L = xp.col(lambda s: getattr(s, "leaders", 1))
    I = D // B
    hh = xp.hockney(
        lambda v: a.cluster.hockney_intra(
            v, transport=a.halo_transport, floor=2), p2)
    st = xp.each(k.spatial, xp.objs(_GRID))
    pairs, helems, split, rest = xp.fields(
        st, "halo_pairs", "halo_elements", "split_io", "rest_io")
    gb = xp.maximum(B // p1, 1)  # int(B / p1) or 1
    halo = xp.where((p2 > 1) & (pairs > 0), I * (
        4.0 * hh.alpha * pairs + 2.0 * gb * helems * a.delta * hh.beta), 0.0)
    wl = a._weights_bytes() / L
    nvl = xp.hockney(lambda v: a.cluster.hockney_intra(v, floor=2), p2)
    ge = (
        xp.coll("ge", "reduce", p2, wl, nvl, "intra-node")
        + xp.coll("ge", "broadcast", p2, wl, nvl, "intra-node")
    )
    nics = a.cluster.node.nics
    inter = xp.hockney(lambda pv, p1v, lv: _inter_params(
        a, pv, p1v, lv / nics if a.contention and lv > nics else 1.0,
    ), p, p1, L)
    ge = ge + xp.coll("ge", "allreduce", p1, wl, inter, "inter-node")
    mem = a.gamma * a.delta * (
        2.0 * (B / p1) * (split / p2 + rest)
        + 2.0 * k.weight_elements + k.bias_elements
    )
    notes = xp.each(
        lambda lv: () if lv == 1 else (f"multi-leader allreduce: L={lv}",), L)
    return xp.build(D, *_comp(k, D, I, p), mem, notes, ge=I * ge, halo=halo)


#: Strategy family -> (reference walk, closed form).
_FAMILIES = {
    "serial": (AnalyticalModel._serial, _serial_form),
    "d": (AnalyticalModel._data, _data_form),
    "z": (AnalyticalModel._sharded_data, _sharded_data_form),
    "s": (AnalyticalModel._spatial, _spatial_form),
    "p": (AnalyticalModel._pipeline, _pipeline_form),
    "f": (AnalyticalModel._filter, _layerwise_form),
    "c": (AnalyticalModel._channel, _layerwise_form),
    "df": (AnalyticalModel._data_filter, _data_filter_form),
    "ds": (AnalyticalModel._data_spatial, _data_spatial_form),
}

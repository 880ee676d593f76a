"""Parallel-strategy configurations (Section 3 of the paper).

Each strategy is a small immutable config object describing how the training
tensors are decomposed over ``p`` processing elements (PEs).  Feasibility —
the "Number of PEs" column of Table 3 — is checked against a concrete
:class:`~repro.core.graph.ModelGraph` by :meth:`Strategy.check`.

The short ids match the paper: ``d`` data, ``s`` spatial, ``p`` pipeline
(layer), ``f`` filter, ``c`` channel, ``df`` data+filter, ``ds`` data+spatial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .graph import ModelGraph
from .math_utils import smallest_prime_factor
from .tensors import prod

__all__ = [
    "Strategy",
    "Serial",
    "DataParallel",
    "ShardedDataParallel",
    "SpatialParallel",
    "PipelineParallel",
    "FilterParallel",
    "ChannelParallel",
    "DataFilterParallel",
    "DataSpatialParallel",
    "StrategyError",
    "strategy_from_id",
    "ALL_STRATEGY_IDS",
]

ALL_STRATEGY_IDS = ("serial", "d", "z", "s", "p", "f", "c", "df", "ds")


class StrategyError(ValueError):
    """A strategy configuration is infeasible for a model/batch."""


@dataclass(frozen=True)
class Strategy:
    """Base class: a named decomposition over ``p`` PEs."""

    @property
    def id(self) -> str:
        raise NotImplementedError

    @property
    def p(self) -> int:
        """Total number of PEs."""
        raise NotImplementedError

    @property
    def is_weak_scaling(self) -> bool:
        """Whether the de-facto scaling mode grows B with p (Section 4.2).

        Data-parallel-bearing strategies weak-scale; pure model-parallel
        strategies (filter/channel) strong-scale a fixed global batch, as in
        the paper's Figure 3 caption.
        """
        return False

    def check(self, model: ModelGraph, batch: int) -> None:
        """Raise :class:`StrategyError` if infeasible (Table 3 last column)."""
        raise NotImplementedError

    def describe(self) -> str:
        return f"{self.id}(p={self.p})"


@dataclass(frozen=True)
class Serial(Strategy):
    """Single-PE baseline (Table 3 'Serial' row)."""

    @property
    def id(self) -> str:
        return "serial"

    @property
    def p(self) -> int:
        return 1

    def check(self, model: ModelGraph, batch: int) -> None:
        if batch < 1:
            raise StrategyError("batch must be >= 1")


@dataclass(frozen=True)
class DataParallel(Strategy):
    """Replicate the model; scatter the batch over ``p`` PEs."""

    replicas: int

    @property
    def id(self) -> str:
        return "d"

    @property
    def p(self) -> int:
        return self.replicas

    @property
    def is_weak_scaling(self) -> bool:
        return True

    def check(self, model: ModelGraph, batch: int) -> None:
        if self.replicas < 1:
            raise StrategyError("need at least one replica")
        if self.replicas > batch:
            raise StrategyError(
                f"data parallelism needs p <= B ({self.replicas} > {batch})"
            )


@dataclass(frozen=True)
class ShardedDataParallel(Strategy):
    """Data parallelism with ZeRO-style weight/optimizer sharding.

    Section 5.3.2 cites this as the fix for weight-replication memory
    redundancy: "split the weights as well as the activations.  However,
    this comes at the cost of extra communication of 50% since two
    Allgathers of the weights are needed in the forward and backward
    passes."  Each PE owns 1/p of the parameters and optimizer state;
    gradients are Reduce-Scattered instead of Allreduced.
    """

    replicas: int

    @property
    def id(self) -> str:
        return "z"

    @property
    def p(self) -> int:
        return self.replicas

    @property
    def is_weak_scaling(self) -> bool:
        return True

    def check(self, model: ModelGraph, batch: int) -> None:
        if self.replicas < 1:
            raise StrategyError("need at least one replica")
        if self.replicas > batch:
            raise StrategyError(
                f"sharded data parallelism needs p <= B "
                f"({self.replicas} > {batch})"
            )


@dataclass(frozen=True)
class SpatialParallel(Strategy):
    """Split the spatial extent over a ``grid`` of PEs (height-width-depth).

    ``grid`` has one entry per spatial dimension of the model input;
    ``p = prod(grid)`` and every entry must not exceed the smallest extent
    of that dimension across spatially-parallelized layers.
    """

    grid: Tuple[int, ...]

    @property
    def id(self) -> str:
        return "s"

    @property
    def p(self) -> int:
        return prod(self.grid)

    def check(self, model: ModelGraph, batch: int) -> None:
        if any(g < 1 for g in self.grid):
            raise StrategyError("grid entries must be >= 1")
        ndim = model.input_spec.ndim
        if len(self.grid) != ndim:
            raise StrategyError(
                f"grid rank {len(self.grid)} != model input rank {ndim}"
            )
        if self.p > model.min_spatial():
            raise StrategyError(
                f"spatial parallelism limited to p <= min(W*H) = "
                f"{model.min_spatial()}, got {self.p}"
            )
        for dim, (g, limit) in enumerate(
                zip(self.grid, model._spatial_dim_minima)):
            if g > limit:
                raise StrategyError(
                    f"grid[{dim}]={g} exceeds the smallest extent {limit}"
                )


@dataclass(frozen=True)
class PipelineParallel(Strategy):
    """Vertical (layer) parallelism with a GPipe pipeline of ``segments``.

    ``stages`` PEs each hold a contiguous composite layer; each mini-batch
    is cut into ``segments`` micro-batches (the ``S`` of Table 3).

    ``checkpoint`` enables gradient checkpointing at the partition
    boundaries (Section 5.3.2: "unless we apply gradient checkpointing at
    the boundary of the partition, which comes with the overhead of
    recomputing the activations within each partition") — activation
    memory shrinks to one micro-batch plus the stored boundaries, at the
    cost of one extra forward pass.
    """

    stages: int
    segments: int = 4
    checkpoint: bool = False

    @property
    def id(self) -> str:
        return "p"

    @property
    def p(self) -> int:
        return self.stages

    def check(self, model: ModelGraph, batch: int) -> None:
        if self.stages < 1:
            raise StrategyError("need at least one stage")
        if self.stages > len(model.layers):
            raise StrategyError(
                f"pipeline needs p <= G = {len(model.layers)} layers"
            )
        if not 1 <= self.segments <= batch:
            raise StrategyError(
                f"segments must be in [1, B={batch}], got {self.segments}"
            )


@dataclass(frozen=True)
class FilterParallel(Strategy):
    """Horizontal model parallelism over output channels (filters)."""

    parts: int

    @property
    def id(self) -> str:
        return "f"

    @property
    def p(self) -> int:
        return self.parts

    def check(self, model: ModelGraph, batch: int) -> None:
        if self.parts < 1:
            raise StrategyError("need at least one part")
        limit = model.min_filters()
        if self.parts > limit:
            raise StrategyError(
                f"filter parallelism limited to p <= min F_l = {limit}, "
                f"got {self.parts}"
            )


@dataclass(frozen=True)
class ChannelParallel(Strategy):
    """Horizontal model parallelism over input channels."""

    parts: int

    @property
    def id(self) -> str:
        return "c"

    @property
    def p(self) -> int:
        return self.parts

    def check(self, model: ModelGraph, batch: int) -> None:
        if self.parts < 1:
            raise StrategyError("need at least one part")
        limit = model.min_channels(skip_first=True)
        if self.parts > limit:
            raise StrategyError(
                f"channel parallelism limited to p <= min C_l = {limit}, "
                f"got {self.parts}"
            )


@dataclass(frozen=True)
class DataFilterParallel(Strategy):
    """Hybrid: ``groups`` data-parallel groups of ``parts`` filter-parallel
    PEs each (``p = p1 * p2`` with ``p1 = groups``, ``p2 = parts``)."""

    groups: int
    parts: int

    @property
    def id(self) -> str:
        return "df"

    @property
    def p(self) -> int:
        return self.groups * self.parts

    @property
    def p1(self) -> int:
        return self.groups

    @property
    def p2(self) -> int:
        return self.parts

    @property
    def is_weak_scaling(self) -> bool:
        return True

    def describe(self) -> str:
        return f"df(p1={self.groups},p2={self.parts})"

    def check(self, model: ModelGraph, batch: int) -> None:
        if self.groups < 1 or self.parts < 1:
            raise StrategyError("groups and parts must be >= 1")
        if self.groups > batch:
            raise StrategyError(
                f"data dimension needs p1 <= B ({self.groups} > {batch})"
            )
        limit = model.min_filters()
        if self.parts > limit:
            raise StrategyError(
                f"filter dimension limited to p2 <= min F_l = {limit}, "
                f"got {self.parts}"
            )


@dataclass(frozen=True)
class DataSpatialParallel(Strategy):
    """Hybrid: ``groups`` data-parallel groups each spatially decomposed
    over ``grid``.

    ``leaders`` selects the hierarchical gradient-exchange flavor
    (Section 5.3.1): 1 reproduces the paper's single-leader reduce +
    inter-leader Allreduce (whose overhead they measured at >2x data
    parallelism's); >1 models the multi-leader fix they cite, where each
    leader carries 1/leaders of the weights concurrently.
    """

    groups: int
    grid: Tuple[int, ...]
    leaders: int = 1

    @property
    def id(self) -> str:
        return "ds"

    @property
    def p(self) -> int:
        return self.groups * prod(self.grid)

    @property
    def p1(self) -> int:
        return self.groups

    @property
    def p2(self) -> int:
        return prod(self.grid)

    @property
    def is_weak_scaling(self) -> bool:
        return True

    def describe(self) -> str:
        grid = "x".join(str(g) for g in self.grid)
        extra = f",L={self.leaders}" if self.leaders > 1 else ""
        return f"ds(p1={self.groups},grid={grid}{extra})"

    def check(self, model: ModelGraph, batch: int) -> None:
        if self.groups < 1:
            raise StrategyError("groups must be >= 1")
        if self.groups > batch:
            raise StrategyError(
                f"data dimension needs p1 <= B ({self.groups} > {batch})"
            )
        if not 1 <= self.leaders <= self.p2:
            raise StrategyError(
                f"leaders must be in [1, p2={self.p2}], got {self.leaders}"
            )
        SpatialParallel(self.grid).check(model, batch)


def strategy_from_id(sid: str, p: int, model: ModelGraph, batch: int,
                     segments: int = 4, intra: int = 4) -> Strategy:
    """Construct a reasonable default strategy config for short id ``sid``.

    ``intra`` is the group size used by hybrids (PEs per node in the paper's
    experiments, i.e. 4 GPUs/node: model parallelism intra-node, data
    parallelism inter-node).
    """
    if sid == "serial":
        return Serial()
    if sid == "d":
        return DataParallel(p)
    if sid == "z":
        return ShardedDataParallel(p)
    if sid == "s":
        return SpatialParallel(_square_grid(p, model.input_spec.ndim))
    if sid == "p":
        return PipelineParallel(p, segments=segments)
    if sid == "f":
        return FilterParallel(p)
    if sid == "c":
        return ChannelParallel(p)
    if sid == "df":
        if p % intra:
            raise StrategyError(f"p={p} not divisible by group size {intra}")
        return DataFilterParallel(groups=p // intra, parts=intra)
    if sid == "ds":
        if p % intra:
            raise StrategyError(f"p={p} not divisible by group size {intra}")
        grid = _square_grid(intra, model.input_spec.ndim)
        return DataSpatialParallel(groups=p // intra, grid=grid)
    raise StrategyError(f"unknown strategy id {sid!r}")


def _square_grid(p: int, ndim: int) -> Tuple[int, ...]:
    """Factor ``p`` into an ``ndim``-grid, preferring near-square shapes."""
    if ndim == 0:
        raise StrategyError("model input has no spatial dimensions")
    if ndim == 1:
        return (p,)
    grid = [1] * ndim
    remaining = p
    # Greedy: repeatedly multiply the smallest grid entry by the smallest
    # prime factor of what remains.
    while remaining > 1:
        factor = smallest_prime_factor(remaining)
        idx = grid.index(min(grid))
        grid[idx] *= factor
        remaining //= factor
    return tuple(sorted(grid, reverse=True))

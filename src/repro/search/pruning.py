"""Feasibility pre-filters: reject candidates *before* paying for a
projection.

Each pruner is a cheap pure function ``(candidate, ctx) -> Optional[str]``
returning a human-readable rejection reason, or ``None`` to keep the
candidate.  Pruners must be conservative: they may only reject candidates
the full analytical model would also reject (structural Table-3 limits, or
a memory *lower bound* already above capacity) — never a maybe.  The
engine runs them in order and stops at the first rejection.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..core.caching import cached_property
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..core.analytical import DEFAULT_DELTA, DEFAULT_GAMMA
from ..core.graph import ModelGraph
from ..network.topology import ClusterSpec
from .space import Candidate

__all__ = [
    "PruningContext",
    "Pruner",
    "prune_structure",
    "prune_memory_lower_bound",
    "DEFAULT_PRUNERS",
    "apply_pruners",
    "apply_pruners_batch",
]


@dataclass(frozen=True)
class PruningContext:
    """Everything a pruner may consult.

    The Table-3 parallelism limits are cached on first use — pruners run
    once per candidate, and re-walking the layer list each time would cost
    more than the pruning saves.
    """

    model: ModelGraph
    cluster: ClusterSpec
    gamma: float = DEFAULT_GAMMA
    delta: int = DEFAULT_DELTA

    @cached_property
    def min_filters(self) -> int:
        return self.model.min_filters()

    @cached_property
    def min_channels(self) -> int:
        return self.model.min_channels(skip_first=True)

    @cached_property
    def min_spatial(self) -> int:
        return self.model.min_spatial()

    @cached_property
    def num_layers(self) -> int:
        return len(self.model.layers)

    @cached_property
    def weight_elements(self) -> float:
        return float(self.model.weight_elements)

    @cached_property
    def input_elements(self) -> float:
        return float(self.model.input_spec.elements)

    @cached_property
    def activation_io_elements(self) -> float:
        """``sum_l (|x_l| + |y_l|)`` — the per-sample activation traffic
        term of ``AnalyticalModel._memory_terms``."""
        return float(sum(
            l.input.elements + l.output.elements for l in self.model.layers
        ))


Pruner = Callable[[Candidate, PruningContext], Optional[str]]


def prune_structure(cand: Candidate, ctx: PruningContext) -> Optional[str]:
    """Structural Table-3 limits: divisibility, min-shard sizes, PE caps.

    Mirrors :meth:`Strategy.check` without building the strategy (or the
    spatial grid) — rejections here are exact, not heuristic.
    """
    if cand.p < 1 or cand.batch < 1:
        return "p and batch must be >= 1"
    if cand.sid in ("d", "z") and cand.p > cand.batch:
        return f"needs p <= B ({cand.p} > {cand.batch})"
    if cand.sid == "s" and cand.p > ctx.min_spatial:
        return (f"spatial limit p <= min(W*H) = {ctx.min_spatial}, "
                f"got {cand.p}")
    if cand.sid == "p":
        if cand.p > ctx.num_layers:
            return f"pipeline limit p <= G = {ctx.num_layers} layers"
        if cand.segments and cand.segments > cand.batch:
            return f"segments S={cand.segments} > B={cand.batch}"
    if cand.sid == "f" and cand.p > ctx.min_filters:
        return f"filter limit p <= min F_l = {ctx.min_filters}"
    if cand.sid == "c" and cand.p > ctx.min_channels:
        return f"channel limit p <= min C_l = {ctx.min_channels}"
    if cand.sid in ("df", "ds"):
        if cand.p1 * cand.p2 != cand.p:
            return f"p1*p2 = {cand.p1 * cand.p2} != p = {cand.p}"
        if cand.p1 > cand.batch:
            return f"data dimension needs p1 <= B ({cand.p1} > {cand.batch})"
        if cand.sid == "df" and cand.p2 > ctx.min_filters:
            return f"filter dimension limit p2 <= {ctx.min_filters}"
        if cand.sid == "ds" and cand.p2 > ctx.min_spatial:
            return f"spatial dimension limit p2 <= {ctx.min_spatial}"
    return None


def _memory_lower_bound(cand: Candidate, ctx: PruningContext) -> float:
    """A provable *lower* bound (bytes/PE) on the analytical memory model.

    Uses only the weight-state term plus the first layer's input
    activations, with the most favourable sharding each strategy can
    achieve — every term here appears (at least this large) in the
    corresponding ``AnalyticalModel._memory_terms`` sum, so a candidate
    whose bound exceeds capacity is genuinely out of memory.
    """
    weights = ctx.weight_elements
    io = ctx.activation_io_elements
    B = float(cand.batch)
    sid = cand.sid
    # Weight state (weights + gradients), divided by whatever dimension
    # shards weights under this strategy.  Pipeline stages partition the
    # layers, so the largest stage holds at least W/p.
    if sid in ("z", "f", "c", "p"):
        w_term = 2.0 * weights / cand.p
    elif sid == "df":
        w_term = 2.0 * weights / max(cand.p2, 1)
    else:  # d, s, ds replicate weights on every PE
        w_term = 2.0 * weights
    # Activations and their gradients, at the finest decomposition the
    # strategy allows (spatial strategies only split the leading layers,
    # so dividing the whole sum by the grid underestimates — which is the
    # side we must err on).
    if sid in ("d", "z"):
        a_term = 2.0 * (B / cand.p) * io
    elif sid == "s":
        a_term = 2.0 * B * io / cand.p
    elif sid in ("ds", "df"):
        a_term = 2.0 * B * io / (max(cand.p1, 1) * max(cand.p2, 1))
    elif sid == "p":
        # Checkpointed pipelines can shrink activations to one micro-batch
        # of one stage; claim nothing and rely on the weight term.
        a_term = 0.0
    else:  # f, c keep the full batch on every PE
        a_term = 2.0 * B * io
    return ctx.gamma * ctx.delta * (w_term + a_term)


def prune_memory_lower_bound(
    cand: Candidate, ctx: PruningContext
) -> Optional[str]:
    """Reject when even the memory lower bound exceeds GPU capacity."""
    bound = _memory_lower_bound(cand, ctx)
    cap = ctx.cluster.gpu_memory_bytes
    if bound > cap:
        return (f"memory lower bound {bound / 1e9:.1f} GB exceeds "
                f"{cap / 1e9:.0f} GB/PE")
    return None


DEFAULT_PRUNERS: Tuple[Pruner, ...] = (
    prune_structure,
    prune_memory_lower_bound,
)


def apply_pruners(
    cand: Candidate,
    ctx: PruningContext,
    pruners: Optional[List[Pruner]] = None,
) -> Optional[str]:
    """Run ``pruners`` in order; first rejection wins."""
    for pruner in (DEFAULT_PRUNERS if pruners is None else pruners):
        reason = pruner(cand, ctx)
        if reason is not None:
            return reason
    return None


def apply_pruners_batch(
    cands: List[Candidate],
    ctx: PruningContext,
    pruners: Optional[List[Pruner]] = None,
) -> List[Optional[str]]:
    """:func:`apply_pruners` over many candidates at once.

    With the default pruner stack, boolean masks decide *which*
    candidates are rejected (the comparisons and the memory lower bound
    are mirrored as array expressions); the reason strings themselves are
    then regenerated by the scalar pruners on the flagged minority, so
    text and first-rejection-wins ordering are identical by construction.
    Custom pruner stacks (and batches under eight) run the scalar loop.
    """
    if pruners is not None and tuple(pruners) != DEFAULT_PRUNERS:
        return [apply_pruners(c, ctx, pruners) for c in cands]
    if len(cands) < 8:
        return [apply_pruners(c, ctx) for c in cands]
    n = len(cands)
    p = np.fromiter((c.p for c in cands), dtype=np.int64, count=n)
    B = np.fromiter((c.batch for c in cands), dtype=np.int64, count=n)
    p1 = np.fromiter((c.p1 for c in cands), dtype=np.int64, count=n)
    p2 = np.fromiter((c.p2 for c in cands), dtype=np.int64, count=n)
    seg = np.fromiter((c.segments for c in cands), dtype=np.int64, count=n)
    sids = [c.sid for c in cands]
    is_ = {
        sid: np.fromiter(
            (s == sid for s in sids), dtype=np.bool_, count=n)
        for sid in ("d", "z", "s", "p", "f", "c", "df", "ds")
    }
    hybrid = is_["df"] | is_["ds"]
    # prune_structure, as masks (same comparisons, same candidates).
    bad = (p < 1) | (B < 1)
    bad |= (is_["d"] | is_["z"]) & (p > B)
    bad |= is_["s"] & (p > ctx.min_spatial)
    bad |= is_["p"] & ((p > ctx.num_layers) | ((seg > 0) & (seg > B)))
    bad |= is_["f"] & (p > ctx.min_filters)
    bad |= is_["c"] & (p > ctx.min_channels)
    bad |= hybrid & (
        (p1 * p2 != p)
        | (p1 > B)
        | (is_["df"] & (p2 > ctx.min_filters))
        | (is_["ds"] & (p2 > ctx.min_spatial))
    )
    # _memory_lower_bound, vectorized (identical expression order per
    # family; structurally-bad candidates may divide by clamped values,
    # but their verdict is already decided above).
    weights = ctx.weight_elements
    io = ctx.activation_io_elements
    Bf = B.astype(np.float64)
    pf = np.maximum(p, 1).astype(np.float64)
    p1f = np.maximum(p1, 1).astype(np.float64)
    p2f = np.maximum(p2, 1).astype(np.float64)
    shard_w = is_["z"] | is_["f"] | is_["c"] | is_["p"]
    w_term = np.where(
        shard_w, 2.0 * weights / pf,
        np.where(is_["df"], 2.0 * weights / p2f, 2.0 * weights),
    )
    a_term = np.where(
        is_["d"] | is_["z"], 2.0 * (Bf / pf) * io,
        np.where(
            is_["s"], 2.0 * Bf * io / pf,
            np.where(
                hybrid, 2.0 * Bf * io / (p1f * p2f),
                np.where(is_["p"], 0.0, 2.0 * Bf * io),
            ),
        ),
    )
    bound = ctx.gamma * ctx.delta * (w_term + a_term)
    bad |= bound > ctx.cluster.gpu_memory_bytes
    flagged = bad.tolist()
    return [
        apply_pruners(c, ctx) if hit else None
        for c, hit in zip(cands, flagged)
    ]

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

import functools
import operator
from dataclasses import dataclass
from types import SimpleNamespace
from ..core.caching import cached_property
from typing import Callable, Dict, List, Optional, Tuple

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


# The pruning rules, written once as plain arithmetic, comparisons, ``&``
# and ``|`` over ``c`` — a :class:`Candidate`, or the int64 candidate
# columns of :func:`apply_pruners_batch` — so a rule means the same on
# Python ints and numpy arrays (``mx`` is ``max`` or ``numpy.maximum``).
# ``x`` is the :class:`PruningContext`.  Structural limits mirror
# :meth:`Strategy.check` in its check order as ``(rejects(c, x),
# reason(c, x))`` pairs; every family starts with ``_POSITIVE``.
_POSITIVE = (lambda c, x: (c.p < 1) | (c.batch < 1),
             lambda c, x: "p and batch must be >= 1")
_DATA_DIM = (lambda c, x: c.p > c.batch,
             lambda c, x: f"needs p <= B ({c.p} > {c.batch})")
_HYBRID = (
    (lambda c, x: c.p1 * c.p2 != c.p,
     lambda c, x: f"p1*p2 = {c.p1 * c.p2} != p = {c.p}"),
    (lambda c, x: c.p1 > c.batch,
     lambda c, x: f"data dimension needs p1 <= B ({c.p1} > {c.batch})"),
)

# The memory lower bound counts weight state plus activations: weights
# and gradients divided by whatever dimension shards weights (pipeline
# stages partition the layers, so the largest holds at least W/p);
# activations and their gradients at the finest decomposition the
# strategy allows (spatial strategies only split the leading layers, so
# dividing the whole sum by the grid underestimates — the side we must
# err on).  Checkpointed pipelines can shrink activations to one
# micro-batch of one stage, so "p" claims no activations at all.
#
#: ``sid -> (limits, elements(c, x, mx))``; other ids get :data:`_OTHER`.
_FAMILIES: Dict[str, Tuple[tuple, Callable]] = {
    "d": ((_DATA_DIM,), lambda c, x, mx: 2.0 * x.weight_elements
          + 2.0 * (c.batch / c.p) * x.activation_io_elements),
    "z": ((_DATA_DIM,), lambda c, x, mx: 2.0 * x.weight_elements / c.p
          + 2.0 * (c.batch / c.p) * x.activation_io_elements),
    "s": (((lambda c, x: c.p > x.min_spatial,
            lambda c, x: (f"spatial limit p <= min(W*H) = "
                          f"{x.min_spatial}, got {c.p}")),),
          lambda c, x, mx: 2.0 * x.weight_elements
          + 2.0 * c.batch * x.activation_io_elements / c.p),
    "p": (((lambda c, x: c.p > x.num_layers,
            lambda c, x: f"pipeline limit p <= G = {x.num_layers} layers"),
           (lambda c, x: (c.segments > 0) & (c.segments > c.batch),
            lambda c, x: f"segments S={c.segments} > B={c.batch}")),
          lambda c, x, mx: 2.0 * x.weight_elements / c.p),
    "f": (((lambda c, x: c.p > x.min_filters,
            lambda c, x: f"filter limit p <= min F_l = {x.min_filters}"),),
          lambda c, x, mx: 2.0 * x.weight_elements / c.p
          + 2.0 * c.batch * x.activation_io_elements),
    "c": (((lambda c, x: c.p > x.min_channels,
            lambda c, x: f"channel limit p <= min C_l = {x.min_channels}"),),
          lambda c, x, mx: 2.0 * x.weight_elements / c.p
          + 2.0 * c.batch * x.activation_io_elements),
    "df": (_HYBRID + (
        (lambda c, x: c.p2 > x.min_filters,
         lambda c, x: f"filter dimension limit p2 <= {x.min_filters}"),),
        lambda c, x, mx: 2.0 * x.weight_elements / mx(c.p2, 1)
        + 2.0 * c.batch * x.activation_io_elements
        / (mx(c.p1, 1) * mx(c.p2, 1))),
    "ds": (_HYBRID + (
        (lambda c, x: c.p2 > x.min_spatial,
         lambda c, x: f"spatial dimension limit p2 <= {x.min_spatial}"),),
        lambda c, x, mx: 2.0 * x.weight_elements
        + 2.0 * c.batch * x.activation_io_elements
        / (mx(c.p1, 1) * mx(c.p2, 1))),
}
_OTHER = ((), lambda c, x, mx: 2.0 * x.weight_elements
          + 2.0 * c.batch * x.activation_io_elements)
#: The structural limits each family checks, ``_POSITIVE`` first.
_LIMITS = {sid: (_POSITIVE, *limits)
           for sid, (limits, _) in (*_FAMILIES.items(), (None, _OTHER))}


def prune_structure(cand: Candidate, ctx: PruningContext) -> Optional[str]:
    """Structural Table-3 limits: divisibility, min-shard sizes, PE caps.

    Mirrors :meth:`Strategy.check` without building the strategy (or the
    spatial grid) — rejections here are exact, not heuristic.
    """
    for rejects, reason in _LIMITS.get(cand.sid) or _LIMITS[None]:
        if rejects(cand, ctx):
            return reason(cand, ctx)
    return None


def _memory_lower_bound(cand: Candidate, ctx: PruningContext) -> float:
    """A provable *lower* bound (bytes/PE) on the analytical memory model.

    Uses only the weight-state term plus the activation traffic, with
    the most favourable sharding each strategy can achieve — every term
    here appears (at least this large) in the corresponding
    ``AnalyticalModel._memory_terms`` sum, so a candidate whose bound
    exceeds capacity is genuinely out of memory.
    """
    elements = _FAMILIES.get(cand.sid, _OTHER)[1]
    return ctx.gamma * ctx.delta * elements(cand, ctx, max)


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

    With the default pruner stack, the rule table runs over candidate
    columns as boolean masks to decide *which* candidates are rejected;
    the reason strings themselves are then regenerated by the scalar
    pruners on the flagged minority, so text and first-rejection-wins
    ordering are identical by construction.  Custom pruner stacks (and
    batches under 64) run the scalar loop.
    """
    if pruners is not None and tuple(pruners) != DEFAULT_PRUNERS:
        return [apply_pruners(c, ctx, pruners) for c in cands]
    # Each family present costs a handful of numpy calls, so small
    # batches are faster one candidate at a time (break-even measured at
    # ~100 resnet50 candidates with all eight families present).
    if len(cands) < 64:
        return [apply_pruners(c, ctx) for c in cands]
    n = len(cands)
    cols = SimpleNamespace(
        p=np.fromiter((c.p for c in cands), dtype=np.int64, count=n),
        batch=np.fromiter((c.batch for c in cands), dtype=np.int64, count=n),
        p1=np.fromiter((c.p1 for c in cands), dtype=np.int64, count=n),
        p2=np.fromiter((c.p2 for c in cands), dtype=np.int64, count=n),
        segments=np.fromiter(
            (c.segments for c in cands), dtype=np.int64, count=n))
    sids = [c.sid for c in cands]
    sid_col = np.array(sids)
    bad = _POSITIVE[0](cols, ctx)
    elements = np.zeros(len(cands))
    # Rows a structural limit already rejected may divide by zero in
    # the memory bound; their verdict is decided either way.
    with np.errstate(divide="ignore", invalid="ignore"):
        for sid in dict.fromkeys(sids):
            limits, family_elements = _FAMILIES.get(sid, _OTHER)
            rows = sid_col == sid
            if limits:
                np.logical_or(bad, functools.reduce(
                    operator.or_, (rejects(cols, ctx) for rejects, _ in limits)),
                    out=bad, where=rows)
            elements = np.where(
                rows, family_elements(cols, ctx, np.maximum), elements)
    bad |= ctx.gamma * ctx.delta * elements > ctx.cluster.gpu_memory_bytes
    return [
        apply_pruners(c, ctx) if hit else None
        for c, hit in zip(cands, bad.tolist())
    ]

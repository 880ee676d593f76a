"""Multi-objective ranking: Pareto frontier + scalarized best pick.

Objectives are *minimized*.  The default objective tuple is epoch time,
iteration time, per-PE memory, and PE count: epoch time rides along with
the issue's (iteration time, memory, PEs) triple because weak- and
strong-scaling candidates run different global batches, so a tiny fixed
batch can "win" on raw iteration time while losing an epoch — keeping
epoch time as an objective keeps the throughput-optimal point on the
frontier.

The scalarizer min-max normalizes each objective over the frontier and
takes a weighted sum.  The default weights are ``{"epoch_time": 1.0}`` —
a pure-throughput pick, guaranteed to match-or-beat a plain
:meth:`ParaDL.suggest` ranking over the same candidates — and callers
trade memory or PE count in by supplying their own weights.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "OBJECTIVES",
    "DEFAULT_OBJECTIVES",
    "DEFAULT_WEIGHTS",
    "dominates",
    "pareto_frontier",
    "scalarized_best",
]

#: Named objective accessors over :class:`~repro.search.engine.Evaluation`
#: (anything exposing ``.projection`` works).  All are minimized.
OBJECTIVES: Dict[str, Callable[[object], float]] = {
    "epoch_time": lambda e: e.projection.per_epoch.total,
    "iteration_time": lambda e: e.projection.per_iteration.total,
    "memory": lambda e: e.projection.memory_bytes,
    "pes": lambda e: float(e.projection.strategy.p),
}

DEFAULT_OBJECTIVES: Tuple[str, ...] = (
    "epoch_time", "iteration_time", "memory", "pes",
)

DEFAULT_WEIGHTS: Dict[str, float] = {"epoch_time": 1.0}


def _vector(e: object, objectives: Sequence[str]) -> Tuple[float, ...]:
    try:
        return tuple(OBJECTIVES[name](e) for name in objectives)
    except KeyError as exc:
        raise KeyError(
            f"unknown objective {exc.args[0]!r}; "
            f"choose from {sorted(OBJECTIVES)}"
        ) from None


def dominates(
    a: Sequence[float], b: Sequence[float]
) -> bool:
    """True when ``a`` is no worse on every objective and better on one."""
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


def _dominated_mask(vectors: List[Tuple[float, ...]]) -> List[bool]:
    """Per-vector "is dominated by any other" flags.

    With numpy and enough vectors this is a chunked ``(others, mine,
    objectives)`` comparison — the same ``all(<=) and any(<)`` test as
    :func:`dominates`, just evaluated as one boolean tensor — so the
    surviving set is identical to the scalar scan.
    """
    n = len(vectors)
    if n < 32:
        return [
            any(dominates(other, v) for other in vectors) for v in vectors
        ]
    V = np.asarray(vectors, dtype=np.float64)
    # Archive sweep instead of the full n^2 broadcast: process blocks in
    # ascending objective-sum order.  A dominator's sum is *strictly*
    # below its dominatee's (all(<=) plus any(<)), so every dominator of
    # a point sits in an earlier block or the same block — comparing each
    # block against the archive of earlier non-dominated points plus
    # itself is exhaustive.  (Dominated dominators need no archive slot:
    # domination is transitive, so whatever they dominate their own
    # dominator dominates too.)  Each comparison applies the same
    # ``all(<=) and any(<)`` test as :func:`dominates`, so the surviving
    # set is identical to the scalar scan, duplicates included.
    order = np.argsort(V.sum(axis=1), kind="stable")
    S = V[order]
    k = S.shape[1]

    def _dominated_by(dominators: "np.ndarray", targets: "np.ndarray"):
        """Per-target "some dominator row dominates it" flags.

        Built objective-by-objective from 2-D comparisons: reducing a
        ``(targets, dominators, objectives)`` tensor over the tiny
        trailing axis is an order of magnitude slower in numpy than
        ``k`` full-size 2-D ops.
        """
        le = lt = None
        for j in range(k):
            d = dominators[:, j][None, :]
            t = targets[:, j][:, None]
            le = (d <= t) if le is None else (le & (d <= t))
            lt = (d < t) if lt is None else (lt | (d < t))
        return (le & lt).any(axis=1)

    out = np.zeros(n, dtype=bool)
    archive = S[:0]
    block = 256
    for lo in range(0, n, block):
        B = S[lo:lo + block]
        dom = _dominated_by(B, B)
        if len(archive):
            dom |= _dominated_by(archive, B)
        out[order[lo:lo + block]] = dom
        archive = np.concatenate([archive, B[~dom]])
    return out.tolist()


def pareto_frontier(
    evaluations: Sequence[object],
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
) -> List[object]:
    """Non-dominated subset of ``evaluations``, sorted by epoch time.

    Only feasible evaluations (with a projection) may be passed.  Exact
    duplicates in objective space keep their first representative.
    """
    vectors = [_vector(e, objectives) for e in evaluations]
    # Collapse exact objective-space duplicates *before* the domination
    # test: equal vectors share a fate (nothing dominates its own equal),
    # so one representative per distinct vector — the first, to keep the
    # documented tie-break — is enough, and the mask runs on the smaller
    # deduplicated set.
    first_index: Dict[Tuple[float, ...], int] = {}
    for i, v in enumerate(vectors):
        first_index.setdefault(v, i)
    unique = list(first_index)
    dominated = _dominated_mask(unique)
    kept = sorted(
        v for v, dom in zip(unique, dominated) if not dom
    )
    return [evaluations[first_index[v]] for v in kept]


def scalarized_best(
    frontier: Sequence[object],
    weights: Optional[Mapping[str, float]] = None,
) -> Optional[object]:
    """Weighted min-max-normalized pick from a frontier (``None`` if empty).

    ``weights`` maps objective names to non-negative weights; omitted
    objectives weigh 0.  Ties break toward lower epoch time, then lower
    memory, then fewer PEs.
    """
    if not frontier:
        return None
    weights = dict(DEFAULT_WEIGHTS if weights is None else weights)
    if any(w < 0 for w in weights.values()):
        raise ValueError("weights must be >= 0")
    if not any(w > 0 for w in weights.values()):
        raise ValueError("at least one weight must be > 0")
    names = [n for n, w in sorted(weights.items()) if w > 0]
    unknown = [n for n in names if n not in OBJECTIVES]
    if unknown:
        raise KeyError(
            f"unknown objective {unknown[0]!r}; "
            f"choose from {sorted(OBJECTIVES)}"
        )
    columns = {n: [OBJECTIVES[n](e) for e in frontier] for n in names}
    spans = {
        n: (min(col), max(col) - min(col)) for n, col in columns.items()
    }

    def score(i: int) -> float:
        total = 0.0
        for n in names:
            lo, span = spans[n]
            norm = 0.0 if span == 0 else (columns[n][i] - lo) / span
            total += weights[n] * norm
        return total

    def tiebreak(i: int) -> Tuple[float, ...]:
        e = frontier[i]
        return (
            score(i),
            OBJECTIVES["epoch_time"](e),
            OBJECTIVES["memory"](e),
            OBJECTIVES["pes"](e),
        )

    best_index = min(range(len(frontier)), key=tiebreak)
    return frontier[best_index]

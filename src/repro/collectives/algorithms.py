"""Analytic collective costs under the Hockney alpha-beta model.

Formulas (Section 4.3 of the paper), for ``p`` PEs and a per-PE buffer of
``m`` bytes:

* ring Allreduce:      ``2 (p-1) (alpha + (m/p) beta)``
* ring Allgather:      ``(p-1) (alpha + m_seg beta)`` where ``m_seg`` is the
  per-PE contribution (the paper passes the segment size directly, e.g.
  ``B |y_l| / p`` for filter parallelism),
* ring ReduceScatter:  ``(p-1) (alpha + (m/p) beta)``
* pipelined-tree Allreduce (small messages, footnote 4):
  ``2 (log2(p) + k) (alpha + m/(2k) beta)`` with the message split into
  ``k`` chunks,
* peer-to-peer:        ``alpha + m beta``.

All functions return seconds and degrade gracefully for ``p == 1``
(collectives over a singleton communicator are free).  Each is a thin,
input-checked wrapper over one closed form that
:class:`~repro.collectives.registry.FormulaAlgorithm` and
:meth:`~repro.collectives.selector.CommModel.time_batch` evaluate too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..network.hockney import HockneyParams

__all__ = [
    "CollectiveCost",
    "ring_allreduce_time",
    "ring_allgather_time",
    "ring_reduce_scatter_time",
    "tree_allreduce_time",
    "broadcast_time",
    "reduce_time",
    "p2p_time",
]

#: Message-size threshold below which NCCL-style implementations switch from
#: ring to tree algorithms (bytes).  The exact NCCL crossover is
#: topology-dependent; 512 KiB is representative.
TREE_THRESHOLD_BYTES = 512 * 1024


@dataclass(frozen=True)
class CollectiveCost:
    """A collective's cost split into latency and bandwidth terms.

    Useful for bottleneck attribution: at scale the ``alpha`` term of
    layer-wise collectives (filter/channel parallelism) grows with
    ``G * (p-1) * alpha`` while the bandwidth term shrinks with ``1/p``.
    """

    latency_s: float
    bandwidth_s: float

    @property
    def total(self) -> float:
        return self.latency_s + self.bandwidth_s


def _check(p: int, nbytes: float) -> None:
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if nbytes < 0:
        raise ValueError(f"message size must be >= 0, got {nbytes}")


# ------------------------------------------------------------- closed forms
# One function per algorithm, ``form(p, m, alpha, beta, log2p,
# ceil_log2p) -> seconds``.  The same body prices Python numbers (one
# call) and broadcastable float64 arrays (``CommModel.time_batch``).
# Round counts come precomputed from ``math.log2``/``math.ceil`` —
# never ``numpy.log2``, which can land on the wrong side of an integer
# at a power of two and flip a whole binomial round.  Forms do not
# vanish at a singleton communicator on their own: callers treat
# ``p <= 1`` as free.


def _ring_allreduce_form(p, m, alpha, beta, log2p, ceil_log2p):
    steps = 2.0 * (p - 1.0)
    return steps * alpha + steps * (m / p) * beta


def _ring_allgather_form(p, m, alpha, beta, log2p, ceil_log2p):
    steps = p - 1.0
    return steps * alpha + steps * m * beta


def _ring_reduce_scatter_form(p, m, alpha, beta, log2p, ceil_log2p):
    steps = p - 1.0
    return steps * alpha + steps * (m / p) * beta


def _tree_allreduce_form(p, m, alpha, beta, log2p, ceil_log2p, chunks=4):
    steps = 2.0 * (log2p + chunks)
    return steps * alpha + steps * (m / (2.0 * chunks)) * beta


def _binomial_tree_form(p, m, alpha, beta, log2p, ceil_log2p):
    return ceil_log2p * (alpha + m * beta)


def _priced(form, p, nbytes, alpha, beta, **kw) -> float:
    """``form`` for one call (``p >= 2``), round counts from ``math``."""
    log2p = math.log2(p)
    return form(p, nbytes, alpha, beta, log2p, math.ceil(log2p), **kw)


def _one_call(form, p, nbytes, params: HockneyParams, detailed=False, **kw):
    """Seconds of one call (free for ``p <= 1``), or the latency/bandwidth
    split when ``detailed``: the latency term is the form priced with
    ``beta = 0`` and the bandwidth term with ``alpha = 0`` (each adds the
    other term's exact zero, so ``latency_s + bandwidth_s`` is the
    total)."""
    a, b = params.alpha, params.beta
    if p <= 1:
        return CollectiveCost(0.0, 0.0) if detailed else 0.0
    if not detailed:
        return _priced(form, p, nbytes, a, b, **kw)
    return CollectiveCost(latency_s=_priced(form, p, nbytes, a, 0.0, **kw),
                          bandwidth_s=_priced(form, p, nbytes, 0.0, b, **kw))


# ------------------------------------------------------------ public costs
def ring_allreduce_time(
    p: int, nbytes: float, params: HockneyParams, detailed: bool = False
):
    """Ring Allreduce of an ``nbytes`` buffer replicated on ``p`` PEs."""
    _check(p, nbytes)
    return _one_call(_ring_allreduce_form, p, nbytes, params, detailed)


def ring_allgather_time(
    p: int, seg_bytes: float, params: HockneyParams, detailed: bool = False
):
    """Ring Allgather where each PE contributes ``seg_bytes``.

    After ``p - 1`` steps every PE holds the ``p * seg_bytes``
    concatenation.
    """
    _check(p, seg_bytes)
    return _one_call(_ring_allgather_form, p, seg_bytes, params, detailed)


def ring_reduce_scatter_time(
    p: int, nbytes: float, params: HockneyParams, detailed: bool = False
):
    """Ring ReduceScatter of an ``nbytes`` buffer (the cheaper alternative
    the paper notes for the backward input-gradient exchange, footnote 2)."""
    _check(p, nbytes)
    return _one_call(_ring_reduce_scatter_form, p, nbytes, params, detailed)


def tree_allreduce_time(
    p: int,
    nbytes: float,
    params: HockneyParams,
    chunks: int = 4,
    detailed: bool = False,
):
    """Pipelined two-tree Allreduce for small messages (paper footnote 4):
    ``2 (log2 p + k)(alpha + m/(2k) beta)``."""
    _check(p, nbytes)
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    return _one_call(_tree_allreduce_form, p, nbytes, params, detailed,
                     chunks=chunks)


def broadcast_time(p: int, nbytes: float, params: HockneyParams) -> float:
    """Binomial-tree broadcast: ``ceil(log2 p) (alpha + m beta)``."""
    _check(p, nbytes)
    return _one_call(_binomial_tree_form, p, nbytes, params)


def reduce_time(p: int, nbytes: float, params: HockneyParams) -> float:
    """Binomial-tree reduce to a root: ``ceil(log2 p) (alpha + m beta)``.

    Used by the hierarchical Data+Spatial gradient exchange (reduce to a
    leader GPU inside each node, then Allreduce between leaders).
    """
    _check(p, nbytes)
    return _one_call(_binomial_tree_form, p, nbytes, params)


def p2p_time(nbytes: float, params: HockneyParams) -> float:
    """Point-to-point transfer ``alpha + m beta``."""
    if nbytes < 0:
        raise ValueError("message size must be >= 0")
    return params.p2p(nbytes)

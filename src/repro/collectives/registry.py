"""Pluggable collective-algorithm registry.

The seed model hard-wired *ring* collectives (the paper's Section 4.3
default) into every analyzer.  Real stacks pick the algorithm per call:
NCCL switches ring/tree on message size, MPI implementations use
recursive doubling or Rabenseifner-style halving-doubling depending on
``p`` and ``m``, and hierarchical machines run node-local reductions
before touching the fabric at all.  This module makes the algorithm a
first-class, registered object so new ones can be added without editing
any analyzer:

* :class:`CollectiveAlgorithm` — the protocol: ``supports(p, nbytes,
  topo)`` gates eligibility and ``cost(p, nbytes, params, topo)`` returns
  seconds under Hockney ``params``.
* a process-global registry keyed by ``(collective, algorithm)`` —
  :func:`register`, :func:`get_algorithm`, :func:`algorithms_for`.
* the built-in catalogue: the seed's ring/tree/binomial formulas plus
  recursive-doubling Allreduce/Allgather, recursive halving-doubling
  ReduceScatter, a scatter-allgather (van de Geijn) broadcast, and a
  hierarchical (intra-node reduce + inter-node ring + intra-node
  broadcast) Allreduce that needs a :class:`TopologyHint`.

Message-size conventions match :mod:`repro.collectives.algorithms`:
``nbytes`` is the full per-PE buffer for allreduce / reduce_scatter /
broadcast / reduce, and the *per-PE contribution* (segment) for
allgather.

Algorithm selection policy (paper / auto / nccl-like) lives in
:mod:`repro.collectives.selector`; this module only knows formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..network.hockney import HockneyParams
from .algorithms import (
    broadcast_time,
    reduce_time,
    ring_allgather_time,
    ring_allreduce_time,
    ring_reduce_scatter_time,
    tree_allreduce_time,
)

__all__ = [
    "ARRAY_FORMULAS",
    "COLLECTIVES",
    "TopologyHint",
    "CollectiveAlgorithm",
    "FormulaAlgorithm",
    "HierarchicalAllreduce",
    "register",
    "get_algorithm",
    "algorithms_for",
    "registered",
    "recursive_doubling_allreduce_time",
    "recursive_doubling_allgather_time",
    "recursive_halving_reduce_scatter_time",
    "scatter_allgather_broadcast_time",
]

#: The collective operations the analytical model costs.
COLLECTIVES = ("allreduce", "allgather", "reduce_scatter", "broadcast", "reduce")


@dataclass(frozen=True)
class TopologyHint:
    """What a topology-aware algorithm needs to know about the machine.

    ``intra``/``inter`` are the Hockney parameters of the node-local and
    fabric scopes of the communicator; ``gpus_per_node`` is the local
    group size.  ``None`` (no hint) disables hierarchical algorithms.
    """

    intra: HockneyParams
    inter: HockneyParams
    gpus_per_node: int


class CollectiveAlgorithm:
    """Protocol for one (collective, algorithm) cost model.

    Subclasses set :attr:`collective` and :attr:`name` and implement
    :meth:`cost`; :meth:`supports` defaults to "any communicator".
    """

    collective: str = ""
    name: str = ""

    def supports(
        self, p: int, nbytes: float, topo: Optional[TopologyHint] = None
    ) -> bool:
        return p >= 1

    def cost(
        self,
        p: int,
        nbytes: float,
        params: HockneyParams,
        topo: Optional[TopologyHint] = None,
    ) -> float:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.collective}/{self.name}>"


class FormulaAlgorithm(CollectiveAlgorithm):
    """A :class:`CollectiveAlgorithm` wrapping a closed-form cost function
    ``fn(p, nbytes, params) -> float``."""

    def __init__(
        self,
        collective: str,
        name: str,
        fn: Callable[[int, float, HockneyParams], float],
        supports_fn: Optional[Callable[[int, float], bool]] = None,
    ) -> None:
        if collective not in COLLECTIVES:
            raise ValueError(
                f"unknown collective {collective!r}; expected one of "
                f"{COLLECTIVES}"
            )
        self.collective = collective
        self.name = name
        self._fn = fn
        self._supports = supports_fn

    def supports(
        self, p: int, nbytes: float, topo: Optional[TopologyHint] = None
    ) -> bool:
        if p < 1:
            return False
        return self._supports(p, nbytes) if self._supports else True

    def cost(
        self,
        p: int,
        nbytes: float,
        params: HockneyParams,
        topo: Optional[TopologyHint] = None,
    ) -> float:
        return self._fn(p, nbytes, params)


# --------------------------------------------------------------- new formulas
def recursive_doubling_allreduce_time(
    p: int, nbytes: float, params: HockneyParams
) -> float:
    """Recursive-doubling Allreduce: ``ceil(log2 p) (alpha + m beta)``.

    Each of the ``log2 p`` rounds exchanges the *full* buffer with the
    partner at distance ``2^r`` — latency-optimal (fewest rounds of any
    allreduce), bandwidth-hungry, the classic MPI small-message choice.
    """
    if p <= 1:
        return 0.0
    rounds = math.ceil(math.log2(p))
    return rounds * (params.alpha + nbytes * params.beta)


def recursive_doubling_allgather_time(
    p: int, seg_bytes: float, params: HockneyParams
) -> float:
    """Recursive-doubling Allgather of per-PE segments ``seg_bytes``:
    ``ceil(log2 p) alpha + (p-1) m_seg beta`` (round ``r`` moves
    ``2^r m_seg`` bytes; the doubled volumes telescope to ``p - 1``
    segments)."""
    if p <= 1:
        return 0.0
    rounds = math.ceil(math.log2(p))
    return rounds * params.alpha + (p - 1) * seg_bytes * params.beta


def recursive_halving_reduce_scatter_time(
    p: int, nbytes: float, params: HockneyParams
) -> float:
    """Recursive halving-doubling ReduceScatter:
    ``ceil(log2 p) alpha + ((p-1)/p) m beta`` — the first half of a
    Rabenseifner Allreduce.  Message volume matches the ring variant but
    in logarithmically fewer rounds."""
    if p <= 1:
        return 0.0
    rounds = math.ceil(math.log2(p))
    return rounds * params.alpha + (p - 1) / p * nbytes * params.beta


def scatter_allgather_broadcast_time(
    p: int, nbytes: float, params: HockneyParams
) -> float:
    """van de Geijn large-message broadcast: binomial scatter of ``m/p``
    chunks followed by a ring Allgather —
    ``(ceil(log2 p) + p - 1) alpha + 2 ((p-1)/p) m beta``."""
    if p <= 1:
        return 0.0
    rounds = math.ceil(math.log2(p))
    alpha_term = (rounds + (p - 1)) * params.alpha
    beta_term = 2.0 * (p - 1) / p * nbytes * params.beta
    return alpha_term + beta_term


class HierarchicalAllreduce(CollectiveAlgorithm):
    """Topology-aware Allreduce: binomial reduce to a node leader over the
    intra-node link, ring Allreduce between the leaders over the fabric,
    then intra-node broadcast back (the Section 4.5.1 leader pattern
    generalized to plain data parallelism).

    Only eligible when a :class:`TopologyHint` is supplied and the
    communicator spans whole nodes (``p`` a multiple of
    ``gpus_per_node`` strictly greater than it).
    """

    collective = "allreduce"
    name = "hierarchical"

    def supports(
        self, p: int, nbytes: float, topo: Optional[TopologyHint] = None
    ) -> bool:
        return (
            topo is not None
            and topo.gpus_per_node > 1
            and p > topo.gpus_per_node
            and p % topo.gpus_per_node == 0
        )

    def cost(
        self,
        p: int,
        nbytes: float,
        params: HockneyParams,
        topo: Optional[TopologyHint] = None,
    ) -> float:
        if topo is None:
            raise ValueError("hierarchical allreduce needs a TopologyHint")
        n = topo.gpus_per_node
        leaders = p // n
        return (
            reduce_time(n, nbytes, topo.intra)
            + ring_allreduce_time(leaders, nbytes, topo.inter)
            + broadcast_time(n, nbytes, topo.intra)
        )


# ------------------------------------------------------------------- registry
_REGISTRY: Dict[Tuple[str, str], CollectiveAlgorithm] = {}


def register(algo: CollectiveAlgorithm, overwrite: bool = False) -> CollectiveAlgorithm:
    """Add ``algo`` under ``(algo.collective, algo.name)``; returns it."""
    if algo.collective not in COLLECTIVES:
        raise ValueError(
            f"unknown collective {algo.collective!r}; expected one of "
            f"{COLLECTIVES}"
        )
    if not algo.name:
        raise ValueError("algorithm needs a non-empty name")
    key = (algo.collective, algo.name)
    if key in _REGISTRY and not overwrite:
        raise ValueError(f"algorithm {key} already registered")
    _REGISTRY[key] = algo
    return algo


def get_algorithm(collective: str, name: str) -> CollectiveAlgorithm:
    """Look up one algorithm; raises ``KeyError`` with the catalogue."""
    try:
        return _REGISTRY[(collective, name)]
    except KeyError:
        known = sorted(n for c, n in _REGISTRY if c == collective)
        raise KeyError(
            f"no {collective!r} algorithm named {name!r}; "
            f"registered: {known}"
        ) from None


def algorithms_for(collective: str) -> List[CollectiveAlgorithm]:
    """All registered algorithms for one collective, sorted by name."""
    if collective not in COLLECTIVES:
        raise ValueError(
            f"unknown collective {collective!r}; expected one of "
            f"{COLLECTIVES}"
        )
    return [
        _REGISTRY[key] for key in sorted(_REGISTRY) if key[0] == collective
    ]


def registered() -> Tuple[Tuple[str, str], ...]:
    """All ``(collective, algorithm)`` keys currently registered."""
    return tuple(sorted(_REGISTRY))


# ------------------------------------------------------- built-in catalogue
register(FormulaAlgorithm(
    "allreduce", "ring",
    lambda p, m, params: ring_allreduce_time(p, m, params)))
register(FormulaAlgorithm(
    "allreduce", "tree",
    lambda p, m, params: tree_allreduce_time(p, m, params)))
register(FormulaAlgorithm(
    "allreduce", "recursive-doubling", recursive_doubling_allreduce_time))
register(HierarchicalAllreduce())

register(FormulaAlgorithm(
    "allgather", "ring",
    lambda p, seg, params: ring_allgather_time(p, seg, params)))
register(FormulaAlgorithm(
    "allgather", "recursive-doubling", recursive_doubling_allgather_time))

register(FormulaAlgorithm(
    "reduce_scatter", "ring",
    lambda p, m, params: ring_reduce_scatter_time(p, m, params)))
register(FormulaAlgorithm(
    "reduce_scatter", "recursive-halving",
    recursive_halving_reduce_scatter_time))

register(FormulaAlgorithm("broadcast", "binomial-tree", broadcast_time))
register(FormulaAlgorithm(
    "broadcast", "scatter-allgather", scatter_allgather_broadcast_time))

register(FormulaAlgorithm("reduce", "binomial-tree", reduce_time))


# ------------------------------------------------------------ array formulas
# Vectorized twins of the built-in scalar formulas, used by
# :meth:`repro.collectives.selector.CommModel.time_batch`.  Each entry is
# ``fn(p, m, alpha, beta, log2p, ceil_log2p) -> seconds`` where every
# argument is a broadcastable float64 ndarray (or scalar).  The bodies
# are written operator-for-operator like the scalar formulas above, so
# elementwise results are bit-identical; ``log2p``/``ceil_log2p`` are
# precomputed by the caller per *unique* p with ``math.log2``/
# ``math.ceil`` (never ``numpy.log2``) so round counts match the scalar
# path exactly, including the power-of-two edge.  ``p == 1`` / ``m == 0``
# elements are masked to zero by the caller — several formulas (tree,
# binomial) do not vanish at a singleton communicator on their own.
#
# These are plain arithmetic over whatever array type is passed in, so
# the module itself never imports numpy.


def _arr_ring_allreduce(p, m, alpha, beta, log2p, ceil_log2p):
    steps = 2.0 * (p - 1.0)
    return steps * alpha + steps * (m / p) * beta


def _arr_tree_allreduce(p, m, alpha, beta, log2p, ceil_log2p):
    steps = 2.0 * (log2p + 4.0)  # chunks = 4, as in tree_allreduce_time
    return steps * alpha + steps * (m / 8.0) * beta


def _arr_rd_allreduce(p, m, alpha, beta, log2p, ceil_log2p):
    return ceil_log2p * (alpha + m * beta)


def _arr_ring_allgather(p, m, alpha, beta, log2p, ceil_log2p):
    steps = p - 1.0
    return steps * alpha + steps * m * beta


def _arr_rd_allgather(p, m, alpha, beta, log2p, ceil_log2p):
    return ceil_log2p * alpha + (p - 1.0) * m * beta


def _arr_ring_reduce_scatter(p, m, alpha, beta, log2p, ceil_log2p):
    steps = p - 1.0
    return steps * alpha + steps * (m / p) * beta


def _arr_rh_reduce_scatter(p, m, alpha, beta, log2p, ceil_log2p):
    return ceil_log2p * alpha + (p - 1.0) / p * m * beta


def _arr_binomial_p2p(p, m, alpha, beta, log2p, ceil_log2p):
    return ceil_log2p * (alpha + m * beta)


def _arr_scatter_allgather(p, m, alpha, beta, log2p, ceil_log2p):
    alpha_term = (ceil_log2p + (p - 1.0)) * alpha
    beta_term = 2.0 * (p - 1.0) / p * m * beta
    return alpha_term + beta_term


#: ``(collective, algorithm) -> array formula``.  Every built-in except
#: the topology-dependent hierarchical Allreduce has an entry; the
#: selector special-cases that one (and falls back to scalar ``choose``
#: for third-party registrations without a twin).
ARRAY_FORMULAS: Dict[Tuple[str, str], Callable[..., object]] = {
    ("allreduce", "ring"): _arr_ring_allreduce,
    ("allreduce", "tree"): _arr_tree_allreduce,
    ("allreduce", "recursive-doubling"): _arr_rd_allreduce,
    ("allgather", "ring"): _arr_ring_allgather,
    ("allgather", "recursive-doubling"): _arr_rd_allgather,
    ("reduce_scatter", "ring"): _arr_ring_reduce_scatter,
    ("reduce_scatter", "recursive-halving"): _arr_rh_reduce_scatter,
    ("broadcast", "binomial-tree"): _arr_binomial_p2p,
    ("broadcast", "scatter-allgather"): _arr_scatter_allgather,
    ("reduce", "binomial-tree"): _arr_binomial_p2p,
}

# The algorithm instances each array formula mirrors.  If a caller
# re-registers over a built-in name (``register(..., overwrite=True)``)
# the twin no longer describes what ``choose`` would cost, so
# :func:`array_formula` stops offering it and the selector falls back to
# the scalar path for that algorithm.
_ARRAY_SOURCES: Dict[Tuple[str, str], CollectiveAlgorithm] = {
    key: _REGISTRY[key] for key in ARRAY_FORMULAS
}


def array_formula(
    collective: str, name: str
) -> Optional[Callable[..., object]]:
    """The vectorized twin of a *built-in* registered algorithm.

    Returns ``None`` when there is no twin or when the registered
    algorithm under this name is no longer the built-in the twin was
    derived from.
    """
    key = (collective, name)
    fn = ARRAY_FORMULAS.get(key)
    if fn is None or _REGISTRY.get(key) is not _ARRAY_SOURCES[key]:
        return None
    return fn


__all__.append("array_formula")

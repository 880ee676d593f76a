"""Collective-communication cost models (analytic) and schedules (simulated).

Three layers:

* :mod:`~repro.collectives.algorithms` — the paper's Section-4.3
  closed-form costs (ring, pipelined tree, binomial, p2p) under Hockney
  (alpha, beta) parameters.
* :mod:`~repro.collectives.registry` — a pluggable registry of
  :class:`CollectiveAlgorithm` objects keyed by ``(collective,
  algorithm)``: the seed formulas plus recursive doubling / halving,
  scatter-allgather broadcast, and a topology-aware hierarchical
  allreduce.
* :mod:`~repro.collectives.selector` — :class:`CommModel`, the
  policy-driven, topology-aware selector (``paper`` / ``auto`` /
  ``nccl-like``) that the analytical model, simulator, search engine,
  and CLI all share.
"""

from .algorithms import (
    ring_allreduce_time,
    ring_allgather_time,
    ring_reduce_scatter_time,
    tree_allreduce_time,
    broadcast_time,
    reduce_time,
    p2p_time,
    CollectiveCost,
)
from .registry import (
    COLLECTIVES,
    CollectiveAlgorithm,
    FormulaAlgorithm,
    TopologyHint,
    algorithms_for,
    get_algorithm,
    register,
    registered,
)
from .selector import (
    PAPER_DEFAULTS,
    POLICIES,
    CommChoice,
    CommModel,
    as_comm_model,
)

__all__ = [
    "ring_allreduce_time",
    "ring_allgather_time",
    "ring_reduce_scatter_time",
    "tree_allreduce_time",
    "broadcast_time",
    "reduce_time",
    "p2p_time",
    "CollectiveCost",
    "COLLECTIVES",
    "CollectiveAlgorithm",
    "FormulaAlgorithm",
    "TopologyHint",
    "register",
    "registered",
    "get_algorithm",
    "algorithms_for",
    "POLICIES",
    "PAPER_DEFAULTS",
    "CommChoice",
    "CommModel",
    "as_comm_model",
]

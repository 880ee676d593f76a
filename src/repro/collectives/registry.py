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

Every built-in's cost is one closed form ``form(p, m, alpha, beta,
log2p, ceil_log2p)`` whose body works on Python numbers and on numpy
arrays alike: :meth:`CollectiveAlgorithm.cost` prices one call with it,
and :func:`array_formula` hands the same form to
:meth:`~repro.collectives.selector.CommModel.time_batch` for columns of
calls.  A third-party algorithm needs only a scalar ``cost``;
``time_batch`` prices it one element at a time.

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
    _binomial_tree_form,
    _check,
    _one_call,
    _priced,
    _ring_allgather_form,
    _ring_allreduce_form,
    _ring_reduce_scatter_form,
    _tree_allreduce_form,
)

__all__ = [
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


class _BuiltinFormula(FormulaAlgorithm):
    """A built-in closed form ``form(p, m, alpha, beta, log2p,
    ceil_log2p)`` (see :mod:`repro.collectives.algorithms`): :meth:`cost`
    prices one call with it and :meth:`cost_columns` prices numpy
    columns with the same body."""

    def __init__(self, collective: str, name: str, form) -> None:
        super().__init__(collective, name, None)
        self.form = form

    def cost(
        self,
        p: int,
        nbytes: float,
        params: HockneyParams,
        topo: Optional[TopologyHint] = None,
    ) -> float:
        _check(p, nbytes)
        if p == 1:
            return 0.0
        return _priced(self.form, p, nbytes, params.alpha, params.beta)

    def cost_columns(self, cols) -> object:
        return self.form(cols.p, cols.m, cols.alpha, cols.beta,
                         cols.log2p, cols.ceil_log2p)


# --------------------------------------------------------------- new formulas
def _recursive_doubling_allreduce_form(p, m, alpha, beta, log2p, ceil_log2p):
    return ceil_log2p * (alpha + m * beta)


def _recursive_doubling_allgather_form(p, m, alpha, beta, log2p, ceil_log2p):
    return ceil_log2p * alpha + (p - 1.0) * m * beta


def _recursive_halving_reduce_scatter_form(
    p, m, alpha, beta, log2p, ceil_log2p
):
    return ceil_log2p * alpha + (p - 1.0) / p * m * beta


def _scatter_allgather_broadcast_form(p, m, alpha, beta, log2p, ceil_log2p):
    alpha_term = (ceil_log2p + (p - 1.0)) * alpha
    beta_term = 2.0 * (p - 1.0) / p * m * beta
    return alpha_term + beta_term


def recursive_doubling_allreduce_time(
    p: int, nbytes: float, params: HockneyParams
) -> float:
    """Recursive-doubling Allreduce: ``ceil(log2 p) (alpha + m beta)``.

    Each of the ``log2 p`` rounds exchanges the *full* buffer with the
    partner at distance ``2^r`` — latency-optimal (fewest rounds of any
    allreduce), bandwidth-hungry, the classic MPI small-message choice.
    """
    return _one_call(_recursive_doubling_allreduce_form, p, nbytes, params)


def recursive_doubling_allgather_time(
    p: int, seg_bytes: float, params: HockneyParams
) -> float:
    """Recursive-doubling Allgather of per-PE segments ``seg_bytes``:
    ``ceil(log2 p) alpha + (p-1) m_seg beta`` (round ``r`` moves
    ``2^r m_seg`` bytes; the doubled volumes telescope to ``p - 1``
    segments)."""
    return _one_call(
        _recursive_doubling_allgather_form, p, seg_bytes, params)


def recursive_halving_reduce_scatter_time(
    p: int, nbytes: float, params: HockneyParams
) -> float:
    """Recursive halving-doubling ReduceScatter:
    ``ceil(log2 p) alpha + ((p-1)/p) m beta`` — the first half of a
    Rabenseifner Allreduce.  Message volume matches the ring variant but
    in logarithmically fewer rounds."""
    return _one_call(
        _recursive_halving_reduce_scatter_form, p, nbytes, params)


def scatter_allgather_broadcast_time(
    p: int, nbytes: float, params: HockneyParams
) -> float:
    """van de Geijn large-message broadcast: binomial scatter of ``m/p``
    chunks followed by a ring Allgather —
    ``(ceil(log2 p) + p - 1) alpha + 2 ((p-1)/p) m beta``."""
    return _one_call(_scatter_allgather_broadcast_form, p, nbytes, params)


def _hierarchical_form(m, n, leaders, intra_alpha, intra_beta, inter_alpha,
                       inter_beta, ceil_log2n):
    """Binomial reduce to the node leader, ring Allreduce between the
    ``leaders``, binomial broadcast back (``n`` GPUs per node)."""
    tree = _binomial_tree_form(n, m, intra_alpha, intra_beta, None,
                               ceil_log2n)
    ring = _ring_allreduce_form(leaders, m, inter_alpha, inter_beta, None,
                                None)
    return tree + ring + tree


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
        _check(p // n, nbytes)
        return _hierarchical_form(
            nbytes, n, p // n, topo.intra.alpha, topo.intra.beta,
            topo.inter.alpha, topo.inter.beta, math.ceil(math.log2(n)))

    def cost_columns(self, cols) -> object:
        return _hierarchical_form(cols.m, *cols.hint_columns())


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
for _collective, _name, _form in (
    ("allreduce", "ring", _ring_allreduce_form),
    ("allreduce", "tree", _tree_allreduce_form),
    ("allreduce", "recursive-doubling", _recursive_doubling_allreduce_form),
    ("allgather", "ring", _ring_allgather_form),
    ("allgather", "recursive-doubling", _recursive_doubling_allgather_form),
    ("reduce_scatter", "ring", _ring_reduce_scatter_form),
    ("reduce_scatter", "recursive-halving",
     _recursive_halving_reduce_scatter_form),
    ("broadcast", "binomial-tree", _binomial_tree_form),
    ("broadcast", "scatter-allgather", _scatter_allgather_broadcast_form),
    ("reduce", "binomial-tree", _binomial_tree_form),
):
    register(_BuiltinFormula(_collective, _name, _form))
register(HierarchicalAllreduce())

# The catalogue as registered at import.  An algorithm re-registered
# over a built-in name (``register(..., overwrite=True)``) is not in it,
# so :func:`array_formula` never prices it with the built-in's form.
_BUILTINS: Dict[Tuple[str, str], CollectiveAlgorithm] = dict(_REGISTRY)


def array_formula(algo: CollectiveAlgorithm) -> Optional[Callable]:
    """``algo``'s column pricer ``fn(cols) -> seconds`` (what
    :meth:`~repro.collectives.selector.CommModel.time_batch` runs), or
    ``None`` when ``algo`` is not one of the built-in catalogue's own
    instances — a third-party or re-registered algorithm is priced by
    its scalar :meth:`~CollectiveAlgorithm.cost`, one call at a time.
    """
    if _BUILTINS.get((algo.collective, algo.name)) is not algo:
        return None
    return algo.cost_columns


__all__.append("array_formula")

"""Topology-aware collective-algorithm selection: the ``CommModel``.

One object answers "how long does this collective take?" for every
consumer — the analytical model, the oracle, the search engine, the DES
simulator, and the CLI — so they can never disagree about which
algorithm they are costing.  A :class:`CommModel` is built from a
:class:`~repro.network.topology.ClusterSpec` and a *policy*:

``paper``
    Always the paper's Section-4.3 defaults (ring allreduce / allgather /
    reduce-scatter, binomial-tree broadcast / reduce).  Projections are
    identical to the seed model — this is the default everywhere.
``auto``
    Minimum cost over every registered algorithm eligible for
    ``(collective, p, m)`` under the resolved Hockney parameters,
    including the hierarchical allreduce when the communicator spans
    whole nodes.  Never worse than ``paper`` on any call.
``nccl-like``
    Message-size thresholds: tree allreduce below
    :data:`~repro.collectives.algorithms.TREE_THRESHOLD_BYTES`, ring
    above — the behaviour the paper attributes to NCCL.

Selection is *scope aware*: resolution of (alpha, beta) distinguishes a
model-parallel group pinned inside a node (NVLink) from a communicator
spanning the fabric, and topology-aware algorithms are only eligible for
packed whole-machine communicators (``scope="auto"``).  Callers may pin
``params`` explicitly (e.g. contention-scaled betas) and still get
policy-driven algorithm choice.

A per-collective algorithm can also be *forced* (``algo={"allreduce":
"recursive-doubling"}``, the CLI's ``--comm-algo``); unsupported forced
choices fall back to the policy pick rather than failing a projection.

The dispatch is written once (:meth:`CommModel._rows`: ordered
``(algorithm, eligible)`` rows, first cheapest eligible row wins) and
run by two evaluators: ``_Row`` prices one call with each algorithm's
scalar ``cost`` (:meth:`CommModel.choose`), and ``_Columns`` prices
numpy columns of calls with the same closed forms
(:meth:`CommModel.time_batch`, via
:func:`~repro.collectives.registry.array_formula`).

Selection is *memoized*: resolved choices, scope parameters, and
topology hints live in bounded per-instance LRU memos keyed by
``(collective, p, m, params, scope, transport)``, because the search
engine re-asks the same handful of calls for every candidate — the
``auto``/``nccl-like`` policies used to re-run min-cost selection per
phase per candidate.  The memo is keyed to the model's
:meth:`~CommModel.fingerprint` inputs: mutating ``policy``, ``algo``,
or ``tree_threshold`` invalidates every cached choice on the next call.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..network.hockney import HockneyParams
from ..network.topology import ClusterSpec
from .algorithms import TREE_THRESHOLD_BYTES
from . import registry as _registry
from .registry import (
    COLLECTIVES,
    CollectiveAlgorithm,
    TopologyHint,
)

__all__ = [
    "POLICIES",
    "PAPER_DEFAULTS",
    "CHOOSE_MEMO_SIZE",
    "BatchChoice",
    "CommChoice",
    "CommModel",
]

#: Selection policies, in documentation order.
POLICIES = ("paper", "auto", "nccl-like")

#: The seed model's fixed algorithm per collective (Section 4.3).
PAPER_DEFAULTS: Dict[str, str] = {
    "allreduce": "ring",
    "allgather": "ring",
    "reduce_scatter": "ring",
    "broadcast": "binomial-tree",
    "reduce": "binomial-tree",
}

#: Communicator scopes a caller may pin.  ``auto`` = packed communicator
#: over the whole machine (topology-aware algorithms eligible);
#: ``intra-node`` = model-parallel group mapped inside one node;
#: ``inter-node`` = flat communicator over the fabric (leader rings,
#: contended segmented allreduces).
SCOPE_CHOICES = ("auto", "intra-node", "inter-node")

#: Bound on the per-instance choice memo; least-recently-used entries
#: are evicted past it.  A strategy search touches a few thousand
#: distinct ``(collective, p, m)`` calls, so this is generous headroom.
CHOOSE_MEMO_SIZE = 65536


@dataclass(frozen=True)
class CommChoice:
    """One resolved collective call: which algorithm, at what cost."""

    collective: str
    algorithm: str
    seconds: float

    @property
    def label(self) -> str:
        return f"{self.collective}:{self.algorithm}"


@dataclass(frozen=True)
class BatchChoice:
    """A whole array of resolved collective calls (:meth:`CommModel.
    time_batch`).

    ``seconds`` has the broadcast shape of the ``(p, nbytes)`` inputs.
    ``index`` maps each element into ``algorithms``; ``None`` means the
    whole batch resolved to ``algorithms[0]`` (the common case under the
    ``paper`` policy, which lets consumers skip per-element label work).
    """

    collective: str
    seconds: Any
    algorithms: Tuple[str, ...]
    index: Any = None

    def labels(self) -> Tuple[str, ...]:
        """``collective:algorithm`` per entry of :attr:`algorithms`."""
        return tuple(f"{self.collective}:{a}" for a in self.algorithms)


class CommModel:
    """Resolves ``(collective, p, m, scope)`` to seconds under a policy.

    Parameters
    ----------
    cluster:
        Topology used to resolve Hockney parameters per scope and to
        build :class:`~repro.collectives.registry.TopologyHint` for
        hierarchical algorithms.
    policy:
        One of :data:`POLICIES`.
    algo:
        Optional forced algorithm per collective (overrides the policy
        when the forced algorithm supports the call).
    tree_threshold:
        ``nccl-like`` ring/tree crossover in bytes.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        policy: str = "paper",
        *,
        algo: Optional[Mapping[str, str]] = None,
        tree_threshold: float = TREE_THRESHOLD_BYTES,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown comm policy {policy!r}; expected one of {POLICIES}"
            )
        self.cluster = cluster
        self.policy = policy
        self.tree_threshold = tree_threshold
        self.algo: Dict[str, str] = dict(algo or {})
        for coll, name in self.algo.items():
            _registry.get_algorithm(coll, name)  # raises on unknown pairs
        self._choose_memo: "OrderedDict[tuple, CommChoice]" = OrderedDict()
        self._params_memo: Dict[tuple, HockneyParams] = {}
        self._topo_memo: Dict[int, Optional[TopologyHint]] = {}
        self._memo_token = self._token()
        #: Observability counters: plain ints (a dict increment per
        #: resolved call — cheap enough for the search hot path, and
        #: scraped into a MetricsRegistry by consumers, never pushed).
        #: ``batched_*`` count :meth:`time_batch` invocations and the
        #: array elements they resolved (those never touch the choose
        #: memo, so they are deliberately outside the hit/miss pair).
        self.stats: Dict[str, int] = {
            "memo_hits": 0,
            "memo_misses": 0,
            "batched_calls": 0,
            "batched_elements": 0,
        }
        #: Per-``collective:algorithm`` selection tally across every
        #: resolved call (memoized or not) — the selection histogram.
        self.selections: Dict[str, int] = {}

    # --------------------------------------------------------------- memo
    def _token(self) -> Tuple:
        """Everything :meth:`fingerprint` hashes, as a comparable tuple.

        Checked on every memoized call: a caller that mutates ``policy``
        / ``algo`` / ``tree_threshold`` in place gets every cached
        choice invalidated instead of stale answers.
        """
        return (
            self.policy,
            self.tree_threshold,
            tuple(sorted(self.algo.items())),
        )

    def clear_memo(self) -> None:
        """Drop every memoized choice / scope resolution."""
        self._choose_memo.clear()
        self._params_memo.clear()
        self._topo_memo.clear()
        self._memo_token = self._token()

    def __getstate__(self):
        """Pickle without the memos (workers rebuild them warm)."""
        state = self.__dict__.copy()
        state["_choose_memo"] = OrderedDict()
        state["_params_memo"] = {}
        state["_topo_memo"] = {}
        return state

    # ------------------------------------------------------------ resolution
    def scope_params(
        self, p: int, scope: str = "auto", transport: str = "nccl"
    ) -> HockneyParams:
        """Hockney (alpha, beta) for a ``p``-wide communicator at ``scope``
        (memoized per ``(p, scope, transport)``)."""
        key = (p, scope, transport)
        params = self._params_memo.get(key)
        if params is None:
            params = self._scope_params_uncached(p, scope, transport)
            self._params_memo[key] = params
        return params

    def _scope_params_uncached(
        self, p: int, scope: str, transport: str
    ) -> HockneyParams:
        if scope not in SCOPE_CHOICES:
            raise ValueError(
                f"unknown scope {scope!r}; expected one of {SCOPE_CHOICES}"
            )
        if scope == "intra-node":
            return self.cluster.hockney_intra(p, transport=transport)
        if scope == "inter-node":
            # Fabric parameters even for small p: widen the resolved span
            # until it crosses a node boundary.
            span_p = min(
                max(p, self.cluster.node.gpus + 1), self.cluster.total_gpus
            )
            if span_p <= self.cluster.node.gpus:
                raise ValueError(
                    "single-node cluster has no inter-node scope"
                )
            return self.cluster.hockney(span_p, transport=transport)
        return self.cluster.hockney(p, transport=transport)

    def topology_hint(self, p: int) -> Optional[TopologyHint]:
        """Hint for topology-aware algorithms, or ``None`` when the
        communicator does not span several whole nodes (memoized)."""
        if p in self._topo_memo:
            return self._topo_memo[p]
        n = self.cluster.node.gpus
        if n < 2 or p <= n or p > self.cluster.total_gpus:
            hint = None
        else:
            hint = TopologyHint(
                intra=self.cluster.hockney(n),
                inter=self.cluster.hockney(p),
                gpus_per_node=n,
            )
        self._topo_memo[p] = hint
        return hint

    # -------------------------------------------------------------- selection
    def choose(
        self,
        collective: str,
        p: int,
        nbytes: float,
        *,
        params: Optional[HockneyParams] = None,
        scope: str = "auto",
        transport: str = "nccl",
    ) -> CommChoice:
        """Pick an algorithm for one collective call and cost it.

        ``params`` pins the Hockney parameters (callers pass
        contention-scaled betas here); otherwise they are resolved from
        ``(p, scope, transport)``.  Singleton communicators are free.

        Choices memoize on the full call signature (bounded LRU; see
        :data:`CHOOSE_MEMO_SIZE`): selection is pure given the
        fingerprint inputs, which are re-checked on every call so
        in-place mutation invalidates rather than staling.
        """
        token = self._token()
        if token != self._memo_token:
            self.clear_memo()
        memo = self._choose_memo
        key = (collective, p, nbytes, params, scope, transport)
        hit = memo.get(key)
        if hit is not None:
            # The memo is shared across the search engine's threads
            # without a lock (individual OrderedDict calls are atomic
            # under the GIL); a concurrent eviction between the get and
            # the recency bump is harmless — the answer is still valid.
            try:
                memo.move_to_end(key)
            except KeyError:
                pass
            self.stats["memo_hits"] += 1
            label = hit.label
            self.selections[label] = self.selections.get(label, 0) + 1
            return hit
        choice = self._choose_uncached(
            collective, p, nbytes, params, scope, transport
        )
        if len(memo) >= CHOOSE_MEMO_SIZE:
            try:
                memo.popitem(last=False)
            except KeyError:
                pass
        memo[key] = choice
        self.stats["memo_misses"] += 1
        label = choice.label
        self.selections[label] = self.selections.get(label, 0) + 1
        return choice

    def _choose_uncached(
        self,
        collective: str,
        p: int,
        nbytes: float,
        params: Optional[HockneyParams],
        scope: str,
        transport: str,
    ) -> CommChoice:
        if collective not in COLLECTIVES:
            raise ValueError(
                f"unknown collective {collective!r}; expected one of "
                f"{COLLECTIVES}"
            )
        if p <= 1 or nbytes <= 0:
            return CommChoice(collective, self._free_name(collective), 0.0)
        if params is None:
            params = self.scope_params(p, scope, transport)
        topo = self.topology_hint(p) if scope == "auto" else None
        row = _Row(p, nbytes, params, topo)
        name, seconds = row.pick(self._rows(collective, row))
        return CommChoice(collective, name, seconds)

    def _free_name(self, collective: str) -> str:
        """The label of a free call (``p <= 1`` or ``nbytes <= 0``)."""
        return self.algo.get(collective, PAPER_DEFAULTS[collective])

    def _rows(self, collective: str, ev) -> List[tuple]:
        """The policy dispatch, written once for both evaluators.

        Returns ordered ``(algorithm, eligible)`` rows; the evaluator
        picks the first minimum-cost eligible row, so row order is the
        tie-break.  ``eligible`` is a bool, or a bool column where it
        varies across a batch.  A forced algorithm wins wherever it is
        eligible; elsewhere (e.g. hierarchical inside a node) it
        degrades to the policy pick instead of failing.
        """
        get = _registry.get_algorithm
        forced = self.algo.get(collective)
        if forced is not None:
            algo = get(collective, forced)
            ok = ev.supports(algo)
            if ok is True:
                return [(algo, True)]
        if self.policy == "auto":
            # Every eligible registered algorithm, name-sorted: equal
            # cost keeps the smaller name.
            rows = [(a, ev.supports(a))
                    for a in _registry.algorithms_for(collective)]
        elif self.policy == "nccl-like" and collective == "allreduce":
            # Tree below the size threshold unless the ring is strictly
            # cheaper; ring above it.
            rows = [(get(collective, "tree"), ev.below(self.tree_threshold)),
                    (get(collective, "ring"), True)]
        else:  # paper, and nccl-like for every other collective
            rows = [(get(collective, PAPER_DEFAULTS[collective]), True)]
        if forced is not None and ok is not False:
            # Eligible for part of a batch: forced there, policy elsewhere.
            rows = [(algo, ok)] + [(a, ~ok & elig) for a, elig in rows]
        return rows

    # --------------------------------------------------------- batch selection
    def time_batch(
        self,
        collective: str,
        p: Any,
        nbytes: Any,
        *,
        params: Union[None, HockneyParams, Tuple[Any, Any]] = None,
        scope: str = "auto",
        transport: str = "nccl",
    ) -> BatchChoice:
        """:meth:`choose` over arrays of ``(p, nbytes)``.

        ``p`` and ``nbytes`` broadcast against each other (the layer-wise
        legs pass ``(n, 1)`` communicator sizes against ``(n, sizes)``
        message matrices).  ``params`` is ``None`` (resolve Hockney
        parameters per unique ``p`` from ``(scope, transport)``, exactly
        like scalar resolution), a single :class:`HockneyParams`
        broadcast over the batch, or an ``(alpha, beta)`` array pair.

        Results are elementwise identical to calling :meth:`choose` per
        element: the same policy dispatch runs over numpy columns, and
        each built-in algorithm is priced by the same closed form
        :meth:`~repro.collectives.registry.CollectiveAlgorithm.cost`
        uses (see :func:`~repro.collectives.registry.array_formula`).
        Free calls (``p <= 1`` or ``nbytes <= 0``) are masked to zero.
        A third-party algorithm (or one re-registered over a built-in
        name) has only its scalar ``cost`` and ``supports``, so the
        dispatch asks those one element at a time.

        Batch calls bypass the choose memo; they tally into
        :attr:`selections` and the ``batched_calls`` /
        ``batched_elements`` stats instead of the memo hit/miss pair.
        """
        if collective not in COLLECTIVES:
            raise ValueError(
                f"unknown collective {collective!r}; expected one of "
                f"{COLLECTIVES}"
            )
        if scope not in SCOPE_CHOICES:
            raise ValueError(
                f"unknown scope {scope!r}; expected one of {SCOPE_CHOICES}"
            )
        if self._token() != self._memo_token:
            self.clear_memo()
        cols = _Columns(self, p, nbytes, params, scope, transport)
        seconds, algorithms, index = cols.pick(self._rows(collective, cols))
        free, shape = cols.free, cols.shape
        if cols.any_free:
            seconds = np.where(free, 0.0, seconds)
            # Free elements carry the forced-or-default label, matching
            # the early-out in scalar choose.
            free_name = self._free_name(collective)
            if index is not None or algorithms[0] != free_name:
                if free_name not in algorithms:
                    algorithms += (free_name,)
                index = np.where(free, algorithms.index(free_name),
                                 0 if index is None else index)
        if index is not None:
            index = np.broadcast_to(index, shape)
        self._tally_batch(collective, algorithms, index, shape)
        return BatchChoice(collective, seconds, algorithms, index)

    def _tally_batch(self, collective, algorithms, index, shape):
        total = math.prod(shape)
        self.stats["batched_calls"] += 1
        self.stats["batched_elements"] += total
        sel = self.selections
        if index is None:
            label = f"{collective}:{algorithms[0]}"
            sel[label] = sel.get(label, 0) + total
            return
        counts = np.bincount(index.ravel(), minlength=len(algorithms))
        for name, cnt in zip(algorithms, counts.tolist()):
            if cnt:
                label = f"{collective}:{name}"
                sel[label] = sel.get(label, 0) + cnt

    # ----------------------------------------------------------- conveniences
    def time(
        self,
        collective: str,
        p: int,
        nbytes: float,
        *,
        params: Optional[HockneyParams] = None,
        scope: str = "auto",
        transport: str = "nccl",
    ) -> float:
        """Cost of one collective call in seconds (see :meth:`choose` for
        the argument semantics; this drops the algorithm label)."""
        return self.choose(
            collective, p, nbytes, params=params, scope=scope,
            transport=transport,
        ).seconds

    def select(
        self,
        collective: str,
        p: int,
        nbytes: float,
        *,
        scope: str = "auto",
        transport: str = "nccl",
    ) -> str:
        """Algorithm name only (the simulator's dispatch key)."""
        return self.choose(
            collective, p, nbytes, scope=scope, transport=transport
        ).algorithm

    def p2p(
        self,
        nbytes: float,
        *,
        params: Optional[HockneyParams] = None,
        p: int = 2,
        scope: str = "auto",
        transport: str = "nccl",
    ) -> float:
        """Point-to-point ``alpha + m beta`` (no algorithm choice)."""
        if nbytes < 0:
            raise ValueError("message size must be >= 0")
        if params is None:
            params = self.scope_params(p, scope, transport)
        return params.p2p(nbytes)

    @property
    def memo_hit_rate(self) -> float:
        """Fraction of :meth:`choose` calls answered from the memo."""
        total = self.stats["memo_hits"] + self.stats["memo_misses"]
        return self.stats["memo_hits"] / total if total else 0.0

    # -------------------------------------------------------------- identity
    def fingerprint(self) -> str:
        """Stable identity for cache invalidation (policy + forced algos)."""
        forced = ",".join(f"{c}={n}" for c, n in sorted(self.algo.items()))
        return f"{self.policy};{forced};thr={self.tree_threshold:g}"

    def describe(self) -> str:
        if not self.algo:
            return self.policy
        forced = ",".join(f"{c}={n}" for c, n in sorted(self.algo.items()))
        return f"{self.policy}[{forced}]"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CommModel({self.describe()!r} on {self.cluster!r})"


class _Row:
    """One call as Python numbers: the evaluator under
    :meth:`CommModel.choose`."""

    __slots__ = ("p", "m", "params", "topo")

    def __init__(self, p: int, m: float, params: HockneyParams,
                 topo: Optional[TopologyHint]) -> None:
        self.p, self.m, self.params, self.topo = p, m, params, topo

    def supports(self, algo: CollectiveAlgorithm) -> bool:
        return bool(algo.supports(self.p, self.m, self.topo))

    def below(self, threshold: float) -> bool:
        return self.m < threshold

    def pick(self, rows) -> Tuple[str, float]:
        """``(name, seconds)`` of the first cheapest eligible row."""
        best: Optional[Tuple[str, float]] = None
        for algo, ok in rows:
            if ok:
                cost = algo.cost(self.p, self.m, self.params, self.topo)
                if best is None or cost < best[1]:
                    best = (algo.name, cost)
        return best


class _Columns:
    """A batch of calls as numpy columns: the evaluator under
    :meth:`CommModel.time_batch`.

    Per-communicator quantities (Hockney parameters, round counts,
    topology hints, eligibility) are resolved once per distinct ``p``
    and gathered back to the elements.
    """

    def __init__(self, model: CommModel, p, nbytes, params, scope: str,
                 transport: str) -> None:
        p_int = np.asarray(p, dtype=np.int64)
        m = np.asarray(nbytes, dtype=np.float64)
        self.model, self.scope = model, scope
        self.p_int, self.m = p_int, m
        self.p = p_int.astype(np.float64)
        self.shape = shape = np.broadcast_shapes(p_int.shape, m.shape)
        self.free = np.broadcast_to((p_int <= 1) | (m <= 0.0), shape)
        self.any_free = bool(self.free.any())
        uvals, inv = np.unique(p_int, return_inverse=True)
        self._inv = inv = inv.reshape(p_int.shape)
        self._ps = ps = [int(v) for v in uvals]
        # Distinct p values whose every element is free never reach a
        # cost formula — scalar choose would not resolve their Hockney
        # parameters either (resolution can raise, e.g. the inter-node
        # scope on a single-node cluster).
        self._live = (np.bincount(
            np.broadcast_to(inv, shape)[~self.free].ravel(),
            minlength=len(ps)) > 0).tolist() if self.any_free else (
            [True] * len(ps))
        # Round counts via math.log2/math.ceil, as scalar pricing does.
        log2 = [math.log2(v) if v >= 2 else 0.0 for v in ps]
        self.log2p = np.asarray(log2, dtype=np.float64)[inv]
        self.ceil_log2p = np.asarray(
            [math.ceil(x) for x in log2], dtype=np.float64)[inv]
        if params is None:
            hp = [model.scope_params(v, scope, transport) if live else None
                  for v, live in zip(ps, self._live)]
            self.alpha = np.asarray(
                [h.alpha if h is not None else 0.0 for h in hp])[inv]
            self.beta = np.asarray(
                [h.beta if h is not None else 0.0 for h in hp])[inv]
        elif isinstance(params, HockneyParams):
            self.alpha, self.beta = params.alpha, params.beta
        else:
            self.alpha, self.beta = params
        self._hints: Optional[List[Optional[TopologyHint]]] = None

    def hints(self) -> List[Optional[TopologyHint]]:
        """Topology hint per distinct ``p``, as scalar choose gets it
        (resolved on first use: only some algorithms read it)."""
        if self._hints is None:
            self._hints = [
                self.model.topology_hint(v) if self.scope == "auto" else None
                for v in self._ps]
        return self._hints

    def _mask(self, values):
        """``True``/``False`` when uniform, else the bool column."""
        if values.all():
            return True
        return values if values.any() else False

    def _each(self, fn, fill, where=True) -> Any:
        """``fn(p, m, params, topo)`` one element at a time (``fill``
        where free or outside ``where``), for an algorithm with only a
        scalar ``cost``/``supports``."""
        shape = self.shape
        p, m, alpha, beta, k, live = (
            np.broadcast_to(a, shape).ravel().tolist()
            for a in (self.p_int, self.m, self.alpha, self.beta, self._inv,
                      ~self.free & where))
        hints = self.hints()
        out = [fn(pi, mi, HockneyParams(ai, bi), hints[ki]) if go else fill
               for pi, mi, ai, bi, ki, go in zip(p, m, alpha, beta, k, live)]
        return np.asarray(out).reshape(shape)

    def supports(self, algo: CollectiveAlgorithm):
        if _registry.array_formula(algo) is None:
            return self._mask(self._each(
                lambda p, m, params, topo: bool(algo.supports(p, m, topo)),
                True))
        # A built-in's eligibility reads the communicator (p, topology),
        # never the message size: ask once per distinct live p.
        ok = [not live or bool(algo.supports(v, None, hint))
              for v, live, hint in zip(self._ps, self._live, self.hints())]
        return True if all(ok) else self._mask(np.asarray(ok)[self._inv])

    def below(self, threshold: float):
        return self._mask(self.m < threshold)

    def hint_columns(self) -> Tuple[Any, ...]:
        """``(n, leaders, intra alpha, intra beta, inter alpha, inter
        beta, ceil log2 n)`` per element, the hierarchical Allreduce's
        inputs; placeholders (never selected) where there is no hint."""
        per_p = [
            (2, 1, 0.0, 0.0, 0.0, 0.0, 0) if h is None else (
                h.gpus_per_node, v // h.gpus_per_node, h.intra.alpha,
                h.intra.beta, h.inter.alpha, h.inter.beta,
                math.ceil(math.log2(h.gpus_per_node)))
            for v, h in zip(self._ps, self.hints())]
        return tuple(np.asarray(per_p, dtype=np.float64).T.take(
            self._inv, axis=1))

    def pick(self, rows) -> Tuple[Any, Tuple[str, ...], Any]:
        """``(seconds, names, index)`` of the first cheapest eligible row
        per element; ``index`` is ``None`` when one row decides all."""
        names: List[str] = []
        seconds = index = None
        for algo, ok in rows:
            if ok is False:
                continue
            price = _registry.array_formula(algo)
            cost = (price(self) if price is not None
                    else self._each(algo.cost, 0.0, ok))
            if ok is not True:
                cost = np.where(ok, cost, np.inf)
            if seconds is None:
                seconds = cost
            else:  # strictly cheaper, as in _Row.pick
                better = cost < seconds
                seconds = np.where(better, cost, seconds)
                index = np.where(better, len(names),
                                 0 if index is None else index)
            names.append(algo.name)
        return seconds, tuple(names), index


def as_comm_model(
    comm: Union[None, str, CommModel], cluster: ClusterSpec
) -> CommModel:
    """Coerce ``None`` / policy string / ``CommModel`` to a ``CommModel``."""
    if comm is None:
        return CommModel(cluster, policy="paper")
    if isinstance(comm, str):
        return CommModel(cluster, policy=comm)
    return comm


__all__.append("as_comm_model")

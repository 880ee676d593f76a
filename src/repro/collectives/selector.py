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
    HierarchicalAllreduce,
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
    def _cost(
        self,
        algo: CollectiveAlgorithm,
        p: int,
        nbytes: float,
        params: HockneyParams,
        topo: Optional[TopologyHint],
    ) -> float:
        return algo.cost(p, nbytes, params, topo)

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
        default = PAPER_DEFAULTS[collective]
        if p <= 1 or nbytes <= 0:
            return CommChoice(collective, self.algo.get(collective, default), 0.0)
        if params is None:
            params = self.scope_params(p, scope, transport)
        topo = self.topology_hint(p) if scope == "auto" else None

        forced = self.algo.get(collective)
        if forced is not None:
            algo = _registry.get_algorithm(collective, forced)
            if algo.supports(p, nbytes, topo):
                return CommChoice(
                    collective, forced, self._cost(algo, p, nbytes, params, topo)
                )
            # An ineligible forced algorithm (e.g. hierarchical inside a
            # node) degrades to the policy pick instead of failing.

        if self.policy == "paper":
            algo = _registry.get_algorithm(collective, default)
            return CommChoice(
                collective, default, self._cost(algo, p, nbytes, params, topo)
            )

        if self.policy == "nccl-like":
            if collective == "allreduce" and nbytes < self.tree_threshold:
                ring = _registry.get_algorithm("allreduce", "ring")
                tree = _registry.get_algorithm("allreduce", "tree")
                tr = self._cost(ring, p, nbytes, params, topo)
                tt = self._cost(tree, p, nbytes, params, topo)
                return (
                    CommChoice(collective, "tree", tt)
                    if tt <= tr
                    else CommChoice(collective, "ring", tr)
                )
            algo = _registry.get_algorithm(collective, default)
            return CommChoice(
                collective, default, self._cost(algo, p, nbytes, params, topo)
            )

        # auto: min cost over every eligible registered algorithm;
        # deterministic tie-break on name.
        best: Optional[CommChoice] = None
        for algo in _registry.algorithms_for(collective):
            if not algo.supports(p, nbytes, topo):
                continue
            cost = self._cost(algo, p, nbytes, params, topo)
            if best is None or cost < best.seconds or (
                cost == best.seconds and algo.name < best.algorithm
            ):
                best = CommChoice(collective, algo.name, cost)
        if best is None:  # pragma: no cover - registry always has ring
            raise RuntimeError(f"no eligible algorithm for {collective!r}")
        return best

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
        """Vectorized :meth:`choose` over arrays of ``(p, nbytes)``.

        ``p`` and ``nbytes`` broadcast against each other (the layer-wise
        legs pass ``(n, 1)`` communicator sizes against ``(n, sizes)``
        message matrices).  ``params`` is ``None`` (resolve Hockney
        parameters per unique ``p`` from ``(scope, transport)``, exactly
        like scalar resolution), a single :class:`HockneyParams`
        broadcast over the batch, or an ``(alpha, beta)`` array pair.

        Results are elementwise identical to calling :meth:`choose` per
        element: cost formulas come from
        :data:`~repro.collectives.registry.ARRAY_FORMULAS` (written
        operator-for-operator like the scalar ones), log2 round counts
        are precomputed per unique ``p`` with ``math.log2``, and free
        calls (``p <= 1`` or ``nbytes <= 0``) are masked to zero.
        Configurations the array path cannot express — a forced
        hierarchical/third-party algorithm, or an ``auto`` policy facing
        a registered algorithm without an array twin — degrade to an
        elementwise scalar loop, never to different answers.

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
        p_arr = np.asarray(p, dtype=np.int64)
        m = np.asarray(nbytes, dtype=np.float64)
        shape = np.broadcast_shapes(p_arr.shape, m.shape)
        free = np.broadcast_to((p_arr <= 1) | (m <= 0.0), shape)
        default = PAPER_DEFAULTS[collective]
        forced = self.algo.get(collective)

        uvals, inv = np.unique(p_arr, return_inverse=True)
        inv = inv.reshape(p_arr.shape)
        upy = [int(v) for v in uvals]
        # Unique p values whose every element is masked free never reach
        # a cost formula — the scalar path would not resolve their
        # Hockney parameters either (resolution can raise, e.g. the
        # inter-node scope on a single-node cluster).
        nonfree_u = (
            np.bincount(
                np.broadcast_to(inv, shape)[~free].ravel(),
                minlength=len(upy),
            )
            > 0
        )

        # Round counts per unique p via math.log2/math.ceil: numpy.log2
        # can land on the wrong side of an integer at powers of two,
        # which would flip a whole binomial round vs. the scalar path.
        l2_u = [math.log2(v) if v >= 2 else 0.0 for v in upy]
        l2 = np.asarray(l2_u, dtype=np.float64)[inv]
        cl2 = np.asarray(
            [float(math.ceil(x)) for x in l2_u], dtype=np.float64
        )[inv]

        if params is None:
            ab = [
                self.scope_params(v, scope, transport)
                if v >= 2 and need
                else None
                for v, need in zip(upy, nonfree_u.tolist())
            ]
            alpha = np.asarray(
                [x.alpha if x is not None else 0.0 for x in ab]
            )[inv]
            beta = np.asarray(
                [x.beta if x is not None else 0.0 for x in ab]
            )[inv]
        elif isinstance(params, HockneyParams):
            alpha, beta = params.alpha, params.beta
        else:
            alpha, beta = params

        pf = p_arr.astype(np.float64)
        resolved = self._resolve_batch(
            collective, forced, default, pf, m, alpha, beta, l2, cl2,
            inv, upy, scope, shape,
        )
        if resolved is None:
            return self._time_batch_scalar(
                collective, p_arr, m, params, alpha, beta, scope,
                transport, shape,
            )
        seconds, algorithms, index = resolved
        seconds = np.where(free, 0.0, seconds)
        # Free elements carry the forced-or-default label, matching the
        # early-out in scalar choose.
        free_name = forced if forced is not None else default
        if free.any() and (index is not None or algorithms[0] != free_name):
            if free_name not in algorithms:
                algorithms = algorithms + (free_name,)
            fi = algorithms.index(free_name)
            if index is None:
                index = np.zeros(shape, dtype=np.int64)
            else:
                index = np.broadcast_to(index, shape).copy()
            index[free] = fi
        elif index is not None:
            index = np.broadcast_to(index, shape)
        self._tally_batch(collective, algorithms, index, shape)
        return BatchChoice(collective, seconds, algorithms, index)

    def _resolve_batch(
        self, collective, forced, default, pf, m, alpha, beta, l2,
        cl2, inv, upy, scope, shape,
    ):
        """Array-path policy dispatch; ``None`` demands the scalar loop."""
        if forced is not None:
            fa = _registry.array_formula(collective, forced)
            if fa is None:
                # Forced hierarchical / third-party algorithm: eligibility
                # (and the per-element degrade to the policy pick) is
                # scalar logic.
                return None
            return fa(pf, m, alpha, beta, l2, cl2), (forced,), None
        if self.policy == "paper" or (
            self.policy == "nccl-like" and collective != "allreduce"
        ):
            fa = _registry.array_formula(collective, default)
            if fa is None:
                return None
            return fa(pf, m, alpha, beta, l2, cl2), (default,), None
        if self.policy == "nccl-like":
            fring = _registry.array_formula("allreduce", "ring")
            ftree = _registry.array_formula("allreduce", "tree")
            if fring is None or ftree is None:
                return None
            tr = fring(pf, m, alpha, beta, l2, cl2)
            tt = ftree(pf, m, alpha, beta, l2, cl2)
            use_tree = (m < self.tree_threshold) & (tt <= tr)
            seconds = np.where(use_tree, tt, tr)
            index = np.broadcast_to(use_tree, shape).astype(np.int64)
            return seconds, ("ring", "tree"), index
        # auto: stack every registered algorithm's cost and take the
        # first minimum — rows are name-sorted, so argmin's first-hit
        # reproduces the scalar "equal cost keeps the smaller name"
        # tie-break.
        rows: List[Any] = []
        names: List[str] = []
        for algo in _registry.algorithms_for(collective):
            fa = _registry.array_formula(collective, algo.name)
            if fa is not None:
                rows.append(
                    np.broadcast_to(fa(pf, m, alpha, beta, l2, cl2), shape)
                )
            elif type(algo) is HierarchicalAllreduce:
                rows.append(
                    self._hierarchical_batch(m, inv, upy, scope, shape)
                )
            else:
                return None
            names.append(algo.name)
        stack = np.stack(rows)
        index = np.argmin(stack, axis=0)
        return stack.min(axis=0), tuple(names), index

    def _hierarchical_batch(self, m, inv, upy, scope, shape):
        """Per-element hierarchical-Allreduce cost; ``+inf`` where the
        communicator does not span whole nodes (never selected)."""
        elig = []
        cols = {k: [] for k in ("ai", "bi", "ae", "be", "ll", "cn")}
        for v in upy:
            hint = self.topology_hint(v) if scope == "auto" else None
            ok = (
                hint is not None
                and hint.gpus_per_node > 1
                and v > hint.gpus_per_node
                and v % hint.gpus_per_node == 0
            )
            elig.append(ok)
            if ok:
                cols["ai"].append(hint.intra.alpha)
                cols["bi"].append(hint.intra.beta)
                cols["ae"].append(hint.inter.alpha)
                cols["be"].append(hint.inter.beta)
                cols["ll"].append(float(v // hint.gpus_per_node))
                cols["cn"].append(
                    float(math.ceil(math.log2(hint.gpus_per_node)))
                )
            else:
                for k, fill in (
                    ("ai", 0.0), ("bi", 0.0), ("ae", 0.0),
                    ("be", 0.0), ("ll", 1.0), ("cn", 0.0),
                ):
                    cols[k].append(fill)
        a = {
            k: np.asarray(vals, dtype=np.float64)[inv]
            for k, vals in cols.items()
        }
        # Binomial reduce to the leader, leader ring, binomial broadcast
        # back — term-for-term the HierarchicalAllreduce.cost sum.
        tree_leg = a["cn"] * (a["ai"] + m * a["bi"])
        steps = 2.0 * (a["ll"] - 1.0)
        ring_leg = steps * a["ae"] + steps * (m / a["ll"]) * a["be"]
        cost = (tree_leg + ring_leg) + tree_leg
        return np.broadcast_to(
            np.where(np.asarray(elig)[inv], cost, np.inf), shape
        )

    def _time_batch_scalar(
        self, collective, p_arr, m, params, alpha, beta, scope,
        transport, shape,
    ):
        """Elementwise fallback through :meth:`choose` for configurations
        without an array formula — identical answers, scalar speed."""
        pb = np.broadcast_to(p_arr, shape).ravel().tolist()
        mb = np.broadcast_to(m, shape).ravel().tolist()
        if params is None or isinstance(params, HockneyParams):
            prm = [params] * len(pb)
        else:
            ab = np.broadcast_to(alpha, shape).ravel().tolist()
            bb = np.broadcast_to(beta, shape).ravel().tolist()
            prm = [HockneyParams(x, y) for x, y in zip(ab, bb)]
        names: Dict[str, int] = {}
        sec = []
        idx = []
        for pi, mi, pr in zip(pb, mb, prm):
            ch = self.choose(
                collective, pi, mi, params=pr, scope=scope,
                transport=transport,
            )
            sec.append(ch.seconds)
            idx.append(names.setdefault(ch.algorithm, len(names)))
        seconds = np.asarray(sec, dtype=np.float64).reshape(shape)
        algorithms = tuple(names)
        if len(algorithms) == 1:
            return BatchChoice(collective, seconds, algorithms, None)
        index = np.asarray(idx, dtype=np.int64).reshape(shape)
        return BatchChoice(collective, seconds, algorithms, index)

    def _tally_batch(self, collective, algorithms, index, shape):
        total = 1
        for d in shape:
            total *= d
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

"""The search engine: prune -> memoize -> project, fanned out over a
worker pool, folded into a Pareto frontier.

The engine owns no policy of its own: the :class:`~repro.search.space.
SearchSpace` says what to try, :mod:`~repro.search.pruning` says what is
not worth projecting, the :class:`~repro.search.cache.ProjectionCache`
remembers past answers, and :mod:`~repro.search.pareto` ranks the
survivors.  Evaluation order is irrelevant to the result — a search with
one worker returns exactly what a search with N workers returns, and a
remote-fleet search returns exactly what a thread-pool search returns.

Two executor backends are available (``executor="thread"`` /
``"remote"``).  The thread backend is the local default: projections are
pure-Python CPU work batched through the vectorized path, so a search
finishes in-process in milliseconds.  Scale-out goes through the remote
backend (:mod:`repro.dist`): it ships the pickled oracle context once to
each ``repro worker`` process (on this machine or others) and streams
candidate chunks over sockets, with heartbeat-based failure detection
and straggler re-dispatch.  The parent keeps sole ownership of the
:class:`ProjectionCache`: cache hits are answered inline before anything
reaches the fleet, and worker projections are folded back in, so a warm
cache never re-projects under either backend.
"""

from __future__ import annotations

import logging
import os
import pickle
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.analytical import Projection
from ..core.strategies import Strategy, StrategyError
from ..data.datasets import DatasetSpec
from ..faults import check_deadline
from ..obs.tracer import NULL_TRACER, Tracer
from .cache import (
    CachedFailure,
    ProjectionCache,
    context_fingerprint,
    fingerprint_digest,
)
from .pareto import (
    DEFAULT_OBJECTIVES,
    pareto_frontier,
    scalarized_best,
)
from .pruning import Pruner, PruningContext, apply_pruners, apply_pruners_batch
from .space import Candidate, SearchSpace

__all__ = [
    "Evaluation",
    "SearchReport",
    "SearchEngine",
    "EXECUTORS",
    "TIMING_STAGES",
]

#: Supported evaluation backends.
EXECUTORS = ("thread", "remote")

#: Candidates per remote-worker chunk: large enough to amortize a
#: network round-trip per frame, small enough that straggler
#: re-dispatch has useful granularity.
_REMOTE_CHUNK = 32

#: Candidates per thread-backend evaluation batch: one
#: :meth:`SearchEngine.evaluate_many` call amortizes cache-key assembly
#: and timing bookkeeping across the chunk — and feeds the vectorized
#: projection path, whose per-candidate cost falls with chunk size.
_THREAD_CHUNK = 256

#: Single-worker chunk: with no pool to keep busy, larger chunks only
#: help — the array path groups candidates by strategy family, so an
#: 8x larger chunk means 8x fewer per-family assembly passes.  Still
#: bounded so ``iter_results`` keeps yielding incrementally.
_SERIAL_CHUNK = 2048

#: Minimum cache-miss survivors per chunk before the vectorized
#: projection path pays for its array assembly.
_MIN_VECTOR_BATCH = 4

#: Stage keys of :attr:`SearchReport.timings` (the ``--profile`` table).
TIMING_STAGES = (
    "expansion_s", "pruning_s", "projection_s", "ranking_s",
    "persistence_s", "total_s",
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Evaluation:
    """Outcome of evaluating one candidate."""

    candidate: Candidate
    strategy: Optional[Strategy] = None
    projection: Optional[Projection] = None
    feasible: bool = False
    reason: str = ""
    pruned: bool = False
    cached: bool = False

    @property
    def epoch_time(self) -> float:
        return self.projection.per_epoch.total

    @property
    def iteration_time(self) -> float:
        return self.projection.per_iteration.total

    @property
    def memory_gb(self) -> float:
        return self.projection.memory_bytes / 1e9

    def describe(self) -> str:
        if self.strategy is not None:
            desc = f"{self.strategy.describe()} B={self.candidate.batch}"
            if self.candidate.comm:
                desc += f" comm={self.candidate.comm}"
            return desc
        return self.candidate.describe()

    def asdict(self) -> Dict[str, object]:
        """JSON-ready summary (for ``--json`` CLI output)."""
        row: Dict[str, object] = {
            "candidate": self.candidate.describe(),
            "strategy": self.strategy.describe() if self.strategy else None,
            "p": self.candidate.p,
            "batch": self.candidate.batch,
            "feasible": self.feasible,
            "pruned": self.pruned,
            "cached": self.cached,
        }
        if self.projection is not None:
            row.update(
                epoch_s=self.epoch_time,
                iteration_s=self.iteration_time,
                memory_gb=self.memory_gb,
                comm_policy=self.projection.comm_policy,
                comm_algorithms=dict(self.projection.comm_algorithms),
            )
        if self.reason:
            row["reason"] = self.reason
        return row


@dataclass
class SearchReport:
    """Everything a search produced, plus bookkeeping counters.

    ``timings`` breaks the wall time into stages (see
    :data:`TIMING_STAGES`): space expansion, pruning (the pre-projection
    fast path, including cache lookups), projection, ranking, and cache
    persistence.  Pruning/projection are *busy* times summed across
    workers (cProfile-``cumtime``-style), so with several threads they
    can legitimately exceed the wall-clock ``total_s``; stages measured
    inside remote workers are not visible to the parent, so under
    ``executor="remote"`` the split only covers parent-side work.
    """

    evaluations: List[Evaluation]
    frontier: List[Evaluation]
    best: Optional[Evaluation]
    objectives: Sequence[str] = DEFAULT_OBJECTIVES
    stats: Dict[str, int] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def feasible(self) -> List[Evaluation]:
        return [e for e in self.evaluations if e.feasible]

    def asdict(self) -> Dict[str, object]:
        # ``timings`` stay off the JSON document deliberately: the
        # envelope is a stable, reproducible contract (scenario-built ==
        # flag-built bit-for-bit) and wall-clock noise would break it.
        # The CLI renders timings via ``--profile`` instead.
        return {
            "objectives": list(self.objectives),
            "stats": dict(self.stats),
            "best": self.best.asdict() if self.best else None,
            "frontier": [e.asdict() for e in self.frontier],
            "evaluated": len(self.evaluations),
        }


class SearchEngine:
    """Evaluates candidate spaces against one oracle + dataset.

    Parameters
    ----------
    oracle:
        A :class:`~repro.core.oracle.ParaDL` instance.
    dataset:
        Training set (its cardinality fixes iterations per epoch).
    cache:
        A :class:`ProjectionCache`, a path string (the engine opens a
        persistent cache there, keyed to this oracle's fingerprint), or
        ``None`` for a fresh in-memory memo.
    cache_dir:
        Alternative to ``cache``: a *directory* of per-(model, cluster)
        cache files shared across sweeps (see
        :meth:`ProjectionCache.for_oracle`).  Mutually exclusive with
        ``cache``.
    pruners:
        Pre-projection filters; default :data:`DEFAULT_PRUNERS`.
    workers:
        Worker-pool width for :meth:`iter_results`.  Defaults to 1 for
        the thread backend (projections are GIL-bound pure Python, so
        threads only pay off when evaluation blocks — e.g. a future
        oracle backed by real profiling runs or RPC) and to the fleet
        size for the remote backend.  Results are identical at any
        width.
    executor:
        ``"thread"`` (default) or ``"remote"``.  The remote backend
        ships the pickled oracle context to each configured ``repro
        worker`` once and streams candidate chunks over sockets; it
        degrades to the thread backend (with a ``RuntimeWarning``) when
        the context cannot pickle or no worker is reachable, so results
        are never lost to a custom pruner or a down fleet — see
        :mod:`repro.dist` and ``docs/distributed.md``.
    remote_workers:
        ``host:port`` worker addresses for ``executor="remote"``.  As a
        convenience, ``workers`` may also be passed a sequence of
        addresses (``SearchEngine(executor="remote",
        workers=["a:1234", "b:1234"])``) — the two spellings are
        equivalent and mutually exclusive.
    tracer:
        A recording :class:`~repro.obs.tracer.Tracer` to receive engine
        spans (stage phases, per-chunk evaluation, worker fold-ins).
        Default: the shared no-op tracer — near-zero overhead, gated by
        ``benchmarks/test_bench_obs_overhead.py``.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry`; after each
        :meth:`search` the engine scrapes run counters into it (cache
        hit/miss/negative/save, ``CommModel`` memo efficiency and
        per-algorithm selections, stage times, epoch-time percentiles,
        vectorized vs. scalar-fallback candidate counts).
        ``None`` skips scraping.

    A chunk with at least :data:`_MIN_VECTOR_BATCH` cache-miss survivors
    is projected as numpy columns (``oracle.project_batch``); smaller
    ones one candidate at a time (``oracle.project``).  Results are
    identical either way — both evaluate the same closed form per
    strategy family (``docs/performance.md``).
    """

    def __init__(
        self,
        oracle,
        dataset: DatasetSpec,
        *,
        cache=None,
        cache_dir: Optional[str] = None,
        pruners: Optional[Sequence[Pruner]] = None,
        workers=None,
        executor: str = "thread",
        remote_workers: Optional[Sequence[str]] = None,
        tracer=None,
        metrics=None,
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        if cache is not None and cache_dir is not None:
            raise ValueError("pass either cache or cache_dir, not both")
        if workers is not None and not isinstance(workers, int):
            # The ISSUE-blessed convenience spelling:
            # SearchEngine(executor="remote", workers=["a:1234", ...]).
            if remote_workers is not None:
                raise ValueError(
                    "pass worker addresses via workers=[...] or "
                    "remote_workers=[...], not both")
            remote_workers = workers
            workers = None
        self.remote_workers = tuple(
            str(a) for a in (remote_workers or ()))
        if self.remote_workers and executor != "remote":
            raise ValueError(
                "remote_workers is only meaningful with executor='remote'")
        if executor == "remote" and not self.remote_workers:
            raise ValueError(
                "executor 'remote' needs at least one host:port worker "
                "address (remote_workers=[...])")
        self.oracle = oracle
        self.dataset = dataset
        fingerprint = context_fingerprint(oracle)
        if cache_dir is not None:
            cache = ProjectionCache.for_oracle(cache_dir, oracle)
        elif cache is None:
            cache = ProjectionCache(context=fingerprint)
        elif isinstance(cache, (str, os.PathLike)):
            cache = ProjectionCache(str(cache), context=fingerprint)
        self.cache = cache
        self.pruners = list(pruners) if pruners is not None else None
        self.executor = executor
        if workers:
            self.workers = workers
        elif executor == "remote":
            self.workers = len(self.remote_workers)
        else:
            self.workers = 1
        self._ctx = PruningContext(
            model=oracle.model,
            cluster=oracle.cluster,
            gamma=oracle.analytical.gamma,
            delta=oracle.analytical.delta,
        )
        # Cache keys share one precomputed dataset suffix; candidates
        # memoize their own key component (see Candidate.key), so per-
        # candidate key building is a single concatenation.
        self._key_suffix = f"@D={dataset.num_samples}"
        self._timings: Dict[str, float] = {}
        self._timings_lock = threading.Lock()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        #: Candidates projected via the array path vs. the scalar
        #: fallback, lifetime totals (snapshotted per search run).
        self._vec_counts: Dict[str, int] = {"vectorized": 0, "scalar": 0}
        # (sid, p, p1, p2, segments) -> Strategy | (exc_type, message).
        # Candidates differing only in batch / comm policy bind to the
        # same (frozen, shareable) strategy object.
        self._build_memo: Dict[Tuple, object] = {}

    # ------------------------------------------------------------- evaluate
    def _cache_key(self, candidate: Candidate) -> str:
        return candidate.key + self._key_suffix

    def _add_timings(self, pruning: float = 0.0, projection: float = 0.0
                     ) -> None:
        with self._timings_lock:
            t = self._timings
            t["pruning_s"] = t.get("pruning_s", 0.0) + pruning
            t["projection_s"] = t.get("projection_s", 0.0) + projection

    def _build_strategy(self, candidate: Candidate) -> Strategy:
        """Memoized :meth:`Candidate.build` — candidates that differ only
        in batch or comm policy share one frozen strategy instance (and
        one construction error)."""
        key = (candidate.sid, candidate.p, candidate.p1, candidate.p2,
               candidate.segments)
        hit = self._build_memo.get(key)
        if hit is None:
            try:
                hit = candidate.build(self.oracle.model)
            except (StrategyError, ValueError) as exc:
                hit = (type(exc), str(exc))
            self._build_memo[key] = hit
        if isinstance(hit, tuple):
            raise hit[0](hit[1])
        return hit

    def _fast_path(
        self, candidate: Candidate
    ) -> Tuple[Optional[Evaluation], Optional[Strategy]]:
        """Prune + build + cache lookup — everything short of projecting.

        Returns ``(evaluation, strategy)``; ``evaluation`` is ``None``
        exactly when the candidate still needs a projection (in which
        case ``strategy`` is the bound strategy to project).
        """
        reason = apply_pruners(candidate, self._ctx, self.pruners)
        if reason is not None:
            return Evaluation(candidate, reason=reason, pruned=True), None
        evaluation, strategy, _ = self._fast_path_tail(candidate)
        return evaluation, strategy

    def _fast_path_tail(
        self, candidate: Candidate
    ) -> Tuple[Optional[Evaluation], Optional[Strategy], Optional[str]]:
        """The post-pruning half of :meth:`_fast_path` (build + cache).

        Also returns the cache key on a miss so projection-side memo
        writes don't rebuild it."""
        try:
            strategy = self._build_strategy(candidate)
        except (StrategyError, ValueError) as exc:
            return Evaluation(candidate, reason=str(exc)), None, None
        key = self._cache_key(candidate)
        hit = self.cache.get(key, strategy)
        if isinstance(hit, CachedFailure):
            return (
                Evaluation(candidate, strategy, reason=hit.reason, cached=True),
                strategy,
                key,
            )
        if hit is not None:
            return (
                self._finish(candidate, strategy, hit, cached=True),
                strategy,
                key,
            )
        return None, strategy, key

    def _fast_path_many(
        self, candidates: Sequence[Candidate]
    ) -> Tuple[List[Optional[Evaluation]],
               List[Tuple[int, Candidate, Strategy, str]]]:
        """Batched :meth:`_fast_path`: pruning runs vectorized over the
        whole chunk, then build + cache lookup per survivor.  Returns the
        (partially filled) output slots and the cache-miss survivors as
        ``(index, candidate, strategy, cache_key)`` rows."""
        cands = list(candidates)
        reasons = apply_pruners_batch(cands, self._ctx, self.pruners)
        out: List[Optional[Evaluation]] = [None] * len(cands)
        pending: List[Tuple[int, Candidate, Strategy, str]] = []
        for i, (cand, reason) in enumerate(zip(cands, reasons)):
            if reason is not None:
                out[i] = Evaluation(cand, reason=reason, pruned=True)
                continue
            evaluation, strategy, key = self._fast_path_tail(cand)
            if evaluation is not None:
                out[i] = evaluation
            else:
                pending.append((i, cand, strategy, key))
        return out, pending

    def _finish(
        self,
        candidate: Candidate,
        strategy: Strategy,
        projection: Projection,
        *,
        cached: bool,
    ) -> Evaluation:
        """Memory-feasibility verdict for a successful projection."""
        if not projection.feasible_memory:
            return Evaluation(
                candidate, strategy, projection,
                feasible=False, cached=cached,
                reason=(f"memory {projection.memory_bytes / 1e9:.1f} GB "
                        f"exceeds "
                        f"{projection.memory_capacity / 1e9:.0f} GB/PE"),
            )
        return Evaluation(
            candidate, strategy, projection, feasible=True, cached=cached)

    def _project(self, candidate: Candidate, strategy: Strategy) -> Evaluation:
        """Pay for the projection and memoize the outcome (either way)."""
        key = self._cache_key(candidate)
        try:
            projection = self.oracle.project(
                strategy, candidate.batch, self.dataset,
                comm=candidate.comm or None)
        except (StrategyError, ValueError) as exc:
            self.cache.put_failure(key, str(exc))
            return Evaluation(candidate, strategy, reason=str(exc))
        self.cache.put(key, projection)
        return self._finish(candidate, strategy, projection, cached=False)

    def _count_candidates(self, *, vectorized: int = 0, scalar: int = 0
                          ) -> None:
        with self._timings_lock:
            self._vec_counts["vectorized"] += vectorized
            self._vec_counts["scalar"] += scalar

    def _vec_snapshot(self) -> Dict[str, int]:
        with self._timings_lock:
            return dict(self._vec_counts)

    def _project_batch(
        self, items: Sequence[Tuple[Candidate, Strategy, str]]
    ) -> List[Evaluation]:
        """Batched :meth:`_project`: one ``oracle.project_batch`` call
        covers every item; per-candidate raises come back as aligned
        exception entries and memoize negatively, exactly as the scalar
        path would."""
        strategies = [s for _, s, _ in items]
        batches = [c.batch for c, _, _ in items]
        comms = [c.comm or None for c, _, _ in items]
        results = self.oracle.project_batch(
            strategies, batches, self.dataset, comms=comms)
        out: List[Evaluation] = []
        successes: List[Tuple[str, Projection]] = []
        failures: List[Tuple[str, str]] = []
        for (cand, strategy, key), result in zip(items, results):
            if isinstance(result, Exception):
                reason = str(result)
                failures.append((key, reason))
                out.append(Evaluation(cand, strategy, reason=reason))
            else:
                successes.append((key, result))
                out.append(
                    self._finish(cand, strategy, result, cached=False))
        self.cache.put_many(successes, failures)
        return out

    def _project_pending(
        self, pending: Sequence[Tuple[int, Candidate, Strategy, str]]
    ) -> List[Evaluation]:
        """Project cache-miss survivors — vectorized when it pays,
        scalar otherwise — and tally which path ran."""
        if not pending:
            return []
        if len(pending) >= _MIN_VECTOR_BATCH:
            with self.tracer.span(
                    "search.evaluate_batch", candidates=len(pending)):
                evaluations = self._project_batch(
                    [(cand, strategy, key)
                     for _, cand, strategy, key in pending])
            self._count_candidates(vectorized=len(pending))
            return evaluations
        evaluations = [
            self._project(cand, strategy)
            for _, cand, strategy, _ in pending
        ]
        self._count_candidates(scalar=len(pending))
        return evaluations

    def evaluate(self, candidate: Candidate) -> Evaluation:
        """Evaluate one candidate: prune, then memoized projection."""
        evaluation, strategy = self._fast_path(candidate)
        if evaluation is not None:
            return evaluation
        return self._project(candidate, strategy)

    def evaluate_many(
        self, candidates: Sequence[Candidate]
    ) -> List[Evaluation]:
        """Evaluate a chunk of candidates; results keep input order.

        The batched form of :meth:`evaluate`, shared by the thread
        backend and ``repro worker``: the pre-projection fast path (pruning,
        strategy construction, cache lookup) runs for the whole chunk
        first, then the surviving candidates are projected — amortizing
        key building and stage-timing bookkeeping across the chunk
        instead of paying them per candidate.

        Spans are emitted at *chunk* granularity (one
        ``search.evaluate_chunk`` per call, plus one nested
        ``search.evaluate_batch`` when the array path runs), so tracing
        detail scales with chunks, not candidates, and the no-op
        tracer's cost stays amortized across the whole chunk.
        """
        check_deadline("search.evaluate_chunk")
        with self.tracer.span(
                "search.evaluate_chunk", candidates=len(candidates)) as sp:
            t0 = time.perf_counter()
            out, pending = self._fast_path_many(candidates)
            t1 = time.perf_counter()
            for (i, _, _, _), evaluation in zip(
                    pending, self._project_pending(pending)):
                out[i] = evaluation
            self._add_timings(
                pruning=t1 - t0, projection=time.perf_counter() - t1)
            sp.attrs["projected"] = len(pending)
        return out

    def _absorb(self, evaluation: Evaluation) -> None:
        """Fold a remote worker's evaluation into the parent cache.

        Mirrors what :meth:`_project` would have written locally: a
        successful projection memoizes positively, a projection raise
        memoizes negatively.  Pruned / build-failed / already-cached
        evaluations never reach the fleet, so they need no folding.
        """
        key = self._cache_key(evaluation.candidate)
        if evaluation.projection is not None:
            self.cache.put(key, evaluation.projection)
        elif evaluation.strategy is not None:
            self.cache.put_failure(key, evaluation.reason)

    # --------------------------------------------------------------- search
    def _fallback_local(
        self, pending_rows: Sequence[Tuple[int, Candidate, Strategy, str]]
    ) -> Iterator[Evaluation]:
        """Project cache-miss survivors locally — the remote backend's
        degradation path (unpicklable context or no reachable worker).
        The fast path already ran, so stats and cache counters stay
        identical to the thread backend's."""
        if self.workers <= 1:
            yield from self._project_pending(pending_rows)
            return
        pending = [
            (cand, strategy) for _, cand, strategy, _ in pending_rows
        ]
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = [
                pool.submit(self._project, cand, strategy)
                for cand, strategy in pending
            ]
            self._count_candidates(scalar=len(pending))
            for future in as_completed(futures):
                yield future.result()

    def _iter_remote(
        self, candidates: Iterable[Candidate]
    ) -> Iterator[Evaluation]:
        """Remote-fleet evaluation (:mod:`repro.dist`): fast path inline,
        cache-miss survivors chunked out to the configured workers,
        evaluations / tracer spans / worker counters folded back.

        Failure handling never loses a candidate: an unpicklable context
        or an unreachable fleet degrades to local threads with a
        ``RuntimeWarning``, and chunks the fleet failed to finish
        (every worker died) are projected locally after the fact.
        """
        t0 = time.perf_counter()
        fast, pending_rows = self._fast_path_many(list(candidates))
        self._add_timings(pruning=time.perf_counter() - t0)
        for evaluation in fast:
            if evaluation is not None:
                yield evaluation
        if not pending_rows:
            return
        try:
            payload = pickle.dumps(
                (self.oracle, self.dataset, self.pruners,
                 self.tracer.enabled))
        except Exception as exc:  # noqa: BLE001 - any pickling failure
            warnings.warn(
                f"oracle context cannot be pickled ({exc}); falling back "
                f"to the thread executor",
                RuntimeWarning,
                stacklevel=3,
            )
            yield from self._fallback_local(pending_rows)
            return
        from ..dist.coordinator import RemoteCoordinator

        digest = fingerprint_digest(context_fingerprint(self.oracle))
        chunk_rows = [
            pending_rows[i:i + _REMOTE_CHUNK]
            for i in range(0, len(pending_rows), _REMOTE_CHUNK)
        ]
        chunks = [[cand for _, cand, _, _ in rows] for rows in chunk_rows]
        coordinator = RemoteCoordinator(
            self.remote_workers, payload, digest)
        try:
            if coordinator.connect() == 0:
                warnings.warn(
                    f"no remote worker reachable at "
                    f"{', '.join(self.remote_workers)}; falling back to "
                    f"the thread executor",
                    RuntimeWarning,
                    stacklevel=3,
                )
                yield from self._fallback_local(pending_rows)
                return
            for fields in coordinator.run(chunks):
                self.tracer.adopt(fields.get("spans") or [])
                counts = fields.get("counts") or {}
                self._count_candidates(
                    vectorized=counts.get("vectorized", 0),
                    scalar=counts.get("scalar", 0))
                if self.metrics is not None:
                    self.metrics.merge_counts(
                        fields.get("metrics") or {},
                        prefix="dist.worker.")
                for evaluation in fields["evaluations"]:
                    self._absorb(evaluation)
                    yield evaluation
            if coordinator.leftover:
                logger.warning(
                    "dist: fleet lost %d chunk(s); evaluating %d "
                    "candidates locally",
                    len(coordinator.leftover),
                    sum(len(chunk_rows[cid])
                        for cid in coordinator.leftover))
                for cid in coordinator.leftover:
                    yield from self._project_pending(chunk_rows[cid])
        finally:
            coordinator.close()
            if self.metrics is not None:
                self.metrics.merge_counts(
                    coordinator.stats, prefix="dist.")

    def _iter_thread(
        self, candidates: Iterable[Candidate]
    ) -> Iterator[Evaluation]:
        """Thread-backend evaluation in :data:`_THREAD_CHUNK` batches
        (:data:`_SERIAL_CHUNK` when single-worker — no pool to starve).

        Chunking amortizes per-candidate dispatch; anytime consumers
        (``--stream``) see results at chunk granularity, which does not
        change the evaluations themselves.  The single-worker default
        consumes the candidate stream lazily, one chunk at a time, so
        first-result latency stays independent of the space size.
        """
        from itertools import islice

        it = iter(candidates)
        if self.workers <= 1:
            chunks = iter(lambda: list(islice(it, _SERIAL_CHUNK)), [])
            for chunk in chunks:
                yield from self.evaluate_many(chunk)
            return
        chunks = iter(lambda: list(islice(it, _THREAD_CHUNK)), [])
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = [pool.submit(self.evaluate_many, c) for c in chunks]
            for future in as_completed(futures):
                yield from future.result()

    def _iter_candidates(
        self, candidates: Iterable[Candidate]
    ) -> Iterator[Evaluation]:
        """Dispatch an expanded candidate stream to the active backend
        (the single executor-selection seam ``iter_results`` and
        ``search`` share)."""
        if self.executor == "remote":
            yield from self._iter_remote(candidates)
        else:
            yield from self._iter_thread(candidates)

    def iter_results(
        self,
        space: SearchSpace,
        *,
        intra: Optional[int] = None,
    ) -> Iterator[Evaluation]:
        """Yield evaluations incrementally as workers complete them.

        Yield *order* follows completion and is nondeterministic with
        multiple workers; the evaluations themselves are not.
        """
        intra = intra or self.oracle.cluster.node.gpus
        yield from self._iter_candidates(space.candidates(intra=intra))

    def search(
        self,
        space: SearchSpace,
        *,
        objectives: Sequence[str] = DEFAULT_OBJECTIVES,
        weights: Optional[Mapping[str, float]] = None,
        intra: Optional[int] = None,
        on_result=None,
    ) -> SearchReport:
        """Full search: evaluate the space, return frontier + best.

        ``on_result`` is invoked with each :class:`Evaluation` as it
        completes (anytime consumption — streamed progress, early
        frontier display); it does not affect the returned report.

        The report's evaluation list is sorted by candidate key so the
        result is identical whatever the executor backend, worker count,
        or completion order.

        ``report.timings`` carries the per-stage wall-time breakdown the
        CLI's ``--profile`` renders (see :attr:`SearchReport.timings`).
        The dict is a *view over spans*: each stage key is the duration
        of the matching ``search.*`` span (expansion / ranking /
        persistence / the root), with the worker-summed pruning and
        projection busy times folded in from the chunk accumulators —
        so ``--profile`` and a ``--trace`` file can never disagree.
        When no recording tracer is installed a throwaway local tracer
        scopes the stage spans (a handful of allocations per *search*,
        not per candidate), keeping the timings contract identical
        whether or not anyone is tracing.
        """
        # Stage spans always record somewhere: the engine's tracer when
        # observability is on, a local scratch tracer otherwise.
        tracer = self.tracer if self.tracer.enabled else Tracer()
        with self._timings_lock:
            before = dict(self._timings)
        hits_before = self.cache.hits
        misses_before = self.cache.misses
        comm_before = self._comm_stats()
        vec_before = self._vec_snapshot()
        intra = intra or self.oracle.cluster.node.gpus
        root_ctx = tracer.span(
            "search",
            model=getattr(self.oracle.model, "name", "?"),
            executor=self.executor,
            workers=self.workers,
        )
        root = root_ctx.__enter__()
        try:
            with tracer.span("search.expansion") as sp_expand:
                candidates = list(space.candidates(intra=intra))
                sp_expand.attrs["candidates"] = len(candidates)
            logger.info(
                "search: %d candidates expanded (model=%s, executor=%s)",
                len(candidates), root.attrs.get("model"), self.executor)
            evaluations = []
            for evaluation in self._iter_candidates(candidates):
                # Deadline budgets abort between results: bounded
                # latency on the serial path (chunks are checked in
                # evaluate_many too), bounded by chunk completion when
                # a worker pool is driving.
                check_deadline("search.results")
                if on_result is not None:
                    on_result(evaluation)
                evaluations.append(evaluation)
            with tracer.span("search.ranking") as sp_rank:
                evaluations.sort(key=lambda e: e.candidate.key)
                feasible = [e for e in evaluations if e.feasible]
                frontier = pareto_frontier(feasible, objectives)
                best = scalarized_best(frontier, weights)
            stats = {
                "candidates": len(evaluations),
                "feasible": len(feasible),
                "pruned": sum(1 for e in evaluations if e.pruned),
                "infeasible": sum(
                    1 for e in evaluations
                    if not e.feasible and not e.pruned),
                "cache_hits": self.cache.hits - hits_before,
                "cache_misses": self.cache.misses - misses_before,
                "frontier": len(frontier),
            }
            with tracer.span("search.persistence") as sp_persist:
                if self.cache.path is not None:
                    self.cache.save()
            root.attrs.update(stats)
        finally:
            root_ctx.__exit__(None, None, None)
        with self._timings_lock:
            after = dict(self._timings)
        # The timings dict IS the span view (stage durations), plus the
        # cross-worker busy sums the chunk accumulators collect.
        timings = {
            "expansion_s": sp_expand.duration,
            "pruning_s": after.get("pruning_s", 0.0)
            - before.get("pruning_s", 0.0),
            "projection_s": after.get("projection_s", 0.0)
            - before.get("projection_s", 0.0),
            "ranking_s": sp_rank.duration,
            "persistence_s": sp_persist.duration,
            "total_s": root.duration,
        }
        logger.info(
            "search: %d/%d feasible, %d pruned, frontier %d, "
            "%.1f ms wall",
            stats["feasible"], stats["candidates"], stats["pruned"],
            stats["frontier"], timings["total_s"] * 1e3)
        if self.metrics is not None:
            vec_after = self._vec_snapshot()
            vec_delta = {
                key: vec_after.get(key, 0) - vec_before.get(key, 0)
                for key in vec_after
            }
            self._scrape_metrics(
                stats, timings, feasible, comm_before, vec_delta)
        return SearchReport(
            evaluations=evaluations,
            frontier=frontier,
            best=best,
            objectives=tuple(objectives),
            stats=stats,
            timings=timings,
        )

    # ---------------------------------------------------------- observability
    def _comm_stats(self) -> Dict[str, float]:
        """Snapshot of the oracle CommModel's counters (may be absent on
        toy oracles injected by tests)."""
        comm = getattr(
            getattr(self.oracle, "analytical", None), "comm", None)
        if comm is None or not hasattr(comm, "stats"):
            return {}
        out = dict(comm.stats)
        for label, count in getattr(comm, "selections", {}).items():
            out[f"selected.{label}"] = count
        return out

    def _scrape_metrics(self, stats, timings, feasible, comm_before,
                        vec_delta=None) -> None:
        """Fold one search run's counters into the metrics registry.

        Off the hot path by design: the substrate (cache, ``CommModel``)
        keeps plain int counters; this turns their run deltas into
        registry counters / histograms once, after ranking.
        """
        m = self.metrics
        for key in ("candidates", "feasible", "pruned", "infeasible",
                    "frontier"):
            if stats[key]:
                m.counter(f"search.{key}").add(stats[key])
        if vec_delta:
            if vec_delta.get("vectorized"):
                m.counter("search.vectorized_candidates").add(
                    vec_delta["vectorized"])
            if vec_delta.get("scalar"):
                m.counter("search.scalar_fallback_candidates").add(
                    vec_delta["scalar"])
        m.counter("cache.hits").add(stats["cache_hits"])
        m.counter("cache.misses").add(stats["cache_misses"])
        for key, value in self.cache.stats().items():
            if key in ("hits", "misses"):
                continue  # run deltas above; lifetime values as gauges
            m.gauge(f"cache.{key}").set(value)
        comm_after = self._comm_stats()
        for key, value in comm_after.items():
            delta = value - comm_before.get(key, 0)
            if delta:
                m.counter(f"comm.{key}").add(delta)
        hits = comm_after.get("memo_hits", 0) - comm_before.get(
            "memo_hits", 0)
        misses = comm_after.get("memo_misses", 0) - comm_before.get(
            "memo_misses", 0)
        if hits + misses:
            m.gauge("comm.memo_hit_rate").set(hits / (hits + misses))
        for key, value in timings.items():
            m.histogram(f"search.stage.{key}").observe(value)
        epochs = m.histogram("search.epoch_s")
        iters = m.histogram("search.iteration_s")
        for evaluation in feasible:
            epochs.observe(evaluation.epoch_time)
            iters.observe(evaluation.iteration_time)

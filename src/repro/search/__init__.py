"""Automated parallel-strategy search (the oracle's sweep, industrialized).

``ParaDL.suggest`` ranks a fixed strategy list at one PE count; this
package turns that into a proper planner: a declarative
:class:`SearchSpace` over strategy x factorization x PE budget x batch x
micro-batch x comm policy, feasibility pruning before any projection is
paid for, a persistent :class:`ProjectionCache` (single file, or one
fingerprinted file per model inside a shared ``cache_dir``), a
worker-pool :class:`SearchEngine` (thread or remote executor), and
multi-objective Pareto ranking of the survivors.  :class:`SweepRunner`
orchestrates all of it across a model zoo and emits consolidated
frontier reports.

>>> from repro.search import SearchEngine, SearchSpace          # doctest: +SKIP
>>> engine = SearchEngine(oracle, IMAGENET, cache="plan.json")  # doctest: +SKIP
>>> report = engine.search(SearchSpace(pe_budgets=(64,)))       # doctest: +SKIP
>>> report.best.describe(), report.best.epoch_time              # doctest: +SKIP
"""

from .space import Candidate, SearchSpace, DEFAULT_STRATEGIES
from .pruning import (
    DEFAULT_PRUNERS,
    PruningContext,
    apply_pruners,
    prune_memory_lower_bound,
    prune_structure,
)
from .cache import (
    CACHE_VERSION,
    ProjectionCache,
    cache_file_for,
    context_fingerprint,
    fingerprint_digest,
)
from .pareto import (
    DEFAULT_OBJECTIVES,
    DEFAULT_WEIGHTS,
    OBJECTIVES,
    dominates,
    pareto_frontier,
    scalarized_best,
)
from .checkpoint import CHECKPOINT_SCHEMA, ReplayedReport, SweepCheckpoint
from .engine import EXECUTORS, Evaluation, SearchEngine, SearchReport
from .sweep import (
    SUMMARY_COLUMNS,
    SweepReport,
    SweepResult,
    SweepRunner,
    plot_frontiers,
    write_frontier_csv,
    write_summary_csv,
)

__all__ = [
    "Candidate",
    "SearchSpace",
    "DEFAULT_STRATEGIES",
    "PruningContext",
    "DEFAULT_PRUNERS",
    "apply_pruners",
    "prune_structure",
    "prune_memory_lower_bound",
    "ProjectionCache",
    "context_fingerprint",
    "fingerprint_digest",
    "cache_file_for",
    "CACHE_VERSION",
    "OBJECTIVES",
    "DEFAULT_OBJECTIVES",
    "DEFAULT_WEIGHTS",
    "dominates",
    "pareto_frontier",
    "scalarized_best",
    "Evaluation",
    "SearchEngine",
    "SearchReport",
    "EXECUTORS",
    "SweepRunner",
    "SweepReport",
    "SweepResult",
    "SweepCheckpoint",
    "ReplayedReport",
    "CHECKPOINT_SCHEMA",
    "SUMMARY_COLUMNS",
    "write_frontier_csv",
    "write_summary_csv",
    "plot_frontiers",
]

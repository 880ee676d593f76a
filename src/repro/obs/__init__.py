"""Observability: tracing spans, metrics, and trace exporters.

The oracle explains where parallel-DL training time goes; this package
explains where the *oracle's* time goes.  Three pieces:

:mod:`~repro.obs.tracer`
    Nested, labeled timing :class:`Span`\\ s produced by context
    managers.  Thread-safe (per-thread span stacks) and remote-worker
    aware — worker spans travel back with result chunks and are
    re-parented into the parent tracer (:meth:`Tracer.adopt`).  The
    default :data:`NULL_TRACER` is a shared no-op whose hot-path cost is
    one attribute check, so instrumented code pays ~nothing when nobody
    is looking (gated by ``benchmarks/test_bench_obs_overhead.py``).

:mod:`~repro.obs.metrics`
    A :class:`MetricsRegistry` of counters / gauges / histograms with
    numpy-free percentile summaries (p50/p90/p99).  Consumers
    (:class:`~repro.search.engine.SearchEngine`) *scrape* substrate
    counters (projection-cache hits, ``CommModel`` memo efficiency,
    per-algorithm selection counts) into a registry after the fact, so
    the substrate itself never carries registry references on hot paths.

:mod:`~repro.obs.export`
    Exporters over one span/metric model: structured JSONL event logs,
    a human ``--profile``-style table, and Chrome trace-event JSON
    loadable in Perfetto / ``chrome://tracing``.  The simulator's
    :class:`~repro.simulator.trace.Timeline` exports to the same Chrome
    format, so wall-clock engine spans and *simulated* DES schedules
    render in one viewer.

Logging rides along: :func:`configure_logging` wires the module-level
``logging.getLogger(__name__)`` hierarchy under ``repro.*`` to stderr
for the CLI's ``-v/--verbose`` flag.
"""

from __future__ import annotations

import logging
import sys
from typing import Optional

from .metrics import Counter, Gauge, Histogram, MetricsRegistry, percentile
from .tracer import NULL_TRACER, NullTracer, Span, Tracer
from .export import (
    format_metrics_table,
    format_spans_table,
    metrics_to_counter_events,
    spans_to_chrome,
    timeline_to_chrome,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "percentile",
    "spans_to_chrome",
    "timeline_to_chrome",
    "metrics_to_counter_events",
    "write_chrome_trace",
    "write_jsonl",
    "format_metrics_table",
    "format_spans_table",
    "configure_logging",
]

#: Verbosity count (the CLI's ``-v`` occurrences) -> logging level.
_LEVELS = {0: logging.WARNING, 1: logging.INFO, 2: logging.DEBUG}


def configure_logging(verbosity: int = 0, *, stream=None) -> int:
    """Wire the ``repro`` logger hierarchy to ``stream`` (default stderr).

    ``verbosity`` counts ``-v`` flags: 0 = warnings only (the default —
    quiet, like before the logging pass), 1 = INFO (per-phase progress),
    2+ = DEBUG (per-chunk detail).  Returns the resolved level.

    Only the ``repro`` logger is configured — not the root logger — so
    embedding applications keep full control; calling again replaces the
    handler instead of stacking duplicates.
    """
    level = _LEVELS.get(min(int(verbosity), 2), logging.DEBUG)
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_cli", False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    handler._repro_cli = True  # type: ignore[attr-defined]
    logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False
    return level


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """The ``repro`` logger (or a child); convenience for examples."""
    return logging.getLogger(name or "repro")


__all__.append("get_logger")

"""Command-line interface for the ParaDL reproduction.

The paper positions ParaDL as a practitioner's utility ("suggesting the
best strategy for a given CNN, dataset and resource budget", "identifying
the time and resources to provision").  This CLI exposes those workflows:

.. code-block:: console

   python -m repro project  --model resnet50 --strategy d  -p 64 --batch 2048
   python -m repro project  --scenario examples/scenarios/project_resnet50.yaml
   python -m repro project  --scenario plan.yaml -p 256 --json
   python -m repro suggest  --model vgg16 -p 64 --samples-per-pe 32
   python -m repro hybrid   --model vgg16 -p 64
   python -m repro search   --model resnet50 -p 64 --cache plan-cache.json
   python -m repro search   --scenario examples/scenarios/comm_policy_ablation.yaml
   python -m repro sweep    --models resnet50,resnet152,vgg16 -p 64 \
                            --cache-dir plan-cache \
                            --report reports/
   python -m repro simulate --model resnet50 --strategy d -p 64 --batch 2048
   python -m repro validate --scenario examples/scenarios/*.yaml
   python -m repro experiment fig5

Every subcommand accepts ``--scenario FILE`` — a YAML/JSON
:class:`~repro.api.spec.ScenarioSpec` document — and becomes a thin
adapter over :class:`~repro.api.session.Session`: the scenario supplies
the request, explicitly-given flags override individual fields, and the
session answers.  ``--json`` payloads are the result objects'
``to_dict()`` — every one carries ``schema_version``, ``kind``, and a
``scenario`` echo of the fully-resolved request.

Plain-text tables come from :mod:`repro.harness.reporting`; exit codes
are non-zero on infeasible/failed configurations.  Under ``--json``,
``--stream`` rows go to *stderr* so stdout stays a single parseable
JSON document; without ``--json`` they are printed to stdout, flushed
line-by-line, so piped consumers see anytime results as they land.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from typing import Dict, List, Optional, Sequence

from .api.session import Session
from .api.spec import (
    POLICIES,
    STRATEGY_IDS,
    Scenario,
    ScenarioSpec,
    ScenarioValidationError,
    parse_comm_algo,
)
from .core.strategies import StrategyError
from .data.datasets import DATASETS
from .faults import DeadlineExceeded, arm_from_env
from .harness import reporting
from .models import MODEL_BUILDERS

__all__ = ["main", "build_parser"]

#: Strategy ids offered by ``--strategy`` — the spec layer's list, so
#: scenario documents and flags can never drift apart.
_STRATEGY_CHOICES = STRATEGY_IDS


def build_parser(
    suppress_defaults: bool = False,
) -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands.

    ``suppress_defaults=True`` builds the same tree with
    ``argparse.SUPPRESS`` defaults everywhere; parsing with it reveals
    which flags the user *explicitly* typed — that set, and only that
    set, overrides fields of a ``--scenario`` document.
    """
    kw: Dict[str, object] = (
        {"argument_default": argparse.SUPPRESS} if suppress_defaults else {}
    )

    def opt(p: argparse.ArgumentParser, *names: str, **kwargs) -> None:
        """``add_argument`` that honors ``suppress_defaults``.

        ``argument_default=SUPPRESS`` only kicks in for arguments that
        pass no ``default`` of their own, so the suppressed tree must
        drop the per-argument defaults for explicit-flag detection to
        see anything.
        """
        if suppress_defaults:
            kwargs.pop("default", None)
        p.add_argument(*names, **kwargs)

    def parent() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, **kw)

    # ----------------------------------------------------- shared parents
    scenario_p = parent()
    opt(scenario_p,
        "--scenario", default=None, metavar="FILE",
        help="YAML/JSON scenario document supplying every field below; "
             "explicitly-given flags override it")

    model_p = parent()
    opt(model_p, "--model", default="resnet50",
        choices=sorted(MODEL_BUILDERS))

    budget_p = parent()
    opt(budget_p, "-p", "--pes", type=int, default=64,
        help="number of processing elements (GPUs)")
    opt(budget_p, "--dataset", default="imagenet",
        choices=sorted(DATASETS))
    opt(budget_p, "--samples-per-pe", type=int, default=32)
    opt(budget_p, "--gamma", type=float, default=0.5,
        help="memory-reuse factor")
    opt(budget_p, "--optimizer", default="sgd",
        choices=("sgd", "momentum", "adam"))

    json_p = parent()
    json_p.add_argument("--json", action="store_true",
                        help="machine-readable JSON output (a "
                             "schema-versioned result document with a "
                             "scenario echo)")

    def comm_parent(multi: bool = False) -> argparse.ArgumentParser:
        p = parent()
        opt(p,
            "--comm-policy", default="paper",
            help="collective algorithm selection policy: "
                 f"{'/'.join(POLICIES)}"
                 + (", or a comma-separated list to sweep" if multi else ""),
        )
        opt(p,
            "--comm-algo", default=None, metavar="SPEC",
            help="force collective algorithms, e.g. 'recursive-doubling' "
                 "(applies to allreduce) or "
                 "'allreduce=tree,broadcast=binomial-tree'",
        )
        return p

    def search_parent() -> argparse.ArgumentParser:
        """Space + engine flags shared by ``search`` and ``sweep``."""
        p = parent()
        opt(p, "--strategies", default=None,
            help="comma-separated strategy ids (default: all)")
        p.add_argument("--pe-sweep", action="store_true",
                       help="sweep power-of-two PE budgets up to -p")
        p.add_argument("--exhaustive", action="store_true",
                       help="search every PE count up to -p and the "
                            "full hybrid divisor lattice (vectorized "
                            "projection keeps this affordable)")
        opt(p, "--segments", default="2,4,8",
            help="pipeline micro-batch counts to try")
        opt(p, "--workers", default=None,
            help="evaluation worker-pool width, or (with --executor "
                 "remote) comma-separated host:port worker addresses, "
                 "e.g. 'a:8178,b:8178'")
        # Validated by the scenario layer, whose error names the
        # removed process executor's replacements.
        opt(p, "--executor", default="thread", metavar="{thread,remote}",
            help="evaluation backend: in-process threads (default), "
                 "or a remote 'repro worker' fleet (--workers "
                 "host:port,...) to scale out")
        opt(p, "--cache-dir", default=None, metavar="DIR",
            help="shared cross-model cache directory (one "
                 "fingerprinted file per model/cluster)")
        opt(p, "--weights", default=None,
            help="scalarization weights, e.g. "
                 "'epoch_time=1,memory=0.2,pes=0.1'")
        p.add_argument("--stream", action="store_true",
                       help="anytime search: print frontier rows "
                            "incrementally, flushed line-by-line "
                            "(to stderr under --json so stdout stays "
                            "parseable)")
        p.add_argument("--profile", action="store_true",
                       help="print a stage-timing table (space expansion "
                            "/ pruning / projection / ranking / "
                            "persistence) to stderr")
        opt(p, "--deadline-s", type=float, default=None, metavar="S",
            help="abort with an error once the run exceeds this wall "
                 "budget (polled per evaluation chunk / sweep cell)")
        return p

    obs_p = parent()
    opt(obs_p, "--trace", default=None, metavar="PATH",
        help="write an execution trace: Chrome trace-event JSON "
             "(load in Perfetto / chrome://tracing), or a JSONL "
             "event log when PATH ends in .jsonl")
    obs_p.add_argument("--metrics", action="store_true",
                       help="collect run counters/histograms; prints a "
                            "table to stderr, or adds a 'diagnostics' "
                            "block to the --json envelope")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="ParaDL oracle: project/suggest/simulate CNN "
                    "parallelization strategies",
        **kw,
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log progress from the repro.* logger hierarchy to stderr "
             "(-v: INFO, -vv: DEBUG); give before the subcommand")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help: str, *parents) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, parents=list(parents), **kw)

    proj = add("project", "project one strategy (Table 3)",
               scenario_p, model_p, budget_p, comm_parent(), json_p, obs_p)
    opt(proj, "--strategy", default="d", choices=_STRATEGY_CHOICES)
    opt(proj, "--batch", type=int, default=None,
        help="global mini-batch (default: samples-per-pe * p)")
    opt(proj, "--segments", type=int, default=4,
        help="pipeline micro-batches S")
    proj.add_argument("--inference", action="store_true",
                      help="forward-only projection (Section 5.4.2)")
    proj.add_argument("--findings", action="store_true",
                      help="also run the Table-6 limitation detector")

    add("suggest", "rank all strategies for a budget",
        scenario_p, model_p, budget_p, comm_parent(), json_p)

    hyb = add("hybrid", "search (p1, p2) hybrid configs",
              scenario_p, model_p, budget_p, comm_parent(), json_p)
    opt(hyb, "--kinds", default="df,ds")
    opt(hyb, "--top", type=int, default=5)

    srch = add("search",
               "automated strategy search: pruning + cache + Pareto "
               "frontier",
               scenario_p, model_p, budget_p, search_parent(),
               comm_parent(multi=True), json_p, obs_p)
    opt(srch, "--cache", default=None, metavar="PATH",
        help="persistent projection-cache JSON file")
    opt(srch, "--top", type=int, default=10,
        help="frontier rows to print")
    opt(srch, "--frontier-csv", default=None, metavar="PATH",
        help="export the Pareto frontier as CSV")

    swp = add("sweep",
              "multi-model sweep: one search per zoo model, "
              "consolidated frontier report",
              scenario_p, budget_p, search_parent(),
              json_p, obs_p)
    opt(swp, "--models", default="resnet50,resnet152,vgg16",
        help="comma-separated zoo model names")
    opt(swp, "--report", default=None, metavar="DIR",
        help="write per-model frontier CSVs + cross-model "
             "summary.csv here")
    swp.add_argument("--plot", action="store_true",
                     help="also write a frontier plot to the --report dir "
                          "(needs matplotlib; skipped quietly without it)")
    opt(swp, "--top", type=int, default=5,
        help="frontier rows to print per model")
    opt(swp, "--comm-policy", default=None,
        help="comm policies to sweep per candidate, "
                          f"comma-separated from {'/'.join(POLICIES)} "
                          "(default: the oracle's paper policy)")
    opt(swp, "--checkpoint", default=None, metavar="PATH",
        help="append each finished model to this journal "
             "(crash-safe; see docs/resilience.md)")
    swp.add_argument("--resume", action="store_true",
                     help="replay models already in --checkpoint instead "
                          "of re-searching them (artifacts stay "
                          "byte-identical to an uninterrupted run)")

    plan = add("plan", "per-layer strategy assignment (DP)",
               scenario_p, model_p, budget_p)
    opt(plan, "--batch", type=int, default=None)

    simp = add("simulate", "simulated measured run vs projection",
               scenario_p, model_p, budget_p, json_p, obs_p)
    opt(simp, "--strategy", default="d", choices=_STRATEGY_CHOICES)
    opt(simp, "--batch", type=int, default=None)
    opt(simp, "--segments", type=int, default=4)
    opt(simp, "--iterations", type=int, default=50)
    simp.add_argument("--congestion", action="store_true",
                      help="inject external congestion (Figure 6)")
    opt(simp, "--seed", type=int, default=42)

    val = sub.add_parser("validate",
                         help="value-by-value substrate validation, or "
                              "--scenario schema validation", **kw)
    opt(val, "--p", type=int, default=4)
    opt(val, "--batch", type=int, default=8)
    opt(val, "--scenario", nargs="+", default=None, metavar="FILE",
        help="validate scenario documents instead of the "
             "execution substrate")

    exp = add("experiment", "run a paper experiment", scenario_p)
    exp.add_argument("name", choices=(
        "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
        "table3", "table5", "table6", "accuracy", "search", "sweep",
        "scenario",
    ))
    exp.add_argument("--full", action="store_true",
                     help="full sweep instead of the quick grid")

    srv = add("serve",
              "HTTP planning server: Session verbs over the --json "
              "wire contract (docs/serving.md)")
    opt(srv, "--host", default="127.0.0.1",
        help="bind address (default: loopback only)")
    opt(srv, "--port", type=int, default=8177,
        help="listen port (0 picks an ephemeral port)")
    opt(srv, "--pool-size", type=int, default=32,
        help="distinct scenarios kept live (LRU beyond this)")
    opt(srv, "--cache-dir", default=None, metavar="DIR",
        help="shared projection-cache directory for pooled sessions")
    opt(srv, "--job-workers", type=int, default=2,
        help="worker threads for async /v1/jobs verbs")
    opt(srv, "--job-max-pending", type=int, default=None,
        help="reject job submissions with 503 + Retry-After once this "
             "many are in flight (default: unbounded)")
    opt(srv, "--request-deadline-s", type=float, default=None, metavar="S",
        help="per-request wall budget; exceeding it returns 504 "
             "(clients may request less via X-Repro-Deadline-S)")

    wrk = add("worker",
              "distributed-search worker: evaluates candidate chunks "
              "for remote coordinators (docs/distributed.md)")
    opt(wrk, "--bind", default="127.0.0.1:8178", metavar="HOST:PORT",
        help="listen address; port 0 picks an ephemeral port "
             "(default: 127.0.0.1:8178 — loopback only; bind a "
             "routable address only on a trusted network)")

    bsrv = add("bench-serve",
               "closed-loop load harness against an in-process server: "
               "p50/p90/p99 latency + RPS")
    opt(bsrv, "--clients", type=int, default=4,
        help="concurrent closed-loop client threads")
    opt(bsrv, "--duration", type=float, default=2.0,
        help="seconds of sustained load")
    opt(bsrv, "--pool-size", type=int, default=32)
    opt(bsrv, "--cache-dir", default=None, metavar="DIR")
    opt(bsrv, "--timeout", type=float, default=30.0,
        help="per-request client timeout in seconds (connect and read)")
    opt(bsrv, "--report", default=None, metavar="PATH",
        help="write a BENCH_serve.json envelope here "
             "(scripts/check_perf_regression.py compatible)")
    return parser


# ---------------------------------------------------------------------------
# Scenario assembly: file (if any) + explicitly-typed flag overrides.
# ---------------------------------------------------------------------------

def _split_csv(raw: str) -> List[str]:
    return [s.strip() for s in raw.split(",") if s.strip()]


def _parse_weights(spec: Optional[str]) -> Optional[dict]:
    if not spec:
        return None
    weights = {}
    for item in spec.split(","):
        if not item.strip():
            continue
        name, _, value = item.partition("=")
        try:
            weights[name.strip()] = float(value) if value else 1.0
        except ValueError:
            raise ScenarioValidationError(
                "search.weights",
                f"--weights takes name=number pairs, got {item!r}") from None
    return weights or None


def _set(overrides: Dict, section: str, key: str, value) -> None:
    overrides.setdefault(section, {})[key] = value


def _common_overrides(args) -> Dict[str, dict]:
    """Model/cluster/training overrides for explicitly-typed flags."""
    explicit = args._explicit
    o: Dict[str, dict] = {}
    if "model" in explicit:
        _set(o, "model", "name", args.model)
    if "pes" in explicit:
        _set(o, "cluster", "pes", args.pes)
    for dest, key in (("dataset", "dataset"),
                      ("samples_per_pe", "samples_per_pe"),
                      ("gamma", "gamma"),
                      ("optimizer", "optimizer"),
                      ("batch", "batch")):
        if dest in explicit:
            _set(o, "training", key, getattr(args, dest))
    return o


def _comm_overrides(args, overrides: Dict, *, multi: bool = False) -> None:
    """Fold ``--comm-policy`` / ``--comm-algo`` into the overrides.

    ``multi=True`` (search/sweep) routes a comma-separated policy list
    into the ``search.comm_policies`` dimension; everywhere else a list
    is an error — only search opens the policy as a dimension.
    """
    explicit = args._explicit
    if "comm_policy" in explicit and args.comm_policy is not None:
        policies = _split_csv(args.comm_policy)
        bad = sorted(set(policies) - set(POLICIES))
        if bad:
            # SystemExit(2), not a return code: the legacy contract for
            # malformed comm flags, which callers and tests rely on.
            print(f"error: unknown comm policy {bad[0]!r}; choose from "
                  f"{sorted(POLICIES)}", file=sys.stderr)
            raise SystemExit(2)
        if len(policies) > 1 and not multi:
            print("error: only 'search' sweeps several comm policies; "
                  "give a single --comm-policy here", file=sys.stderr)
            raise SystemExit(2)
        if len(policies) > 1 or (multi and args.command == "sweep"):
            _set(overrides, "search", "comm_policies", policies)
        elif policies:
            _set(overrides, "comm", "policy", policies[0])
            if multi:
                # An explicit single policy pins the whole search run —
                # it must also clear a scenario file's multi-policy
                # sweep dimension, or the pin would silently lose.
                _set(overrides, "search", "comm_policies", [])
    if "comm_algo" in explicit and args.comm_algo is not None:
        _set(overrides, "comm", "algo", parse_comm_algo(args.comm_algo))


def _search_overrides(args, overrides: Dict) -> None:
    """Fold the shared search/sweep space + engine flags in."""
    explicit = args._explicit
    if "strategies" in explicit and args.strategies is not None:
        _set(overrides, "search", "strategies", _split_csv(args.strategies))
    if "pe_sweep" in explicit:
        _set(overrides, "search", "pe_sweep", bool(args.pe_sweep))
    if "exhaustive" in explicit:
        _set(overrides, "search", "exhaustive", bool(args.exhaustive))
    if "segments" in explicit:
        try:
            segments = [int(s) for s in _split_csv(args.segments)]
        except ValueError:
            raise ScenarioValidationError(
                "search.segments",
                f"--segments takes comma-separated integers, "
                f"got {args.segments!r}") from None
        _set(overrides, "search", "segments", segments)
    if "workers" in explicit and args.workers is not None:
        # One flag, two spellings: an integer is the local pool width;
        # anything with a ':' is a remote worker address list.
        if ":" in str(args.workers):
            _set(overrides, "search", "remote_workers",
                 _split_csv(str(args.workers)))
        else:
            try:
                _set(overrides, "search", "workers", int(args.workers))
            except ValueError:
                raise ScenarioValidationError(
                    "search.workers",
                    f"--workers takes an integer pool width or "
                    f"comma-separated host:port addresses, "
                    f"got {args.workers!r}") from None
    if "executor" in explicit:
        _set(overrides, "search", "executor", args.executor)
    if "cache_dir" in explicit and args.cache_dir is not None:
        _set(overrides, "search", "cache_dir", args.cache_dir)
    if getattr(args, "cache", None) is not None and "cache" in explicit:
        _set(overrides, "search", "cache", args.cache)
    if "weights" in explicit and args.weights is not None:
        _set(overrides, "search", "weights", _parse_weights(args.weights))


def _strategy_overrides(args, overrides: Dict) -> None:
    explicit = args._explicit
    if "strategy" in explicit:
        _set(overrides, "strategy", "id", args.strategy)
    if "segments" in explicit:
        _set(overrides, "strategy", "segments", args.segments)


def _load_scenario(args, overrides: Dict, *,
                   ensure: Sequence[str] = ()) -> ScenarioSpec:
    """File (or empty) scenario + flag overrides, re-validated.

    ``ensure`` names optional sections the command needs materialized
    (``"strategy"`` for project/simulate, ``"search"``/``"sweep"`` for
    the search commands), so the scenario echo is self-describing even
    when every field is a default.
    """
    base = (
        Scenario.from_file(args.scenario)
        if getattr(args, "scenario", None)
        else Scenario.from_dict({})
    )
    scenario = base.merged(overrides) if overrides else base
    missing = {
        section: {} for section in ensure
        if getattr(scenario, section) is None
    }
    if missing:
        scenario = scenario.merged(missing)
    return scenario


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------

def _print_json(result, diagnostics: Optional[dict] = None) -> int:
    blob = result.to_dict()
    if diagnostics is not None:
        # Injected at the CLI layer only when --metrics asked for it,
        # so the result schema stays stable by default.
        blob["diagnostics"] = diagnostics
    print(json.dumps(blob, indent=2))
    return result.exit_code


def _obs_session(args, scenario) -> Session:
    """Build the command's Session, observability-enabled when asked.

    ``--trace`` turns on a live :class:`~repro.obs.tracer.Tracer`;
    ``--trace`` or ``--metrics`` attaches a fresh
    :class:`~repro.obs.metrics.MetricsRegistry` (the trace file embeds
    the counters too).  Without either flag the session runs on the
    shared no-op tracer — the zero-overhead default.
    """
    from .obs import MetricsRegistry, Tracer

    trace = getattr(args, "trace", None)
    want_metrics = bool(getattr(args, "metrics", False))
    return Session(
        scenario,
        tracer=Tracer() if trace else None,
        metrics=MetricsRegistry() if (trace or want_metrics) else None,
    )


def _obs_finish(args, session: Session) -> Optional[dict]:
    """Export/print what ``--trace`` / ``--metrics`` asked for.

    Writes the trace file (Chrome trace-event JSON, or JSONL for a
    ``.jsonl`` path), prints the span/metrics tables to stderr under
    plain ``--metrics``, and returns the ``diagnostics`` block to embed
    in the ``--json`` envelope (``None`` when not requested).
    """
    from .obs.export import (
        format_metrics_table,
        format_spans_table,
        write_chrome_trace,
        write_jsonl,
    )

    trace = getattr(args, "trace", None)
    if trace:
        spans = session.tracer.spans
        if trace.endswith(".jsonl"):
            write_jsonl(trace, spans=spans, metrics=session.metrics)
        else:
            write_chrome_trace(trace, spans=spans, metrics=session.metrics)
        print(f"trace: {trace}", file=sys.stderr)
    if not getattr(args, "metrics", False):
        return None
    if getattr(args, "json", False):
        return session.diagnostics()
    if session.tracer.enabled and len(session.tracer):
        print(format_spans_table(session.tracer.spans), file=sys.stderr)
    print(format_metrics_table(session.metrics), file=sys.stderr)
    return None


def _error_blob(scenario: ScenarioSpec, kind: str, exc: Exception) -> dict:
    """The JSON error envelope for infeasible configurations.

    Shared with the HTTP server (422 bodies), so CLI and service
    consumers parse one shape — see :func:`repro.api.results.
    error_envelope`.
    """
    from .api.results import error_envelope

    return error_envelope(scenario, kind, exc)


def _invoke(verb):
    """Run a session verb; ``None`` means a bad configuration (exit 2).

    Construction and evaluation errors (the legacy ``_make_oracle`` /
    search-invocation catch scope) print ``error:`` and map to exit 2;
    rendering stays outside this catch, so defects there still raise
    visibly instead of masquerading as user mistakes.
    """
    try:
        return verb()
    except ScenarioValidationError:
        raise
    except DeadlineExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return None


def _suggestion_rows(suggestions) -> List[list]:
    rows = []
    for s in suggestions:
        if s.feasible:
            rows.append([s.rank, s.strategy.describe(),
                         f"{s.epoch_time:.1f} s",
                         f"{s.projection.memory_bytes / 1e9:.1f} GB"])
        else:
            rows.append(["-", s.strategy.describe() if s.strategy else "?",
                         "infeasible", s.reason])
    return rows


class _FrontierStream:
    """Anytime-search printer: maintains a running Pareto frontier and
    prints a row the moment an evaluation enters it.  Printed rows are a
    superset of the final frontier (later arrivals can dominate earlier
    prints, which is inherent to anytime output).

    Rows go to ``file`` — stderr under ``--json`` so stdout stays a
    single parseable document, stdout otherwise — and every row is
    flushed as it is written, so piped consumers (``repro search
    --stream | head``) see anytime results immediately instead of after
    a block-buffer fills."""

    def __init__(self, objectives=None, file=None, prefix: str = "") -> None:
        from .search.pareto import DEFAULT_OBJECTIVES, OBJECTIVES

        self._names = tuple(objectives or DEFAULT_OBJECTIVES)
        self._vec = lambda e: tuple(OBJECTIVES[n](e) for n in self._names)
        self._frontier = []  # [(vector, evaluation)]
        self._file = file  # None = stdout (resolved at print time)
        self._prefix = prefix
        self.seen = 0

    def __call__(self, evaluation) -> None:
        from .search.pareto import dominates

        self.seen += 1
        if not evaluation.feasible:
            return
        v = self._vec(evaluation)
        if any(dominates(w, v) or w == v for w, _ in self._frontier):
            return
        self._frontier = [
            (w, e) for w, e in self._frontier if not dominates(v, w)
        ]
        self._frontier.append((v, evaluation))
        out = self._file if self._file is not None else sys.stdout
        print(f"{self._prefix}[{self.seen}] {evaluation.describe()} "
              f"epoch={evaluation.epoch_time:.1f}s "
              f"iter={evaluation.iteration_time * 1e3:.1f}ms "
              f"mem={evaluation.memory_gb:.1f}GB "
              f"(frontier {len(self._frontier)})",
              file=out, flush=True)


def _print_profile(timings: Dict[str, float], file=None) -> None:
    """Render a search's stage-timing table (the ``--profile`` flag).

    One row per pipeline stage from ``SearchReport.timings`` plus the
    unattributed remainder; written to ``file`` (stderr by default so
    ``--json`` stdout stays parseable).  Pruning/projection are busy
    times summed across workers, so shares are computed against the
    larger of the wall total and the stage sum — with several threads
    the busy sum can exceed the wall clock, like cProfile's cumtime.
    """
    from .search.engine import TIMING_STAGES

    out = file if file is not None else sys.stderr
    total = float(timings.get("total_s", 0.0))
    known = sum(
        float(timings.get(key, 0.0))
        for key in TIMING_STAGES if key != "total_s"
    )
    denom = max(total, known)
    rows = []
    for key in TIMING_STAGES:
        if key == "total_s":
            continue
        v = float(timings.get(key, 0.0))
        rows.append([key[:-2].replace("_", " "), f"{v * 1e3:.2f}",
                     f"{v / denom:.1%}" if denom else "-"])
    other = max(total - known, 0.0)
    rows.append(["other", f"{other * 1e3:.2f}",
                 f"{other / denom:.1%}" if denom else "-"])
    rows.append(["total (wall)", f"{total * 1e3:.2f}",
                 f"{total / denom:.1%}" if denom else "-"])
    print("search stage timings:", file=out)
    print(reporting.format_table(["stage", "ms", "share"], rows), file=out)


# ---------------------------------------------------------------------------
# Subcommands — thin adapters: flags -> scenario -> Session -> result.
# ---------------------------------------------------------------------------

def _cmd_project(args) -> int:
    overrides = _common_overrides(args)
    _comm_overrides(args, overrides)
    _strategy_overrides(args, overrides)
    scenario = _load_scenario(args, overrides, ensure=("strategy",))
    session = _obs_session(args, scenario)
    try:
        result = session.project(inference=args.inference,
                                 findings=args.findings)
    except ScenarioValidationError:
        raise  # a document defect, not an infeasible configuration
    except (StrategyError, ValueError) as exc:
        if args.json:
            print(json.dumps(_error_blob(scenario, "project", exc)))
        else:
            print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    diagnostics = _obs_finish(args, session)
    if args.json:
        return _print_json(result, diagnostics)
    proj = result.projection
    it = proj.per_iteration
    print(f"{session.model.name} / {result.strategy.describe()} / "
          f"B={result.batch} on {session.cluster}")
    print(reporting.format_breakdown(it))
    print(f"memory: {proj.memory_bytes / 1e9:.2f} GB/PE "
          f"(capacity {proj.memory_capacity / 1e9:.0f} GB) "
          f"{'OK' if proj.feasible_memory else 'OUT OF MEMORY'}")
    print(f"epoch: {proj.per_epoch.total:.1f} s "
          f"({proj.iterations} iterations)")
    if proj.comm_algorithms:
        chosen = ", ".join(f"{ph}={al}" for ph, al in proj.comm_algorithms)
        print(f"comm: policy={proj.comm_policy} ({chosen})")
    for note in proj.notes:
        print(f"note: {note}")
    for f in result.findings:
        print(f"finding: {f}")
    return result.exit_code


def _cmd_suggest(args) -> int:
    overrides = _common_overrides(args)
    _comm_overrides(args, overrides)
    session = Session(_load_scenario(args, overrides))
    result = _invoke(session.suggest)
    if result is None:
        return 2
    if args.json:
        return _print_json(result)
    print(reporting.format_table(
        ["rank", "strategy", "epoch", "memory / reason"],
        _suggestion_rows(result.suggestions)))
    return 0


def _cmd_hybrid(args) -> int:
    overrides = _common_overrides(args)
    _comm_overrides(args, overrides)
    session = Session(_load_scenario(args, overrides))
    kinds = tuple(_split_csv(args.kinds))
    result = _invoke(lambda: session.hybrid(kinds=kinds, top=args.top))
    if result is None:
        return 2
    if args.json:
        return _print_json(result)
    rows = _suggestion_rows(
        [s for s in result.suggestions[: args.top] if s.feasible])
    print(reporting.format_table(["rank", "config", "epoch", "memory"], rows))
    if result.infeasible_count:
        print(f"({result.infeasible_count} configurations infeasible)")
    return 0


def _cmd_search(args) -> int:
    overrides = _common_overrides(args)
    _comm_overrides(args, overrides, multi=True)
    _search_overrides(args, overrides)
    scenario = _load_scenario(args, overrides, ensure=("search",))
    session = _obs_session(args, scenario)
    # With --json the rows stream to stderr so stdout stays parseable.
    stream = (
        _FrontierStream(file=sys.stderr if args.json else None)
        if args.stream else None
    )
    result = _invoke(lambda: session.search(
        on_result=stream, deadline_s=args.deadline_s))
    if result is None:
        return 2
    report = result.report
    if args.frontier_csv:
        from .search.sweep import write_frontier_csv

        write_frontier_csv(args.frontier_csv, report)
    if args.profile:
        _print_profile(report.timings)
    diagnostics = _obs_finish(args, session)
    if args.json:
        return _print_json(result, diagnostics)
    st = report.stats
    print(f"{session.model.name} on {session.cluster}: searched "
          f"{st['candidates']} candidates ({st['pruned']} pruned, "
          f"{st['infeasible']} infeasible, {st['cache_hits']} cache hits)")
    if report.best is None:
        print("no feasible configuration found", file=sys.stderr)
        return 1
    rows = [
        [i + 1, e.describe(), f"{e.epoch_time:.1f} s",
         f"{e.iteration_time * 1e3:.1f} ms", f"{e.memory_gb:.1f} GB",
         e.candidate.p]
        for i, e in enumerate(report.frontier[: args.top])
    ]
    print(reporting.format_table(
        ["#", "config", "epoch", "iteration", "memory", "p"], rows))
    if len(report.frontier) > args.top:
        print(f"({len(report.frontier) - args.top} more frontier points)")
    print(f"best: {report.best.describe()} "
          f"epoch={report.best.epoch_time:.1f} s "
          f"memory={report.best.memory_gb:.1f} GB")
    search_spec = scenario.search
    if search_spec.cache:
        print(f"cache: {search_spec.cache}")
    if args.frontier_csv:
        print(f"frontier csv: {args.frontier_csv}")
    return 0


def _cmd_sweep(args) -> int:
    overrides = _common_overrides(args)
    _comm_overrides(args, overrides, multi=True)
    _search_overrides(args, overrides)
    explicit = args._explicit
    if "models" in explicit:
        _set(overrides, "sweep", "models", _split_csv(args.models))
    if "report" in explicit and args.report is not None:
        _set(overrides, "sweep", "report_dir", args.report)
    if "plot" in explicit:
        _set(overrides, "sweep", "plot", bool(args.plot))
    scenario = _load_scenario(args, overrides, ensure=("sweep", "search"))
    session = _obs_session(args, scenario)
    streams: dict = {}

    def on_result(model, evaluation) -> None:
        if model not in streams:
            streams[model] = _FrontierStream(
                file=sys.stderr if args.json else None,
                prefix=f"{model} ")
        streams[model](evaluation)

    if args.resume and args.checkpoint is None:
        print("error: --resume needs --checkpoint", file=sys.stderr)
        return 2
    result = _invoke(
        lambda: session.sweep(
            on_result=on_result if args.stream else None,
            checkpoint=args.checkpoint, resume=args.resume,
            deadline_s=args.deadline_s))
    if result is None:
        return 2
    report = result.report
    if args.profile:
        # One table: stages summed across the swept models.
        aggregate: Dict[str, float] = {}
        for res in report.results:
            for key, value in res.report.timings.items():
                aggregate[key] = aggregate.get(key, 0.0) + value
        _print_profile(aggregate)
    diagnostics = _obs_finish(args, session)
    if args.json:
        return _print_json(result, diagnostics)
    executor = scenario.search.executor or "thread"
    rows = []
    for res, row in zip(report.results, report.summary_rows()):
        feasible = res.best is not None
        rows.append([
            row["model"], row["best"],
            f"{row['epoch_s']:.1f} s" if feasible else "-",
            f"{row['memory_gb']:.1f} GB" if feasible else "-",
            row["frontier"], row["candidates"], row["cache_hits"],
            f"{row['seconds']:.2f} s",
        ])
    print(f"swept {len(report.results)} models on {session.cluster} "
          f"({executor} executor, {report.seconds:.2f} s total)")
    print(reporting.format_table(
        ["model", "best", "epoch", "memory", "frontier", "cands",
         "cache hits", "wall"], rows))
    for res in report.results:
        for i, e in enumerate(res.report.frontier[: args.top]):
            print(f"  {res.model} #{i + 1}: {e.describe()} "
                  f"epoch={e.epoch_time:.1f}s mem={e.memory_gb:.1f}GB")
    best = report.best_overall
    if best is not None:
        print(f"fastest model: {best.model} — {best.best.describe()} "
              f"epoch={best.best.epoch_time:.1f} s")
    if scenario.search.cache_dir:
        print(f"cache dir: {scenario.search.cache_dir}")
    for name, path in sorted(report.artifacts.items()):
        print(f"artifact {name}: {path}")
    return result.exit_code


def _cmd_plan(args) -> int:
    overrides = _common_overrides(args)
    session = Session(_load_scenario(args, overrides))
    batch = session.batch
    plan = _invoke(lambda: session.oracle.plan_layerwise(session.pes, batch))
    if plan is None:
        return 2
    print(f"{session.model.name} / p={session.pes} / B={batch}: "
          f"per-layer plan ({plan.per_iteration.total * 1e3:.1f} ms/iter)")
    print("mode counts:", dict(sorted(plan.mode_counts.items())))
    rows = [
        [a.layer, a.mode, f"{a.comp_s * 1e3:.2f}", f"{a.comm_s * 1e3:.2f}",
         f"{a.transition_s * 1e3:.2f}"]
        for a in plan.assignments if a.mode != "data"
    ]
    if rows:
        print("non-data-parallel layers:")
        print(reporting.format_table(
            ["layer", "mode", "comp (ms)", "comm (ms)", "redecomp (ms)"],
            rows))
    return 0


def _cmd_simulate(args) -> int:
    overrides = _common_overrides(args)
    _strategy_overrides(args, overrides)
    scenario = _load_scenario(args, overrides, ensure=("strategy",))
    session = _obs_session(args, scenario)
    try:
        result = session.simulate(iterations=args.iterations,
                                  congestion=args.congestion,
                                  seed=args.seed)
    except ScenarioValidationError:
        raise  # a document defect, not an infeasible configuration
    except (StrategyError, ValueError) as exc:
        if args.json:
            print(json.dumps(_error_blob(scenario, "simulate", exc)))
        else:
            print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    diagnostics = _obs_finish(args, session)
    if args.json:
        return _print_json(result, diagnostics)
    print(f"oracle   : "
          f"{reporting.format_breakdown(result.projection.per_iteration)}")
    print(f"measured : {reporting.format_breakdown(result.run.breakdown)}")
    print(f"accuracy : {reporting.pct(result.accuracy)}")
    for note in result.run.notes:
        print(f"note: {note}")
    return 0


def _cmd_validate(args) -> int:
    if args.scenario:
        failed = 0
        for path in args.scenario:
            try:
                spec = Scenario.from_file(path)
            except ScenarioValidationError as exc:
                print(f"{path}: INVALID — {exc}", file=sys.stderr)
                failed += 1
                continue
            print(f"{path}: OK ({spec.describe()})")
        return 1 if failed else 0
    from .models import toy_cnn, toy_cnn3d
    from .tensorparallel import (
        ChannelParallelExecutor,
        DataFilterExecutor,
        DataParallelExecutor,
        FilterParallelExecutor,
        PipelineExecutor,
        SpatialParallelExecutor,
    )
    from .tensorparallel.validate import validate_strategy

    model2d, model3d = toy_cnn(), toy_cnn3d()
    cases = [
        (model2d, DataParallelExecutor, args.p, {}),
        (model2d, SpatialParallelExecutor, args.p, {}),
        (model2d, FilterParallelExecutor, args.p, {}),
        (model2d, ChannelParallelExecutor, args.p, {}),
        (model2d, PipelineExecutor, min(args.p, 3), {"segments": 4}),
        (model2d, DataFilterExecutor, 2, {"p2": 2}),
        (model3d, DataParallelExecutor, 2, {}),
        (model3d, SpatialParallelExecutor, 2, {}),
    ]
    failed = 0
    for model, cls, p, kwargs in cases:
        report = validate_strategy(model, cls, p, batch=args.batch,
                                   executor_kwargs=kwargs)
        print(report)
        failed += 0 if report.ok else 1
    return 1 if failed else 0


def _cmd_experiment(args) -> int:
    from .harness import (
        run_accuracy_summary, run_fig3, run_fig4, run_fig5, run_fig6,
        run_fig7, run_fig8, run_scenario, run_search_best, run_sweep,
        run_table3, run_table5, run_table6,
    )

    quick = not args.full
    name = args.name
    if name == "scenario":
        if not getattr(args, "scenario", None):
            print("error: 'experiment scenario' needs --scenario FILE",
                  file=sys.stderr)
            return 2
        try:
            result = run_scenario(args.scenario)
        except ScenarioValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (StrategyError, ValueError) as exc:
            print(f"infeasible: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(result.to_dict(), indent=2))
        return result.exit_code
    if name == "fig3":
        for c in run_fig3(quick=quick):
            print(f"{c.label:28s} oracle={c.oracle.total * 1e3:9.2f}ms "
                  f"measured={c.measured.total * 1e3:9.2f}ms "
                  f"acc={reporting.pct(c.accuracy)}")
    elif name == "fig4":
        for r in run_fig4():
            print(f"p={r.p:4d} oracle={r.oracle_iter:.3f}s "
                  f"measured={r.measured_iter:.3f}s "
                  f"acc={reporting.pct(r.accuracy)}")
    elif name == "fig5":
        for r in run_fig5():
            print(f"{r.strategy:3s} p={r.p:4d} epoch={r.epoch_time:8.1f}s "
                  f"speedup={r.speedup_vs_spatial:5.1f}x "
                  f"{'OK' if r.feasible else 'OOM'}")
    elif name == "fig6":
        import numpy as np

        for s in run_fig6():
            print(f"{s.label:20s} expected={s.expected * 1e3:8.2f}ms "
                  f"median={np.median(s.samples) * 1e3:8.2f}ms "
                  f"worst={s.max_slowdown:.2f}x")
    elif name == "fig7":
        for r in run_fig7():
            print(f"{r.model:10s} {r.optimizer:8s} "
                  f"wu={reporting.pct(r.wu_share)}")
    elif name == "fig8":
        for r in run_fig8():
            print(f"p={r.p:3d} ideal={r.ideal_conv_s * 1e3:7.2f}ms "
                  f"actual={r.simulated_conv_s * 1e3:7.2f}ms "
                  f"eff={reporting.pct(r.scaling_efficiency)}")
    elif name == "table3":
        for r in run_table3():
            print(r)
    elif name == "table5":
        for r in run_table5():
            print(r)
    elif name == "table6":
        for sid, findings in run_table6(quick=quick).items():
            print(f"{sid}:")
            for f in findings:
                print(f"  {f}")
    elif name == "search":
        for r in run_search_best(quick=not args.full):
            print(f"{r.model:10s} p={r.p:4d} "
                  f"suggest={r.suggest_best:14s} "
                  f"{r.suggest_epoch_s:8.1f}s  "
                  f"search={r.search_best:24s} {r.search_epoch_s:8.1f}s  "
                  f"gain={reporting.pct(r.improvement)} "
                  f"(frontier {r.frontier_size}, "
                  f"{r.pruned}/{r.candidates} pruned)")
    elif name == "sweep":
        rep = run_sweep(quick=not args.full)
        for row in rep.summary_rows():
            print(f"{row['model']:10s} best={row['best']:28s} "
                  f"epoch={row['epoch_s']:8.1f}s "
                  f"frontier={row['frontier']:2d} "
                  f"cands={row['candidates']:3d} "
                  f"wall={row['seconds']:.2f}s")
    elif name == "accuracy":
        s = run_accuracy_summary(quick=quick)
        for k, v in sorted(s.per_strategy.items()):
            print(f"{k:8s} {reporting.pct(v)}")
        print(f"overall  {reporting.pct(s.overall)}")
    return 0


def _serve_until_signal(serve_forever, shutdown, *, ready=None) -> None:
    """Run a blocking server loop with graceful SIGTERM/SIGINT handling.

    ``shutdown`` must unblock ``serve_forever`` (finishing in-flight
    work); it runs on a helper thread because calling e.g.
    ``HTTPServer.shutdown`` from a signal handler on the serving thread
    deadlocks.  ``ready`` (optional) runs after the handlers are live —
    the "listening on ..." banner goes there, so a supervisor that
    signals the moment it sees the banner can never hit the default
    disposition.  Previous handlers are restored on exit; when not on
    the main thread (in-process tests), signals can't be installed and
    the loop just runs until ``shutdown`` is called from outside.
    """
    import signal

    def handle(signum, frame):
        threading.Thread(target=shutdown, daemon=True).start()

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, handle)
        except ValueError:  # not the main thread
            break
    try:
        if ready is not None:
            ready()
        serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def _cmd_serve(args) -> int:
    from .serve import PlanningServer

    # Chaos campaigns arm a fault plan in the server process via
    # REPRO_FAULTS (see docs/resilience.md); a no-op otherwise.
    arm_from_env()
    server = PlanningServer(
        host=args.host,
        port=args.port,
        pool_size=args.pool_size,
        cache_dir=args.cache_dir,
        job_workers=args.job_workers,
        job_max_pending=args.job_max_pending,
        request_deadline_s=args.request_deadline_s,
    )
    def banner() -> None:
        print(f"repro serve: listening on {server.url} "
              f"(pool={args.pool_size}, job workers={args.job_workers})")
        print("endpoints: POST "
              "/v1/{project,suggest,hybrid,search,batch,jobs} "
              "GET /v1/jobs[/<id>] /healthz /metricsz")
        sys.stdout.flush()

    try:
        _serve_until_signal(
            server.serve_forever, server.shutdown, ready=banner)
    finally:
        server.close()
    return 0


def _cmd_worker(args) -> int:
    from .dist import WorkerServer
    from .dist.protocol import parse_address

    try:
        host, port = parse_address(args.bind)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    arm_from_env()
    server = WorkerServer(host, port)

    def banner() -> None:
        # check_dist.py and deployment scripts parse this line for the
        # resolved address (port 0 binds ephemerally).
        print(f"repro worker: listening on {server.address}")
        sys.stdout.flush()

    try:
        _serve_until_signal(server.serve_forever, server.close,
                            ready=banner)
    finally:
        server.close()
    print(f"repro worker: stopped after {server.chunks_served} chunk(s)")
    return 0


def _cmd_bench_serve(args) -> int:
    from .serve import LoadGenerator, PlanningServer
    from .serve.loadgen import write_bench_json

    with PlanningServer(port=0, pool_size=args.pool_size,
                        cache_dir=args.cache_dir) as server:
        generator = LoadGenerator(
            server.url, clients=args.clients, duration_s=args.duration,
            timeout=args.timeout)
        report = generator.run()
    for line in report.lines():
        print(line)
    if args.report:
        path = write_bench_json(args.report, report)
        print(f"wrote {path}")
    return 0 if report.errors == 0 else 1


_COMMANDS = {
    "project": _cmd_project,
    "suggest": _cmd_suggest,
    "hybrid": _cmd_hybrid,
    "search": _cmd_search,
    "sweep": _cmd_sweep,
    "plan": _cmd_plan,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
    "experiment": _cmd_experiment,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
    "bench-serve": _cmd_bench_serve,
}

#: Commands whose handlers build a Session (and so can fail scenario
#: validation); the rest parse no scenario-mapped flags.  Only
#: ScenarioValidationError is handled here — verb invocations carry
#: their own narrow catches, so genuine defects in rendering or
#: reporting still surface as tracebacks instead of a clean "error:".
_SCENARIO_COMMANDS = frozenset(
    {"project", "suggest", "hybrid", "search", "sweep", "plan", "simulate"})


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: parse ``argv`` and dispatch; returns the exit code."""
    args = build_parser().parse_args(argv)
    if getattr(args, "verbose", 0):
        from .obs import configure_logging

        configure_logging(args.verbose)
    # A second parse with suppressed defaults reveals which flags were
    # explicitly typed — only those override a --scenario document.
    args._explicit = frozenset(
        vars(build_parser(suppress_defaults=True).parse_args(argv)))
    handler = _COMMANDS[args.command]
    if args.command in _SCENARIO_COMMANDS:
        try:
            return handler(args)
        except ScenarioValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main(argv=None))

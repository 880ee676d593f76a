"""Oracle-as-a-service: the threaded HTTP planning server.

Stdlib-first: :class:`http.server.ThreadingHTTPServer` behind a small
router/handler layer.  Requests are :class:`~repro.api.spec.
ScenarioSpec` JSON documents validated by ``from_dict``; responses are
the exact PR 4 result envelopes the CLI prints under ``--json`` —
**byte-identical**, including indentation and the trailing newline, so
a consumer can switch between ``repro project --json`` and
``POST /v1/project`` without re-parsing anything.

Endpoints
---------
``POST /v1/project|suggest|hybrid|search``
    Body = a scenario document.  200 with the verb's result envelope;
    422 with the shared error envelope for structurally infeasible
    configurations; 400 with a structured validation error naming the
    dotted field path for bad documents.
``POST /v1/batch``
    One scenario, many questions: ``{"scenario": {...}, "questions":
    [{"verb": "project", "overrides": {...}}, ...]}``.  Questions are
    answered in order against one pooled session; per-question
    infeasibility is reported inline so one bad question cannot sink
    its siblings.
``POST /v1/jobs`` / ``GET /v1/jobs[/<id>]``
    Async handles for long verbs (search/sweep): submit returns 202
    with a ``job_id``; polling returns the state and, when done, the
    full result envelope.  Unknown ids are 404.
``GET /healthz`` / ``GET /metricsz``
    Liveness and the observability snapshot (metrics registry + pool +
    job counters).

Every request is traced (``serve.<route>`` spans), counted
(``serve.requests``, ``serve.status.<code>``), and timed into
per-route latency histograms (``serve.latency_s.<route>``) on the
server's :class:`~repro.obs.metrics.MetricsRegistry` — the same
instruments the load harness reads back from ``/metricsz``.
"""

from __future__ import annotations

import json
import logging
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..api.results import error_envelope
from ..api.session import Session
from ..api.spec import SCHEMA_VERSION, ScenarioSpec, ScenarioValidationError
from ..core.strategies import StrategyError
from ..faults import Deadline, DeadlineExceeded, FaultError, deadline_scope
from ..faults import fire as _fire_fault
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER
from .jobs import JobManager, JobQueueFull
from .pool import SessionPool

logger = logging.getLogger(__name__)

__all__ = ["PlanningServer", "ServeError", "VERBS", "JOB_VERBS"]

#: Synchronous planning verbs exposed under ``/v1/<verb>``.
VERBS = ("project", "suggest", "hybrid", "search")

#: Verbs a job may run: the sync four plus the long-running sweep.
JOB_VERBS = VERBS + ("sweep",)

#: Optional sections each verb needs materialized in the scenario echo —
#: mirrors the CLI's ``_load_scenario(ensure=...)`` so server and CLI
#: envelopes agree field-for-field.
_ENSURE: Dict[str, Tuple[str, ...]] = {
    "project": ("strategy",),
    "suggest": (),
    "hybrid": (),
    "search": ("search",),
    "sweep": ("sweep", "search"),
}

#: Default request-body cap; oversized posts get a structured 413.
MAX_BODY_BYTES = 2 * 1024 * 1024

_JOB_PATH = re.compile(r"^/v1/jobs/(?P<job_id>[A-Za-z0-9_-]+)$")


class ServeError(Exception):
    """A structured HTTP error: status + JSON body.

    ``field`` carries the dotted scenario path for validation failures
    (the 400 contract); other statuses leave it empty.  ``headers``
    (set post-construction) adds response headers — the 503 queue-full
    path uses it for ``Retry-After``.
    """

    def __init__(self, status: int, error_type: str, message: str,
                 field: str = "", **extra) -> None:
        super().__init__(message)
        self.status = status
        self.error_type = error_type
        self.field = field
        self.extra = extra
        self.headers: Dict[str, str] = {}

    def payload(self) -> Dict[str, object]:
        error: Dict[str, object] = {
            "status": self.status,
            "type": self.error_type,
            "message": str(self),
        }
        if self.field:
            error["field"] = self.field
        error.update(self.extra)
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "error",
            "error": error,
        }


def _render(blob: Dict[str, object], *, indent: Optional[int] = 2) -> bytes:
    """Serialize a JSON body exactly as the CLI prints it.

    ``print(json.dumps(blob, indent=2))`` is the CLI's ``--json``
    emitter; matching its separators *and* trailing newline is what
    makes the golden wire-parity test byte-for-byte."""
    return (json.dumps(blob, indent=indent) + "\n").encode("utf-8")


def _ensure_sections(scenario: ScenarioSpec,
                     ensure: Sequence[str]) -> ScenarioSpec:
    """Materialize optional sections, CLI ``_load_scenario`` style."""
    missing = {
        section: {} for section in ensure
        if getattr(scenario, section) is None
    }
    return scenario.merged(missing) if missing else scenario


class _Response:
    """What a route handler returns: status + ready-to-send body."""

    __slots__ = ("status", "body", "content_type", "headers")

    def __init__(self, status: int, body: bytes,
                 content_type: str = "application/json",
                 headers: Optional[Dict[str, str]] = None) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = headers or {}


class _App:
    """The router/handler layer — plain Python, fully testable offline.

    ``handle(method, path, body)`` resolves a route and returns a
    :class:`_Response`; every error becomes a :class:`ServeError`
    rendered to its structured JSON body.  The HTTP transport below is
    a thin adapter over this object.
    """

    def __init__(self, *, pool: SessionPool, jobs: JobManager,
                 metrics: MetricsRegistry, tracer,
                 max_body_bytes: int = MAX_BODY_BYTES,
                 request_deadline_s: Optional[float] = None) -> None:
        self.pool = pool
        self.jobs = jobs
        self.metrics = metrics
        self.tracer = tracer
        self.max_body_bytes = max_body_bytes
        self.request_deadline_s = request_deadline_s
        self.started_unix = time.time()
        # path -> {method -> (route_name, handler(body, match))}
        self._routes: Dict[str, Dict[str, Tuple[str, Callable]]] = {}
        for verb in VERBS:
            self._routes[f"/v1/{verb}"] = {
                "POST": (verb, self._make_verb_handler(verb))}
        self._routes["/v1/batch"] = {"POST": ("batch", self._handle_batch)}
        self._routes["/v1/jobs"] = {
            "POST": ("jobs.submit", self._handle_job_submit),
            "GET": ("jobs.list", self._handle_job_list),
        }
        self._routes["/healthz"] = {"GET": ("healthz", self._handle_health)}
        self._routes["/metricsz"] = {
            "GET": ("metricsz", self._handle_metrics)}

    # ------------------------------------------------------------ dispatch
    def handle(self, method: str, path: str, body: bytes,
               headers: Optional[Dict[str, str]] = None) -> _Response:
        t0 = time.perf_counter()
        route = "unrouted"
        try:
            # Fault site ``serve.handler``: ``delay`` stalls the request
            # (slow-handler latency campaigns); ``error`` fails it along
            # the 500 path below.
            action = _fire_fault("serve.handler")
            if action is not None and action.kind == "error":
                action.raise_()
            route, handler, match = self._resolve(method, path)
            deadline = self._request_deadline(headers)
            with deadline_scope(deadline):
                if deadline is not None:
                    deadline.check(f"serve.{route}")
                with self.tracer.span(f"serve.{route}"):
                    response = handler(body, match)
        except ServeError as exc:
            response = _Response(exc.status, _render(exc.payload()),
                                 headers=exc.headers)
        except JobQueueFull as exc:
            error = ServeError(
                503, "queue-full", str(exc),
                retry_after_s=exc.retry_after_s)
            response = _Response(
                503, _render(error.payload()),
                headers={"Retry-After": f"{exc.retry_after_s:g}"})
        except DeadlineExceeded as exc:
            response = _Response(504, _render(ServeError(
                504, "deadline-exceeded", str(exc)).payload()))
        except FaultError as exc:
            response = _Response(500, _render(ServeError(
                500, "injected-fault", str(exc)).payload()))
        except Exception as exc:  # defense: a bug must not kill the thread
            logger.exception("unhandled error serving %s %s", method, path)
            response = _Response(500, _render(ServeError(
                500, "internal", f"{type(exc).__name__}: {exc}").payload()))
        self._observe(route, response.status, time.perf_counter() - t0)
        return response

    def _request_deadline(self, headers: Optional[Dict[str, str]]
                          ) -> Optional[Deadline]:
        """The effective budget: the tighter of the server-wide default
        and the client's ``X-Repro-Deadline-S`` header (unparsable or
        non-positive header values are ignored — a malformed hint should
        not fail an otherwise valid request)."""
        budget = self.request_deadline_s
        if headers is not None:
            raw = headers.get("X-Repro-Deadline-S")
            if raw is not None:
                try:
                    hinted = float(raw)
                except (TypeError, ValueError):
                    hinted = 0.0
                if hinted > 0:
                    budget = (hinted if budget is None
                              else min(budget, hinted))
        return Deadline(budget) if budget is not None else None

    def _resolve(self, method: str, path: str):
        path = path.split("?", 1)[0].rstrip("/") or "/"
        match = _JOB_PATH.match(path)
        if match:
            if method != "GET":
                raise ServeError(
                    405, "method-not-allowed",
                    f"{method} not allowed on {path}", allow=["GET"])
            return "jobs.get", self._handle_job_get, match
        methods = self._routes.get(path)
        if methods is None:
            raise ServeError(
                404, "not-found",
                f"no such endpoint: {path} (see docs/serving.md)")
        entry = methods.get(method)
        if entry is None:
            raise ServeError(
                405, "method-not-allowed",
                f"{method} not allowed on {path}",
                allow=sorted(methods))
        route, handler = entry
        return route, handler, None

    def _observe(self, route: str, status: int, seconds: float) -> None:
        m = self.metrics
        m.counter("serve.requests").add(1)
        m.counter(f"serve.status.{status}").add(1)
        m.histogram("serve.latency_s").observe(seconds)
        m.histogram(f"serve.latency_s.{route}").observe(seconds)

    # ------------------------------------------------------- request parsing
    def _parse_json(self, body: bytes) -> object:
        if len(body) > self.max_body_bytes:
            raise ServeError(
                413, "too-large",
                f"request body is {len(body)} bytes; the server caps "
                f"bodies at {self.max_body_bytes}")
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(
                400, "bad-request", f"request body is not valid JSON: "
                f"{exc}") from exc

    def _scenario(self, doc: object, verb: str) -> ScenarioSpec:
        try:
            scenario = ScenarioSpec.from_dict(doc)
        except ScenarioValidationError as exc:
            raise ServeError(
                400, "validation", str(exc), field=exc.field) from exc
        return _ensure_sections(scenario, _ENSURE[verb])

    # ----------------------------------------------------------- verb routes
    def _run_verb(self, verb: str, session: Session):
        if verb == "project":
            return session.project()
        if verb == "suggest":
            return session.suggest()
        if verb == "hybrid":
            return session.hybrid()
        if verb == "search":
            return session.search()
        if verb == "sweep":
            return session.sweep()
        raise AssertionError(f"unreachable verb {verb!r}")

    def answer(self, verb: str, doc: object) -> Dict[str, object]:
        """Validate + answer one verb; the core all routes share.

        Returns the result envelope dict.  Raises :class:`ServeError`
        (400) on validation failures and :class:`ServeError` (422)
        wrapping the shared error envelope on infeasible configurations.
        """
        scenario = self._scenario(doc, verb)
        session = self.pool.session(scenario)
        try:
            result = self._run_verb(verb, session)
        except ScenarioValidationError as exc:
            raise ServeError(
                400, "validation", str(exc), field=exc.field) from exc
        except (StrategyError, ValueError) as exc:
            raise _Infeasible(scenario, verb, exc) from exc
        return result.to_dict()

    def _make_verb_handler(self, verb: str):
        def handler(body: bytes, match) -> _Response:
            doc = self._parse_json(body)
            try:
                blob = self.answer(verb, doc)
            except _Infeasible as exc:
                # CLI parity: `repro <verb> --json` prints this envelope
                # compact (no indent) on infeasible configurations.
                return _Response(422, _render(exc.envelope, indent=None))
            return _Response(200, _render(blob))

        return handler

    # ----------------------------------------------------------- batch route
    def _handle_batch(self, body: bytes, match) -> _Response:
        doc = self._parse_json(body)
        if not isinstance(doc, dict):
            raise ServeError(
                400, "bad-request",
                f"batch body must be a mapping, got "
                f"{type(doc).__name__}")
        unknown = sorted(set(doc) - {"scenario", "questions"})
        if unknown:
            raise ServeError(
                400, "validation",
                f"{unknown[0]}: unknown key (known: questions, scenario)",
                field=unknown[0])
        base = doc.get("scenario", {})
        questions = doc.get("questions")
        if not isinstance(questions, list) or not questions:
            raise ServeError(
                400, "validation",
                "questions: expected a non-empty list",
                field="questions")
        # Validate the shared document once, up front.
        try:
            base_spec = ScenarioSpec.from_dict(base)
        except ScenarioValidationError as exc:
            raise ServeError(
                400, "validation", f"scenario.{exc.field}: {exc}",
                field=f"scenario.{exc.field}") from exc
        results = []
        for i, question in enumerate(questions):
            results.append(self._answer_question(base_spec, question, i))
        blob = {
            "schema_version": SCHEMA_VERSION,
            "kind": "batch",
            "scenario": base_spec.to_dict(),
            "count": len(results),
            "results": results,
        }
        return _Response(200, _render(blob))

    def _answer_question(self, base_spec: ScenarioSpec, question: object,
                         i: int) -> Dict[str, object]:
        """One batch entry: overrides merged onto the shared document.

        Shape errors in the question itself are 400s (the request is
        malformed); a *feasibility* failure is answered inline with the
        error envelope so sibling questions still get their results.
        """
        path = f"questions[{i}]"
        if not isinstance(question, dict):
            raise ServeError(
                400, "validation",
                f"{path}: expected a mapping, got "
                f"{type(question).__name__}", field=path)
        unknown = sorted(set(question) - {"verb", "overrides"})
        if unknown:
            raise ServeError(
                400, "validation",
                f"{path}.{unknown[0]}: unknown key (known: overrides, "
                f"verb)", field=f"{path}.{unknown[0]}")
        verb = question.get("verb")
        if verb not in VERBS:
            raise ServeError(
                400, "validation",
                f"{path}.verb: unknown verb {verb!r}; choose from "
                f"{', '.join(VERBS)}", field=f"{path}.verb")
        overrides = question.get("overrides", {})
        if not isinstance(overrides, dict):
            raise ServeError(
                400, "validation",
                f"{path}.overrides: expected a mapping, got "
                f"{type(overrides).__name__}", field=f"{path}.overrides")
        try:
            merged = (base_spec.merged(overrides)
                      if overrides else base_spec)
        except ScenarioValidationError as exc:
            raise ServeError(
                400, "validation", f"{path}.overrides: {exc}",
                field=f"{path}.overrides.{exc.field}") from exc
        try:
            return self.answer(verb, merged.to_dict())
        except _Infeasible as exc:
            return exc.envelope

    # ------------------------------------------------------------ job routes
    def _handle_job_submit(self, body: bytes, match) -> _Response:
        doc = self._parse_json(body)
        if not isinstance(doc, dict):
            raise ServeError(
                400, "bad-request",
                f"job body must be a mapping, got {type(doc).__name__}")
        verb = doc.get("verb")
        if verb not in JOB_VERBS:
            raise ServeError(
                400, "validation",
                f"verb: unknown verb {verb!r}; choose from "
                f"{', '.join(JOB_VERBS)}", field="verb")
        scenario_doc = doc.get("scenario", {})
        # Validate *before* accepting the job: a bad document is the
        # submitter's error and deserves an immediate 400, not a handle
        # that resolves to failure later.
        self._scenario(scenario_doc, verb)

        def run() -> dict:
            try:
                return self.answer(verb, scenario_doc)
            except _Infeasible as exc:
                return exc.envelope

        job = self.jobs.submit(verb, run)
        blob = dict(
            {"schema_version": SCHEMA_VERSION, "kind": "job"},
            **job.snapshot(include_result=False))
        blob["poll"] = f"/v1/jobs/{job.id}"
        return _Response(202, _render(blob))

    def _handle_job_get(self, body: bytes, match) -> _Response:
        job_id = match.group("job_id")
        job = self.jobs.get(job_id)
        if job is None:
            raise ServeError(
                404, "not-found", f"no such job: {job_id}")
        blob = dict(
            {"schema_version": SCHEMA_VERSION, "kind": "job"},
            **job.snapshot())
        return _Response(200, _render(blob))

    def _handle_job_list(self, body: bytes, match) -> _Response:
        blob = {
            "schema_version": SCHEMA_VERSION,
            "kind": "jobs",
            "jobs": [
                job.snapshot(include_result=False)
                for job in self.jobs.jobs()
            ],
        }
        return _Response(200, _render(blob))

    # ------------------------------------------------------- health/metrics
    def _handle_health(self, body: bytes, match) -> _Response:
        blob = {
            "schema_version": SCHEMA_VERSION,
            "kind": "health",
            "status": "ok",
            "uptime_s": time.time() - self.started_unix,
            "pool": self.pool.stats(),
            "jobs": self.jobs.stats(),
        }
        return _Response(200, _render(blob))

    def _handle_metrics(self, body: bytes, match) -> _Response:
        blob = {
            "schema_version": SCHEMA_VERSION,
            "kind": "metrics",
            "metrics": self.metrics.snapshot(),
            "pool": self.pool.stats(),
            "jobs": self.jobs.stats(),
        }
        return _Response(200, _render(blob))


class _Infeasible(Exception):
    """Internal signal: a verb ran but the configuration is infeasible."""

    def __init__(self, scenario: ScenarioSpec, verb: str,
                 exc: Exception) -> None:
        super().__init__(str(exc))
        self.envelope = error_envelope(scenario, verb, exc)


class _Handler(BaseHTTPRequestHandler):
    """Transport adapter: HTTP request -> ``_App.handle`` -> response."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate sends; with Nagle on, a client
    # reusing its keep-alive connection waits out its delayed ACK
    # (~40 ms) on every response.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:
        logger.debug("%s %s", self.address_string(), format % args)

    def _app(self) -> _App:
        return self.server.app  # type: ignore[attr-defined]

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` after replying 413 inline."""
        app = self._app()
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        if length > app.max_body_bytes:
            # Refuse without reading: reply, then drop the connection so
            # the unread body can't be misparsed as a next request.
            error = ServeError(
                413, "too-large",
                f"request body is {length} bytes; the server caps "
                f"bodies at {app.max_body_bytes}")
            self._reply(_Response(413, _render(error.payload())))
            self.close_connection = True
            app._observe("unrouted", 413, 0.0)
            return None
        return self.rfile.read(length) if length else b""

    def _reply(self, response: _Response) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(response.body)

    def _dispatch(self, method: str) -> None:
        body = self._read_body()
        if body is None:
            return
        self._reply(self._app().handle(
            method, self.path, body, headers=self.headers))

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        self._dispatch("POST")

    # Routed so unsupported methods get a structured 405 (with an
    # Allow-style body) instead of http.server's bare 501.
    def do_PUT(self) -> None:  # noqa: N802 - http.server contract
        self._dispatch("PUT")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server contract
        self._dispatch("DELETE")

    def do_PATCH(self) -> None:  # noqa: N802 - http.server contract
        self._dispatch("PATCH")

    def do_HEAD(self) -> None:  # noqa: N802 - http.server contract
        self._dispatch("HEAD")


class _HTTPServer(ThreadingHTTPServer):
    # socketserver's default listen backlog of 5 drops connections the
    # moment more clients connect simultaneously than the accept loop
    # has drained — fatal for a burst of closed-loop load clients.
    request_queue_size = 128


class PlanningServer:
    """The deployable unit: app + pool + jobs on a threaded HTTP server.

    >>> server = PlanningServer(port=0)       # ephemeral port
    >>> server.start()                        # background thread
    >>> server.url                            # doctest: +SKIP
    'http://127.0.0.1:41823'
    >>> server.close()

    ``serve_forever()`` runs in the foreground (the CLI path);
    ``start()``/``close()`` bracket a background instance for tests,
    examples, and the in-process load harness.  The instance is also a
    context manager (``with PlanningServer(port=0) as server:``).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 pool_size: int = 32, cache_dir: Optional[str] = None,
                 max_body_bytes: int = MAX_BODY_BYTES,
                 job_workers: int = 2,
                 job_max_pending: Optional[int] = None,
                 job_max_results: int = 64,
                 request_deadline_s: Optional[float] = None,
                 tracer=None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.pool = SessionPool(
            pool_size, cache_dir=cache_dir,
            tracer=self.tracer, metrics=self.metrics)
        self.jobs = JobManager(
            workers=job_workers, max_pending=job_max_pending,
            max_results=job_max_results, metrics=self.metrics)
        self.app = _App(
            pool=self.pool, jobs=self.jobs, metrics=self.metrics,
            tracer=self.tracer, max_body_bytes=max_body_bytes,
            request_deadline_s=request_deadline_s)
        self._httpd = _HTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.app = self.app  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------- identity
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "PlanningServer":
        """Serve from a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro serve`` path)."""
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        """Unblock :meth:`serve_forever` after in-flight requests finish.

        Safe from any thread *except* the serving one (the CLI's signal
        path calls it from a helper thread); :meth:`close` still tears
        the sockets and job pool down afterwards.
        """
        self._httpd.shutdown()

    def close(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=10)
            self._thread = None
        self._httpd.server_close()
        self.jobs.shutdown(wait=False)

    def __enter__(self) -> "PlanningServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

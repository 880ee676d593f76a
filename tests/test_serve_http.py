"""HTTP wire-contract tests for the planning server.

The load-bearing guarantee: every ``POST /v1/<verb>`` body is
byte-identical to what ``repro <verb> --json`` prints for the same
scenario document (golden parity), and every failure mode maps to a
structured status — 400 with the dotted field path for validation,
422 with the CLI's compact error envelope for infeasible
configurations, 404/405/413 for transport-level misuse.
"""

import contextlib
import http.client
import io
import json
import time
from urllib.parse import urlsplit

import pytest

from repro.api.spec import SCHEMA_VERSION
from repro.cli import main
from repro.serve import PlanningClient, PlanningServer

BASE = {
    "model": {"name": "alexnet"},
    "cluster": {"pes": 8},
    "training": {"samples_per_pe": 4},
}
PROJECT_DOC = dict(BASE, strategy={"id": "d"})
SEARCH_DOC = dict(BASE, search={"strategies": ["d", "z"], "segments": [2]})
#: Validates fine, fails at projection time (S > B) — the 422 path.
INFEASIBLE_DOC = dict(BASE, strategy={"id": "p", "segments": 500})

_DOCS = {
    "project": PROJECT_DOC,
    "suggest": BASE,
    "hybrid": BASE,
    "search": SEARCH_DOC,
}


@pytest.fixture(scope="module")
def server():
    with PlanningServer(port=0, pool_size=8) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    return PlanningClient(server.url)


def post_raw(client, path, doc):
    body = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
    return client.request_raw("POST", path, body)


def cli_json_bytes(tmp_path, verb, doc):
    """What ``repro <verb> --scenario f --json`` prints, as bytes."""
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = main([verb, "--scenario", str(spec), "--json"])
        except SystemExit as exc:  # CLI error paths sys.exit
            rc = exc.code
    return rc, out.getvalue().encode()


# ---------------------------------------------------------------- envelopes

@pytest.mark.parametrize("verb", sorted(_DOCS))
def test_verb_returns_result_envelope(client, verb):
    envelope = getattr(client, verb)(_DOCS[verb])
    assert envelope["schema_version"] == SCHEMA_VERSION
    assert envelope["kind"] == verb
    assert "scenario" in envelope


def test_project_envelope_is_feasible(client):
    envelope = client.project(PROJECT_DOC)
    assert envelope["feasible"] is True
    assert envelope["scenario"]["model"]["name"] == "alexnet"


def test_keep_alive_requests_do_not_stall(server):
    """Twenty requests on one reused HTTP/1.1 connection finish well
    under the 20 x 40 ms a delayed-ACK stall per response would cost,
    and each body matches the fresh-connection body byte for byte."""
    url = urlsplit(server.url)
    body = json.dumps(PROJECT_DOC).encode()
    headers = {"Content-Type": "application/json"}

    def post(conn):
        conn.request("POST", "/v1/project", body, headers)
        response = conn.getresponse()
        assert response.status == 200
        return response.read()

    fresh = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    try:
        want = post(fresh)
    finally:
        fresh.close()
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    try:
        post(conn)  # warm the session pool and the connection
        t0 = time.perf_counter()
        bodies = [post(conn) for _ in range(20)]
        elapsed = time.perf_counter() - t0
    finally:
        conn.close()
    assert all(got == want for got in bodies)
    assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.3f} s"


def test_response_content_type_is_json(client):
    status, _ = post_raw(client, "/v1/project", PROJECT_DOC)
    assert status == 200  # header check lives in the urllib layer:
    # urlopen would fail loudly on a broken Content-Length with
    # HTTP/1.1 keep-alive, so a clean 200 covers framing too.


# ------------------------------------------------------------ golden parity

#: Parity-only scenarios (pes=16) no other test touches: the guarantee
#: is cold-session == CLI.  A *warm* session legitimately diverges in
#: run-dependent stats (search reports projection-cache hits the CLI's
#: fresh session cannot have).
_PARITY_BASE = dict(BASE, cluster={"pes": 16})
_PARITY_DOCS = {
    "project": dict(_PARITY_BASE, strategy={"id": "d"}),
    "suggest": _PARITY_BASE,
    "hybrid": _PARITY_BASE,
    "search": dict(_PARITY_BASE,
                   search={"strategies": ["d", "z"], "segments": [2]}),
}


@pytest.mark.parametrize("verb", sorted(_PARITY_DOCS))
def test_golden_parity_with_cli_json(client, tmp_path, verb):
    rc, cli_bytes = cli_json_bytes(tmp_path, verb, _PARITY_DOCS[verb])
    assert rc == 0
    status, raw = post_raw(client, f"/v1/{verb}", _PARITY_DOCS[verb])
    assert status == 200
    assert raw == cli_bytes


def test_golden_parity_infeasible_422(client, tmp_path):
    rc, cli_bytes = cli_json_bytes(tmp_path, "project", INFEASIBLE_DOC)
    assert rc == 2
    status, raw = post_raw(client, "/v1/project", INFEASIBLE_DOC)
    assert status == 422
    assert raw == cli_bytes
    blob = json.loads(raw)
    assert blob["feasible"] is False
    assert blob["kind"] == "project"
    assert "segments" in blob["error"]


# -------------------------------------------------------- validation (400s)

#: (bad document, expected dotted field path) — one per distinct
#: validation family in ``ScenarioSpec.from_dict``.
VALIDATION_CASES = [
    ({"model": {"name": "nope"}}, "model.name"),
    ({"model": {"layers": -1}}, "model.layers"),
    ({"model": 7}, "model"),
    ({"cluster": {"pes": 0}}, "cluster.pes"),
    ({"cluster": {"pes": "eight"}}, "cluster.pes"),
    ({"cluster": {"bw_gbps": -2.0}}, "cluster.bw_gbps"),
    ({"training": {"samples_per_pe": 0}}, "training.samples_per_pe"),
    ({"strategy": {"id": "q"}}, "strategy.id"),
    ({"strategy": {"segments": 0}}, "strategy.segments"),
    ({"strategy": {"bogus": 1}}, "strategy.bogus"),
    ({"search": {"strategies": ["zz"]}}, "search.strategies[0]"),
    ({"search": {"segments": [0]}}, "search.segments[0]"),
    ({"budget": {"pes": -1}}, "budget"),
    ({"unknown_section": {}}, "unknown_section"),
    ({"comm": {"policy": "warp"}}, "comm.policy"),
]


@pytest.mark.parametrize(
    "doc, field", VALIDATION_CASES, ids=[f for _, f in VALIDATION_CASES])
def test_validation_error_names_dotted_field(client, doc, field):
    status, raw = post_raw(client, "/v1/project", doc)
    assert status == 400
    blob = json.loads(raw)
    assert blob["schema_version"] == SCHEMA_VERSION
    assert blob["kind"] == "error"
    assert blob["error"]["status"] == 400
    assert blob["error"]["type"] == "validation"
    assert blob["error"]["field"] == field
    assert field in blob["error"]["message"]


def test_search_process_executor_is_400(client):
    doc = dict(SEARCH_DOC, search=dict(SEARCH_DOC["search"],
                                       executor="process"))
    status, raw = post_raw(client, "/v1/search", doc)
    assert status == 400
    error = json.loads(raw)["error"]
    assert error["field"] == "search.executor"
    assert "remote" in error["message"]


def test_validation_applies_to_every_verb(client):
    for verb in _DOCS:
        status, raw = post_raw(client, f"/v1/{verb}", {"model": 7})
        assert status == 400, verb
        assert json.loads(raw)["error"]["field"] == "model"


# -------------------------------------------------- transport-level misuse

def test_unknown_path_is_404(client):
    status, raw = client.request_raw("GET", "/v1/nope")
    blob = json.loads(raw)
    assert status == 404
    assert blob["kind"] == "error"
    assert blob["error"]["type"] == "not-found"


def test_wrong_method_is_405_with_allow(client):
    status, raw = client.request_raw("GET", "/v1/project")
    assert status == 405
    blob = json.loads(raw)
    assert blob["error"]["type"] == "method-not-allowed"
    assert blob["error"]["allow"] == ["POST"]


def test_unrouted_http_method_is_405(client):
    status, raw = post_raw(client, "/v1/project", PROJECT_DOC)
    assert status == 200
    status, raw = client.request_raw("DELETE", "/v1/project")
    assert status == 405


def test_post_on_healthz_is_405(client):
    status, raw = post_raw(client, "/healthz", {})
    assert status == 405
    assert json.loads(raw)["error"]["allow"] == ["GET"]


def test_malformed_json_is_400(client):
    status, raw = post_raw(client, "/v1/project", b"{not json")
    assert status == 400
    assert json.loads(raw)["error"]["type"] == "bad-request"


def test_empty_body_is_400(client):
    status, raw = post_raw(client, "/v1/project", b"")
    assert status == 400
    assert json.loads(raw)["error"]["type"] == "bad-request"


def test_non_mapping_scenario_is_400(client):
    status, raw = post_raw(client, "/v1/project", [1, 2])
    assert status == 400
    assert json.loads(raw)["error"]["type"] == "validation"


def test_oversized_body_is_413():
    with PlanningServer(port=0, max_body_bytes=1024) as server:
        client = PlanningClient(server.url)
        status, raw = post_raw(client, "/v1/project", b"x" * 4096)
        assert status == 413
        assert json.loads(raw)["error"]["type"] == "too-large"
        # The connection survives in the client (fresh socket per
        # request) and the server still answers afterwards.
        assert client.health()["status"] == "ok"


def test_trailing_slash_and_query_are_tolerated(client):
    status, _ = post_raw(client, "/v1/project/", PROJECT_DOC)
    assert status == 200
    status, raw = client.request_raw("GET", "/healthz?probe=1")
    assert status == 200
    assert json.loads(raw)["status"] == "ok"


# -------------------------------------------------------------------- batch

def test_batch_answers_in_question_order(client):
    blob = client.batch(BASE, [
        {"verb": "project", "overrides": {"strategy": {"id": "d"}}},
        {"verb": "suggest"},
        {"verb": "hybrid"},
    ])
    assert blob["kind"] == "batch"
    assert blob["count"] == 3
    assert [r["kind"] for r in blob["results"]] == [
        "project", "suggest", "hybrid"]


def test_batch_overrides_change_the_answer(client):
    blob = client.batch(BASE, [
        {"verb": "project", "overrides": {"strategy": {"id": "d"}}},
        {"verb": "project", "overrides": {"strategy": {"id": "z"}}},
    ])
    ids = [r["scenario"]["strategy"]["id"] for r in blob["results"]]
    assert ids == ["d", "z"]
    epochs = [r["epoch_s"] for r in blob["results"]]
    assert epochs[0] != epochs[1]


def test_batch_infeasible_question_is_inline(client):
    blob = client.batch(BASE, [
        {"verb": "project",
         "overrides": {"strategy": {"id": "p", "segments": 500}}},
        {"verb": "project", "overrides": {"strategy": {"id": "d"}}},
    ])
    first, second = blob["results"]
    assert first["feasible"] is False and "error" in first
    assert second["feasible"] is True


@pytest.mark.parametrize("body, field", [
    ({"scenario": BASE}, "questions"),
    ({"scenario": BASE, "questions": []}, "questions"),
    ({"scenario": BASE, "questions": "project"}, "questions"),
    ({"scenario": BASE, "questions": [42]}, "questions[0]"),
    ({"scenario": BASE, "questions": [{"verb": "destroy"}]},
     "questions[0].verb"),
    ({"scenario": BASE, "questions": [{"verb": "project", "x": 1}]},
     "questions[0].x"),
    ({"scenario": BASE,
      "questions": [{"verb": "project"}, {"verb": "project",
                                          "overrides": 5}]},
     "questions[1].overrides"),
    ({"scenario": BASE,
      "questions": [{"verb": "project",
                     "overrides": {"strategy": {"id": "q"}}}]},
     "questions[0].overrides.strategy.id"),
    ({"scenario": {"model": {"name": "nope"}},
      "questions": [{"verb": "project"}]}, "scenario.model.name"),
    ({"scenario": BASE, "questions": [{"verb": "project"}], "extra": 1},
     "extra"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_batch_shape_errors_name_the_question(client, body, field):
    status, raw = post_raw(client, "/v1/batch", body)
    assert status == 400
    assert json.loads(raw)["error"]["field"] == field


# --------------------------------------------------------------------- jobs

def test_job_lifecycle_search(client):
    handle = client.submit("search", SEARCH_DOC)
    assert handle["kind"] == "job"
    assert handle["status"] in ("pending", "running", "done")
    assert "result" not in handle  # 202 never carries the payload
    assert handle["poll"] == f"/v1/jobs/{handle['job_id']}"
    state = client.wait(handle["job_id"], timeout=30)
    assert state["status"] == "done"
    assert state["result"]["kind"] == "search"
    assert state["seconds"] >= 0


def test_job_submit_returns_202(client):
    status, raw = post_raw(
        client, "/v1/jobs", {"verb": "project", "scenario": PROJECT_DOC})
    assert status == 202
    job_id = json.loads(raw)["job_id"]
    assert client.wait(job_id)["result"]["kind"] == "project"


def test_job_result_matches_sync_verb(client):
    sync = client.project(PROJECT_DOC)
    async_result = client.run_job("project", PROJECT_DOC)
    assert async_result == sync


def test_job_unknown_id_is_404(client):
    status, raw = client.request_raw("GET", "/v1/jobs/deadbeef0000")
    assert status == 404
    assert json.loads(raw)["error"]["type"] == "not-found"


def test_job_bad_verb_is_400(client):
    status, raw = post_raw(
        client, "/v1/jobs", {"verb": "explode", "scenario": BASE})
    assert status == 400
    assert json.loads(raw)["error"]["field"] == "verb"


def test_job_bad_scenario_rejected_at_submit(client):
    status, raw = post_raw(
        client, "/v1/jobs",
        {"verb": "search", "scenario": {"model": {"name": "nope"}}})
    assert status == 400
    assert json.loads(raw)["error"]["field"] == "model.name"


def test_job_infeasible_resolves_to_error_envelope(client):
    result = client.run_job("project", INFEASIBLE_DOC)
    assert result["feasible"] is False
    assert result["kind"] == "project"


def test_job_listing_includes_submitted_jobs(client):
    handle = client.submit("project", PROJECT_DOC)
    listing = client.jobs()
    assert listing["kind"] == "jobs"
    assert handle["job_id"] in {j["job_id"] for j in listing["jobs"]}
    assert all("result" not in j for j in listing["jobs"])


def test_job_post_on_job_id_is_405(client):
    status, _ = post_raw(client, "/v1/jobs/abc123", {})
    assert status == 405


# ---------------------------------------------------------- health/metrics

def test_healthz_reports_pool_and_jobs(client):
    client.project(PROJECT_DOC)
    blob = client.health()
    assert blob["kind"] == "health"
    assert blob["status"] == "ok"
    assert blob["uptime_s"] >= 0
    assert blob["pool"]["capacity"] == 8.0
    assert blob["pool"]["sessions"] >= 1
    assert set(blob["jobs"]) >= {"jobs", "pending", "running", "done"}


def test_metricsz_counts_requests(client):
    client.project(PROJECT_DOC)
    blob = client.metrics()
    metrics = blob["metrics"]
    assert metrics["serve.requests"]["value"] >= 1
    assert metrics["serve.status.200"]["value"] >= 1
    assert metrics["serve.latency_s"]["count"] >= 1
    assert metrics["serve.latency_s.project"]["p99"] >= 0
    assert blob["pool"]["sessions"] >= 1


def test_metricsz_counts_error_statuses(client):
    post_raw(client, "/v1/project", {"model": {"name": "nope"}})
    client.request_raw("GET", "/v1/nope")
    metrics = client.metrics()["metrics"]
    assert metrics["serve.status.400"]["value"] >= 1
    assert metrics["serve.status.404"]["value"] >= 1


# ------------------------------------------------------------ server object

def test_server_url_and_context_manager():
    server = PlanningServer(port=0)
    with server:
        assert server.url.startswith("http://127.0.0.1:")
        assert server.port > 0
    # closed cleanly: a fresh server can bind immediately
    with PlanningServer(port=0) as second:
        assert second.port > 0


def test_app_layer_is_testable_offline():
    """The router works without sockets: handle() is plain Python."""
    server = PlanningServer(port=0)
    try:
        response = server.app.handle(
            "POST", "/v1/project", json.dumps(PROJECT_DOC).encode())
        assert response.status == 200
        assert json.loads(response.body)["kind"] == "project"
    finally:
        server.close()

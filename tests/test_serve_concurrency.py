"""Concurrency battery: the serving stack under simultaneous clients.

Serving turns every latent thread-safety seam into a production bug,
so these tests hammer them directly: N concurrent HTTP clients must
get byte-identical answers to a serial client; the SessionPool must
evict LRU under pressure without corrupting the table; a shared
projection-cache directory must warm evicted sessions back up; and
the two build-once seams (``Session._memo``, ``AnalyticalModel.
kernel``) must construct exactly once no matter how many threads race
first touch.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.core.analytical as analytical_mod
from repro.api.session import Session
from repro.api.spec import ScenarioSpec
from repro.core.kernel import ModelKernel
from repro.core.oracle import ParaDL
from repro.serve import PlanningClient, PlanningServer, SessionPool
from repro.serve.pool import scenario_fingerprint

BASE = {
    "model": {"name": "alexnet"},
    "cluster": {"pes": 8},
    "training": {"samples_per_pe": 4},
}
PROJECT_DOC = dict(BASE, strategy={"id": "d"})
SEARCH = {"strategies": ["d", "z"], "segments": [2]}


def spec_for(doc):
    return ScenarioSpec.from_dict(doc)


# ------------------------------------------------- concurrent HTTP clients

def test_16_concurrent_clients_match_serial(tmp_path):
    """16 simultaneous clients get exactly the serial client's bytes."""
    docs = [
        dict(BASE, strategy={"id": sid},
             training={"samples_per_pe": spp})
        for sid in ("d", "z", "f", "p")
        for spp in (2, 4, 8, 16)
    ]
    with PlanningServer(port=0, pool_size=32) as server:
        serial = PlanningClient(server.url)
        expected = [
            serial.request_raw(
                "POST", "/v1/project", json.dumps(d).encode())
            for d in docs
        ]

        def hit(doc):
            client = PlanningClient(server.url)
            return client.request_raw(
                "POST", "/v1/project", json.dumps(doc).encode())

        barrier = threading.Barrier(len(docs))

        def synchronized_hit(doc):
            barrier.wait()
            return hit(doc)

        with ThreadPoolExecutor(max_workers=len(docs)) as pool:
            got = list(pool.map(synchronized_hit, docs))
    assert got == expected
    assert all(status == 200 for status, _ in got)


def test_concurrent_identical_requests_share_one_session():
    with PlanningServer(port=0, pool_size=8) as server:
        barrier = threading.Barrier(8)

        def hit():
            barrier.wait()
            return PlanningClient(server.url).project(PROJECT_DOC)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [f.result() for f in
                       [pool.submit(hit) for _ in range(8)]]
        assert all(r == results[0] for r in results)
        stats = server.app.pool.stats()
        assert stats["sessions"] == 1.0
        assert stats["misses"] == 1.0
        assert stats["hits"] == 7.0


def test_concurrent_mixed_verbs_and_errors():
    """Good, invalid, and infeasible requests interleave cleanly."""
    requests = [
        ("/v1/project", PROJECT_DOC, 200),
        ("/v1/suggest", BASE, 200),
        ("/v1/project", {"model": {"name": "nope"}}, 400),
        ("/v1/project", dict(BASE, strategy={"id": "p", "segments": 500}),
         422),
    ] * 4
    with PlanningServer(port=0, pool_size=8) as server:
        barrier = threading.Barrier(len(requests))

        def hit(req):
            path, doc, want = req
            barrier.wait()
            status, _ = PlanningClient(server.url).request_raw(
                "POST", path, json.dumps(doc).encode())
            return status, want

        with ThreadPoolExecutor(max_workers=len(requests)) as pool:
            outcomes = list(pool.map(hit, requests))
    assert all(status == want for status, want in outcomes)


# ------------------------------------------------------------- SessionPool

def test_pool_lru_eviction_under_pressure():
    pool = SessionPool(capacity=2)
    specs = [
        spec_for(dict(PROJECT_DOC, cluster={"pes": pes}))
        for pes in (4, 8, 16)
    ]
    a, b, c = specs
    pool.session(a)
    pool.session(b)
    pool.session(a)          # a is now most-recent
    pool.session(c)          # evicts b, the LRU entry
    assert len(pool) == 2
    assert a in pool and c in pool and b not in pool
    assert pool.stats()["evictions"] == 1.0


def test_pool_returns_same_session_for_equivalent_documents():
    pool = SessionPool(capacity=4)
    # Same scenario, different key order on the wire.
    doc_a = {"model": {"name": "alexnet"}, "cluster": {"pes": 8}}
    doc_b = {"cluster": {"pes": 8}, "model": {"name": "alexnet"}}
    first = pool.session(spec_for(doc_a))
    second = pool.session(spec_for(doc_b))
    assert first is second
    assert pool.stats() == {
        "sessions": 1.0, "capacity": 4.0, "hits": 1.0,
        "misses": 1.0, "evictions": 0.0}


def test_pool_fingerprint_separates_different_scenarios():
    a = scenario_fingerprint(spec_for(PROJECT_DOC))
    b = scenario_fingerprint(
        spec_for(dict(PROJECT_DOC, cluster={"pes": 16})))
    assert a != b
    assert len(a) == 16 and int(a, 16) >= 0


def test_pool_is_thread_safe_under_racing_builders():
    pool = SessionPool(capacity=8)
    spec = spec_for(PROJECT_DOC)
    barrier = threading.Barrier(12)
    seen = []

    def grab():
        barrier.wait()
        seen.append(pool.session(spec))

    threads = [threading.Thread(target=grab) for _ in range(12)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(map(id, seen))) == 1
    assert pool.stats()["misses"] == 1.0


def test_pool_rejects_zero_capacity():
    with pytest.raises(ValueError):
        SessionPool(capacity=0)


# --------------------------------------------- shared projection cache dir

def test_evicted_session_rewarms_from_shared_cache_dir(tmp_path):
    """Capacity-1 pool: re-built sessions reload persisted projections."""
    cache_dir = str(tmp_path / "proj-cache")
    with PlanningServer(port=0, pool_size=1,
                        cache_dir=cache_dir) as server:
        client = PlanningClient(server.url)
        doc_a = dict(BASE, search=SEARCH)
        doc_b = dict(BASE, cluster={"pes": 16}, search=SEARCH)

        cold = client.search(doc_a)
        assert cold["stats"]["cache_misses"] == 2
        assert cold["stats"]["cache_hits"] == 0

        client.search(doc_b)  # evicts doc_a's session (capacity 1)
        assert server.app.pool.stats()["evictions"] >= 1.0

        warm = client.search(doc_a)  # fresh session, warmed from disk
        assert warm["stats"]["cache_hits"] == 2
        assert warm["stats"]["cache_misses"] == 0
        # Same winner; only the per-candidate `cached` provenance flag
        # may (rightly) differ between the cold and warm run.
        strip = lambda d: {k: v for k, v in d.items() if k != "cached"}
        assert strip(warm["best"]) == strip(cold["best"])


def test_scenario_cache_settings_override_pool_cache_dir(tmp_path):
    """A document naming its own cache wins over the pool default."""
    pool_dir = tmp_path / "pool-cache"
    own = tmp_path / "own-cache.json"
    with PlanningServer(port=0, cache_dir=str(pool_dir)) as server:
        client = PlanningClient(server.url)
        doc = dict(BASE, search=dict(SEARCH, cache=str(own)))
        client.search(doc)
    assert own.exists()
    assert not pool_dir.exists() or not list(pool_dir.iterdir())


# --------------------------------------------------- build-once seam fixes

def test_session_memo_builds_exactly_once_under_races():
    session = Session(spec_for(PROJECT_DOC))
    builds = []
    barrier = threading.Barrier(8)

    def build():
        builds.append(1)
        return object()

    def touch():
        barrier.wait()
        return session._memo("race-probe", build)

    with ThreadPoolExecutor(max_workers=8) as pool:
        got = [f.result() for f in
               [pool.submit(touch) for _ in range(8)]]
    assert len(builds) == 1
    assert all(g is got[0] for g in got)


def test_kernel_compiles_exactly_once_across_threads(monkeypatch):
    """Regression: two threads must not double-compile the ModelKernel."""
    compiles = []
    original_init = ModelKernel.__init__

    def counting_init(self, *args, **kwargs):
        compiles.append(threading.get_ident())
        return original_init(self, *args, **kwargs)

    session = Session(spec_for(PROJECT_DOC))
    # A Session's oracle adopts the artifact store's kernel, compiled
    # with the profile; a hand-built oracle compiles lazily on first
    # touch, which is the seam these threads race.
    model = ParaDL(session.model, session.cluster, session.profile).analytical
    monkeypatch.setattr(ModelKernel, "__init__", counting_init)
    barrier = threading.Barrier(8)

    def touch():
        barrier.wait()
        return model.kernel

    with ThreadPoolExecutor(max_workers=8) as pool:
        kernels = [f.result() for f in
                   [pool.submit(touch) for _ in range(8)]]
    assert len(compiles) == 1
    assert all(k is kernels[0] for k in kernels)


def test_kernel_lock_is_module_level_not_instance():
    """Instance locks would break pickling the context to ``repro worker``."""
    assert isinstance(
        analytical_mod._KERNEL_BUILD_LOCK, type(threading.Lock()))
    session = Session(spec_for(PROJECT_DOC))
    model = session.oracle.analytical
    assert not any(
        isinstance(v, type(threading.Lock()))
        for v in vars(model).values()
    )


def test_concurrent_sessions_share_nothing_but_answers():
    """Distinct Sessions built in parallel agree on the projection."""
    spec = spec_for(PROJECT_DOC)
    barrier = threading.Barrier(6)

    def run():
        barrier.wait()
        return Session(spec).project().to_dict()

    with ThreadPoolExecutor(max_workers=6) as pool:
        results = [f.result() for f in
                   [pool.submit(run) for _ in range(6)]]
    assert all(r == results[0] for r in results)

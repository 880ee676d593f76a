"""The process-wide artifact store: shared graphs, profiles and kernels.

Sessions, search oracles and sweep cells over the same model spec,
dataset input, ``samples_per_pe`` and ``optimizer`` must share one
graph, one profile and one compiled kernel; anything that changes the
build must get its own entry.  The store is bounded (LRU), builds each
entry once under races, and never changes an answer: envelopes and
sweep results are byte-identical warm or cold.
"""

import json
import pickle
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.api.artifacts as artifacts
import repro.core.calibration as calibration
from repro.api.artifacts import ARTIFACTS, ArtifactStore
from repro.api.session import Session
from repro.api.spec import ModelSpec
from repro.core.oracle import ParaDL
from repro.data.datasets import DATASETS
from repro.obs.metrics import MetricsRegistry
from repro.search.sweep import SweepRunner
from repro.serve import PlanningClient, PlanningServer

BASE = {
    "model": {"name": "alexnet"},
    "cluster": {"pes": 8},
    "training": {"samples_per_pe": 4},
    "strategy": {"id": "d"},
}
CUSTOM = {
    "model": {
        "layers": [{"kind": "conv", "out": 8, "kernel": 3},
                   {"kind": "relu"}, {"kind": "flatten"},
                   {"kind": "fc", "out": 10}],
        "input": {"channels": 3, "spatial": [16, 16]},
    },
    "cluster": {"pes": 4},
    "strategy": {"id": "d"},
}
IMAGENET = DATASETS["imagenet"]


def merged(doc, **sections):
    out = json.loads(json.dumps(doc))
    for key, value in sections.items():
        out[key] = dict(out.get(key, {}), **value)
    return out


def artifacts_of(doc):
    session = Session(doc)
    return session.model, session.profile, session.kernel


def same(a, b):
    return all(x is y for x, y in zip(a, b))


@pytest.fixture
def cold_store():
    """Start (and leave) the process-wide store empty."""
    ARTIFACTS.clear()
    yield ARTIFACTS
    ARTIFACTS.clear()


class TestSharing:
    def test_equal_specs_share_objects_across_sessions(self):
        a, b = Session(BASE), Session(json.loads(json.dumps(BASE)))
        assert a.model is b.model
        assert a.profile is b.profile
        assert a.kernel is b.kernel
        assert a.oracle is not b.oracle
        assert a.oracle.analytical.kernel is b.oracle.analytical.kernel
        assert a.oracle.analytical.kernel is a.kernel

    def test_cluster_and_comm_do_not_split_entries(self):
        other = merged(BASE, cluster={"pes": 16}, comm={"policy": "auto"},
                       training={"gamma": 0.8})
        assert same(artifacts_of(BASE), artifacts_of(other))

    @pytest.mark.parametrize("change", [
        {"training": {"samples_per_pe": 8}},
        {"training": {"optimizer": "adam"}},
        {"model": {"name": "vgg16"}},
        {"model": {"input": {"channels": 3, "spatial": [128, 128]}}},
    ], ids=["samples_per_pe", "optimizer", "model", "input"])
    def test_build_inputs_give_distinct_entries(self, change):
        base, other = artifacts_of(BASE), artifacts_of(merged(BASE, **change))
        assert all(x is not y for x, y in zip(base, other))

    def test_layer_chains_key_by_content(self):
        assert same(artifacts_of(CUSTOM),
                    artifacts_of(json.loads(json.dumps(CUSTOM))))
        wider = json.loads(json.dumps(CUSTOM))
        wider["model"]["layers"][0]["out"] = 16
        assert artifacts_of(wider)[0] is not artifacts_of(CUSTOM)[0]

    def test_cosmoflow_keys_on_the_dataset_volume(self):
        doc = {"model": {"name": "cosmoflow"}, "cluster": {"pes": 4},
               "training": {"dataset": "cosmoflow256"}}
        small = Session(doc).model
        large = Session(merged(doc, training={"dataset": "cosmoflow512"}))
        assert small.input_spec == DATASETS["cosmoflow256"].sample
        assert large.model.input_spec == DATASETS["cosmoflow512"].sample
        assert small is not large.model

    def test_search_oracle_reuses_the_session_kernel(self):
        doc = merged(BASE, search={"comm_policies": ["paper", "auto"]})
        session = Session(doc)
        search_oracle = session._search_oracle()
        assert search_oracle is not session.oracle
        assert search_oracle.analytical.kernel is (
            session.oracle.analytical.kernel)

    def test_sweep_cells_share_the_session_artifacts(self):
        session = Session(merged(BASE, sweep={"models": ["alexnet"]}))
        runner = SweepRunner.from_scenario(session.scenario)
        oracle = runner.engine_for("alexnet").oracle
        assert oracle.model is session.model
        assert oracle.analytical.kernel is session.kernel

    def test_hand_built_oracle_compiles_its_own_kernel(self):
        session = Session(BASE)
        oracle = ParaDL(session.model, session.cluster, session.profile)
        assert oracle.analytical.kernel is not session.kernel

    def test_kernel_of_another_model_is_rejected(self):
        a = Session(BASE)
        b = Session(merged(BASE, training={"samples_per_pe": 8}))
        with pytest.raises(ValueError, match="different model or profile"):
            ParaDL(a.model, a.cluster, a.profile, kernel=b.kernel)

    def test_pickled_oracle_leaves_shared_memos_behind(self):
        session = Session(merged(BASE, strategy={"id": "p", "segments": 4}))
        session.project()
        assert session.kernel.check_memo
        clone = pickle.loads(pickle.dumps(session.oracle))
        assert clone.analytical._check_memo == {}
        assert "_partition_memo" not in vars(clone.model)
        assert clone.analytical.kernel is not session.kernel
        assert clone.analytical.kernel._pipeline_memo == {}
        assert clone.project(session._strategy(), session.batch,
                             session.dataset) == session.project().projection

    def test_profile_table_is_read_only(self):
        profile = Session(BASE).profile
        name, times = next(iter(profile.items()))
        with pytest.raises(TypeError):
            profile._times[name] = times
        clone = pickle.loads(pickle.dumps(profile))
        assert dict(clone.items()) == dict(profile.items())


class TestBoundAndCounters:
    def test_lru_bound_holds(self, monkeypatch):
        monkeypatch.setattr(artifacts, "CAPACITY", 2)
        store, metrics = ArtifactStore(), MetricsRegistry()

        def get(spp):
            return store.get(ModelSpec(name="alexnet"), IMAGENET,
                             samples_per_pe=spp, optimizer="sgd",
                             metrics=metrics)

        first = get(1)
        get(2)
        assert get(1) is first  # hit: 1 becomes most recent
        get(3)                  # evicts 2, the least recently used
        assert len(store._slots) == 2
        assert get(1) is first
        counts = {k: v["value"] for k, v in metrics.snapshot().items()}
        assert counts == {"api.artifacts.misses": 3.0,
                          "api.artifacts.hits": 2.0,
                          "api.artifacts.evictions": 1.0}
        get(2)                  # rebuilt after its eviction
        assert metrics.snapshot()["api.artifacts.misses"]["value"] == 4.0

    def test_failed_builds_are_not_cached(self):
        store = ArtifactStore()
        bad = ModelSpec(name="no-such-model")
        for _ in range(2):
            with pytest.raises(KeyError):
                store.get(bad, IMAGENET, samples_per_pe=1, optimizer="sgd")
        assert len(store._slots) == 0

    def test_session_counts_into_a_supplied_registry(self, cold_store):
        metrics = MetricsRegistry()
        Session(BASE, metrics=metrics).project()
        Session(BASE, metrics=metrics).project()
        snap = metrics.snapshot()
        assert snap["api.artifacts.misses"]["value"] == 1.0
        assert snap["api.artifacts.hits"]["value"] == 1.0

    def test_server_metricsz_shows_store_counters(self, cold_store):
        with PlanningServer(port=0) as server:
            client = PlanningClient(server.url)
            client.project(BASE)
            client.project(merged(BASE, cluster={"pes": 16}))
            metrics = json.dumps(client.metrics())
        assert "api.artifacts.hits" in metrics
        assert "api.artifacts.misses" in metrics


def test_racing_first_builds_get_one_object(monkeypatch):
    """N threads racing a first build: one profile run, one object."""
    builds = []
    original = calibration.profile_model

    def counting(*args, **kwargs):
        builds.append(threading.get_ident())
        time.sleep(0.02)  # hold the race window open past a GIL switch
        return original(*args, **kwargs)

    monkeypatch.setattr(calibration, "profile_model", counting)
    store = ArtifactStore()
    barrier = threading.Barrier(8)

    def touch():
        barrier.wait()
        return store.get(ModelSpec(name="alexnet"), IMAGENET,
                         samples_per_pe=4, optimizer="sgd")

    with ThreadPoolExecutor(max_workers=8) as pool:
        got = [f.result() for f in [pool.submit(touch) for _ in range(8)]]
    assert len(builds) == 1
    assert all(g is got[0] for g in got)


class TestAnswersUnchanged:
    DOCS = [
        ("/v1/project", BASE),
        ("/v1/project", merged(BASE, strategy={"id": "p", "segments": 4})),
        ("/v1/hybrid", merged(BASE, cluster={"pes": 16})),
        ("/v1/search", merged(BASE, search={"strategies": ["d", "z", "p"],
                                            "segments": [2, 4]})),
        ("/v1/project", CUSTOM),
    ]

    def served(self):
        with PlanningServer(port=0) as server:
            client = PlanningClient(server.url)
            return [client.request_raw("POST", path, json.dumps(doc).encode())
                    for path, doc in self.DOCS]

    def test_serve_envelopes_warm_equal_cold(self, cold_store):
        cold = self.served()
        assert len(cold_store._slots) > 0
        warm = self.served()
        assert all(status == 200 for status, _ in cold)
        assert warm == cold

    def test_sweep_results_warm_equal_cold(self, cold_store, tmp_path):
        def sweep(run):
            doc = {"model": {"name": "alexnet"}, "cluster": {"pes": 16},
                   "search": {"cache_dir": str(tmp_path / run)},
                   "sweep": {"models": ["alexnet", "vgg16", "resnet50"]}}
            result = Session(doc).sweep().to_dict()["results"]
            return json.dumps(result, sort_keys=True)

        cold = sweep("cold")
        assert len(cold_store._slots) == 3
        assert sweep("warm") == cold

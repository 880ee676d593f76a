"""Tests for the policy-driven, topology-aware CommModel selector."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import (
    CommModel,
    PAPER_DEFAULTS,
    POLICIES,
    algorithms_for,
    as_comm_model,
    broadcast_time,
    reduce_time,
    ring_allgather_time,
    ring_allreduce_time,
    ring_reduce_scatter_time,
    tree_allreduce_time,
)
from repro.network.topology import abci_like_cluster


@pytest.fixture(scope="module")
def cluster():
    return abci_like_cluster(64)


class TestConstruction:
    def test_rejects_unknown_policy(self, cluster):
        with pytest.raises(ValueError, match="unknown comm policy"):
            CommModel(cluster, policy="fastest")

    def test_rejects_unknown_forced_algorithm(self, cluster):
        with pytest.raises(KeyError, match="registered"):
            CommModel(cluster, algo={"allreduce": "wormhole"})

    def test_as_comm_model_coercions(self, cluster):
        assert as_comm_model(None, cluster).policy == "paper"
        assert as_comm_model("auto", cluster).policy == "auto"
        m = CommModel(cluster, "nccl-like")
        assert as_comm_model(m, cluster) is m


class TestPaperPolicy:
    """``paper`` must reproduce the seed's fixed ring/binomial costs."""

    @pytest.mark.parametrize("p,nbytes", [(4, 1e4), (16, 1e6), (64, 1e8)])
    def test_matches_seed_ring_formulas(self, cluster, p, nbytes):
        comm = CommModel(cluster, "paper")
        params = cluster.hockney(p)
        assert comm.time("allreduce", p, nbytes) == \
            ring_allreduce_time(p, nbytes, params)
        assert comm.time("allgather", p, nbytes) == \
            ring_allgather_time(p, nbytes, params)
        assert comm.time("reduce_scatter", p, nbytes) == \
            ring_reduce_scatter_time(p, nbytes, params)
        assert comm.time("broadcast", p, nbytes) == \
            broadcast_time(p, nbytes, params)
        assert comm.time("reduce", p, nbytes) == \
            reduce_time(p, nbytes, params)

    def test_defaults_table(self, cluster):
        comm = CommModel(cluster, "paper")
        for collective, algo in PAPER_DEFAULTS.items():
            assert comm.choose(collective, 16, 1e6).algorithm == algo

    def test_singleton_and_empty_are_free(self, cluster):
        comm = CommModel(cluster, "paper")
        assert comm.choose("allreduce", 1, 1e6).seconds == 0.0
        assert comm.choose("allreduce", 16, 0.0).seconds == 0.0


class TestAutoPolicy:
    @given(
        p=st.sampled_from([2, 4, 8, 16, 32, 64]),
        nbytes=st.floats(min_value=1.0, max_value=1e9),
        collective=st.sampled_from(sorted(PAPER_DEFAULTS)),
    )
    @settings(max_examples=80, deadline=None)
    def test_auto_never_worse_than_any_fixed_algorithm(
        self, p, nbytes, collective
    ):
        cluster = abci_like_cluster(64)
        comm = CommModel(cluster, "auto")
        choice = comm.choose(collective, p, nbytes)
        params = cluster.hockney(p)
        topo = comm.topology_hint(p)
        for algo in algorithms_for(collective):
            if not algo.supports(p, nbytes, topo):
                continue
            assert choice.seconds <= algo.cost(p, nbytes, params, topo) \
                * (1 + 1e-12)

    def test_auto_at_most_paper(self, cluster):
        auto = CommModel(cluster, "auto")
        paper = CommModel(cluster, "paper")
        for p in (2, 8, 16, 64):
            for nbytes in (1e2, 1e4, 1e6, 1e8):
                for collective in PAPER_DEFAULTS:
                    assert auto.time(collective, p, nbytes) <= \
                        paper.time(collective, p, nbytes) * (1 + 1e-12)

    def test_auto_picks_latency_algorithms_for_tiny_messages(self, cluster):
        comm = CommModel(cluster, "auto")
        choice = comm.choose("allreduce", 64, 256)
        assert choice.algorithm != "ring"

    def test_hierarchical_only_for_packed_whole_machine_scope(self, cluster):
        comm = CommModel(cluster, "auto")
        assert comm.topology_hint(4) is None          # fits in a node
        assert comm.topology_hint(16) is not None
        # Pinned scopes never consider topology-aware algorithms.
        params = cluster.hockney(16)
        c = comm.choose("allreduce", 16, 1e6, params=params,
                        scope="inter-node")
        assert c.algorithm != "hierarchical"


class TestNcclLikePolicy:
    def test_threshold_switch(self, cluster):
        comm = CommModel(cluster, "nccl-like")
        small = comm.choose("allreduce", 64, 16e3)
        large = comm.choose("allreduce", 64, 100e6)
        assert small.algorithm in ("tree", "ring")
        params = cluster.hockney(64)
        assert small.seconds == pytest.approx(min(
            tree_allreduce_time(64, 16e3, params),
            ring_allreduce_time(64, 16e3, params),
        ))
        assert large.algorithm == "ring"

    def test_non_allreduce_uses_paper_defaults(self, cluster):
        comm = CommModel(cluster, "nccl-like")
        assert comm.choose("allgather", 16, 1e3).algorithm == "ring"
        assert comm.choose("broadcast", 16, 1e3).algorithm == "binomial-tree"


class TestForcedAlgorithms:
    def test_forced_algorithm_wins(self, cluster):
        comm = CommModel(cluster, "paper",
                         algo={"allreduce": "recursive-doubling"})
        assert comm.choose("allreduce", 16, 1e8).algorithm == \
            "recursive-doubling"
        # Other collectives keep the policy default.
        assert comm.choose("allgather", 16, 1e8).algorithm == "ring"

    def test_unsupported_forced_falls_back_to_policy(self, cluster):
        comm = CommModel(cluster, "paper",
                         algo={"allreduce": "hierarchical"})
        # p=4 fits inside a node -> hierarchical ineligible -> ring.
        assert comm.choose("allreduce", 4, 1e6).algorithm == "ring"
        # p=16 spans nodes -> the forced pick applies.
        assert comm.choose("allreduce", 16, 1e6).algorithm == "hierarchical"


class TestScopesAndErrors:
    def test_scope_params_intra_node_clamped(self, cluster):
        intra = cluster.hockney_intra(16)
        assert intra == cluster.hockney(cluster.node.gpus)
        assert cluster.hockney_intra(1, floor=2) == cluster.hockney(2)
        with pytest.raises(ValueError, match="floor"):
            cluster.hockney_intra(4, floor=0)

    def test_inter_node_scope_always_resolves_fabric_params(self, cluster):
        comm = CommModel(cluster)
        # Even for a communicator smaller than a node, the pinned
        # inter-node scope must see NIC/fabric (not NVLink) parameters.
        inter = comm.scope_params(2, scope="inter-node")
        assert inter == cluster.hockney(cluster.node.gpus + 1)
        single = abci_like_cluster(4)
        with pytest.raises(ValueError, match="no inter-node scope"):
            CommModel(single).scope_params(2, scope="inter-node")

    def test_unknown_scope_and_collective(self, cluster):
        comm = CommModel(cluster)
        with pytest.raises(ValueError, match="unknown scope"):
            comm.scope_params(4, scope="planet")
        with pytest.raises(ValueError, match="unknown collective"):
            comm.choose("alltoall", 4, 1e6)

    def test_p2p(self, cluster):
        comm = CommModel(cluster)
        params = cluster.hockney(2)
        assert comm.p2p(1e6, params=params) == params.p2p(1e6)
        assert comm.p2p(1e6, p=2) == params.p2p(1e6)
        with pytest.raises(ValueError):
            comm.p2p(-1.0, params=params)

    def test_fingerprint_distinguishes_policies_and_forces(self, cluster):
        a = CommModel(cluster, "paper")
        b = CommModel(cluster, "auto")
        c = CommModel(cluster, "paper", algo={"allreduce": "tree"})
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3
        assert a.describe() == "paper"
        assert "allreduce=tree" in c.describe()

    def test_all_policies_enumerated(self):
        assert set(POLICIES) == {"paper", "auto", "nccl-like"}


class TestChoiceMemo:
    """The bounded LRU behind choose/time/scope_params."""

    def test_repeat_choose_served_from_memo(self, cluster):
        model = CommModel(cluster, policy="auto")
        first = model.choose("allreduce", 16, 1 << 20)
        assert model.choose("allreduce", 16, 1 << 20) is first
        assert model.time("allreduce", 16, 1 << 20) == first.seconds
        assert len(model._choose_memo) == 1

    def test_memo_respects_call_signature(self, cluster):
        model = CommModel(cluster, policy="auto")
        a = model.choose("allreduce", 16, 1 << 20)
        b = model.choose("allreduce", 16, 1 << 21)
        c = model.choose("allreduce", 16, 1 << 20, scope="intra-node")
        assert len(model._choose_memo) == 3
        assert a.seconds != b.seconds
        assert c.seconds != a.seconds  # NVLink scope resolves cheaper
        # pinned params key separately from resolved ones
        params = model.scope_params(16, "intra-node")
        model.choose("allreduce", 16, 1 << 20, params=params)
        assert len(model._choose_memo) == 4

    def test_fingerprint_mutation_invalidates(self, cluster):
        model = CommModel(cluster, policy="auto")
        before = model.choose("allreduce", 64, 1 << 10)
        assert len(model._choose_memo) == 1
        model.algo["allreduce"] = "recursive-doubling"  # in-place mutation
        after = model.choose("allreduce", 64, 1 << 10)
        assert after.algorithm == "recursive-doubling"
        assert len(model._choose_memo) == 1  # old entries dropped
        del model.algo["allreduce"]
        assert model.choose("allreduce", 64, 1 << 10) == before

    def test_memo_is_bounded(self, cluster):
        from repro.collectives.selector import CHOOSE_MEMO_SIZE

        model = CommModel(cluster, policy="paper")
        assert CHOOSE_MEMO_SIZE >= 1024
        # Simulate a full memo cheaply instead of 64k real calls.
        for i in range(32):
            model.choose("allreduce", 16, float(i + 1))
        model._choose_memo = type(model._choose_memo)(
            (("pad", i), None) for i in range(CHOOSE_MEMO_SIZE)
        )
        model.choose("allreduce", 16, 12345.0)
        assert len(model._choose_memo) <= CHOOSE_MEMO_SIZE

    def test_scope_params_and_hint_memoized(self, cluster):
        model = CommModel(cluster, policy="paper")
        p1 = model.scope_params(8, "auto")
        assert model.scope_params(8, "auto") is p1
        h1 = model.topology_hint(16)
        assert model.topology_hint(16) is h1
        assert model.topology_hint(2) is None  # memoizes None too
        assert 2 in model._topo_memo

    def test_pickle_drops_memos(self, cluster):
        import pickle

        model = CommModel(cluster, policy="auto")
        model.choose("allreduce", 16, 1 << 20)
        clone = pickle.loads(pickle.dumps(model))
        assert len(clone._choose_memo) == 0
        assert clone.choose("allreduce", 16, 1 << 20).seconds == \
            model.choose("allreduce", 16, 1 << 20).seconds

    def test_clear_memo(self, cluster):
        model = CommModel(cluster, policy="nccl-like")
        model.choose("allreduce", 16, 1 << 20)
        model.scope_params(8)
        model.clear_memo()
        assert not model._choose_memo and not model._params_memo


# ------------------------------------------------------- batch == choose
_PS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
_MS = (0.0, 1.0, 4096.0, 524287.0, 524288.0, 1e6, 1e8)
_SCOPES = ("auto", "intra-node", "inter-node")


def _forcings():
    from repro.collectives import registered
    return [None] + [{c: n} for c, n in registered()]


def _assert_batch_matches_choose(make, collective, scope, pin):
    """One ``time_batch`` over the ``_PS x _MS`` grid against a fresh
    model's elementwise ``choose``: seconds, labels and tallies exact."""
    import numpy as np

    from repro.network.hockney import HockneyParams

    batch, rows = make(), make()
    p = np.array(_PS)[:, None]
    m = np.array(_MS)[None, :]
    if pin == "arrays":
        alpha = np.linspace(1e-6, 5e-6, len(_PS))[:, None]
        beta = np.linspace(1e-10, 9e-10, len(_PS))[:, None]
        params = (alpha, beta)
        per_row = [HockneyParams(float(a), float(b))
                   for a, b in zip(alpha[:, 0], beta[:, 0])]
    else:
        params = HockneyParams(2e-6, 3e-10) if pin == "hockney" else None
        per_row = [params] * len(_PS)
    bc = batch.time_batch(collective, p, m, params=params, scope=scope)
    shape = (len(_PS), len(_MS))
    seconds = np.broadcast_to(bc.seconds, shape)
    index = (np.zeros(shape, dtype=int) if bc.index is None
             else np.broadcast_to(bc.index, shape))
    for i, pi in enumerate(_PS):
        for j, mj in enumerate(_MS):
            want = rows.choose(collective, pi, mj, params=per_row[i],
                               scope=scope)
            got = (bc.algorithms[index[i, j]], float(seconds[i, j]))
            assert got == (want.algorithm, want.seconds), (
                collective, scope, pin, pi, mj)
    assert batch.selections == rows.selections


class TestTimeBatchParity:
    """``time_batch`` runs the same dispatch and closed forms as
    ``choose``, over numpy columns — so every element must agree."""

    @pytest.mark.parametrize("scope", _SCOPES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_collective_and_forcing(self, cluster, policy, scope):
        from repro.collectives import COLLECTIVES

        for algo in _forcings():
            for collective in COLLECTIVES:
                for pin in (None, "hockney", "arrays"):
                    _assert_batch_matches_choose(
                        lambda: CommModel(cluster, policy, algo=algo),
                        collective, scope, pin)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_third_party_and_overwritten_builtin(self, cluster, policy):
        """A third-party registration (scalar ``cost`` only, with its own
        eligibility) and a built-in re-registered with ``overwrite=True``
        are priced by their own ``cost``, one element at a time."""
        from repro.collectives import FormulaAlgorithm, register
        from repro.collectives import registry as reg

        key = ("broadcast", "binomial-tree")
        builtin = reg._REGISTRY[key]
        register(FormulaAlgorithm(
            "allreduce", "zz-third-party",
            lambda p, m, h: 0.5 * h.p2p(m), lambda p, m: p % 2 == 0))
        register(FormulaAlgorithm(
            "broadcast", "binomial-tree", lambda p, m, h: 3.0 * h.p2p(m)),
            overwrite=True)
        try:
            assert reg.array_formula(reg._REGISTRY[key]) is None
            for algo in (None, {"allreduce": "zz-third-party"},
                         {"broadcast": "binomial-tree"}):
                for collective in ("allreduce", "broadcast"):
                    for scope in _SCOPES:
                        _assert_batch_matches_choose(
                            lambda: CommModel(cluster, policy, algo=algo),
                            collective, scope, None)
        finally:
            reg._REGISTRY.pop(("allreduce", "zz-third-party"), None)
            reg._REGISTRY[key] = builtin
        assert reg.array_formula(builtin) is not None

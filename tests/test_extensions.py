"""Tests for the paper's discussed-but-optional extensions:

* ZeRO-style sharded data parallelism (Section 5.3.2),
* multi-leader hierarchical Allreduce for Data+Spatial (Section 5.3.1),
* distributed-inference projection (Section 5.4.2),
* hybrid (p1, p2) configuration search (the oracle's "suggest" use-case).
"""

import pytest

from repro.core.analytical import AnalyticalModel
from repro.core.calibration import profile_model
from repro.core.oracle import ParaDL
from repro.core.strategies import (
    DataParallel,
    DataSpatialParallel,
    FilterParallel,
    ShardedDataParallel,
    SpatialParallel,
    StrategyError,
    strategy_from_id,
)
from repro.data import IMAGENET
from repro.models import vgg16
from repro.network.topology import abci_like_cluster
from repro.simulator import SimulationOptions, TrainingSimulator

D = IMAGENET.num_samples


@pytest.fixture(scope="module")
def vgg_env():
    model = vgg16()
    cluster = abci_like_cluster(64)
    profile = profile_model(model, samples_per_pe=32)
    return model, cluster, profile, AnalyticalModel(model, cluster, profile)


class TestShardedDataParallel:
    def test_comm_is_1_5x_plain_data(self, vgg_env):
        """Section 5.3.2: 'extra communication of 50% since two Allgathers
        of the weights are needed'."""
        _, _, _, am = vgg_env
        d = am.project(DataParallel(64), 2048, D)
        z = am.project(ShardedDataParallel(64), 2048, D)
        assert z.per_epoch.comm_ge == pytest.approx(
            1.5 * d.per_epoch.comm_ge, rel=0.05
        )

    def test_memory_shards_weights(self, vgg_env):
        model, _, _, am = vgg_env
        d = am.project(DataParallel(64), 2048, D)
        z = am.project(ShardedDataParallel(64), 2048, D)
        assert z.memory_bytes < d.memory_bytes
        # The saving is the weight+gradient term scaled by (1 - 1/p).
        weights_term = am.gamma * am.delta * sum(
            2 * l.weight_elements + l.bias_elements for l in model
        )
        expected_saving = weights_term * (1 - 1 / 64)
        assert (d.memory_bytes - z.memory_bytes) == pytest.approx(
            expected_saving, rel=0.01
        )

    def test_wu_sharded(self, vgg_env):
        _, _, profile, am = vgg_env
        z = am.project(ShardedDataParallel(64), 2048, D)
        assert z.per_epoch.comp_wu == pytest.approx(
            (D // 2048) * profile.total_wu() / 64
        )

    def test_feasibility(self, vgg_env):
        model = vgg_env[0]
        with pytest.raises(StrategyError):
            ShardedDataParallel(64).check(model, 32)

    def test_factory_id(self, vgg_env):
        model = vgg_env[0]
        s = strategy_from_id("z", 16, model, 512)
        assert isinstance(s, ShardedDataParallel)
        assert s.is_weak_scaling

    def test_simulator_agrees(self, vgg_env):
        model, cluster, profile, am = vgg_env
        z = am.project(ShardedDataParallel(64), 2048, D)
        sim = TrainingSimulator(model, cluster,
                                options=SimulationOptions(iterations=10))
        run = sim.run(ShardedDataParallel(64), 2048, D)
        assert z.accuracy_per_iteration(run.mean_iteration) > 0.9


class TestMultiLeaderAllreduce:
    def test_more_leaders_faster_up_to_rails(self, vgg_env):
        """Section 5.3.1 cites multi-leader Allreduce as the fix for the
        >2x hierarchical Allreduce overhead."""
        _, _, _, am = vgg_env
        ge = {
            L: am.project(
                DataSpatialParallel(16, (2, 2), leaders=L), 512, D
            ).per_epoch.comm_ge
            for L in (1, 2, 4)
        }
        assert ge[2] < ge[1]
        # Beyond the 2 NIC rails, contention eats part of the gain.
        assert ge[4] <= ge[2]
        assert ge[4] > ge[2] / 2  # not a free 2x

    def test_leaders_validated(self, vgg_env):
        model = vgg_env[0]
        with pytest.raises(StrategyError):
            DataSpatialParallel(16, (2, 2), leaders=8).check(model, 512)

    def test_single_leader_unchanged_default(self, vgg_env):
        _, _, _, am = vgg_env
        default = am.project(DataSpatialParallel(16, (2, 2)), 512, D)
        explicit = am.project(
            DataSpatialParallel(16, (2, 2), leaders=1), 512, D
        )
        assert default.per_epoch.comm_ge == explicit.per_epoch.comm_ge


class TestInferenceProjection:
    def test_forward_only(self, vgg_env):
        _, _, _, am = vgg_env
        inf = am.project_inference(DataParallel(64), 2048, D)
        assert inf.per_epoch.comp_bw == 0.0
        assert inf.per_epoch.comp_wu == 0.0
        assert inf.per_epoch.comm_ge == 0.0
        assert "inference (forward-only)" in inf.notes

    def test_filter_keeps_forward_allgather(self, vgg_env):
        """Table 6 'I' column: layer-wise comm persists in inference."""
        _, _, _, am = vgg_env
        train = am.project(FilterParallel(16), 32, D)
        inf = am.project_inference(FilterParallel(16), 32, D)
        assert inf.per_epoch.comm_fb > 0
        assert inf.per_epoch.comm_fb == pytest.approx(
            train.per_epoch.comm_fb / 3
        )

    def test_memory_halves(self, vgg_env):
        _, _, _, am = vgg_env
        train = am.project(DataParallel(64), 2048, D)
        inf = am.project_inference(DataParallel(64), 2048, D)
        assert inf.memory_bytes == pytest.approx(train.memory_bytes / 2)

    def test_cheaper_than_training(self, vgg_env):
        _, _, _, am = vgg_env
        train = am.project(FilterParallel(16), 32, D)
        inf = am.project_inference(FilterParallel(16), 32, D)
        assert inf.per_epoch.total < train.per_epoch.total / 2


class TestHybridSearch:
    @pytest.fixture(scope="class")
    def oracle(self, vgg_env):
        model, cluster, profile, _ = vgg_env
        return ParaDL(model, cluster, profile)

    def test_covers_divisor_space(self, oracle):
        out = oracle.search_hybrid(64, IMAGENET, samples_per_pe=8)
        parts = {
            s.strategy.p2 for s in out
            if s.strategy is not None and s.strategy.id == "df"
        }
        assert parts == {2, 4, 8, 16, 32, 64}

    def test_ranked_by_epoch_time(self, oracle):
        out = [s for s in oracle.search_hybrid(64, IMAGENET, samples_per_pe=8)
               if s.feasible]
        times = [s.epoch_time for s in out]
        assert times == sorted(times)
        assert out[0].rank == 1

    def test_all_configs_have_p_64(self, oracle):
        for s in oracle.search_hybrid(64, IMAGENET, samples_per_pe=8):
            if s.strategy is not None:
                assert s.strategy.p == 64

    def test_infeasible_reported_with_reason(self, oracle):
        out = oracle.search_hybrid(64, IMAGENET, samples_per_pe=64)
        infeasible = [s for s in out if not s.feasible]
        assert all(s.reason for s in infeasible)

    def test_each_candidate_checked_once(self, vgg_env, monkeypatch):
        """``search_hybrid`` checks through the analyzer's memo, so a
        repeated search re-checks nothing and ``project()`` adds no
        second check."""
        model, cluster, profile, _ = vgg_env
        oracle = ParaDL(model, cluster, profile)
        calls = {}
        check = SpatialParallel.check

        def counting_check(self, model, batch):
            key = (self.grid, batch)
            calls[key] = calls.get(key, 0) + 1
            return check(self, model, batch)

        monkeypatch.setattr(SpatialParallel, "check", counting_check)
        first = oracle.search_hybrid(64, IMAGENET, samples_per_pe=8)
        second = oracle.search_hybrid(64, IMAGENET, samples_per_pe=8)
        assert calls and max(calls.values()) == 1
        assert [(s.strategy, s.rank, s.reason) for s in first] == [
            (s.strategy, s.rank, s.reason) for s in second]

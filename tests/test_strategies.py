"""Unit + property tests for strategy configs and feasibility checks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.strategies import (
    ChannelParallel,
    DataFilterParallel,
    DataParallel,
    DataSpatialParallel,
    FilterParallel,
    PipelineParallel,
    Serial,
    SpatialParallel,
    StrategyError,
    strategy_from_id,
    _square_grid,
)


class TestSerial:
    def test_p_is_one(self):
        assert Serial().p == 1
        assert Serial().id == "serial"


class TestDataParallel:
    def test_ok(self, resnet50_model):
        DataParallel(64).check(resnet50_model, 2048)

    def test_p_exceeds_batch(self, resnet50_model):
        with pytest.raises(StrategyError, match="p <= B"):
            DataParallel(64).check(resnet50_model, 32)

    def test_weak_scaling_flag(self):
        assert DataParallel(4).is_weak_scaling
        assert not FilterParallel(4).is_weak_scaling


class TestSpatialParallel:
    def test_grid_product(self):
        s = SpatialParallel((4, 4))
        assert s.p == 16

    def test_min_spatial_limit(self, resnet50_model):
        # ResNet-50's smallest conv extent is 7x7 = 49.
        with pytest.raises(StrategyError, match="min"):
            SpatialParallel((8, 8)).check(resnet50_model, 64)
        SpatialParallel((7, 7)).check(resnet50_model, 64)

    def test_rank_mismatch(self, resnet50_model):
        with pytest.raises(StrategyError, match="rank"):
            SpatialParallel((2, 2, 2)).check(resnet50_model, 64)

    def test_per_dimension_limit(self, resnet50_model):
        with pytest.raises(StrategyError):
            SpatialParallel((1, 16)).check(resnet50_model, 64)

    @pytest.mark.parametrize("name", ["toy_cnn", "toy_cnn3d"])
    def test_per_dimension_errors_name_dim_and_limit(self, name):
        """Each ``grid[dim]`` error names its dimension and the smallest
        extent of that dimension over the spatially-parallelizable layers
        (the per-layer scan, recomputed here)."""
        from repro.models import build_model

        model = build_model(name)
        ndim = model.input_spec.ndim
        for dim in range(ndim):
            limit = min(l.input.spatial[dim] for l in model.layers
                        if l.spatially_parallelizable)
            grid = [1] * ndim
            grid[dim] = limit + 1
            with pytest.raises(StrategyError) as exc:
                SpatialParallel(tuple(grid)).check(model, 64)
            assert str(exc.value) == (
                f"grid[{dim}]={limit + 1} exceeds the smallest extent {limit}")
            grid[dim] = limit
            SpatialParallel(tuple(grid)).check(model, 64)


class TestPipeline:
    def test_limits(self, resnet50_model):
        PipelineParallel(4, segments=8).check(resnet50_model, 64)
        with pytest.raises(StrategyError, match="p <= G"):
            PipelineParallel(200).check(resnet50_model, 64)

    def test_segments_bounded_by_batch(self, resnet50_model):
        with pytest.raises(StrategyError, match="segments"):
            PipelineParallel(4, segments=128).check(resnet50_model, 64)


class TestFilterChannel:
    def test_filter_limit_64(self, resnet50_model):
        FilterParallel(64).check(resnet50_model, 32)
        with pytest.raises(StrategyError, match="min F_l"):
            FilterParallel(128).check(resnet50_model, 32)

    def test_channel_limit(self, resnet50_model):
        ChannelParallel(64).check(resnet50_model, 32)
        with pytest.raises(StrategyError, match="min C_l"):
            ChannelParallel(128).check(resnet50_model, 32)


class TestHybrids:
    def test_df_p_product(self):
        df = DataFilterParallel(groups=16, parts=4)
        assert df.p == 64
        assert df.p1 == 16 and df.p2 == 4

    def test_df_checks_both_dims(self, resnet50_model):
        DataFilterParallel(16, 4).check(resnet50_model, 512)
        with pytest.raises(StrategyError, match="filter"):
            DataFilterParallel(2, 128).check(resnet50_model, 512)
        with pytest.raises(StrategyError, match="p1 <= B"):
            DataFilterParallel(1024, 4).check(resnet50_model, 512)

    def test_ds_delegates_to_spatial(self, resnet50_model):
        DataSpatialParallel(16, (2, 2)).check(resnet50_model, 512)
        with pytest.raises(StrategyError):
            DataSpatialParallel(16, (8, 8)).check(resnet50_model, 512)


class TestFactory:
    @pytest.mark.parametrize("sid", ["d", "s", "p", "f", "c", "df", "ds"])
    def test_roundtrip_ids(self, sid, resnet50_model):
        p = 4 if sid in ("p",) else 16
        s = strategy_from_id(sid, p, resnet50_model, 512)
        assert s.id == sid
        assert s.p == p

    def test_unknown_id(self, resnet50_model):
        with pytest.raises(StrategyError):
            strategy_from_id("x", 4, resnet50_model, 64)

    def test_hybrid_indivisible(self, resnet50_model):
        with pytest.raises(StrategyError, match="divisible"):
            strategy_from_id("df", 6, resnet50_model, 64, intra=4)

    @given(st.integers(min_value=1, max_value=256), st.integers(min_value=1, max_value=3))
    def test_square_grid_product(self, p, ndim):
        grid = _square_grid(p, ndim)
        prod = 1
        for g in grid:
            prod *= g
        assert prod == p
        assert len(grid) == ndim

    def test_square_grid_prefers_square(self):
        assert sorted(_square_grid(16, 2)) == [4, 4]
        assert sorted(_square_grid(64, 3)) == [4, 4, 4]

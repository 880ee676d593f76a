"""Tests for analytic collective cost formulas (Section 4.3)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.collectives import (
    CommModel,
    broadcast_time,
    p2p_time,
    reduce_time,
    ring_allgather_time,
    ring_allreduce_time,
    ring_reduce_scatter_time,
    tree_allreduce_time,
)
from repro.network.hockney import HockneyParams
from repro.network.topology import abci_like_cluster

H = HockneyParams(alpha=1e-6, beta=1e-10)


class TestRingAllreduce:
    def test_formula(self):
        # 2(p-1)(alpha + m/p * beta)
        p, m = 8, 1e6
        expected = 2 * 7 * (H.alpha + m / 8 * H.beta)
        assert ring_allreduce_time(p, m, H) == pytest.approx(expected)

    def test_singleton_free(self):
        assert ring_allreduce_time(1, 1e9, H) == 0.0

    def test_detailed_split(self):
        cost = ring_allreduce_time(4, 1e6, H, detailed=True)
        assert cost.total == pytest.approx(
            cost.latency_s + cost.bandwidth_s
        )
        assert cost.latency_s == pytest.approx(6 * H.alpha)

    def test_bandwidth_term_saturates_with_p(self):
        # As p grows, the bandwidth term approaches 2*m*beta.
        t_large = ring_allreduce_time(1024, 1e9, HockneyParams(0, 1e-10))
        assert t_large == pytest.approx(2 * 1e9 * 1e-10, rel=0.01)

    @given(st.integers(min_value=2, max_value=512),
           st.floats(min_value=1.0, max_value=1e9))
    def test_positive(self, p, m):
        assert ring_allreduce_time(p, m, H) > 0

    def test_negative_message_rejected(self):
        with pytest.raises(ValueError):
            ring_allreduce_time(4, -1, H)


class TestRingAllgather:
    def test_formula(self):
        # (p-1)(alpha + seg * beta)
        p, seg = 8, 1e5
        assert ring_allgather_time(p, seg, H) == pytest.approx(
            7 * (H.alpha + seg * H.beta)
        )

    def test_relation_to_allreduce(self):
        # Allreduce of m costs ~2x the allgather of m/p segments.
        p, m = 16, 1e7
        ar = ring_allreduce_time(p, m, H)
        ag = ring_allgather_time(p, m / p, H)
        assert ar == pytest.approx(2 * ag)


class TestReduceScatter:
    def test_half_of_allreduce(self):
        p, m = 8, 1e6
        assert ring_reduce_scatter_time(p, m, H) == pytest.approx(
            ring_allreduce_time(p, m, H) / 2
        )


class TestTreeAllreduce:
    def test_footnote4_formula(self):
        import math

        p, m, k = 16, 1024, 4
        expected = 2 * (math.log2(p) + k) * (H.alpha + m / (2 * k) * H.beta)
        assert tree_allreduce_time(p, m, H, chunks=k) == pytest.approx(expected)

    def test_tree_beats_ring_for_small_messages_large_p(self):
        p, m = 512, 4096
        assert tree_allreduce_time(p, m, H) < ring_allreduce_time(p, m, H)

    def test_ring_beats_tree_for_large_messages(self):
        # Ring pipelines m/p segments; the tree moves m/(2k) chunks per
        # step, so for large m and moderate p the ring wins.
        p, m = 16, 1e9
        assert ring_allreduce_time(p, m, H) < tree_allreduce_time(p, m, H)


class TestSelection:
    def test_allreduce_selects_by_size(self):
        # The nccl-like policy: the cheaper of tree and ring below the
        # 512 KiB threshold, ring above it.
        comm = CommModel(abci_like_cluster(1024), "nccl-like")
        small = comm.time("allreduce", 512, 1024, params=H)
        assert small == min(tree_allreduce_time(512, 1024, H),
                            ring_allreduce_time(512, 1024, H))
        big = comm.time("allreduce", 8, 1e9, params=H)
        assert big == ring_allreduce_time(8, 1e9, H)


class TestOthers:
    def test_broadcast_log_steps(self):
        assert broadcast_time(8, 1e6, H) == pytest.approx(3 * H.p2p(1e6))
        assert broadcast_time(1, 1e6, H) == 0.0

    def test_reduce_equals_broadcast_cost(self):
        assert reduce_time(8, 1e6, H) == broadcast_time(8, 1e6, H)

    def test_p2p(self):
        assert p2p_time(1e6, H) == pytest.approx(H.alpha + 1e6 * H.beta)

    @given(
        st.integers(min_value=1, max_value=128),
        st.floats(min_value=0, max_value=1e8),
    )
    def test_all_nonnegative(self, p, m):
        for fn in (ring_allreduce_time, ring_reduce_scatter_time):
            assert fn(p, m, H) >= 0
        assert ring_allgather_time(p, m, H) >= 0
        assert broadcast_time(p, m, H) >= 0

    @given(
        st.integers(min_value=2, max_value=64),
        st.floats(min_value=1, max_value=1e8),
        st.floats(min_value=1.01, max_value=8.0),
    )
    def test_monotone_in_message_size(self, p, m, factor):
        assert ring_allreduce_time(p, m * factor, H) > ring_allreduce_time(p, m, H)

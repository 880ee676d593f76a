"""Unit + property tests for repro.search.pruning (feasibility pre-filters).

The load-bearing property: pruners are *conservative* — any candidate they
reject must also be rejected by the full evaluation path (strategy check,
projection raise, or out-of-memory).  A pruner that kills a feasible
candidate corrupts search results silently.
"""

import pytest

from repro.core.calibration import profile_model
from repro.core.oracle import ParaDL
from repro.core.strategies import StrategyError
from repro.data.datasets import COSMOFLOW_512, DatasetSpec
from repro.network.topology import abci_like_cluster
from repro.search import (
    Candidate,
    PruningContext,
    SearchSpace,
    apply_pruners,
    prune_memory_lower_bound,
    prune_structure,
)
from repro.search.pruning import _memory_lower_bound, apply_pruners_batch


@pytest.fixture(scope="module")
def ctx(request):
    toy = request.getfixturevalue("toy2d")
    return PruningContext(model=toy, cluster=abci_like_cluster(16))


class TestStructure:
    def test_data_needs_p_le_batch(self, ctx):
        assert prune_structure(Candidate("d", 8, batch=4), ctx)
        assert prune_structure(Candidate("d", 8, batch=8), ctx) is None

    def test_pipeline_limits(self, ctx):
        deep = len(ctx.model.layers)
        assert prune_structure(Candidate("p", deep + 1, batch=64), ctx)
        assert prune_structure(
            Candidate("p", 2, batch=4, segments=8), ctx)

    def test_filter_channel_shard_floors(self, ctx):
        too_many = ctx.min_filters + 1
        assert prune_structure(Candidate("f", too_many, batch=64), ctx)
        too_many = ctx.min_channels + 1
        assert prune_structure(Candidate("c", too_many, batch=64), ctx)

    def test_hybrid_factorization_must_multiply(self, ctx):
        bad = Candidate("df", 8, batch=64, p1=2, p2=2)
        assert "p1*p2" in prune_structure(bad, ctx)

    def test_feasible_hybrid_passes(self, ctx):
        ok = Candidate("df", 4, batch=64, p1=2, p2=2)
        assert prune_structure(ok, ctx) is None


class TestMemoryLowerBound:
    def test_cosmoflow512_small_p_is_pruned(self):
        """The paper's Section 5.3.2 case: 512^3 volumes blow 16 GB."""
        from repro.models import cosmoflow

        model = cosmoflow(COSMOFLOW_512.sample)
        ctx = PruningContext(model=model, cluster=abci_like_cluster(4))
        cand = Candidate("d", 4, batch=4)
        assert prune_memory_lower_bound(cand, ctx) is not None

    def test_small_model_not_pruned(self, ctx):
        assert prune_memory_lower_bound(
            Candidate("d", 4, batch=16), ctx) is None


class TestConservativeness:
    """Property: a pruned candidate never survives full evaluation, and the
    memory bound never exceeds the analytical model's memory."""

    @pytest.fixture(scope="class")
    def oracle(self, request):
        toy = request.getfixturevalue("toy2d")
        return ParaDL(toy, abci_like_cluster(16),
                      profile_model(toy, samples_per_pe=4))

    @pytest.fixture(scope="class")
    def dataset(self, request):
        toy = request.getfixturevalue("toy2d")
        return DatasetSpec(name="tiny", sample=toy.input_spec,
                           num_samples=4096, num_classes=10)

    def _grid(self):
        space = SearchSpace(
            pe_budgets=(2, 4, 8, 12, 16),
            samples_per_pe=(1, 4),
            segments=(2, 4),
        )
        return list(space.candidates(intra=2))

    def test_pruned_candidates_fail_full_evaluation(self, oracle, dataset):
        ctx = PruningContext(model=oracle.model, cluster=oracle.cluster,
                             gamma=oracle.analytical.gamma,
                             delta=oracle.analytical.delta)
        checked = 0
        for cand in self._grid():
            reason = apply_pruners(cand, ctx)
            if reason is None:
                continue
            checked += 1
            try:
                strategy = cand.build(oracle.model)
                proj = oracle.project(strategy, cand.batch, dataset)
            except (StrategyError, ValueError):
                continue  # full path rejects too: consistent
            assert not proj.feasible_memory, (
                f"pruner rejected feasible candidate {cand.describe()}: "
                f"{reason}"
            )
        assert checked, "grid produced no pruned candidates to verify"

    def test_memory_bound_below_analytical(self, oracle, dataset):
        ctx = PruningContext(model=oracle.model, cluster=oracle.cluster,
                             gamma=oracle.analytical.gamma,
                             delta=oracle.analytical.delta)
        compared = 0
        for cand in self._grid():
            try:
                strategy = cand.build(oracle.model)
                proj = oracle.project(strategy, cand.batch, dataset)
            except (StrategyError, ValueError):
                continue
            bound = _memory_lower_bound(cand, ctx)
            assert bound <= proj.memory_bytes * (1 + 1e-9), (
                f"{cand.describe()}: bound {bound} > "
                f"analytical {proj.memory_bytes}"
            )
            compared += 1
        assert compared >= 10


#: Structurally invalid candidates no search space expands: every limit
#: of the rule table, zero and negative dimensions, unknown ids.
_HAND_MADE = (
    Candidate("d", 0, batch=4), Candidate("z", 4, batch=0),
    Candidate("d", 8, batch=4), Candidate("s", 10 ** 6, batch=4),
    Candidate("p", 10 ** 4, batch=4), Candidate("p", 4, batch=2, segments=8),
    Candidate("f", 10 ** 5, batch=4), Candidate("c", 10 ** 5, batch=4),
    Candidate("df", 8, batch=64, p1=3, p2=3),
    Candidate("df", 8, batch=4, p1=8, p2=1),
    Candidate("df", 8, batch=64, p1=-2, p2=-4),
    Candidate("ds", 8, batch=64, p1=0, p2=0),
    Candidate("ds", 10 ** 6, batch=10 ** 6, p1=1, p2=10 ** 6),
    Candidate("df", 10 ** 6, batch=10 ** 6, p1=1, p2=10 ** 6),
    Candidate("serial", 1, batch=32), Candidate("xx", 3, batch=0),
    Candidate("d", 8, batch=10 ** 7), Candidate("f", 2, batch=10 ** 6),
)


class TestBatchParity:
    """``apply_pruners_batch`` runs the same rule table as the scalar
    pruners over columns: verdicts, reason texts and first-rejection
    order must match ``apply_pruners`` candidate for candidate."""

    @pytest.mark.parametrize("pes", (64, 256))
    def test_exhaustive_zoo_spaces(self, pes):
        from repro.data import DATASETS
        from repro.models import MODEL_BUILDERS, build_model

        space = SearchSpace(pe_budgets=(pes,), comm_policies=("paper", "auto"),
                            exhaustive=True)
        cluster = abci_like_cluster(pes)
        cands = list(space.candidates(intra=cluster.node.gpus))
        if pes == 256:
            assert len(cands) == 9960
        rejected = 0
        for name in sorted(MODEL_BUILDERS):
            sample = DATASETS["cosmoflow256"].sample
            model = build_model(name, sample if name == "cosmoflow" else None)
            ctx = PruningContext(model=model, cluster=cluster)
            got = apply_pruners_batch(cands, ctx)
            assert got == [apply_pruners(c, ctx) for c in cands], name
            rejected += sum(r is not None for r in got)
        assert rejected  # the spaces exercise the rejection paths

    def test_hand_made_invalid_candidates(self, ctx):
        cands = list(_HAND_MADE) * 4  # enough rows for the column pass
        want = [apply_pruners(c, ctx) for c in cands]
        assert sum(r is not None for r in want) >= len(_HAND_MADE) - 2
        assert apply_pruners_batch(cands, ctx) == want

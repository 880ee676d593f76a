"""The production path == the reference path, in both of its modes.

``path="fast"`` (the default) writes each strategy family's Table-3
closed form once and runs it two ways: one row of Python numbers for
:meth:`AnalyticalModel.project` and numpy columns for
:meth:`AnalyticalModel.project_batch`.  The original per-layer walks
survive as ``path="reference"``.  These tests pin the equivalence:

* **model zoo x strategy families x comm policies** (plus forced
  algorithms): ``project()``, ``project_batch()`` and the reference walk
  agree on every projection field to ``rel <= 1e-9`` (``abs 1e-15``),
  and on the categorical metadata — notes, policy, per-phase algorithm
  log — *exactly*; inference projections likewise;
* **golden seed projections**: under the paper policy both paths
  reproduce ``tests/data/golden_projections_seed.json`` to that bound;
* **randomized mixes**: seeded random (family, p, B, segments, policy)
  batches — infeasible draws included — give ``project_batch`` ==
  ``project`` per candidate, with *error parity* (same exception type
  and message, aligned per item);
* error behaviour: a grid / stage count the model cannot host raises the
  same ``ValueError`` from both paths, and again once memoized;
* checkpointed pipelines run the same closed form in both modes.
"""

import json
import os
import random

import pytest

from repro.collectives.selector import CommModel
from repro.core.analytical import Projection
from repro.core.calibration import profile_model
from repro.core.oracle import ParaDL
from repro.core.strategies import (
    ALL_STRATEGY_IDS,
    PipelineParallel,
    Serial,
    StrategyError,
    strategy_from_id,
)
from repro.data import DATASETS
from repro.models import MODEL_BUILDERS, build_model
from repro.network.topology import abci_like_cluster

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_projections_seed.json")

with open(GOLDEN_PATH) as fh:
    GOLDEN = json.load(fh)

ZOO = tuple(sorted(MODEL_BUILDERS))
POLICIES = ("paper", "auto", "nccl-like")
#: Forced algorithms: array-formula ones and the hierarchical allreduce,
#: which ``CommModel.time_batch`` resolves through its scalar loop.
FORCED = (
    {"allreduce": "recursive-doubling", "allgather": "recursive-doubling"},
    {"allreduce": "tree", "reduce_scatter": "recursive-halving",
     "broadcast": "scatter-allgather"},
    {"allreduce": "hierarchical"},
)
PES = 16
SAMPLES_PER_PE = 8

_ORACLES = {}


def _oracle_for(model_name: str):
    if model_name not in _ORACLES:
        ds_name = "imagenet" if model_name != "cosmoflow" else "cosmoflow256"
        dataset = DATASETS[ds_name]
        input_spec = (
            dataset.sample
            if model_name == "cosmoflow" and dataset.sample.ndim == 3
            else None
        )
        model = build_model(model_name, input_spec)
        cluster = abci_like_cluster(PES)
        profile = profile_model(model, samples_per_pe=32)
        _ORACLES[model_name] = (
            ParaDL(model, cluster, profile), model, cluster, dataset)
    return _ORACLES[model_name]


def _strategies_for(model_name: str):
    """Every strategy family the model can host at the test budget,
    bound suggest-style (weak scalers at ``spp * p``, strong scalers at
    one node's worth of samples)."""
    oracle, model, cluster, dataset = _oracle_for(model_name)
    fixed = SAMPLES_PER_PE * cluster.node.gpus
    cases = [(Serial(), fixed)]
    for sid in ALL_STRATEGY_IDS:
        try:
            strategy = strategy_from_id(
                sid, PES, model, max(PES, fixed), segments=4,
                intra=cluster.node.gpus,
            )
            batch = (
                SAMPLES_PER_PE * PES if strategy.is_weak_scaling else fixed
            )
            strategy.check(model, batch)
        except StrategyError:
            continue  # family infeasible for this model at this budget
        cases.append((strategy, batch))
    return cases


def _assert_equivalent(got, want, label=""):
    assert isinstance(got, Projection), (label, got)
    g, w = got.per_epoch.asdict(), want.per_epoch.asdict()
    for field, value in w.items():
        assert g[field] == pytest.approx(value, rel=1e-9, abs=1e-15), (
            label, field)
    assert got.memory_bytes == pytest.approx(
        want.memory_bytes, rel=1e-9), label
    assert got.iterations == want.iterations, label
    assert got.notes == want.notes, label
    assert got.comm_policy == want.comm_policy, label
    assert got.comm_algorithms == want.comm_algorithms, label


def _row_outcome(analytical, strategy, batch, dataset_size, comm):
    try:
        return analytical.project(strategy, batch, dataset_size, comm=comm)
    except (StrategyError, ValueError) as exc:
        return exc


def _assert_outcomes_match(got, want, label=""):
    if isinstance(want, Exception):
        assert type(got) is type(want), (label, got)
        assert str(got) == str(want), label
    else:
        _assert_equivalent(got, want, label)


def _assert_modes_match_reference(analytical, cases, dataset_size, comm,
                                  tag):
    """``project()`` and ``project_batch()`` == the reference walk, and
    == each other, for every ``(strategy, batch)`` case."""
    results = analytical.project_batch(
        [s for s, _ in cases], [b for _, b in cases], dataset_size,
        comms=[comm] * len(cases))
    assert len(results) == len(cases)
    for (strategy, batch), got in zip(cases, results):
        label = f"{tag}:{strategy.id}"
        row = analytical.project(strategy, batch, dataset_size, comm=comm)
        ref = analytical.project(
            strategy, batch, dataset_size, comm=comm, path="reference")
        _assert_equivalent(row, ref, label + ":row")
        _assert_equivalent(got, ref, label + ":columns")
        _assert_equivalent(got, row, label + ":columns-vs-row")


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("model_name", ZOO)
def test_fast_path_matches_reference(model_name, policy):
    oracle, model, cluster, dataset = _oracle_for(model_name)
    analytical = oracle.analytical
    cases = _strategies_for(model_name)
    assert len(cases) > 1, "expected at least one non-serial family"
    for strategy, batch in cases:
        fast = analytical.project(
            strategy, batch, dataset.num_samples, comm=policy)
        ref = analytical.project(
            strategy, batch, dataset.num_samples, comm=policy,
            path="reference")
        _assert_equivalent(fast, ref, f"{model_name}:{strategy.id}")


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("model_name", ZOO)
def test_batch_matches_scalar_and_reference(model_name, policy):
    oracle, model, cluster, dataset = _oracle_for(model_name)
    cases = _strategies_for(model_name)
    assert len(cases) > 1, "expected at least one non-serial family"
    _assert_modes_match_reference(
        oracle.analytical, cases, dataset.num_samples, policy,
        f"{model_name}:{policy}")


@pytest.mark.parametrize("forced", FORCED, ids=lambda f: ",".join(
    f"{c}={a}" for c, a in sorted(f.items())))
def test_forced_algorithms_match_reference(forced):
    for model_name in ZOO:
        oracle, model, cluster, dataset = _oracle_for(model_name)
        comm = CommModel(cluster, policy="auto", algo=forced)
        _assert_modes_match_reference(
            oracle.analytical, _strategies_for(model_name),
            dataset.num_samples, comm, f"{model_name}:{forced}")


@pytest.mark.parametrize("model_name", ZOO)
def test_fast_inference_matches_reference(model_name):
    oracle, model, cluster, dataset = _oracle_for(model_name)
    analytical = oracle.analytical
    for strategy, batch in _strategies_for(model_name):
        fast = analytical.project_inference(
            strategy, batch, dataset.num_samples)
        ref = analytical.project_inference(
            strategy, batch, dataset.num_samples, path="reference")
        _assert_equivalent(fast, ref, f"{model_name}:{strategy.id}")


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_fast_path_reproduces_golden_seed(key):
    """Both paths under the paper policy == the seed projections."""
    model_name, sid, ps, bs, ds = key.split(":")
    p, B, D = (int(x.split("=")[1]) for x in (ps, bs, ds))
    oracle, model, cluster, dataset = _oracle_for(model_name)
    if p > cluster.total_gpus:
        cluster = abci_like_cluster(p)
        profile = profile_model(model, samples_per_pe=32)
        oracle = ParaDL(model, cluster, profile)
    strategy = (
        Serial() if sid == "serial"
        else strategy_from_id(
            sid, p, model, max(p, B), segments=4, intra=cluster.node.gpus)
    )
    want = GOLDEN[key]
    [batched] = oracle.analytical.project_batch([strategy], [B], D)
    for path in ("fast", "reference", "batch"):
        proj = (batched if path == "batch"
                else oracle.analytical.project(strategy, B, D, path=path))
        got = proj.per_epoch.asdict()
        for field, value in want["per_epoch"].items():
            assert got[field] == pytest.approx(
                value, rel=1e-9, abs=1e-15), (path, field)
        assert proj.memory_bytes == pytest.approx(
            want["memory_bytes"], rel=1e-9), path


def _random_cases(model, cluster, rng, count):
    """Seeded (strategy-or-error, batch, comm) mix, infeasibles included."""
    cases = []
    while len(cases) < count:
        sid = rng.choice(ALL_STRATEGY_IDS + ("serial",))
        p = rng.choice((1, 2, 3, 4, 6, 8, 12, 16))
        spp = rng.choice((1, 4, 8, 32))
        comm = rng.choice(("paper", "auto", "nccl-like", None))
        try:
            strategy = (
                Serial() if sid == "serial"
                else strategy_from_id(
                    sid, p, model, max(p, spp * p),
                    segments=rng.choice((2, 4, 8)),
                    intra=cluster.node.gpus)
            )
        except StrategyError:
            continue  # unbuildable shapes never reach project_batch
        cases.append((strategy, spp * max(1, p), comm))
    return cases


def test_randomized_mix_value_and_error_parity():
    """One mixed batch per model: random families, budgets, policies."""
    rng = random.Random(20260807)
    errors = 0
    for model_name in ZOO:
        oracle, model, cluster, dataset = _oracle_for(model_name)
        analytical = oracle.analytical
        cases = _random_cases(model, cluster, rng, count=40)
        strategies = [s for s, _, _ in cases]
        batches = [b for _, b, _ in cases]
        comms = [c for _, _, c in cases]
        results = analytical.project_batch(
            strategies, batches, dataset.num_samples, comms=comms)
        for (strategy, batch, comm), got in zip(cases, results):
            want = _row_outcome(
                analytical, strategy, batch, dataset.num_samples, comm)
            errors += isinstance(want, Exception)
            _assert_outcomes_match(
                got, want, f"{model_name}:{strategy.id}:b={batch}:{comm}")
    assert errors, "expected some infeasible draws across the zoo"


@pytest.mark.parametrize("ds_name", ["cosmoflow256", "cosmoflow512"])
def test_layerwise_columns_equal_rows_exactly(ds_name):
    """``project()`` == ``project_batch()`` bit for bit on the layer-wise
    leg: both add a row's distinct activation sizes left to right (a
    pairwise column sum differed in the last ulp of ``comm_fb`` on
    these CosmoFlow data+filter factorizations)."""
    from repro.core.math_utils import divisors
    from repro.core.strategies import DataFilterParallel

    dataset = DATASETS[ds_name]
    model = build_model("cosmoflow", dataset.sample)
    analytical = ParaDL(model, abci_like_cluster(PES),
                        profile_model(model, samples_per_pe=32)).analytical
    cases = [
        (DataFilterParallel(groups=p // p2, parts=p2), spp * p)
        for p in divisors(PES) if p > 1
        for p2 in divisors(p)
        for spp in (1, 2, 4)
    ]
    results = analytical.project_batch(
        [s for s, _ in cases], [b for _, b in cases], dataset.num_samples)
    checked = 0
    for (strategy, batch), got in zip(cases, results):
        want = _row_outcome(
            analytical, strategy, batch, dataset.num_samples, None)
        label = f"{strategy.describe()} B={batch}"
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want), label
            continue
        assert got.per_iteration.asdict() == want.per_iteration.asdict(), \
            label
        assert got.per_epoch.asdict() == want.per_epoch.asdict(), label
        assert got.memory_bytes == want.memory_bytes, label
        assert got.comm_algorithms == want.comm_algorithms, label
        checked += 1
    assert checked


def test_checkpointed_pipeline_batched_matches_reference():
    """Checkpointed and plain pipelines share one closed form: a mixed
    batch (several stage counts, so the per-row memory max runs over
    stage groups of different depths) == the reference walk."""
    oracle, model, cluster, dataset = _oracle_for("resnet50")
    analytical = oracle.analytical
    cases = [
        (PipelineParallel(stages, segments=segments, checkpoint=ckpt), batch)
        for stages in (1, 2, 4, 8)
        for segments in (1, 4)
        for ckpt in (False, True)
        for batch in (32, 96)
    ]
    _assert_modes_match_reference(
        analytical, cases, dataset.num_samples, None, "pipeline")
    results = analytical.project_batch(
        [s for s, _ in cases], [b for _, b in cases], dataset.num_samples)
    plain = {(s.stages, s.segments, b): r.memory_bytes
             for (s, b), r in zip(cases, results) if not s.checkpoint}
    for (s, b), r in zip(cases, results):
        if s.checkpoint and s.segments > 1:
            assert r.memory_bytes < plain[s.stages, s.segments, b]
            assert "gradient checkpointing" in r.notes[-1]


def test_invalid_batch_yields_per_item_valueerror():
    oracle, model, cluster, dataset = _oracle_for("toy_cnn")
    results = oracle.analytical.project_batch(
        [Serial(), Serial()], [0, 8], dataset.num_samples)
    assert isinstance(results[0], ValueError)
    assert "dataset_size" in str(results[0])
    assert isinstance(results[1], Projection)


def test_misaligned_inputs_rejected():
    oracle, model, cluster, dataset = _oracle_for("toy_cnn")
    with pytest.raises(ValueError, match="align"):
        oracle.analytical.project_batch([Serial()], [8, 8], 64)
    with pytest.raises(ValueError, match="align"):
        oracle.analytical.project_batch(
            [Serial()], [8], 64, comms=["paper", "paper"])


def test_unknown_path_rejected():
    oracle, model, cluster, dataset = _oracle_for("toy_cnn")
    with pytest.raises(ValueError, match="unknown projection path"):
        oracle.analytical.project(Serial(), 8, 64, path="warp")


def test_fast_path_raises_reference_errors_and_memoizes_them():
    """A stage count the chain cannot host raises identically from both
    paths — including on the second (memoized) ask."""
    oracle, model, cluster, dataset = _oracle_for("toy_cnn")
    analytical = oracle.analytical
    stages = len(model.layers)  # every stage a single layer
    strategy = strategy_from_id(
        "p", stages, model, 64, segments=2, intra=cluster.node.gpus)
    fast = analytical.project(strategy, 64, dataset.num_samples)
    ref = analytical.project(
        strategy, 64, dataset.num_samples, path="reference")
    _assert_equivalent(fast, ref)
    # Spatial: a grid no layer hosts raises the same ValueError twice
    # (the second raise comes from the kernel's memoized error entry).
    from repro.core.analytical import spatial_extent_of

    bad_grid = (10 ** 9,) * model.input_spec.ndim
    with pytest.raises(ValueError) as ref_exc:
        spatial_extent_of(model, bad_grid)
    for _ in range(2):
        with pytest.raises(ValueError) as fast_exc:
            analytical.kernel.spatial(bad_grid)
        assert str(fast_exc.value) == str(ref_exc.value)


def test_column_resolution_error_reprojects_rows():
    """A Hockney resolution the cluster cannot host fails the whole
    column group; the group is re-projected row by row, so each
    candidate gets exactly what ``project()`` gives it."""
    oracle, model, cluster, dataset = _oracle_for("resnet50")
    analytical = oracle.analytical
    # More stages than the cluster has GPUs, but not than the chain has
    # layers: feasible for the model, unresolvable for the cluster.
    too_wide = PipelineParallel(cluster.total_gpus * 2, segments=2)
    assert too_wide.stages <= len(model.layers)
    fits = PipelineParallel(2, segments=2)
    strategies = [fits, too_wide, fits]
    batches = [64, 64, 32]
    results = analytical.project_batch(
        strategies, batches, dataset.num_samples)
    for strategy, batch, got in zip(strategies, batches, results):
        want = _row_outcome(
            analytical, strategy, batch, dataset.num_samples, None)
        _assert_outcomes_match(got, want, f"p={strategy.stages}")
    assert "num_pes" in str(results[1])


def test_kernel_is_built_once_and_session_memoizes_it():
    oracle, model, cluster, dataset = _oracle_for("toy_cnn")
    analytical = oracle.analytical
    assert analytical.kernel is analytical.kernel
    from repro.api.session import Session

    session = Session({"model": {"name": "toy_cnn"},
                       "cluster": {"pes": 4}})
    assert session.kernel is session.oracle.analytical.kernel
    assert session.kernel is session.kernel


def test_comm_override_memo_tracks_forcing_mutation():
    """A policy-string override must see in-place mutation of the bound
    comm's forcing, exactly like the pre-memo throwaway selectors did."""
    oracle, model, cluster, dataset = _oracle_for("toy_cnn")
    analytical = oracle.analytical
    strategy = strategy_from_id("d", 4, model, 64, intra=cluster.node.gpus)
    before = analytical.project(
        strategy, 64, dataset.num_samples, comm="paper")
    assert dict(before.comm_algorithms) == {"ge": "allreduce:ring"}
    analytical.comm.algo["allreduce"] = "recursive-doubling"
    try:
        after = analytical.project(
            strategy, 64, dataset.num_samples, comm="paper")
        assert dict(after.comm_algorithms) == {
            "ge": "allreduce:recursive-doubling"}
        [batched] = analytical.project_batch(
            [strategy], [64], dataset.num_samples, comms=["paper"])
        assert batched.comm_algorithms == after.comm_algorithms
    finally:
        del analytical.comm.algo["allreduce"]
    again = analytical.project(
        strategy, 64, dataset.num_samples, comm="paper")
    assert dict(again.comm_algorithms) == {"ge": "allreduce:ring"}


def test_divisors_is_cached_and_warm_lookups_are_fast():
    """``divisors`` is ``lru_cache``-memoized and the warm hit beats
    re-factorization by a wide margin."""
    import timeit

    from repro.core import math_utils

    cached = math_utils._divisors_cached
    assert hasattr(cached, "cache_info"), "divisors must be lru_cached"
    cached.cache_clear()
    n = 720720  # highly composite: 240 divisors, a worst-ish case
    first = math_utils.divisors(n)
    assert math_utils.divisors(n) == first
    info = cached.cache_info()
    assert info.hits >= 1 and info.misses == 1

    cold = timeit.timeit(lambda: cached.__wrapped__(n), number=200)
    warm = timeit.timeit(lambda: math_utils.divisors(n), number=200)
    # Warm lookups are a dict hit plus one list copy; 5x is far below
    # the observed gap (>50x) but safely above CI-runner noise.
    assert warm * 5 < cold, (warm, cold)

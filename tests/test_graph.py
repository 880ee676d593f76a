"""Unit tests for ModelGraph: validation, aggregates, partitioning."""

import pytest

from repro.core.graph import ModelGraph
from repro.core.layers import Add, Conv, FullyConnected, Flatten, ReLU
from repro.core.tensors import TensorSpec
from repro.models import MODEL_BUILDERS, build_model


def _chain():
    c1 = Conv("c1", TensorSpec(3, (8, 8)), 8, kernel=3, padding=1)
    r1 = ReLU("r1", c1.output)
    c2 = Conv("c2", r1.output, 16, kernel=3, padding=1)
    f = Flatten("f", c2.output)
    fc = FullyConnected("fc", f.output, 10)
    return [c1, r1, c2, f, fc]


class TestValidation:
    def test_valid_chain(self):
        g = ModelGraph("m", _chain())
        assert len(g) == 5

    def test_shape_mismatch_rejected(self):
        layers = _chain()
        bad = Conv("bad", TensorSpec(4, (8, 8)), 8, kernel=1)
        with pytest.raises(ValueError, match="shape mismatch"):
            ModelGraph("m", layers[:1] + [bad])

    def test_duplicate_names_rejected(self):
        c1 = Conv("dup", TensorSpec(3, (8, 8)), 3, kernel=3, padding=1)
        c2 = Conv("dup", c1.output, 3, kernel=3, padding=1)
        with pytest.raises(ValueError, match="duplicate"):
            ModelGraph("m", [c1, c2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ModelGraph("m", [])

    def test_skip_shape_validated(self):
        c1 = Conv("c1", TensorSpec(3, (8, 8)), 8, kernel=3, padding=1)
        c2 = Conv("c2", c1.output, 8, kernel=3, padding=1)
        add = Add("add", c2.output, skip_of="c1")
        g = ModelGraph("m", [c1, c2, add])
        assert g["add"].skip_of == "c1"

    def test_skip_to_unknown_layer_rejected(self):
        c1 = Conv("c1", TensorSpec(3, (8, 8)), 8, kernel=3, padding=1)
        add = Add("add", c1.output, skip_of="ghost")
        with pytest.raises(ValueError, match="unknown layer|does not precede"):
            ModelGraph("m", [c1, add])

    def test_branch_parent(self):
        c1 = Conv("c1", TensorSpec(3, (8, 8)), 8, kernel=3, padding=1)
        c2 = Conv("c2", c1.output, 8, kernel=3, padding=1)
        # Branch layer reading from c1 directly.
        side = Conv("side", c1.output, 8, kernel=1)
        side.parent = "c1"
        add = Add("add", side.output, skip_of="c2")
        g = ModelGraph("m", [c1, c2, side, add])
        assert g["side"].parent == "c1"

    def test_parent_must_precede(self):
        c1 = Conv("c1", TensorSpec(3, (8, 8)), 8, kernel=3, padding=1)
        c2 = Conv("c2", c1.output, 8, kernel=3, padding=1)
        c2.parent = "c3"  # refers to a layer that comes later
        c3 = Conv("c3", c2.output, 8, kernel=3, padding=1)
        with pytest.raises(ValueError, match="does not precede"):
            ModelGraph("m", [c1, c2, c3])


class TestAggregates:
    def test_parameters(self):
        g = ModelGraph("m", _chain())
        assert g.parameters == sum(l.parameters for l in _chain())

    def test_stats(self):
        g = ModelGraph("m", _chain())
        s = g.stats()
        assert s.num_layers == 5
        assert s.parameters == g.parameters
        assert s.flops_backward >= s.flops_forward
        assert s.max_layer_activation >= 10

    def test_indexing(self):
        g = ModelGraph("m", _chain())
        assert g["c1"].name == "c1"
        assert g[0].name == "c1"
        assert g.index_of("fc") == 4

    def test_weighted_layers(self):
        g = ModelGraph("m", _chain())
        assert [l.name for l in g.weighted_layers] == ["c1", "c2", "fc"]

    def test_min_filters_channels(self):
        g = ModelGraph("m", _chain())
        assert g.min_filters() == 8  # c1
        # skip_first skips c1's 3 input channels.
        assert g.min_channels(skip_first=True) == 8
        assert g.min_channels(skip_first=False) == 3

    def test_min_spatial(self):
        g = ModelGraph("m", _chain())
        assert g.min_spatial() == 64  # all convs see 8x8

    def test_input_output_specs(self):
        g = ModelGraph("m", _chain())
        assert g.input_spec == TensorSpec(3, (8, 8))
        assert g.output_spec == TensorSpec(10)


class TestPartitionDepth:
    def test_single_group(self):
        g = ModelGraph("m", _chain())
        groups = g.partition_depth(1)
        assert len(groups) == 1
        assert len(groups[0]) == 5

    def test_group_count_and_coverage(self):
        g = ModelGraph("m", _chain())
        for parts in (2, 3, 4, 5):
            groups = g.partition_depth(parts)
            assert len(groups) == parts
            flat = [l.name for grp in groups for l in grp]
            assert flat == [l.name for l in g]

    def test_contiguity(self):
        g = ModelGraph("m", _chain())
        groups = g.partition_depth(3)
        assert all(grp for grp in groups)

    def test_too_many_parts(self):
        g = ModelGraph("m", _chain())
        with pytest.raises(ValueError):
            g.partition_depth(6)

    def test_resnet50_64_stages(self, resnet50_model):
        groups = resnet50_model.partition_depth(64)
        assert len(groups) == 64
        assert sum(len(g) for g in groups) == len(resnet50_model)

    def test_balances_flops(self, resnet50_model):
        groups = resnet50_model.partition_depth(4)
        loads = [sum(l.forward_flops() for l in g) for g in groups]
        assert max(loads) < 2.5 * (sum(loads) / len(loads))


def _reference_partition(layers, parts):
    """The original partitioner, which re-summed every group per split;
    kept here as the spec the prefix-sum version must reproduce."""
    if not 1 <= parts <= len(layers):
        raise ValueError(f"parts must be in [1, {len(layers)}], got {parts}")
    total = sum(l.forward_flops() for l in layers)
    target = total / parts
    groups, current, acc, remaining_groups = [], [], 0.0, parts
    for i, layer in enumerate(layers):
        current.append(layer)
        acc += layer.forward_flops()
        remaining_layers = len(layers) - i - 1
        if (remaining_groups > 1 and acc >= target
                and remaining_layers >= remaining_groups - 1):
            groups.append(current)
            current, acc = [], 0.0
            remaining_groups -= 1
    if current:
        groups.append(current)
    while len(groups) < parts:
        idx = max(
            (i for i, g in enumerate(groups) if len(g) >= 2),
            key=lambda i: sum(l.forward_flops() for l in groups[i]),
            default=None,
        )
        if idx is None:
            raise ValueError("cannot split model into that many stages")
        g = groups[idx]
        mid = len(g) // 2
        groups[idx:idx + 1] = [g[:mid], g[mid:]]
    return groups


def _outcome(partition, *args):
    try:
        return [[l.name for l in g] for g in partition(*args)]
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestPartitionMatchesReference:
    """The prefix-sum partitioner yields the original algorithm's groups,
    errors included, for every zoo model and stage count."""

    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_every_stage_count(self, name):
        model = build_model(name)
        counts = list(range(1, min(len(model), 128) + 1))
        counts += [0, len(model) + 1]
        for parts in counts:
            assert _outcome(model.partition_depth, parts) == _outcome(
                _reference_partition, model.layers, parts), (name, parts)

    def test_tied_groups_split_the_earliest(self):
        # One heavy conv, then six equal ReLUs: the greedy pass closes
        # [conv] and leaves [r1..r6]; halving that makes two equal
        # groups, and the next split must take the earlier one.
        conv = Conv("c", TensorSpec(3, (16, 16)), 8, kernel=3, padding=1)
        relus = [ReLU(f"r{i}", conv.output) for i in range(1, 7)]
        g = ModelGraph("m", [conv] + relus)
        assert _outcome(g.partition_depth, 4) == [
            ["c"], ["r1"], ["r2", "r3"], ["r4", "r5", "r6"]]
        for parts in range(1, len(g) + 2):
            assert _outcome(g.partition_depth, parts) == _outcome(
                _reference_partition, g.layers, parts)

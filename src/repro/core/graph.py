"""Model graph: an ordered chain of layers with residual skip metadata.

The analytical model of the paper sums per-layer quantities over an ordered
set of ``G`` layers, so a chain representation is the natural IR.  Residual
connections (ResNet) are recorded as metadata on :class:`~repro.core.layers.Add`
layers — they affect the activation-memory analysis (skip activations stay
live) but not the chain ordering.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from .caching import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .layers import Add, Layer
from .tensors import TensorSpec

__all__ = ["ModelGraph", "GraphStats"]


@dataclass(frozen=True)
class GraphStats:
    """Aggregate statistics over a :class:`ModelGraph` (per sample)."""

    num_layers: int
    parameters: int
    weight_elements: int
    bias_elements: int
    activation_elements: int
    input_elements: int
    max_layer_activation: int
    flops_forward: int
    flops_backward: int


class ModelGraph:
    """An ordered CNN layer chain.

    Parameters
    ----------
    name:
        Model name (e.g. ``resnet50``).
    layers:
        Ordered layer list; each layer's input spec must match its
        predecessor's output spec (Add layers must also match their skip
        source).
    """

    def __init__(self, name: str, layers: Sequence[Layer]) -> None:
        if not layers:
            raise ValueError("a model needs at least one layer")
        self.name = name
        self.layers: List[Layer] = list(layers)
        self._by_name: Dict[str, Layer] = {}
        for layer in self.layers:
            if layer.name in self._by_name:
                raise ValueError(f"duplicate layer name {layer.name!r}")
            self._by_name[layer.name] = layer
        self._validate_chain()

    def _validate_chain(self) -> None:
        seen: Dict[str, Layer] = {}
        for i, cur in enumerate(self.layers):
            if i > 0:
                if cur.parent is not None:
                    src = seen.get(cur.parent)
                    if src is None:
                        raise ValueError(
                            f"{cur.name} declares parent {cur.parent!r} which "
                            f"does not precede it"
                        )
                else:
                    src = self.layers[i - 1]
                if src.output != cur.input:
                    raise ValueError(
                        f"shape mismatch: {src.name} outputs {src.output} but "
                        f"{cur.name} expects {cur.input}"
                    )
            seen[cur.name] = cur
        for layer in self.layers:
            if isinstance(layer, Add) and layer.skip_of is not None:
                src = self._by_name.get(layer.skip_of)
                if src is None:
                    raise ValueError(
                        f"{layer.name} skips from unknown layer {layer.skip_of!r}"
                    )
                if src.output != layer.input:
                    raise ValueError(
                        f"skip shape mismatch: {src.name} outputs {src.output} "
                        f"but {layer.name} adds {layer.input}"
                    )

    # ---- access ---------------------------------------------------------
    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, key) -> Layer:
        if isinstance(key, str):
            return self._by_name[key]
        return self.layers[key]

    @property
    def input_spec(self) -> TensorSpec:
        return self.layers[0].input

    @property
    def output_spec(self) -> TensorSpec:
        return self.layers[-1].output

    def index_of(self, name: str) -> int:
        for i, layer in enumerate(self.layers):
            if layer.name == name:
                return i
        raise KeyError(name)

    # ---- aggregates -------------------------------------------------------
    # Aggregates are cached: the layer chain is fixed at construction and
    # the analyzers / strategy checks consult these once per candidate,
    # which used to re-walk the whole chain on the search hot path.
    @cached_property
    def parameters(self) -> int:
        return sum(l.parameters for l in self.layers)

    @cached_property
    def weight_elements(self) -> int:
        return sum(l.weight_elements for l in self.layers)

    @cached_property
    def weighted_layers(self) -> List[Layer]:
        """Layers with trainable weights (the paper counts these as 'layers'
        when quoting depths like ResNet-*50*)."""
        return [l for l in self.layers if l.has_weights]

    def stats(self) -> GraphStats:
        return GraphStats(
            num_layers=len(self.layers),
            parameters=self.parameters,
            weight_elements=self.weight_elements,
            bias_elements=sum(l.bias_elements for l in self.layers),
            activation_elements=sum(l.output.elements for l in self.layers),
            input_elements=self.input_spec.elements,
            max_layer_activation=max(l.output.elements for l in self.layers),
            flops_forward=sum(l.forward_flops() for l in self.layers),
            flops_backward=sum(l.backward_flops() for l in self.layers),
        )

    # ---- parallelism limits (Table 3, last column) -----------------------
    @cached_property
    def _min_filters(self) -> int:
        return min(l.out_channels for l in self.weighted_layers)

    def min_filters(self) -> int:
        """``min_l F_l`` over weighted layers — the filter-parallel limit."""
        return self._min_filters

    @cached_property
    def _min_channels(self) -> Tuple[int, int]:
        layers = self.weighted_layers
        skipped = layers[1:] if len(layers) > 1 else layers
        return (
            min(l.in_channels for l in layers),
            min(l.in_channels for l in skipped),
        )

    def min_channels(self, skip_first: bool = True) -> int:
        """``min_l C_l`` over weighted layers — the channel-parallel limit.

        ``skip_first`` mirrors the paper's implementation note: channel
        parallelism starts at the second layer because e.g. ImageNet has
        only 3 input channels.
        """
        return self._min_channels[1 if skip_first else 0]

    def min_spatial(self) -> int:
        """``min_l (W_l x H_l ...)`` over spatially-parallelizable layers."""
        extents = self._spatial_extents
        if not extents:
            raise ValueError(f"{self.name} has no spatially-parallelizable layer")
        return min(extents)

    @cached_property
    def _spatial_extents(self) -> Tuple[int, ...]:
        return tuple(
            l.input.spatial_elements
            for l in self.layers
            if l.spatially_parallelizable
        )

    @cached_property
    def _spatial_dim_minima(self) -> Tuple[int, ...]:
        """Per input dimension, the smallest extent over spatially-
        parallelizable layers — the largest grid entry spatial
        parallelism can use there."""
        split = [l for l in self.layers if l.spatially_parallelizable]
        return tuple(
            min(l.input.spatial[dim] for l in split)
            for dim in range(self.input_spec.ndim)
        )

    def __getstate__(self):
        """Pickle without the (possibly shared) partition memo."""
        state = self.__dict__.copy()
        state.pop("_partition_memo", None)
        return state

    def partition_depth(self, parts: int) -> List[List[Layer]]:
        """Split the chain into ``parts`` contiguous composite layers.

        Used by layer/pipeline parallelism.  The split balances *forward
        FLOPs* greedily, which is the heuristic GPipe-style schedulers use
        in practice; the analytic pipeline model then takes the max over
        composite layers.  Partitions are memoized per ``parts`` (the
        chain is immutable and a strategy search asks for the same stage
        counts over and over); callers get fresh outer lists but share
        the group lists — treat them as read-only.
        """
        memo = self.__dict__.setdefault("_partition_memo", {})
        cached = memo.get(parts)
        if cached is not None:
            return list(cached)
        groups = self._partition_depth_uncached(parts)
        memo[parts] = tuple(groups)
        return groups

    def _partition_depth_uncached(self, parts: int) -> List[List[Layer]]:
        if not 1 <= parts <= len(self.layers):
            raise ValueError(
                f"parts must be in [1, {len(self.layers)}], got {parts}"
            )
        flops = [l.forward_flops() for l in self.layers]
        # prefix[i] sums flops[:i]; FLOPs are ints, so group sums are
        # exact and ties break exactly as a per-group re-sum would.
        prefix = list(itertools.accumulate(flops, initial=0))
        target = prefix[-1] / parts
        spans: List[Tuple[int, int]] = []
        start = 0
        acc = 0.0
        remaining_groups = parts
        for i, f in enumerate(flops):
            acc += f
            remaining_layers = len(flops) - i - 1
            # Close the group when we hit the FLOP target, but never leave
            # fewer layers than groups still to fill.
            if (
                remaining_groups > 1
                and acc >= target
                and remaining_layers >= remaining_groups - 1
            ):
                spans.append((start, i + 1))
                start = i + 1
                acc = 0.0
                remaining_groups -= 1
        if start < len(flops):
            spans.append((start, len(flops)))
        # The FLOP-greedy pass can come up short when early layers dominate;
        # split the heaviest multi-layer groups (earliest first on ties)
        # until the count is met.
        heap = [(prefix[a] - prefix[b], a, b) for a, b in spans if b - a >= 2]
        heapq.heapify(heap)
        while len(spans) < parts:
            if not heap:  # every group is a single layer already
                raise ValueError("cannot split model into that many stages")
            _, a, b = heapq.heappop(heap)
            mid = a + (b - a) // 2
            spans.remove((a, b))
            for half in ((a, mid), (mid, b)):
                spans.append(half)
                if half[1] - half[0] >= 2:
                    heapq.heappush(
                        heap, (prefix[half[0]] - prefix[half[1]], *half))
        return [self.layers[a:b] for a, b in sorted(spans)]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ModelGraph({self.name}: {len(self.layers)} layers, "
            f"{self.parameters / 1e6:.1f}M params)"
        )

"""Compiled per-model projection invariants: the *model kernel*.

Projecting one candidate used to re-walk the full
:class:`~repro.core.graph.ModelGraph` in Python — summing element counts
layer by layer, re-partitioning the chain for every pipeline stage
count, re-deriving halo tables per spatial grid — which capped the
strategy search at a few thousand candidates per second.  The whole
point of the analytical oracle is to be cheap enough to sweep strategy
spaces real training cannot, so the per-candidate cost must be
arithmetic, not graph traversal.

A :class:`ModelKernel` precomputes, once per ``(model, profile)``:

* the profile totals and per-layer **FW/BW/WU prefix sums** (any
  contiguous layer span aggregates in O(1)),
* exact **integer element sums** behind every memory closed form
  (activation I/O, weights, biases — integers, so the closed forms lose
  nothing to summation order),
* the **layer-wise collective table**: the distinct activation sizes of
  the filter/channel Allgather+Allreduce chain with multiplicities, in
  first-appearance order (so the per-phase algorithm log is reproduced
  exactly),
* **pipeline stage tables** keyed by stage count (stage maxima, the
  heaviest boundary activation, per-stage memory coefficients),
* **spatial tables** keyed by decomposition grid (halo element totals,
  split/unsplit activation sums).

The fast-path analyzers in :mod:`repro.core.analytical` reduce a
projection to closed-form arithmetic over these terms plus a handful of
memoized :class:`~repro.collectives.selector.CommModel` calls.  Fast
and reference paths agree to ``rel <= 1e-9`` (the only difference is
floating-point reassociation of per-layer sums) — enforced across the
model zoo x strategy families x comm policies by
``tests/test_fast_path_equivalence.py`` and by the golden seed
projections under the paper policy.

Tables are filled lazily and memoized per (store-shared) kernel; a grid
or stage count that the model cannot host memoizes its error message, so
the fast path raises exactly what the reference path raises.  Memo
access is safe under thread pools (worst case, two threads compute the
same immutable entry and one write wins).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from .graph import ModelGraph
from .profiles import ComputeProfile

__all__ = ["KernelArrays", "ModelKernel", "PipelineTable", "SpatialTable"]


@dataclass(frozen=True)
class KernelArrays:
    """The layer-wise collective table as float64 ndarrays.

    Feeds the column mode of the closed forms
    (:meth:`~repro.core.analytical.AnalyticalModel.project_batch`): the
    batched Allgather+Allreduce leg runs as one ``(candidates, sizes)``
    matrix instead of a per-layer Python loop.  Activation sizes sit far
    below 2**53, so they are exact in float64.
    """

    #: Distinct layer-wise activation sizes ``|y|`` (first-appearance order).
    layerwise_y: Any
    #: Multiplicity of each distinct activation size.
    layerwise_count: Any


@dataclass(frozen=True)
class PipelineTable:
    """Invariants of one pipeline partition (``stages`` composite layers).

    ``mem_groups`` carries, per stage, the coefficients of the memory
    closed form ``gamma * delta * (B * io2 + wb)`` (``io2`` =
    ``2 sum (|x|+|y|)``, ``wb`` = ``2 sum |w| + sum |bi|``) plus the
    stage's boundary activation ``|y|`` for the checkpointing variant.
    """

    sizes: Tuple[int, ...]
    max_fw: float
    max_bw: float
    max_wu: float
    #: Largest stage-boundary activation ``|y|`` (0 when single-stage).
    max_boundary: int
    mem_groups: Tuple[Tuple[int, int, int], ...]


@dataclass(frozen=True)
class SpatialTable:
    """Invariants of one spatial decomposition ``grid``.

    ``halo_pairs`` counts the layers that actually exchange a halo and
    ``halo_elements`` is ``sum_l (halo(|x_l|) + halo(|y_l|))`` over
    them, so the per-iteration halo time collapses to
    ``4 alpha * halo_pairs + 2 B delta beta * halo_elements``.
    """

    #: ``sum (|x|+|y|)`` over the spatially-split leading layers.
    split_io: int
    #: ``sum (|x|+|y|)`` over the remaining (unsplit) layers.
    rest_io: int
    halo_pairs: int
    halo_elements: int


class ModelKernel:
    """Frozen projection invariants for one ``(model, profile)`` pair.

    Built once per model by the artifact store (:mod:`repro.api.
    artifacts`), or lazily by a hand-built analyzer.  All fields are
    read-only by convention; the lazy memos only ever gain entries.
    """

    def __init__(self, model: ModelGraph, profile: ComputeProfile) -> None:
        self.model = model
        self.profile = profile
        # Profile totals, computed exactly as the reference analyzers do
        # (same iteration order), so compute terms stay bit-identical.
        self.fw_total = profile.total_fw()
        self.bw_total = profile.total_bw()
        self.wu_total = profile.total_wu()
        layers = model.layers
        # Per-layer prefix sums: prefix[i] aggregates layers[:i], so any
        # contiguous span [a, b) reduces to prefix[b] - prefix[a].  The
        # element sums are integers — exact under any association.
        fw_p, bw_p, wu_p = [0.0], [0.0], [0.0]
        io_p, wb_p, out_p = [0], [0], [0]
        for l in layers:
            t = profile.layer(l.name)
            fw_p.append(fw_p[-1] + t.forward)
            bw_p.append(bw_p[-1] + t.backward)
            wu_p.append(wu_p[-1] + t.weight_update)
            io_p.append(io_p[-1] + l.input.elements + l.output.elements)
            wb_p.append(wb_p[-1] + 2 * l.weight_elements + l.bias_elements)
            out_p.append(out_p[-1] + l.output.elements)
        self.fw_prefix = tuple(fw_p)
        self.bw_prefix = tuple(bw_p)
        self.wu_prefix = tuple(wu_p)
        self.io_prefix = tuple(io_p)
        self.wb_prefix = tuple(wb_p)
        #: ``sum_l |w_l|`` — the gradient-exchange message (elements).
        self.weight_elements = model.weight_elements
        #: ``sum_l (|x_l| + |y_l|)`` — the activation term of every
        #: memory closed form.
        self.io_elements = io_p[-1]
        #: ``sum_l (2 |w_l| + |bi_l|)`` — the weight-state term.
        self.weight2_plus_bias = wb_p[-1]
        #: ``sum_l |bi_l|`` alone (memory forms that shard weights but
        #: replicate biases).
        self.bias_elements = self.weight2_plus_bias - 2 * self.weight_elements
        # Layer-wise collective table: the filter/channel chain runs an
        # Allgather + Allreduce per weighted layer but the last, with
        # message size proportional to |y_l|.  CNNs repeat a handful of
        # activation shapes, so one (size -> count) table in first-
        # appearance order replaces the per-layer loop while reproducing
        # the reference algorithm log exactly.
        counts: Dict[int, int] = {}
        for l in model.weighted_layers[:-1]:
            y = l.output.elements
            counts[y] = counts.get(y, 0) + 1
        self.layerwise_sizes: Tuple[Tuple[int, int], ...] = tuple(
            counts.items()
        )
        self._pipeline_memo: Dict[int, Union[PipelineTable, str]] = {}
        self._spatial_memo: Dict[
            Tuple[int, ...], Union[SpatialTable, str]
        ] = {}
        self._arrays: Optional[KernelArrays] = None
        #: Feasibility verdicts of every analyzer adopting this kernel.
        self.check_memo: Dict[Tuple, object] = {}

    # ---------------------------------------------------------------- arrays
    def arrays(self) -> KernelArrays:
        """The layer-wise table as ndarrays.

        Built lazily on first use and cached; safe under the thread pool
        (two racing builders produce identical immutable tables).
        """
        tables = self._arrays
        if tables is None:
            tables = KernelArrays(
                layerwise_y=np.asarray(
                    [y for y, _ in self.layerwise_sizes], dtype=np.float64
                ),
                layerwise_count=np.asarray(
                    [c for _, c in self.layerwise_sizes], dtype=np.float64
                ),
            )
            self._arrays = tables
        return tables

    # -------------------------------------------------------------- pipeline
    def pipeline(self, stages: int) -> PipelineTable:
        """The stage table for a ``stages``-deep pipeline (memoized).

        Raises the same :class:`ValueError` as
        :meth:`ModelGraph.partition_depth` for stage counts the chain
        cannot host (the error memoizes too).
        """
        entry = self._pipeline_memo.get(stages)
        if entry is None:
            entry = self._build_pipeline(stages)
            self._pipeline_memo[stages] = entry
        if isinstance(entry, str):
            raise ValueError(entry)
        return entry

    def _build_pipeline(self, stages: int) -> Union[PipelineTable, str]:
        try:
            groups = self.model.partition_depth(stages)
        except ValueError as exc:
            return str(exc)
        sizes = tuple(len(g) for g in groups)
        bounds = [0]
        for n in sizes:
            bounds.append(bounds[-1] + n)
        spans = list(zip(bounds[:-1], bounds[1:]))
        fw_g = [self.fw_prefix[b] - self.fw_prefix[a] for a, b in spans]
        bw_g = [self.bw_prefix[b] - self.bw_prefix[a] for a, b in spans]
        wu_g = [self.wu_prefix[b] - self.wu_prefix[a] for a, b in spans]
        boundary = [g[-1].output.elements for g in groups[:-1]]
        mem_groups = tuple(
            (
                2 * (self.io_prefix[b] - self.io_prefix[a]),
                self.wb_prefix[b] - self.wb_prefix[a],
                groups[i][-1].output.elements,
            )
            for i, (a, b) in enumerate(spans)
        )
        return PipelineTable(
            sizes=sizes,
            max_fw=max(fw_g),
            max_bw=max(bw_g),
            max_wu=max(wu_g),
            max_boundary=max(boundary) if boundary else 0,
            mem_groups=mem_groups,
        )

    # --------------------------------------------------------------- spatial
    def spatial(self, grid: Tuple[int, ...]) -> SpatialTable:
        """The halo/split table for ``grid`` (memoized).

        Raises the same :class:`ValueError` as
        :func:`~repro.core.analytical.spatial_extent_of` for grids no
        layer can host.
        """
        grid = tuple(grid)
        entry = self._spatial_memo.get(grid)
        if entry is None:
            entry = self._build_spatial(grid)
            self._spatial_memo[grid] = entry
        if isinstance(entry, str):
            raise ValueError(entry)
        return entry

    def _build_spatial(self, grid: Tuple[int, ...]) -> Union[SpatialTable, str]:
        # Local import: analytical imports this module for the fast path.
        from .analytical import spatial_extent_of
        from .tensors import halo_elements

        try:
            split = spatial_extent_of(self.model, grid)
        except ValueError as exc:
            return str(exc)
        split_io = sum(l.input.elements + l.output.elements for l in split)
        halo_pairs = 0
        halo_sum = 0
        for layer in split:
            if not layer.kernel or max(layer.kernel, default=1) <= 1:
                continue
            hx = halo_elements(layer.input, grid, layer.kernel)
            hy = halo_elements(layer.output, grid, layer.kernel)
            if hx == 0 and hy == 0:
                continue
            halo_pairs += 1
            halo_sum += hx + hy
        return SpatialTable(
            split_io=split_io,
            rest_io=self.io_elements - split_io,
            halo_pairs=halo_pairs,
            halo_elements=halo_sum,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ModelKernel({self.model.name}: {len(self.model.layers)} "
            f"layers, {len(self.layerwise_sizes)} distinct activations)"
        )

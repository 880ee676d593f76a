"""Per-layer compute-time profiles (the empirical half of the oracle).

ParaDL deliberately does *not* derive computation time analytically: "we
empirically profile the average computation time per sample of each layer
(or group of layers) on the target architecture" (Section 4.4).  This module
defines the container those profiles live in.  Profiles are produced either
by the roofline GPU model in :mod:`repro.simulator.compute` (our simulated
stand-in for profiling a V100) or supplied by the user from real
measurements — the oracle consumes them identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .graph import ModelGraph
from .layers import Layer

__all__ = ["LayerTimes", "ComputeProfile"]


@dataclass(frozen=True)
class LayerTimes:
    """Measured times for one layer.

    ``forward`` and ``backward`` are seconds *per sample* (``FW_l`` and
    ``BW_l`` in the paper's notation); ``weight_update`` is seconds *per
    iteration* (``WU_l`` — independent of batch size, proportional to
    parameter count).
    """

    forward: float
    backward: float
    weight_update: float = 0.0

    def __post_init__(self) -> None:
        if min(self.forward, self.backward, self.weight_update) < 0:
            raise ValueError("layer times must be >= 0")


class ComputeProfile:
    """A per-layer time table for one model on one device.

    Access by layer name; aggregate helpers mirror the sums that appear in
    Table 3 (``sum_l FW_l``, ``max_i FW_Gi`` for pipeline groups, ...).
    Immutable once built, so the artifact store shares it between oracles.
    """

    def __init__(self, model_name: str, times: Mapping[str, LayerTimes]) -> None:
        if not times:
            raise ValueError("profile must contain at least one layer")
        self.model_name = model_name
        self._times: Mapping[str, LayerTimes] = MappingProxyType(dict(times))

    def __reduce__(self):
        return (type(self), (self.model_name, dict(self._times)))

    # ---- access -----------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._times

    def __len__(self) -> int:
        return len(self._times)

    def layer(self, name: str) -> LayerTimes:
        try:
            return self._times[name]
        except KeyError:
            raise KeyError(
                f"layer {name!r} missing from profile of {self.model_name}"
            ) from None

    def fw(self, name: str) -> float:
        return self.layer(name).forward

    def bw(self, name: str) -> float:
        return self.layer(name).backward

    def wu(self, name: str) -> float:
        return self.layer(name).weight_update

    # ---- aggregates ---------------------------------------------------------
    def total_fw(self) -> float:
        """``sum_l FW_l`` (seconds per sample)."""
        return sum(t.forward for t in self._times.values())

    def total_bw(self) -> float:
        return sum(t.backward for t in self._times.values())

    def total_wu(self) -> float:
        """``sum_l WU_l`` (seconds per iteration)."""
        return sum(t.weight_update for t in self._times.values())

    def group_fw(self, layers: Iterable[Layer]) -> float:
        """``FW_Gi = sum_{l in g_i} FW_l`` for a pipeline composite layer."""
        return sum(self.fw(l.name) for l in layers)

    def group_bw(self, layers: Iterable[Layer]) -> float:
        return sum(self.bw(l.name) for l in layers)

    def group_wu(self, layers: Iterable[Layer]) -> float:
        return sum(self.wu(l.name) for l in layers)

    def validate_against(self, model: ModelGraph) -> None:
        """Ensure the profile covers every layer of ``model``."""
        missing = [l.name for l in model if l.name not in self._times]
        if missing:
            raise ValueError(
                f"profile for {self.model_name} is missing layers: "
                f"{missing[:5]}{'...' if len(missing) > 5 else ''}"
            )

    def scaled(self, factor: float) -> "ComputeProfile":
        """A uniformly scaled copy (e.g. the paper's x8 extrapolation of
        CosmoFlow 256^3 profiles to 512^3 samples)."""
        if factor <= 0:
            raise ValueError("factor must be > 0")
        return ComputeProfile(
            self.model_name,
            {
                name: LayerTimes(
                    forward=t.forward * factor,
                    backward=t.backward * factor,
                    weight_update=t.weight_update * factor,
                )
                for name, t in self._times.items()
            },
        )

    def items(self):
        return self._times.items()

"""Empirical parametrization (Section 4.4).

ParaDL's parameters come in two groups, both *measured* rather than derived:

* **Computation** (``FW_l``, ``BW_l``, ``WU_l``): profiled per layer on the
  target device.  :func:`profile_model` produces the table from the
  simulated V100 roofline — the stand-in for running the paper's layer
  benchmarks.
* **Communication** (``alpha``, ``beta``): measured by sweeping collective
  message sizes (OSU micro-benchmarks / nccl-tests in the paper) and
  interpolating.  :func:`measure_allreduce_curve` runs the sweep on the
  simulated fabric and :func:`fit_hockney` recovers (alpha, beta) by linear
  least squares — the interpolation step of the paper.

The fitted parameters are *invariant to the parallelism strategy* (the
paper's key portability claim): they depend on the system and transport
only, and the analytical model reuses them across all strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..network.hockney import HockneyParams
from ..network.topology import ClusterSpec
from .graph import ModelGraph
from .profiles import ComputeProfile

__all__ = [
    "fit_hockney",
    "measure_allreduce_curve",
    "calibrate_cluster",
    "profile_model",
    "estimate_gamma",
    "CalibrationResult",
]


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted communication parameters plus fit quality."""

    params: HockneyParams
    residual_rms: float
    num_points: int
    pattern: str
    p: int


def fit_hockney(
    message_sizes: Sequence[float],
    times: Sequence[float],
    p: int,
    pattern: str = "allreduce",
) -> CalibrationResult:
    """Fit (alpha, beta) from measured collective times.

    For a ring Allreduce ``t(m) = 2(p-1) alpha + 2(p-1)/p * m * beta`` is
    linear in ``m``; an ordinary least-squares line through the sweep
    recovers both parameters.  ``pattern`` selects the step-count model
    ("allreduce", "allgather", or "p2p").
    """
    sizes = [float(m) for m in message_sizes]
    t = [float(x) for x in times]
    if len(sizes) != len(t) or len(sizes) < 2:
        raise ValueError("need >= 2 matching (size, time) points")
    if p < 2 and pattern != "p2p":
        raise ValueError("collective fits need p >= 2")
    if pattern == "allreduce":
        step_count = 2 * (p - 1)
        bytes_per_step = [m / p for m in sizes]
    elif pattern == "allgather":
        step_count = p - 1
        bytes_per_step = sizes  # sweep is per-PE segment size
    elif pattern == "p2p":
        step_count = 1
        bytes_per_step = sizes
    else:
        raise ValueError(f"unknown pattern {pattern!r}")

    # t = step_count * alpha + step_count * bytes_per_step * beta
    slope, intercept = np.polyfit(bytes_per_step, t, 1)
    alpha = max(0.0, float(intercept) / step_count)
    beta = max(0.0, float(slope) / step_count)
    residual = math.sqrt(sum(
        (step_count * (alpha + x * beta) - y) ** 2
        for x, y in zip(bytes_per_step, t)) / len(t))
    return CalibrationResult(
        params=HockneyParams(alpha=alpha, beta=beta),
        residual_rms=residual,
        num_points=len(sizes),
        pattern=pattern,
        p=p,
    )


def measure_allreduce_curve(
    cluster: ClusterSpec,
    p: int,
    message_sizes: Sequence[float],
    transport: str = "nccl",
    congestion=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run the micro-benchmark sweep on the simulated fabric.

    Returns ``(sizes, times)`` — the nccl-tests stand-in the fit consumes.
    """
    from ..simulator.collectives_sim import CollectiveSimulator

    sim = CollectiveSimulator(cluster, congestion)
    gpus = list(range(p))
    sizes = [float(m) for m in message_sizes]
    times = [sim.ring_allreduce(gpus, m, transport=transport) for m in sizes]
    return np.asarray(sizes), np.asarray(times)


def calibrate_cluster(
    cluster: ClusterSpec,
    p: int,
    message_sizes: Optional[Sequence[float]] = None,
    transport: str = "nccl",
) -> CalibrationResult:
    """End-to-end calibration: sweep + fit for a ``p``-wide communicator.

    The resulting parameters differ between intra-node and inter-node
    ``p`` — "alpha and beta become different when changing the number of
    processing elements in a hierarchical computing architecture"
    (Section 4.4).
    """
    if message_sizes is None:
        message_sizes = [2.0 ** e for e in range(12, 29, 2)]  # 4 KiB..256 MiB
    sizes, times = measure_allreduce_curve(
        cluster, p, message_sizes, transport=transport
    )
    return fit_hockney(sizes, times, p, pattern="allreduce")


def profile_model(
    model: ModelGraph,
    samples_per_pe: int,
    gpu=None,
    optimizer: str = "sgd",
    delta: int = 4,
) -> ComputeProfile:
    """Profile per-layer compute times (the paper's Section 4.4 step).

    ``samples_per_pe`` is the tuned per-device batch (``b`` in Figure 3) at
    which the profiling runs — efficiency depends on it, which is why the
    paper tunes it per model/strategy.
    """
    from ..simulator.compute import GpuComputeModel, V100

    model_gpu = gpu if gpu is not None else V100
    return GpuComputeModel(model_gpu, delta=delta, optimizer=optimizer).profile(
        model, samples_per_pe
    )


def estimate_gamma(
    naive_bytes: float,
    measured_peak_bytes: float,
) -> float:
    """Memory-reuse factor gamma = measured peak / naive aggregate.

    The paper derives gamma from layer-level memory profiling studies; given
    a measured peak (e.g. from a framework's allocator stats) this returns
    the factor to plug into the analytical memory model.
    """
    if naive_bytes <= 0 or measured_peak_bytes <= 0:
        raise ValueError("byte counts must be > 0")
    gamma = measured_peak_bytes / naive_bytes
    if gamma > 1.0:
        raise ValueError(
            f"measured peak ({measured_peak_bytes}) exceeds the naive "
            f"aggregate ({naive_bytes}); check the inputs"
        )
    return gamma

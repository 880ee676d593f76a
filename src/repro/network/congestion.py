"""External network congestion model (for Figure 6).

The paper distinguishes *self-contention* (modeled analytically via the
penalty coefficient phi) from *external congestion* caused by other jobs on
the shared fat-tree, which it deliberately excludes from the oracle but
observes empirically: most measured collective times align with the
theoretical bandwidth line, while a minority of outliers land up to ~4x
higher (Section 5.3.1, Figure 6).

:class:`CongestionModel` reproduces that empirical distribution: each
collective invocation draws a multiplicative slowdown that is 1.0 with
probability ``1 - outlier_rate`` and a heavy-tailed (lognormal, clipped)
factor otherwise.  The simulator applies it to inter-node communication
events; the oracle never does — which is exactly why the paper's accuracy
dips on congested runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CongestionModel"]


@dataclass
class CongestionModel:
    """Stochastic external-congestion multiplier.

    Parameters
    ----------
    outlier_rate:
        Probability that a collective hits congestion at all.  The paper's
        scatter plots show a small fraction of outliers; ~10% reproduces
        their look at 512 GPUs.
    max_slowdown:
        Upper clip for the slowdown factor ("up to four times higher than
        expected").
    sigma:
        Lognormal shape of the outlier tail.
    seed:
        RNG seed; the model is deterministic given a seed.
    scale_with_span:
        If True, the outlier rate grows with the fraction of the fabric the
        job spans (large jobs see more congestion — the paper observed
        congestion "when approaching 1K GPUs").
    """

    outlier_rate: float = 0.10
    max_slowdown: float = 4.0
    sigma: float = 0.6
    seed: int = 0
    scale_with_span: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.outlier_rate <= 1.0:
            raise ValueError("outlier_rate must be in [0, 1]")
        if self.max_slowdown < 1.0:
            raise ValueError("max_slowdown must be >= 1")
        self._rng = np.random.default_rng(self.seed)

    def reset(self, seed: int | None = None) -> None:
        """Re-seed the internal RNG (fresh, reproducible sample path)."""
        self._rng = np.random.default_rng(
            self.seed if seed is None else seed)

    def effective_rate(self, span_fraction: float = 1.0) -> float:
        """Outlier probability for a job spanning ``span_fraction`` of the
        fabric (in [0, 1])."""
        if not 0.0 <= span_fraction <= 1.0:
            raise ValueError("span_fraction must be in [0, 1]")
        if not self.scale_with_span:
            return self.outlier_rate
        # Linear ramp: tiny jobs see ~1/4 of the base rate, fabric-wide jobs
        # see the full rate.
        return self.outlier_rate * (0.25 + 0.75 * span_fraction)

    def sample_slowdown(self, span_fraction: float = 1.0) -> float:
        """Draw one multiplicative slowdown (>= 1.0)."""
        rate = self.effective_rate(span_fraction)
        if self._rng.random() >= rate:
            return 1.0
        draw = float(self._rng.lognormal(mean=0.35, sigma=self.sigma))
        return float(min(max(draw, 1.0), self.max_slowdown))

    def sample_many(self, n: int, span_fraction: float = 1.0) -> "np.ndarray":
        """Vectorized draw of ``n`` slowdowns."""
        if n < 0:
            raise ValueError("n must be >= 0")
        rate = self.effective_rate(span_fraction)
        hits = self._rng.random(n) < rate
        draws = self._rng.lognormal(mean=0.35, sigma=self.sigma, size=n)
        draws = np.clip(draws, 1.0, self.max_slowdown)
        return np.where(hits, draws, 1.0)

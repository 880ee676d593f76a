"""Dataset descriptors (Table 5) and synthetic batch generation.

The oracle and simulator consume only sample *shapes* and *counts*; the
NumPy execution substrate needs actual tensor values, for which random data
is statistically adequate (the paper's correctness validation compares
parallel vs sequential outputs on the same inputs — any inputs).

Substitution note (see DESIGN.md): the paper trains on ImageNet (1.28M
3 x 226^2 samples) and the NERSC CosmoFlow volumes (1584 4 x 256^3
samples).  We mirror their shapes and cardinalities exactly; pixel values
are synthetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..core.tensors import TensorSpec

__all__ = [
    "DatasetSpec",
    "IMAGENET",
    "COSMOFLOW_256",
    "COSMOFLOW_512",
    "DATASETS",
    "synthetic_batch",
]


@dataclass(frozen=True)
class DatasetSpec:
    """A dataset: per-sample tensor spec, cardinality, label arity."""

    name: str
    sample: TensorSpec
    num_samples: int
    num_classes: int = 1000
    #: Bytes per stored element (uint8 images vs fp32 volumes).
    storage_itemsize: int = 1

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")

    @property
    def sample_bytes(self) -> int:
        return self.sample.elements * self.storage_itemsize

    @property
    def total_bytes(self) -> int:
        return self.sample_bytes * self.num_samples

    def iterations_per_epoch(self, batch: int) -> int:
        """``I = D / B``."""
        if batch < 1:
            raise ValueError("batch must be >= 1")
        return max(1, self.num_samples // batch)


#: ImageNet-1k as used in the paper (Table 5 quotes 3 x 226^2; the standard
#: crop is 224^2 and we keep the standard so model FLOP counts match the
#: literature).
IMAGENET = DatasetSpec(
    name="imagenet",
    sample=TensorSpec(3, (224, 224)),
    num_samples=1_281_167,
    num_classes=1000,
    storage_itemsize=1,
)

#: CosmoFlow volumes at 256^3 (the paper's Table 5: 1584 samples, 4 channels).
COSMOFLOW_256 = DatasetSpec(
    name="cosmoflow256",
    sample=TensorSpec(4, (256, 256, 256)),
    num_samples=1584,
    num_classes=4,
    storage_itemsize=4,
)

#: CosmoFlow at 512^3 (the spatial experiments; first-layer activations
#: exceed 10 GB -- Section 5.3.2).
COSMOFLOW_512 = DatasetSpec(
    name="cosmoflow512",
    sample=TensorSpec(4, (512, 512, 512)),
    num_samples=1584,
    num_classes=4,
    storage_itemsize=4,
)

DATASETS: Dict[str, DatasetSpec] = {
    d.name: d for d in (IMAGENET, COSMOFLOW_256, COSMOFLOW_512)
}


def synthetic_batch(
    spec: TensorSpec,
    batch: int,
    seed: Optional[int] = None,
    dtype=None,
) -> "np.ndarray":
    """Generate a random batch ``[batch, channels, *spatial]``.

    Values are drawn from N(0, 1); deterministic given ``seed``.
    ``dtype`` defaults to ``numpy.float32``.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if dtype is None:
        dtype = np.float32
    rng = np.random.default_rng(seed)
    shape = (batch, spec.channels) + spec.spatial
    return rng.standard_normal(shape).astype(dtype)

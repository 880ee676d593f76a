"""Process-wide store of per-model build artifacts: graph, profile, kernel.

The paper's oracle profiles a model once (Section 4.4); every strategy
question after that is Table-3 arithmetic.  The model graph, its compute
profile and the compiled :class:`~repro.core.kernel.ModelKernel` depend
only on the model spec, the dataset's default input, ``samples_per_pe``
and ``optimizer`` — cluster, comm policy and gamma bind later, in the
oracle.  :data:`ARTIFACTS` keeps one :class:`ModelArtifacts` per such key
(at most :data:`CAPACITY`, least recently used first out), so every
Session, search oracle and sweep cell over one model shares them, and the
kernel's lazily filled memos outlive any one session.  Sharing is sound
because graphs and profiles are never mutated after build.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..core.graph import ModelGraph
from ..core.kernel import ModelKernel
from ..core.profiles import ComputeProfile

__all__ = ["ARTIFACTS", "CAPACITY", "ArtifactStore", "ModelArtifacts"]

#: Most distinct ``(model, input, samples_per_pe, optimizer)`` entries
#: kept live (serve_cold's 144 scenarios need 12).
CAPACITY = 32


@dataclass(frozen=True)
class ModelArtifacts:
    """The shared, read-only build products of one model."""

    graph: ModelGraph
    profile: ComputeProfile
    kernel: ModelKernel

    def oracle(self, cluster, *, gamma: float, comm=None, scenario=None):
        """A :class:`~repro.core.oracle.ParaDL` adopting the shared kernel."""
        from ..core.oracle import ParaDL

        return ParaDL(self.graph, cluster, self.profile, gamma=gamma,
                      comm=comm, scenario=scenario, kernel=self.kernel)


class _Slot:
    """One entry, built once under its own lock (so builds of different
    models do not wait on each other)."""

    __slots__ = ("lock", "value")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.value = None


class ArtifactStore:
    """LRU-bounded, content-keyed ``key -> ModelArtifacts`` memo.

    :meth:`get` counts its hits, misses and evictions into the caller's
    :class:`~repro.obs.metrics.MetricsRegistry` as ``api.artifacts.*``.
    """

    def __init__(self) -> None:
        self._slots: "OrderedDict[tuple, _Slot]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, model, dataset, *, samples_per_pe: int, optimizer: str,
            metrics=None) -> ModelArtifacts:
        """The artifacts of ``model`` (a :class:`~repro.api.spec.
        ModelSpec`) profiled at ``samples_per_pe`` with ``optimizer``.

        Shape-coupled models (CosmoFlow) default to ``dataset``'s sample
        spec.  Build errors propagate and are not cached.
        """
        default_input = (
            dataset.sample
            if model.name == "cosmoflow" and not model.input_channels
            and dataset.sample.ndim == 3 else None)
        key = (model, default_input, samples_per_pe, optimizer)
        evicted = 0
        with self._lock:
            slot = self._slots.get(key)
            if slot is None:
                slot = self._slots[key] = _Slot()
                while len(self._slots) > CAPACITY:
                    self._slots.popitem(last=False)
                    evicted += 1
            else:
                self._slots.move_to_end(key)
        with slot.lock:
            built = slot.value is None
            if built:
                try:
                    slot.value = self._build(
                        model, default_input, samples_per_pe, optimizer)
                except BaseException:
                    with self._lock:
                        if self._slots.get(key) is slot:
                            del self._slots[key]
                    raise
        if metrics is not None:
            metrics.counter(
                "api.artifacts.misses" if built
                else "api.artifacts.hits").add(1)
            if evicted:
                metrics.counter("api.artifacts.evictions").add(evicted)
        return slot.value

    @staticmethod
    def _build(model, default_input, samples_per_pe, optimizer):
        from ..core.calibration import profile_model

        graph = model.build(default_input)
        profile = profile_model(
            graph, samples_per_pe=samples_per_pe, optimizer=optimizer)
        return ModelArtifacts(graph, profile, ModelKernel(graph, profile))

    def clear(self) -> None:
        """Drop every entry (objects already handed out stay valid)."""
        with self._lock:
            self._slots.clear()


#: The process-wide store every Session and sweep builds through.
ARTIFACTS = ArtifactStore()

"""Typed, serializable scenario specs — the one request contract.

A *scenario* is everything a planning question needs, written down:
which model, on which cluster, trained how, costed under which
communication policy, and (optionally) which strategy to project or
which space to search/sweep.  Every entry point — the :class:`~repro.
api.session.Session` facade, the CLI's ``--scenario``, the harness
runners, and :class:`~repro.search.sweep.SweepRunner` — consumes the
same frozen dataclasses defined here, so a scenario written to YAML
today is a valid RPC payload for a future service backend.

Design rules
------------
* Specs are **frozen** and built only from plain JSON types, so
  ``Scenario.from_dict(spec.to_dict())`` is the identity (round-trip
  tested) and ``to_dict()`` output is directly serializable.
* Validation is **eager and named**: a bad value raises
  :class:`ScenarioValidationError` whose ``field`` is the dotted path
  of the offending entry (``"training.optimizer"``), never a bare
  ``KeyError`` three layers down.
* Every payload carries :data:`SCHEMA_VERSION` so consumers can detect
  incompatible documents instead of misreading them.

YAML support is a soft dependency: JSON always works; ``.yaml`` files
need PyYAML and fail with a clear message without it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from ..collectives.registry import COLLECTIVES, get_algorithm
from ..collectives.selector import POLICIES
from ..core.strategies import ALL_STRATEGY_IDS
from ..core.tensors import TensorSpec
from ..data.datasets import DATASETS
from ..models import MODEL_BUILDERS
from ..search.engine import EXECUTORS

__all__ = [
    "SCHEMA_VERSION",
    "ScenarioValidationError",
    "LayerSpec",
    "ModelSpec",
    "ClusterRef",
    "TrainingSpec",
    "CommSpec",
    "StrategySpec",
    "SearchSpec",
    "SweepSpec",
    "ScenarioSpec",
    "Scenario",
    "parse_comm_algo",
]

#: Version of the scenario/result wire format.  Bump on any change that
#: would make an old document mean something different.
SCHEMA_VERSION = 1

#: Strategy ids a scenario may name (the paper's eight + serial).
STRATEGY_IDS = tuple(s for s in ALL_STRATEGY_IDS if s != "serial")

#: Optimizers the calibration layer understands.
OPTIMIZERS = ("sgd", "momentum", "adam")

#: Cluster templates :meth:`ClusterRef.build` can instantiate.
CLUSTER_KINDS = ("abci-like",)


class ScenarioValidationError(ValueError):
    """A scenario document failed validation.

    ``field`` is the dotted path of the offending entry (for example
    ``"training.optimizer"`` or ``"search.comm_policies[1]"``), so CLI
    and service consumers can point at the exact key.
    """

    def __init__(self, field_path: str, message: str) -> None:
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


# ---------------------------------------------------------------------------
# Validation helpers.  All raise ScenarioValidationError naming the field.
# ---------------------------------------------------------------------------

def _expect_mapping(value, field_path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ScenarioValidationError(
            field_path, f"expected a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(data: Mapping, allowed: Sequence[str],
                    field_path: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ScenarioValidationError(
            f"{field_path}.{unknown[0]}" if field_path else unknown[0],
            f"unknown key (known: {', '.join(sorted(allowed))})")


def _expect_int(value, field_path: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioValidationError(
            field_path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioValidationError(
            field_path, f"must be >= {minimum}, got {value}")
    return value


def _expect_number(value, field_path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioValidationError(
            field_path, f"expected a number, got {value!r}")
    return float(value)


def _expect_str(value, field_path: str) -> str:
    if not isinstance(value, str):
        raise ScenarioValidationError(
            field_path, f"expected a string, got {value!r}")
    return value


def _expect_bool(value, field_path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioValidationError(
            field_path, f"expected a boolean, got {value!r}")
    return value


def _expect_choice(value, choices: Sequence[str], field_path: str) -> str:
    value = _expect_str(value, field_path)
    if value not in choices:
        raise ScenarioValidationError(
            field_path,
            f"unknown value {value!r}; choose from {', '.join(choices)}")
    return value


def _expect_seq(value, field_path: str) -> Sequence:
    if isinstance(value, (str, bytes)) or not isinstance(
            value, Sequence):
        raise ScenarioValidationError(
            field_path, f"expected a list, got {value!r}")
    return value


def parse_comm_algo(spec: Optional[str],
                    field_path: str = "comm.algo") -> Dict[str, str]:
    """Parse a ``--comm-algo`` forcing spec into ``{collective: algo}``.

    Bare names force the allreduce algorithm; ``collective=name`` pairs
    force specific collectives (``'allreduce=tree,broadcast=binomial-
    tree'``).  Shared by the CLI flag and :meth:`CommSpec.from_dict`.
    """
    algo: Dict[str, str] = {}
    for item in (spec or "").split(","):
        item = item.strip()
        if not item:
            continue
        coll, sep, name = item.partition("=")
        if sep:
            algo[coll.strip()] = name.strip()
        else:
            algo["allreduce"] = item
    unknown = sorted(set(algo) - set(COLLECTIVES))
    if unknown:
        raise ScenarioValidationError(
            f"{field_path}.{unknown[0]}",
            f"unknown collective; choose from {sorted(COLLECTIVES)}")
    return algo


# ---------------------------------------------------------------------------
# Leaf specs
# ---------------------------------------------------------------------------

#: Layer kinds :meth:`LayerSpec.build` can instantiate, mapped to the
#: :mod:`repro.core.layers` constructors they wrap.
LAYER_KINDS = ("conv", "pool", "relu", "flatten", "fc",
               "globalavgpool", "batchnorm")


@dataclass(frozen=True)
class LayerSpec:
    """One declarative layer of a custom (non-zoo) model.

    ``out`` is ``out_channels`` for ``conv`` and ``out_features`` for
    ``fc``; ``kernel``/``stride``/``padding`` apply to ``conv`` and
    ``pool`` (scalars broadcast over the spatial dimensionality).
    """

    kind: str
    out: int = 0
    kernel: int = 0
    stride: int = 0
    padding: int = 0

    @classmethod
    def from_dict(cls, data: Mapping, field_path: str) -> "LayerSpec":
        data = _expect_mapping(data, field_path)
        _reject_unknown(data, ("kind", "out", "kernel", "stride", "padding"),
                        field_path)
        if "kind" not in data:
            raise ScenarioValidationError(
                f"{field_path}.kind", "layer needs a kind")
        kind = _expect_choice(data["kind"], LAYER_KINDS, f"{field_path}.kind")
        out = _expect_int(data.get("out", 0), f"{field_path}.out", minimum=0)
        if kind in ("conv", "fc") and out < 1:
            raise ScenarioValidationError(
                f"{field_path}.out", f"{kind} layers need out >= 1")
        kernel = _expect_int(data.get("kernel", 0), f"{field_path}.kernel",
                             minimum=0)
        if kind in ("conv", "pool") and kernel < 1:
            raise ScenarioValidationError(
                f"{field_path}.kernel", f"{kind} layers need kernel >= 1")
        return cls(
            kind=kind, out=out, kernel=kernel,
            stride=_expect_int(data.get("stride", 0),
                               f"{field_path}.stride", minimum=0),
            padding=_expect_int(data.get("padding", 0),
                                f"{field_path}.padding", minimum=0),
        )

    def to_dict(self) -> Dict[str, object]:
        blob: Dict[str, object] = {"kind": self.kind}
        for key in ("out", "kernel", "stride", "padding"):
            value = getattr(self, key)
            if value:
                blob[key] = value
        return blob

    def build(self, name: str, input_spec: TensorSpec):
        """Instantiate the concrete :mod:`repro.core.layers` layer."""
        from ..core import layers as L

        if self.kind == "conv":
            return L.Conv(name, input_spec, self.out, kernel=self.kernel,
                          stride=self.stride or 1, padding=self.padding)
        if self.kind == "pool":
            return L.Pool(name, input_spec, kernel=self.kernel,
                          stride=self.stride or None, padding=self.padding)
        if self.kind == "relu":
            return L.ReLU(name, input_spec)
        if self.kind == "flatten":
            return L.Flatten(name, input_spec)
        if self.kind == "fc":
            return L.FullyConnected(name, input_spec, self.out)
        if self.kind == "globalavgpool":
            return L.GlobalAvgPool(name, input_spec)
        if self.kind == "batchnorm":
            return L.BatchNorm(name, input_spec)
        raise AssertionError(f"unreachable layer kind {self.kind!r}")


@dataclass(frozen=True)
class ModelSpec:
    """The CNN under study: a zoo name, or a declarative layer chain.

    Exactly one of ``name`` / ``layers`` must be set.  ``input``
    overrides the input tensor (channels + spatial extent); custom
    layer chains require it.
    """

    name: Optional[str] = "resnet50"
    layers: Tuple[LayerSpec, ...] = ()
    input_channels: int = 0
    input_spatial: Tuple[int, ...] = ()

    @classmethod
    def from_dict(cls, data: Mapping,
                  field_path: str = "model") -> "ModelSpec":
        data = _expect_mapping(data, field_path)
        _reject_unknown(data, ("name", "layers", "input"), field_path)
        name = data.get("name")
        raw_layers = data.get("layers")
        if name is not None and raw_layers is not None:
            raise ScenarioValidationError(
                f"{field_path}.layers",
                "give either a zoo name or a layer list, not both")
        if name is None and raw_layers is None:
            name = "resnet50"
        layers: Tuple[LayerSpec, ...] = ()
        if raw_layers is not None:
            seq = _expect_seq(raw_layers, f"{field_path}.layers")
            if not seq:
                raise ScenarioValidationError(
                    f"{field_path}.layers", "layer list must not be empty")
            layers = tuple(
                LayerSpec.from_dict(item, f"{field_path}.layers[{i}]")
                for i, item in enumerate(seq)
            )
        if name is not None:
            name = _expect_str(name, f"{field_path}.name")
            if name not in MODEL_BUILDERS:
                raise ScenarioValidationError(
                    f"{field_path}.name",
                    f"unknown model {name!r}; known: "
                    f"{sorted(MODEL_BUILDERS)}")
        channels, spatial = 0, ()
        if "input" in data and data["input"] is not None:
            inp = _expect_mapping(data["input"], f"{field_path}.input")
            _reject_unknown(inp, ("channels", "spatial"),
                            f"{field_path}.input")
            channels = _expect_int(inp.get("channels", 0),
                                   f"{field_path}.input.channels", minimum=1)
            spatial = tuple(
                _expect_int(s, f"{field_path}.input.spatial[{i}]", minimum=1)
                for i, s in enumerate(_expect_seq(
                    inp.get("spatial", ()), f"{field_path}.input.spatial"))
            )
        if layers and not channels:
            raise ScenarioValidationError(
                f"{field_path}.input",
                "custom layer chains need an explicit input spec")
        return cls(name=name, layers=layers,
                   input_channels=channels, input_spatial=spatial)

    def to_dict(self) -> Dict[str, object]:
        blob: Dict[str, object] = {}
        if self.name is not None:
            blob["name"] = self.name
        if self.layers:
            blob["layers"] = [layer.to_dict() for layer in self.layers]
        if self.input_channels:
            blob["input"] = {"channels": self.input_channels,
                             "spatial": list(self.input_spatial)}
        return blob

    @property
    def label(self) -> str:
        """Display name (zoo name, or ``custom`` for layer chains)."""
        return self.name if self.name is not None else "custom"

    def input_spec(self) -> Optional[TensorSpec]:
        if not self.input_channels:
            return None
        return TensorSpec(self.input_channels, self.input_spatial)

    def build(self, default_input: Optional[TensorSpec] = None):
        """Instantiate the :class:`~repro.core.graph.ModelGraph`.

        ``default_input`` is the dataset-coupled input used when the
        spec itself names none (e.g. CosmoFlow built at the dataset's
        volume size).
        """
        from ..core.graph import ModelGraph
        from ..models import build_model

        input_spec = self.input_spec() or default_input
        if self.name is not None:
            return build_model(self.name, input_spec)
        layers = []
        spec = input_spec
        counts: Dict[str, int] = {}
        for layer_spec in self.layers:
            counts[layer_spec.kind] = counts.get(layer_spec.kind, 0) + 1
            name = f"{layer_spec.kind}{counts[layer_spec.kind]}"
            try:
                layer = layer_spec.build(name, spec)
            except ValueError as exc:
                raise ScenarioValidationError(
                    f"model.layers[{len(layers)}]", str(exc)) from exc
            layers.append(layer)
            spec = layer.output
        return ModelGraph("custom", layers)


@dataclass(frozen=True)
class ClusterRef:
    """Reference to a cluster template: kind + size.

    ``pes`` is the PE (GPU) budget of the planning question; the built
    cluster is sized to at least one node so intra-node Hockney
    parameters always resolve.
    """

    kind: str = "abci-like"
    pes: int = 64
    gpus_per_node: int = 4

    @classmethod
    def from_dict(cls, data: Mapping,
                  field_path: str = "cluster") -> "ClusterRef":
        data = _expect_mapping(data, field_path)
        _reject_unknown(data, ("kind", "pes", "gpus_per_node"), field_path)
        ref = cls(
            kind=_expect_choice(data.get("kind", "abci-like"), CLUSTER_KINDS,
                                f"{field_path}.kind"),
            pes=_expect_int(data.get("pes", 64), f"{field_path}.pes",
                            minimum=1),
            gpus_per_node=_expect_int(data.get("gpus_per_node", 4),
                                      f"{field_path}.gpus_per_node",
                                      minimum=1),
        )
        if (ref.pes % ref.gpus_per_node and ref.pes > ref.gpus_per_node):
            raise ScenarioValidationError(
                f"{field_path}.pes",
                f"pes={ref.pes} must be a multiple of gpus_per_node="
                f"{ref.gpus_per_node} (or fit in one node)")
        return ref

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "pes": self.pes,
                "gpus_per_node": self.gpus_per_node}

    def build(self):
        from ..network.topology import abci_like_cluster

        return abci_like_cluster(max(self.pes, self.gpus_per_node),
                                 gpus_per_node=self.gpus_per_node)


@dataclass(frozen=True)
class TrainingSpec:
    """How the model is trained: data, batching, optimizer, memory."""

    dataset: str = "imagenet"
    samples_per_pe: int = 32
    batch: Optional[int] = None
    optimizer: str = "sgd"
    gamma: float = 0.5

    @classmethod
    def from_dict(cls, data: Mapping,
                  field_path: str = "training") -> "TrainingSpec":
        data = _expect_mapping(data, field_path)
        _reject_unknown(
            data, ("dataset", "samples_per_pe", "batch", "optimizer",
                   "gamma"), field_path)
        batch = data.get("batch")
        if batch is not None:
            batch = _expect_int(batch, f"{field_path}.batch", minimum=1)
        gamma = _expect_number(data.get("gamma", 0.5), f"{field_path}.gamma")
        if not 0.0 < gamma <= 1.0:
            # The analytical model's bound — validated here so the spec
            # layer rejects what the engine would reject.
            raise ScenarioValidationError(
                f"{field_path}.gamma", f"must be in (0, 1], got {gamma}")
        return cls(
            dataset=_expect_choice(data.get("dataset", "imagenet"),
                                   sorted(DATASETS), f"{field_path}.dataset"),
            samples_per_pe=_expect_int(data.get("samples_per_pe", 32),
                                       f"{field_path}.samples_per_pe",
                                       minimum=1),
            batch=batch,
            optimizer=_expect_choice(data.get("optimizer", "sgd"), OPTIMIZERS,
                                     f"{field_path}.optimizer"),
            gamma=gamma,
        )

    def to_dict(self) -> Dict[str, object]:
        blob: Dict[str, object] = {
            "dataset": self.dataset,
            "samples_per_pe": self.samples_per_pe,
            "optimizer": self.optimizer,
            "gamma": self.gamma,
        }
        if self.batch is not None:
            blob["batch"] = self.batch
        return blob

    def resolve_batch(self, pes: int) -> int:
        """The global mini-batch: explicit, or ``samples_per_pe * pes``."""
        return self.batch if self.batch is not None else (
            self.samples_per_pe * pes)


@dataclass(frozen=True)
class CommSpec:
    """Communication costing: selection policy + per-collective forcing."""

    policy: str = "paper"
    algo: Tuple[Tuple[str, str], ...] = ()

    @classmethod
    def from_dict(cls, data: Mapping,
                  field_path: str = "comm") -> "CommSpec":
        data = _expect_mapping(data, field_path)
        _reject_unknown(data, ("policy", "algo"), field_path)
        raw_algo = data.get("algo") or {}
        if isinstance(raw_algo, str):
            algo = parse_comm_algo(raw_algo, f"{field_path}.algo")
        else:
            algo = dict(_expect_mapping(raw_algo, f"{field_path}.algo"))
            unknown = sorted(set(algo) - set(COLLECTIVES))
            if unknown:
                raise ScenarioValidationError(
                    f"{field_path}.algo.{unknown[0]}",
                    f"unknown collective; choose from {sorted(COLLECTIVES)}")
        for coll, name in algo.items():
            _expect_str(name, f"{field_path}.algo.{coll}")
            try:
                get_algorithm(coll, name)
            except KeyError as exc:
                raise ScenarioValidationError(
                    f"{field_path}.algo.{coll}",
                    exc.args[0] if exc.args else str(exc)) from None
        return cls(
            policy=_expect_choice(data.get("policy", "paper"), POLICIES,
                                  f"{field_path}.policy"),
            algo=tuple(sorted(algo.items())),
        )

    def to_dict(self) -> Dict[str, object]:
        blob: Dict[str, object] = {"policy": self.policy}
        if self.algo:
            blob["algo"] = dict(self.algo)
        return blob

    def build(self, cluster):
        """Instantiate the :class:`~repro.collectives.selector.CommModel`."""
        from ..collectives.selector import CommModel

        return CommModel(cluster, policy=self.policy, algo=dict(self.algo))


@dataclass(frozen=True)
class StrategySpec:
    """Which strategy to project/simulate (``project``-style questions)."""

    id: str = "d"
    segments: int = 4

    @classmethod
    def from_dict(cls, data: Mapping,
                  field_path: str = "strategy") -> "StrategySpec":
        data = _expect_mapping(data, field_path)
        _reject_unknown(data, ("id", "segments"), field_path)
        return cls(
            id=_expect_choice(data.get("id", "d"), STRATEGY_IDS,
                              f"{field_path}.id"),
            segments=_expect_int(data.get("segments", 4),
                                 f"{field_path}.segments", minimum=1),
        )

    def to_dict(self) -> Dict[str, object]:
        return {"id": self.id, "segments": self.segments}


@dataclass(frozen=True)
class SearchSpec:
    """The automated-search dimensions + engine knobs.

    ``executor=None`` means "the entry point's default": thread, for a
    single-model search and a zoo sweep alike.
    """

    strategies: Tuple[str, ...] = ()
    pe_sweep: bool = False
    exhaustive: bool = False
    segments: Tuple[int, ...] = (2, 4, 8)
    comm_policies: Tuple[str, ...] = ()
    workers: Optional[int] = None
    executor: Optional[str] = None
    remote_workers: Tuple[str, ...] = ()
    cache: Optional[str] = None
    cache_dir: Optional[str] = None
    weights: Tuple[Tuple[str, float], ...] = ()

    @classmethod
    def from_dict(cls, data: Mapping,
                  field_path: str = "search") -> "SearchSpec":
        data = _expect_mapping(data, field_path)
        _reject_unknown(
            data, ("strategies", "pe_sweep", "exhaustive", "segments",
                   "comm_policies", "workers", "executor",
                   "remote_workers", "cache", "cache_dir", "weights"),
            field_path)
        strategies = tuple(
            _expect_choice(s, STRATEGY_IDS, f"{field_path}.strategies[{i}]")
            for i, s in enumerate(_expect_seq(
                data.get("strategies", ()), f"{field_path}.strategies"))
        )
        segments = tuple(
            _expect_int(s, f"{field_path}.segments[{i}]", minimum=1)
            for i, s in enumerate(_expect_seq(
                data.get("segments", [2, 4, 8]), f"{field_path}.segments"))
        )
        if not segments:
            raise ScenarioValidationError(
                f"{field_path}.segments",
                "must not be empty (omit the key for the default 2,4,8)")
        comm_policies = tuple(
            _expect_choice(p, POLICIES, f"{field_path}.comm_policies[{i}]")
            for i, p in enumerate(_expect_seq(
                data.get("comm_policies", ()),
                f"{field_path}.comm_policies"))
        )
        workers = data.get("workers")
        if workers is not None:
            workers = _expect_int(workers, f"{field_path}.workers", minimum=1)
        executor = data.get("executor")
        if executor == "process":
            raise ScenarioValidationError(
                f"{field_path}.executor",
                "the process executor was removed; use 'thread' (the "
                "default) or 'remote' with a 'repro worker' fleet to "
                "scale out")
        if executor is not None:
            executor = _expect_choice(executor, EXECUTORS,
                                      f"{field_path}.executor")
        remote_workers = []
        for i, addr in enumerate(_expect_seq(
                data.get("remote_workers", ()),
                f"{field_path}.remote_workers")):
            addr = _expect_str(addr, f"{field_path}.remote_workers[{i}]")
            try:
                from ..dist.protocol import parse_address

                parse_address(addr)
            except ValueError as exc:
                raise ScenarioValidationError(
                    f"{field_path}.remote_workers[{i}]", str(exc)
                ) from None
            remote_workers.append(addr)
        if remote_workers and executor != "remote":
            raise ScenarioValidationError(
                f"{field_path}.remote_workers",
                "only meaningful with executor 'remote'")
        if executor == "remote" and not remote_workers:
            raise ScenarioValidationError(
                f"{field_path}.executor",
                "executor 'remote' needs at least one host:port address "
                "in remote_workers")
        cache = data.get("cache")
        if cache is not None:
            cache = _expect_str(cache, f"{field_path}.cache")
        cache_dir = data.get("cache_dir")
        if cache_dir is not None:
            cache_dir = _expect_str(cache_dir, f"{field_path}.cache_dir")
        if cache is not None and cache_dir is not None:
            raise ScenarioValidationError(
                f"{field_path}.cache_dir",
                "give either cache or cache_dir, not both")
        raw_weights = data.get("weights") or {}
        weights = tuple(sorted(
            (
                _expect_str(k, f"{field_path}.weights"),
                _expect_number(v, f"{field_path}.weights.{k}"),
            )
            for k, v in _expect_mapping(
                raw_weights, f"{field_path}.weights").items()
        ))
        return cls(
            strategies=strategies,
            pe_sweep=_expect_bool(data.get("pe_sweep", False),
                                  f"{field_path}.pe_sweep"),
            exhaustive=_expect_bool(data.get("exhaustive", False),
                                    f"{field_path}.exhaustive"),
            segments=segments,
            comm_policies=comm_policies,
            workers=workers,
            executor=executor,
            remote_workers=tuple(remote_workers),
            cache=cache,
            cache_dir=cache_dir,
            weights=weights,
        )

    def to_dict(self) -> Dict[str, object]:
        blob: Dict[str, object] = {"segments": list(self.segments)}
        if self.strategies:
            blob["strategies"] = list(self.strategies)
        if self.pe_sweep:
            blob["pe_sweep"] = True
        if self.exhaustive:
            blob["exhaustive"] = True
        if self.comm_policies:
            blob["comm_policies"] = list(self.comm_policies)
        if self.workers is not None:
            blob["workers"] = self.workers
        if self.executor is not None:
            blob["executor"] = self.executor
        if self.remote_workers:
            blob["remote_workers"] = list(self.remote_workers)
        if self.cache is not None:
            blob["cache"] = self.cache
        if self.cache_dir is not None:
            blob["cache_dir"] = self.cache_dir
        if self.weights:
            blob["weights"] = dict(self.weights)
        return blob


@dataclass(frozen=True)
class SweepSpec:
    """A model-zoo sweep: which models, and where the report goes."""

    models: Tuple[str, ...] = ("resnet50", "resnet152", "vgg16")
    report_dir: Optional[str] = None
    plot: bool = False

    @classmethod
    def from_dict(cls, data: Mapping,
                  field_path: str = "sweep") -> "SweepSpec":
        data = _expect_mapping(data, field_path)
        _reject_unknown(data, ("models", "report_dir", "plot"), field_path)
        raw = data.get("models", ["resnet50", "resnet152", "vgg16"])
        models = []
        for i, m in enumerate(_expect_seq(raw, f"{field_path}.models")):
            m = _expect_str(m, f"{field_path}.models[{i}]")
            if m not in MODEL_BUILDERS:
                raise ScenarioValidationError(
                    f"{field_path}.models[{i}]",
                    f"unknown model {m!r}; known: {sorted(MODEL_BUILDERS)}")
            models.append(m)
        models = tuple(models)
        if not models:
            raise ScenarioValidationError(
                f"{field_path}.models", "need at least one model to sweep")
        if len(set(models)) != len(models):
            raise ScenarioValidationError(
                f"{field_path}.models", f"duplicate models: {models}")
        report_dir = data.get("report_dir")
        if report_dir is not None:
            report_dir = _expect_str(report_dir, f"{field_path}.report_dir")
        return cls(
            models=models,
            report_dir=report_dir,
            plot=_expect_bool(data.get("plot", False), f"{field_path}.plot"),
        )

    def to_dict(self) -> Dict[str, object]:
        blob: Dict[str, object] = {"models": list(self.models)}
        if self.report_dir is not None:
            blob["report_dir"] = self.report_dir
        if self.plot:
            blob["plot"] = True
        return blob


# ---------------------------------------------------------------------------
# The scenario
# ---------------------------------------------------------------------------

def _merge_sections(base: Dict, overlay: Mapping) -> Dict:
    """Merge ``overlay`` into a copy of ``base``, one level deep.

    Top-level *sections* (``training``, ``comm``, …) merge key-by-key so
    a flag overrides just its field; *field values* — including
    dict-valued fields like ``comm.algo`` and ``search.weights`` —
    replace wholesale, so an explicitly-given ``--comm-algo`` fully
    determines the forcing map instead of inheriting leftovers from the
    file.
    """
    merged = dict(base)
    for key, value in overlay.items():
        if (key in merged and isinstance(merged[key], Mapping)
                and isinstance(value, Mapping)):
            section = dict(merged[key])
            section.update(value)
            merged[key] = section
        else:
            merged[key] = value
    return merged


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete planning question, ready to serialize.

    The four core sections (``model``, ``cluster``, ``training``,
    ``comm``) always exist — their defaults are the CLI's defaults —
    and the three optional sections select the question being asked:
    ``strategy`` for a single projection, ``search`` for an automated
    search, ``sweep`` for a zoo sweep (``search`` then supplies the
    space every swept model shares).
    """

    model: ModelSpec = field(default_factory=ModelSpec)
    cluster: ClusterRef = field(default_factory=ClusterRef)
    training: TrainingSpec = field(default_factory=TrainingSpec)
    comm: CommSpec = field(default_factory=CommSpec)
    strategy: Optional[StrategySpec] = None
    search: Optional[SearchSpec] = None
    sweep: Optional[SweepSpec] = None
    name: str = ""
    schema_version: int = SCHEMA_VERSION

    _SECTIONS = ("schema_version", "name", "model", "cluster", "training",
                 "comm", "strategy", "search", "sweep")

    # ------------------------------------------------------------ construct
    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSpec":
        """Build a validated scenario from a plain mapping.

        Raises :class:`ScenarioValidationError` naming the offending
        field on any unknown key, wrong type, or out-of-range value.
        """
        data = _expect_mapping(data, "scenario")
        _reject_unknown(data, cls._SECTIONS, "")
        version = data.get("schema_version", SCHEMA_VERSION)
        version = _expect_int(version, "schema_version")
        if version != SCHEMA_VERSION:
            raise ScenarioValidationError(
                "schema_version",
                f"unsupported version {version} (this build speaks "
                f"{SCHEMA_VERSION})")
        sections: Dict[str, object] = {}
        sections["model"] = ModelSpec.from_dict(data.get("model", {}))
        sections["cluster"] = ClusterRef.from_dict(data.get("cluster", {}))
        sections["training"] = TrainingSpec.from_dict(data.get("training", {}))
        sections["comm"] = CommSpec.from_dict(data.get("comm", {}))
        if data.get("strategy") is not None:
            sections["strategy"] = StrategySpec.from_dict(data["strategy"])
        if data.get("search") is not None:
            sections["search"] = SearchSpec.from_dict(data["search"])
        if data.get("sweep") is not None:
            sections["sweep"] = SweepSpec.from_dict(data["sweep"])
            search = sections.get("search")
            if search is not None and search.cache is not None:
                raise ScenarioValidationError(
                    "search.cache",
                    "a sweep persists one cache file per model; use "
                    "search.cache_dir instead")
        if "search" in sections or "sweep" in sections:
            batch = sections["training"].batch
            pes = sections["cluster"].pes
            if batch is not None and batch % pes:
                raise ScenarioValidationError(
                    "training.batch",
                    f"batch={batch} must be divisible by cluster.pes="
                    f"{pes} so search/sweep can pin it (weak scalers "
                    f"run batch/pes samples per PE)")
        return cls(name=_expect_str(data.get("name", ""), "name"),
                   schema_version=version, **sections)

    @classmethod
    def from_file(cls, path: Union[str, os.PathLike]) -> "ScenarioSpec":
        """Load a scenario from a YAML or JSON file (by extension).

        ``.json`` parses as JSON; anything else (``.yaml``/``.yml``)
        needs PyYAML and fails with a clear message without it.
        """
        path = os.fspath(path)
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ScenarioValidationError(
                "scenario", f"cannot read {path}: {exc}") from exc
        if path.endswith(".json"):
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ScenarioValidationError(
                    "scenario", f"{path} is not valid JSON: {exc}") from exc
        else:
            try:
                import yaml
            except ImportError:
                raise ScenarioValidationError(
                    "scenario",
                    f"reading {path} needs PyYAML (pip install pyyaml) — "
                    f"or write the scenario as .json") from None
            try:
                data = yaml.safe_load(text)
            except yaml.YAMLError as exc:
                raise ScenarioValidationError(
                    "scenario", f"{path} is not valid YAML: {exc}") from exc
        if data is None:
            data = {}
        return cls.from_dict(data)

    # ------------------------------------------------------------ serialize
    def to_dict(self) -> Dict[str, object]:
        """The normalized wire form; ``from_dict`` inverts it exactly."""
        blob: Dict[str, object] = {"schema_version": self.schema_version}
        if self.name:
            blob["name"] = self.name
        blob["model"] = self.model.to_dict()
        blob["cluster"] = self.cluster.to_dict()
        blob["training"] = self.training.to_dict()
        blob["comm"] = self.comm.to_dict()
        if self.strategy is not None:
            blob["strategy"] = self.strategy.to_dict()
        if self.search is not None:
            blob["search"] = self.search.to_dict()
        if self.sweep is not None:
            blob["sweep"] = self.sweep.to_dict()
        return blob

    def to_file(self, path: Union[str, os.PathLike]) -> str:
        """Write the scenario to ``path`` (JSON, or YAML with PyYAML)."""
        path = os.fspath(path)
        if path.endswith(".json"):
            text = json.dumps(self.to_dict(), indent=2) + "\n"
        else:
            try:
                import yaml
            except ImportError:
                raise ScenarioValidationError(
                    "scenario",
                    f"writing {path} needs PyYAML (pip install pyyaml) — "
                    f"or write the scenario as .json") from None
            text = yaml.safe_dump(self.to_dict(), sort_keys=False)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    # -------------------------------------------------------------- helpers
    def merged(self, overrides: Mapping) -> "ScenarioSpec":
        """A new scenario with ``overrides`` merged in and re-validated.

        This is the CLI's flag semantics: a nested partial dict
        (``{"training": {"batch": 2048}}``) overrides just those keys;
        field *values* (lists, ``comm.algo`` maps, …) replace wholesale.
        """
        return type(self).from_dict(_merge_sections(self.to_dict(),
                                                    overrides))

    def with_(self, **sections) -> "ScenarioSpec":
        """``dataclasses.replace`` spelled as a fluent helper."""
        return replace(self, **sections)

    def describe(self) -> str:
        parts = [self.name or self.model.label,
                 f"p={self.cluster.pes}", self.training.dataset]
        if self.strategy is not None:
            parts.append(f"strategy={self.strategy.id}")
        if self.sweep is not None:
            parts.append(f"sweep[{len(self.sweep.models)}]")
        elif self.search is not None:
            parts.append("search")
        return " ".join(parts)


#: The public alias — ``Scenario.from_file("plan.yaml")`` reads better
#: than the dataclass name at call sites.
Scenario = ScenarioSpec

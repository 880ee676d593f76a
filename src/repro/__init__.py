"""repro — reproduction of "An Oracle for Guiding Large-Scale Model/Hybrid
Parallel Training of Convolutional Neural Networks" (HPDC 2021).

Public API tour
---------------
Write the planning question down once — a declarative *scenario* — and
ask a session for the answer (every CLI subcommand, the harness, and
the sweep orchestrator consume the same documents):

>>> from repro import Scenario, Session
>>> spec = Scenario.from_dict({
...     "model": {"name": "resnet50"},
...     "cluster": {"pes": 64},
...     "strategy": {"id": "d"},
... })
>>> Session(spec).project().exit_code  # typed, schema-versioned result
0

Or drive the oracle facade directly (the legacy construction path —
it records the equivalent scenario on ``oracle.scenario``):

>>> from repro import models, ParaDL, profile_model, abci_like_cluster
>>> from repro.data import IMAGENET
>>> model = models.resnet50()
>>> cluster = abci_like_cluster(64)
>>> oracle = ParaDL(model, cluster, profile_model(model, samples_per_pe=32))
>>> proj = oracle.project_id("d", p=64, batch=32 * 64, dataset=IMAGENET)
>>> proj.per_iteration.total  # seconds per training iteration  # doctest: +SKIP

Instead of projecting one hand-picked configuration, let the search
subsystem sweep the whole space (strategies x hybrid factorizations x PE
budgets x batches x micro-batches x comm policies) with pruning, a
persistent projection cache, and multi-objective ranking — a scenario
with a ``search`` section, asked through its session (``repro search``
on the command line):

>>> plan = Session({"model": {"name": "resnet50"}, "cluster": {"pes": 64},
...                 "search": {"cache": "plan.json"}})  # doctest: +SKIP
>>> report = plan.search().report  # doctest: +SKIP
>>> report.best.describe(), [e.describe() for e in report.frontier]  # doctest: +SKIP

Or plan a whole model zoo at once — one search per model,
per-model projection caches in a shared directory, consolidated
frontier reports — with a ``sweep`` section (``repro sweep``):

>>> zoo = Session({"cluster": {"pes": 64},
...                "search": {"cache_dir": "plan-cache"},
...                "sweep": {"models": ["resnet50", "vgg16"],
...                          "report_dir": "reports"}}).sweep()  # doctest: +SKIP

Packages
--------
``repro.api``
    The declarative scenario layer: validated, serializable
    ``ScenarioSpec`` documents (YAML/JSON), the lazily-caching
    ``Session`` facade, and the schema-versioned result objects every
    ``--json`` payload is generated from.
``repro.core``
    Tensor/layer IR, Table-3 analytical model, the ParaDL oracle,
    calibration, limitation detection.
``repro.search``
    Automated strategy search: declarative candidate spaces, feasibility
    pruning, cached thread or remote-fleet evaluation, Pareto frontiers,
    and the multi-model sweep orchestrator (``python -m repro search`` /
    ``python -m repro sweep`` on the command line).
``repro.models``
    ResNet-50/152, VGG16, CosmoFlow, AlexNet, toy test CNNs.
``repro.network``
    Fat-tree cluster topology, Hockney parameters, congestion.
``repro.collectives``
    Analytic collective costs behind a pluggable algorithm registry and
    the policy-driven ``CommModel`` selector (paper / auto / nccl-like).
``repro.simulator``
    Discrete-event "measured" runs: roofline GPU, link-level collectives,
    framework overheads.
``repro.tensorparallel``
    NumPy execution substrate: real data/spatial/filter/channel/pipeline
    decompositions with value-by-value validation.
``repro.harness``
    Experiment registry regenerating every table/figure of the paper.
"""

from . import collectives, core, data, models, network, search
from . import api
from .api import Scenario, ScenarioSpec, ScenarioValidationError, Session
from .core import (
    AnalyticalModel,
    ComputeProfile,
    ModelGraph,
    ParaDL,
    PhaseBreakdown,
    Projection,
    TensorSpec,
    accuracy,
    detect_findings,
    profile_model,
    strategy_from_id,
)
from .network import ClusterSpec, abci_like_cluster

__version__ = "1.0.0"

__all__ = [
    "api",
    "core",
    "models",
    "network",
    "collectives",
    "data",
    "search",
    "Scenario",
    "ScenarioSpec",
    "ScenarioValidationError",
    "Session",
    "AnalyticalModel",
    "ComputeProfile",
    "ModelGraph",
    "ParaDL",
    "PhaseBreakdown",
    "Projection",
    "TensorSpec",
    "accuracy",
    "detect_findings",
    "profile_model",
    "strategy_from_id",
    "ClusterSpec",
    "abci_like_cluster",
    "__version__",
]

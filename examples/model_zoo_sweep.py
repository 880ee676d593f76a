#!/usr/bin/env python
"""Plan a whole model zoo at once: the multi-model sweep orchestrator.

Where ``autotune_strategy.py`` searches the configuration space for one
CNN, this driver answers the production question — "which strategy for
*each* model in my zoo on this cluster?" — in a single call.  The
:class:`~repro.search.sweep.SweepRunner` runs every model's search on the
in-process thread executor (the default; pass ``executor="remote"`` with
``remote_workers=[...]`` to scale out over ``repro worker`` processes),
persists one fingerprinted projection-cache file per model in a shared
directory, and consolidates the per-model Pareto frontiers into CSVs
plus a cross-model summary.

Run twice to see the cross-model cache at work:

    python examples/model_zoo_sweep.py
    python examples/model_zoo_sweep.py   # warm: zero projections

Equivalent CLI:

    python -m repro sweep --models resnet50,resnet152,vgg16 -p 64 \\
        --cache-dir examples/zoo_cache \\
        --report examples/zoo_report
"""

import os
import time

from repro.data import IMAGENET
from repro.harness import format_table
from repro.search import SweepRunner

HERE = os.path.dirname(__file__)
CACHE_DIR = os.path.join(HERE, "zoo_cache")
REPORT_DIR = os.path.join(HERE, "zoo_report")

MODELS = ("resnet50", "resnet152", "vgg16", "alexnet")
PES = 64


def main() -> None:
    runner = SweepRunner(
        MODELS,
        IMAGENET,
        pes=PES,
        samples_per_pe=32,
        segments=(2, 4, 8),
        comm_policies=("paper", "auto"),   # comm policy as a sweep dimension
        cache_dir=CACHE_DIR,
    )

    def on_model(name, result) -> None:
        st = result.report.stats
        print(f"  {name}: {st['candidates']} candidates in "
              f"{result.seconds:.2f}s ({st['cache_hits']} cache hits, "
              f"{st['pruned']} pruned)")

    t0 = time.perf_counter()
    report = runner.run(on_model=on_model)
    elapsed = time.perf_counter() - t0

    print(f"\nswept {len(MODELS)} models x {runner.space.count()} "
          f"candidates each in {elapsed:.2f}s on {runner.cluster}\n")
    rows = [
        [row["model"], row["best"], f"{row['epoch_s']:.1f} s",
         f"{row['memory_gb']:.1f} GB", row["comm_policy"],
         row["frontier"], row["cache_hits"]]
        for row in report.summary_rows()
    ]
    print(format_table(
        ["model", "best config", "epoch", "memory/PE", "comm", "frontier",
         "cache hits"], rows))

    artifacts = report.write_report(REPORT_DIR, plot=True)
    print()
    for name, path in sorted(artifacts.items()):
        print(f"wrote {name}: {os.path.relpath(path, HERE)}")
    if "plot" not in artifacts:
        print("(frontier plot skipped: matplotlib not installed)")


if __name__ == "__main__":
    main()

"""Ablation: ring vs tree collective algorithms (paper footnote 4).

The paper's communication model defaults to ring collectives (the NCCL
large-message path) and notes the pipelined-tree alternative for small
messages.  This ablation maps the crossover: at which message size / PE
count does each algorithm win, and how much would the data-parallel
gradient exchange change if the wrong algorithm were forced.
"""

import numpy as np

from repro.collectives import (
    CommModel,
    ring_allreduce_time,
    tree_allreduce_time,
)
from repro.harness.reporting import format_table
from repro.network.topology import abci_like_cluster

from _util import write_report


def _sweep():
    cluster = abci_like_cluster(1024)
    nccl = CommModel(cluster, "nccl-like")
    rows = []
    for p in (8, 64, 512):
        params = cluster.hockney(p)
        for nbytes in (16e3, 1e6, 100e6):
            ring = ring_allreduce_time(p, nbytes, params)
            tree = tree_allreduce_time(p, nbytes, params)
            auto = nccl.time("allreduce", p, nbytes, params=params)
            rows.append((p, nbytes, ring, tree, auto))
    return rows


def test_bench_ablation_collectives(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    # Tree wins for small messages at large p; ring wins for large messages.
    small_large_p = next(r for r in rows if r[0] == 512 and r[1] == 16e3)
    assert small_large_p[3] < small_large_p[2]  # tree < ring
    big = next(r for r in rows if r[0] == 512 and r[1] == 100e6)
    assert big[2] < big[3]                      # ring < tree
    # The NCCL-style size-threshold selection never loses to the paper's
    # default (pure ring), and picks the true optimum below the threshold.
    for _, nbytes, ring, tree, auto in rows:
        assert auto <= ring * 1.001
        if nbytes < 512 * 1024:
            assert auto <= min(ring, tree) * 1.001

    table = format_table(
        ["p", "message", "ring (ms)", "tree (ms)", "selected (ms)"],
        [[p, f"{int(m):>11,d} B", f"{r * 1e3:9.3f}", f"{t * 1e3:9.3f}",
          f"{a * 1e3:9.3f}"] for p, m, r, t, a in rows],
    )
    write_report("ablation_collectives", [
        "Ablation — ring vs pipelined-tree Allreduce (footnote 4)",
        table,
    ])

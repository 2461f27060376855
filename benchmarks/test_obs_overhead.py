"""Observability overhead benchmark: metrics off must stay free.

The metrics registry (:mod:`repro.obs.metrics`) promises that a disabled
registry costs the hot path one local ``is not None`` check per seam —
nothing measurable — and that enabling then disabling collection leaves
no residue (no leaked enabled state, no instruments still attached).
This benchmark holds the implementation to that promise with numbers
written to ``benchmarks/out/BENCH_obs_overhead.json``:

* ``metrics_off_pps`` — the chain3 fabric workload with the registry
  disabled, i.e. the product-default configuration.  The standard
  perf-regression tolerance applies to this rate.
* ``off_vs_baseline`` — the disabled rate measured *immediately after* a
  collection session, as a fraction of a baseline rate measured before
  any ``collecting()`` ran in that round.  The three configurations are
  interleaved round-robin (baseline, on, off) so machine drift cancels;
  any gap between baseline and off means a collection session left
  residue on the off path.  ``check_perf_regression.py`` holds this to
  an absolute floor of 0.98 — the ≤2% overhead acceptance gate — rather
  than a baseline-relative tolerance, because both rates come from one
  interleaved run.
* ``metrics_on_vs_off`` — the workload with a registry enabled, as a
  fraction of the off rate.  Collection is allowed to cost a few
  percent; the ratio is recorded so a collapse of the instrumented path
  is visible in the artifact.
* ``fabric_chain3_sorted_pps`` — the chain3/sorted rate from
  ``benchmarks/out/BENCH_network_fabric.json`` when present (informational: the fabric
  benchmark takes a single shot per backend, so it is too noisy to gate
  a 2% floor against, but it anchors the obs numbers to the gated
  fabric artifact from the same session).

Set ``BENCH_QUICK=1`` to shrink the workload for smoke runs.
"""

from __future__ import annotations

import json
import os

from conftest import BENCH_OUT_DIR, report, write_bench_artifact

from repro.obs import metrics
from repro.perf import run_workload

BENCH_QUICK = bool(os.environ.get("BENCH_QUICK"))
PACKETS = 2_000 if BENCH_QUICK else 10_000
ROUNDS = 3 if BENCH_QUICK else 5
FABRIC_ARTIFACT = BENCH_OUT_DIR / "BENCH_network_fabric.json"


def _round(tree_kernel: bool = True, enabled: bool = False) -> float:
    """Packets/second for one run of the chain3 workload."""
    if enabled:
        with metrics.collecting():
            result = run_workload("chain3", packets=PACKETS,
                                  pifo_backend="sorted",
                                  tree_kernel=tree_kernel)
    else:
        result = run_workload("chain3", packets=PACKETS,
                              pifo_backend="sorted",
                              tree_kernel=tree_kernel)
    assert result.delivered >= PACKETS * 0.99
    return result.packets_per_second


def test_metrics_off_overhead_summary():
    """Interleaved baseline/on/off rates; writes the CI artifact."""
    assert not metrics.is_enabled()
    # Round-robin so drift affects all three configurations equally.
    # Order matters within a round: "base" has never been preceded by a
    # collecting() session in round 1, and "off" always runs right after
    # one — the base/off pair is what detects residue from collection.
    base_pps = on_pps = off_pps = 0.0
    for _ in range(ROUNDS):
        base_pps = max(base_pps, _round())
        on_pps = max(on_pps, _round(enabled=True))
        off_pps = max(off_pps, _round())
    assert not metrics.is_enabled()
    # The interpreted datapath carries more instrumented seams per packet
    # (per-port enqueue/delivery instead of fused closures), so measure
    # the on/off ratio there too — it is the worst case for the registry.
    off_interp = on_interp = 0.0
    for _ in range(ROUNDS):
        on_interp = max(on_interp, _round(tree_kernel=False, enabled=True))
        off_interp = max(off_interp, _round(tree_kernel=False))

    artifact = {
        "workload": "chain3",
        "packets": PACKETS,
        "rounds": ROUNDS,
        "baseline_pps": base_pps,
        "metrics_off_pps": off_pps,
        "metrics_on_pps": on_pps,
        "off_vs_baseline": off_pps / base_pps,
        "metrics_on_vs_off": on_pps / off_pps,
        "interpreted_metrics_off_pps": off_interp,
        "interpreted_metrics_on_vs_off": on_interp / off_interp,
    }
    if FABRIC_ARTIFACT.is_file():
        fabric = json.loads(FABRIC_ARTIFACT.read_text())
        base = (fabric.get("topologies", {}).get("chain3", {})
                .get("backends", {}).get("sorted"))
        if base:
            artifact["fabric_chain3_sorted_pps"] = base

    report("Observability overhead (chain3, packets/second)", [
        {"config": "fused, baseline", "pps": base_pps, "ratio": 1.0},
        {"config": "fused, metrics off", "pps": off_pps,
         "ratio": artifact["off_vs_baseline"]},
        {"config": "fused, metrics on", "pps": on_pps,
         "ratio": artifact["metrics_on_vs_off"]},
        {"config": "interpreted, metrics off", "pps": off_interp,
         "ratio": 1.0},
        {"config": "interpreted, metrics on", "pps": on_interp,
         "ratio": artifact["interpreted_metrics_on_vs_off"]},
    ])
    write_bench_artifact("obs_overhead", artifact)

    # Collection itself must stay cheap even where it is not gated: a
    # halved instrumented rate means an instrument leaked into a loop.
    assert artifact["metrics_on_vs_off"] > 0.5
    assert artifact["interpreted_metrics_on_vs_off"] > 0.5

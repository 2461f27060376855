#!/usr/bin/env python
"""CI perf-regression gate: fresh benchmark numbers vs committed baselines.

Usage::

    python benchmarks/check_perf_regression.py \
        --baseline-dir . --current-dir benchmarks/out [--tolerance 0.20]

Compares every throughput metric in the committed ``BENCH_*.json``
artifacts (``--baseline-dir``: the repo root, which the benchmarks never
write) against the freshly measured files in ``--current-dir``
(``benchmarks/out/``, where they do) and exits non-zero if any metric
dropped more than ``--tolerance`` (default 20%) below its baseline.  All gated metrics are *rates* (packets/second,
runs/second), which are workload-size independent, so the quick-mode CI
run is comparable against the committed full-size baselines.

Only throughput-like metrics gate the build (higher is better); wall-clock
style metrics are ignored.  Missing files or metrics fail loudly: a
benchmark silently not producing its artifact is itself a regression.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple

#: Benchmark artifacts gated by this script, with extractors yielding
#: ``(metric_name, packets_or_runs_per_second)`` pairs.
GATED_ARTIFACTS = ("BENCH_network_fabric.json", "BENCH_campaign.json",
                   "BENCH_obs_overhead.json")

#: Metrics held to an absolute floor on the *current* value instead of a
#: baseline-relative tolerance.  The obs ratio pairs rates interleaved
#: round-robin within one benchmark, so drift cancels and the contract
#: bound (metrics off costs <= 2%) applies directly.  The fused-speedup
#: floors are ratchets on the same principle — a ratio of rates measured
#: in one session is hardware-independent, so the tree-kernel datapath
#: must always buy at least 2x over the interpreted reference.  The
#: chain3 absolute floor is the 100k pkt/s end-to-end target; unlike the
#: ratios it *does* depend on the runner, so it is only enforced on
#: full-size runs (quick-mode artifacts carry ``"packets" < 10000``).
ABSOLUTE_FLOORS = {
    "obs/metrics-off vs paired baseline": 0.98,
    "fabric/chain3 fused speedup": 2.0,
    "fabric/leaf_spine4x2 fused speedup": 2.0,
    "fabric/chain3 best pkt/s": 100_000.0,
}

#: Absolute floors skipped when the artifact was produced by a shrunken
#: (BENCH_QUICK) workload: raw-rate floors are only meaningful at the
#: committed workload size.
FULL_SIZE_ONLY_FLOORS = {"fabric/chain3 best pkt/s"}
FULL_SIZE_PACKETS = 10_000


def _fabric_metrics(payload: Dict) -> Iterator[Tuple[str, float]]:
    for topology, data in sorted(payload.get("topologies", {}).items()):
        # Fused-datapath rates (the default configuration).
        for backend, rate in sorted(data.get("backends", {}).items()):
            yield f"fabric/{topology}/{backend} pkt/s", float(rate)
        # Best-backend end-to-end rate: the absolute-throughput headline
        # (the 100k pkt/s floor gates chain3).  Only emitted for
        # full-size runs — quick-mode rates are not comparable.
        backends = data.get("backends", {})
        if backends and data.get("packets", 0) >= FULL_SIZE_PACKETS:
            yield (f"fabric/{topology} best pkt/s",
                   max(float(rate) for rate in backends.values()))
        # Interpreted reference rates: the fallback path is gated too, so
        # a scheduler that silently stops fusing (and rides the fallback)
        # cannot also let the fallback itself rot.
        for backend, rate in sorted(data.get("interpreted", {}).items()):
            yield (f"fabric/{topology}/{backend} interpreted pkt/s",
                   float(rate))
        # The fused-over-interpreted ratio is a rate-of-rates: gating it
        # catches the fused path regressing even if machine-wide noise
        # moves both absolute numbers together.
        speedup = data.get("speedup_fused_vs_interpreted")
        if speedup is not None:
            yield f"fabric/{topology} fused speedup", float(speedup)


def _campaign_metrics(payload: Dict) -> Iterator[Tuple[str, float]]:
    for workers, data in sorted(payload.get("workers", {}).items()):
        yield (f"campaign/workers={workers} runs/s",
               float(data["runs_per_second"]))
    # The engine's reason to exist: warm-phase parallel execution must
    # not fall back behind serial.  Gated like the fabric fused-speedup —
    # a ratio of rates, so machine-wide noise cancels.
    speedup = payload.get("speedup_max_workers_vs_serial")
    if speedup is not None:
        yield "campaign/speedup max-workers vs serial", float(speedup)
    for label, config in sorted(payload.get("configs", {}).items()):
        serial = config.get("serial", {}).get("runs_per_second")
        if serial is not None:
            yield f"campaign/{label} serial runs/s", float(serial)


def _obs_metrics(payload: Dict) -> Iterator[Tuple[str, float]]:
    # The metrics-off rate is the same configuration the fabric benchmark
    # gates; holding it here too means the obs artifact cannot silently
    # stop measuring the real hot path.
    yield "obs/metrics-off pkt/s", float(payload["metrics_off_pps"])
    # The acceptance gate: after a collection session, the disabled hot
    # path must run within 2% of the never-collected baseline measured
    # in the same interleaved round-robin.  Compared against
    # ABSOLUTE_FLOORS, not the committed baseline.
    ratio = payload.get("off_vs_baseline")
    if ratio is not None:
        yield "obs/metrics-off vs paired baseline", float(ratio)


EXTRACTORS = {
    "BENCH_network_fabric.json": _fabric_metrics,
    "BENCH_campaign.json": _campaign_metrics,
    "BENCH_obs_overhead.json": _obs_metrics,
}


def load_metrics(directory: Path, artifact: str) -> Dict[str, float]:
    path = directory / artifact
    if not path.is_file():
        raise FileNotFoundError(f"missing benchmark artifact {path}")
    payload = json.loads(path.read_text())
    metrics = dict(EXTRACTORS[artifact](payload))
    if not metrics:
        raise ValueError(f"artifact {path} contains no gated metrics")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", type=Path, required=True,
                        help="directory holding the committed BENCH_*.json")
    parser.add_argument("--current-dir", type=Path,
                        default=Path(__file__).resolve().parent / "out",
                        help="directory holding the fresh BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="maximum allowed fractional drop (default 0.20)")
    args = parser.parse_args(argv)

    failures = []
    rows = []
    for artifact in GATED_ARTIFACTS:
        try:
            baseline = load_metrics(args.baseline_dir, artifact)
            current = load_metrics(args.current_dir, artifact)
        except (FileNotFoundError, ValueError, json.JSONDecodeError) as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        for metric in sorted(set(baseline) | set(ABSOLUTE_FLOORS)):
            base_value = baseline.get(metric)
            if metric not in current:
                if base_value is None:
                    continue  # floor metric absent on both sides
                if metric in FULL_SIZE_ONLY_FLOORS:
                    continue  # quick-mode run: raw-rate floor not comparable
                failures.append(f"{metric}: missing from current run")
                continue
            value = current[metric]
            floor = ABSOLUTE_FLOORS.get(metric)
            if floor is not None:
                # Absolute gate on the fresh value; the committed baseline
                # is informational (same-session ratios do not drift).
                status = "ok" if value >= floor else "REGRESSION"
                rows.append((metric, floor, value, value / floor, status))
                if status != "ok":
                    failures.append(
                        f"{metric}: {value:.3f} below absolute floor "
                        f"{floor:.2f}"
                    )
                continue
            if base_value is None:
                continue  # new metric with no committed baseline yet
            ratio = value / base_value if base_value > 0 else float("inf")
            status = "ok" if ratio >= 1.0 - args.tolerance else "REGRESSION"
            rows.append((metric, base_value, value, ratio, status))
            if status != "ok":
                failures.append(
                    f"{metric}: {value:,.0f} vs baseline {base_value:,.0f} "
                    f"({ratio:.2f}x, floor {1.0 - args.tolerance:.2f}x)"
                )

    width = max(len(metric) for metric, *_ in rows) if rows else 10
    print(f"{'metric':<{width}}  {'baseline':>12}  {'current':>12}  "
          f"{'ratio':>6}  status")
    for metric, base_value, value, ratio, status in rows:
        print(f"{metric:<{width}}  {base_value:>12,.1f}  {value:>12,.1f}  "
              f"{ratio:>5.2f}x  {status}")

    if failures:
        print(f"\n{len(failures)} perf regression(s) beyond "
              f"{args.tolerance:.0%} tolerance:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nall {len(rows)} metrics within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

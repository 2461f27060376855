"""Compare two artifacts of ``bench/run.py`` under the bounds of BENCHMARK.json.

``python3 bench/compare.py A.json B.json`` takes A as the parent and B as
the change and prints one row per (end-to-end metric, workload):

* ``better`` / ``worse`` — B's median is beyond the metric's bound from A's;
* ``unchanged`` — within the bound;
* ``unresolved`` — the samples of either side spread wider than the bound
  (quartile distance over median) and the two sides are not strictly
  ordered, so the bound cannot be applied.

It also lists every counter, ``simstat.*`` and ``sim_digest`` that differs:
a change that only makes the simulator faster must leave all of them
identical.  Exit status: 1 if any row is ``worse``, 2 if the artifacts
cannot be compared, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent


def _samples(workload: Dict[str, Any], metric: str) -> List[float]:
    if metric == "pkts_per_s":
        return [rep["pkts_per_s"] for rep in workload["reps"]]
    if metric == "setup_s":
        return list(workload["setup_samples_s"])
    return [workload["end_to_end"][metric]]


def _spread(samples: List[float]) -> float:
    if len(samples) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / median


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """Classify B against A; ``better`` is ``higher`` or ``lower``."""
    sign = 1.0 if better == "higher" else -1.0
    a_median, b_median = statistics.median(a), statistics.median(b)
    if max(_spread(a), _spread(b)) > bound:
        if min(sign * x for x in b) > max(sign * x for x in a):
            return "better"
        if max(sign * x for x in b) < min(sign * x for x in a):
            return "worse"
        return "unresolved"
    gain = sign * (b_median - a_median) / a_median
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "unchanged"


def compare(a: Dict[str, Any], b: Dict[str, Any],
            declared: Dict[str, Any]) -> int:
    worse = 0
    print(f"{'workload':24s} {'metric':12s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict")
    for metric in declared["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in a["workloads"]:
            sa = _samples(a["workloads"][workload], name)
            sb = _samples(b["workloads"][workload], name)
            result = verdict(sa, sb, metric["better"], bound)
            worse += result == "worse"
            ma, mb = statistics.median(sa), statistics.median(sb)
            print(f"{workload:24s} {name:12s} {ma:12.5g} {mb:12.5g} "
                  f"{mb / ma:7.3f} {bound:6.2f}  {result}")
    # fail_share is the fourth end-to-end metric; its bound is 0, absolute.
    for workload in a["workloads"]:
        fa = a["workloads"][workload]["end_to_end"]["fail_share"]
        fb = b["workloads"][workload]["end_to_end"]["fail_share"]
        result = "worse" if fb > fa else "better" if fb < fa else "unchanged"
        worse += result == "worse"
        print(f"{workload:24s} {'fail_share':12s} {fa:12.5g} {fb:12.5g} "
              f"{'':7s} {0:6.2f}  {result}")

    differing = 0
    for workload in a["workloads"]:
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        if wa["sim_digest"] != wb["sim_digest"]:
            differing += 1
            print(f"DIFFERS {workload} sim_digest: "
                  f"{wa['sim_digest']} -> {wb['sim_digest']}")
        for name, value in wa["exact"].items():
            if wb["exact"].get(name) != value:
                differing += 1
                print(f"DIFFERS {workload} {name}: "
                      f"{value!r} -> {wb['exact'].get(name)!r}")
    print(f"{worse} worse; {differing} exact values differ")
    return 1 if worse else 0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    for key in ("seed", "size_divisor", "inputs"):
        if a["manifest"][key] != b["manifest"][key]:
            print(f"compare: the artifacts differ in {key}: "
                  f"{a['manifest'][key]} != {b['manifest'][key]}",
                  file=sys.stderr)
            return 2
    if set(a["workloads"]) != set(b["workloads"]):
        print("compare: the artifacts hold different workloads", file=sys.stderr)
        return 2
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return compare(a, b, declared)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The benchmark's one command.

Two ways to call it:

* ``python3 bench/run.py --seed 0 --out bench/out/result.json`` runs the
  five workloads one after another, untraced and traced, prints every
  metric by name with its unit, checks the outputs and writes one JSON
  artifact.  Exits non-zero if any operation failed.
* ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
  is one run of one workload, as the contract in ``BENCHMARK.json`` has
  it: the last line of standard output is one JSON object with
  ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
  metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).

Everything timed happens in fresh child processes (``bench/child.py``),
one at a time: a single busy core, nothing in parallel with a timed
section.  ``PYTHONPATH`` need not be set; ``src/`` is found next to
``bench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
DEFAULT_OUT = BENCH_DIR / "out" / "result.json"

#: ``BENCHMARK.json`` is the single declaration of workload and metric names
#: and units: a metric the code produces but the file does not declare is an
#: error, not a guess.
DECLARATION = REPO_ROOT / "BENCHMARK.json"
#: Timed seconds per run when ``--seconds`` is not given (= ``run_seconds``).
DEFAULT_SECONDS = 10.0
#: Cold set-up samples per run (the measuring child is one of them).
SETUP_SAMPLES = 3
#: ``--smoke`` divides every size by this; the result can never pass for real.
SMOKE_SCALE = 50
#: No child may outlive this (the contract allows a run 180 s).
CHILD_TIMEOUT_S = 170


def units_of(declared: Dict[str, Any], kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    return {metric["name"]: metric["unit"] for metric in declared[kind]}


class ChildFailed(RuntimeError):
    pass


def run_child(kind: str, workload: Optional[str] = None, seed: int = 0,
              seconds: float = DEFAULT_SECONDS, scale: int = 1,
              min_reps: Optional[int] = None) -> Dict[str, Any]:
    """Run one child to completion and return the JSON object it printed."""
    command = [sys.executable, str(BENCH_DIR / "child.py"), kind,
               "--seed", str(seed), "--seconds", str(seconds),
               "--scale", str(scale)]
    if workload is not None:
        command += ["--workload", workload]
    if min_reps is not None:
        command += ["--min-reps", str(min_reps)]
    # A fixed hash seed removes one source of run-to-run variation (dict
    # and set layout); it is recorded in the manifest.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              cwd=str(REPO_ROOT), timeout=CHILD_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{kind} child timed out: {exc}") from None
    if done.returncode != 0:
        raise ChildFailed(f"{kind} child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------- #
# One workload                                                                 #
# --------------------------------------------------------------------------- #
def measure_end_to_end(workload: str, seed: int, seconds: float,
                       scale: int) -> Dict[str, Any]:
    """The untraced run: cold set-up samples, then the timed repetitions."""
    extra = 0 if scale > 1 else SETUP_SAMPLES - 1
    setups = [run_child("setup", workload, seed, scale=scale)["setup_s"]
              for _ in range(extra)]
    measured = run_child("measure", workload, seed, seconds, scale)
    if not measured.get("reps"):
        raise ChildFailed(f"{workload}: no repetition completed: "
                          f"{measured.get('failures')}")
    setups.append(measured["setup_s"])
    measured["setup_samples_s"] = setups
    measured["end_to_end"] = {
        "pkts_per_s": measured["pkts_per_s"]["median"],
        "setup_s": statistics.median(setups),
        "rss_peak_mb": measured["rss_peak_mb"],
    }
    measured["fail_share"] = measured["failed"] / measured["attempted"]
    return measured


def measure_per_layer(workload: str, seed: int, seconds: float, scale: int,
                      layers: Optional[Dict[str, float]] = None,
                      untraced: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The traced run, with the counters of a short untraced one beside it."""
    if untraced is None:
        # A third of the time goes to untraced repetitions: they provide the
        # counters, the simulated statistics and the harness's own metrics.
        untraced = run_child("measure", workload, seed, seconds / 3, scale,
                             min_reps=2)
        if not untraced.get("reps"):
            raise ChildFailed(f"{workload}: no repetition completed: "
                              f"{untraced.get('failures')}")
    traced = run_child("trace", workload, seed, scale=scale)
    if layers is None:
        layers = run_child("layers", scale=scale)
    metrics: Dict[str, float] = {}
    metrics.update(untraced["counters"])
    metrics.update({f"simstat.{k}": v for k, v in untraced["simstat"].items()})
    metrics.update(traced["metrics"])
    metrics.update(layers)
    metrics.update({f"harness.{k}": v for k, v in untraced["harness"].items()})
    failures = list(traced["failures"])
    if not traced["sim_digest_matches_untraced"]:
        failures.append("traced run's sim_digest differs from the untraced one")
    return {
        "per_layer": metrics,
        "traced_total_s": traced["traced_total_s"],
        "traced_delivered": traced["delivered"],
        "attempted": untraced["attempted"] + 2,
        "failed": untraced["failed"] + len(failures),
        "failures": untraced["failures"] + failures,
        "sim_digest": untraced["sim_digest"],
    }


def _metric_lines(workload: str, values: Dict[str, float],
                  units: Dict[str, str]) -> List[str]:
    return [f"{workload:24s} {name:44s} {value:>16.6g} {units[name]}"
            for name, value in values.items()]


def contract_line(result: Dict[str, Any], values: Dict[str, float],
                  units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    })


# --------------------------------------------------------------------------- #
# Manifest and the full run                                                    #
# --------------------------------------------------------------------------- #
def repro_env() -> Dict[str, str]:
    return {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(REPO_ROOT),
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def manifest(seed: int, seconds: float, smoke: bool) -> Dict[str, Any]:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds_per_workload": seconds,
        #: Filled in per workload by the children: sizes and the seed's effect.
        "inputs": {},
        "size_divisor": SMOKE_SCALE if smoke else 1,
        "setup_samples": 1 if smoke else SETUP_SAMPLES,
        "repro_env": repro_env(),
        "noise_guard": {
            "gc": "cyclic GC paused inside every timed section",
            "warmup": "first repetition discarded",
            "statistic": "median of repetitions, never best-of",
            "busy_floor": "repetition re-run below 0.90 CPU/wall, at most 2",
            "PYTHONHASHSEED": "0 in every child",
            "parallelism": "one child process at a time",
        },
        "started_unix": time.time(),
    }


def full_run(declared: Dict[str, Any], seed: int, seconds: float, smoke: bool,
             out: Path) -> int:
    scale = SMOKE_SCALE if smoke else 1
    artifact: Dict[str, Any] = {
        "schema": "pifo-bench/1",
        "smoke": smoke,
        "manifest": manifest(seed, seconds, smoke),
        "workloads": {},
    }
    end_to_end_units = dict(units_of(declared, "end_to_end"), fail_share="ratio")
    layers = run_child("layers", scale=scale)
    failed = 0
    for workload in (w["name"] for w in declared["workloads"]):
        end_to_end = measure_end_to_end(workload, seed, seconds, scale)
        per_layer = measure_per_layer(workload, seed, seconds, scale,
                                      layers=layers, untraced=end_to_end)
        values = dict(end_to_end["end_to_end"],
                      fail_share=end_to_end["fail_share"])
        print("\n".join(_metric_lines(workload, values, end_to_end_units)))
        print("\n".join(_metric_lines(workload, per_layer["per_layer"],
                                      units_of(declared, "per_layer"))))
        for failure in per_layer["failures"]:
            print(f"{workload}: FAILED: {failure}", file=sys.stderr)
        failed += per_layer["failed"]
        artifact["manifest"]["inputs"][workload] = end_to_end["input"]
        artifact["workloads"][workload] = {
            "end_to_end": values,
            "pkts_per_s": end_to_end["pkts_per_s"],
            "setup_samples_s": end_to_end["setup_samples_s"],
            "reps": end_to_end["reps"],
            "attempted": per_layer["attempted"],
            "failed": per_layer["failed"],
            "failures": per_layer["failures"],
            "sim_digest": end_to_end["sim_digest"],
            # Counters and simulated statistics: must repeat bit for bit.
            "exact": dict(
                end_to_end["counters"],
                **{f"simstat.{k}": v for k, v in end_to_end["simstat"].items()}),
            "per_layer": per_layer["per_layer"],
            "traced_total_s": per_layer["traced_total_s"],
            "traced_delivered": per_layer["traced_delivered"],
        }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(artifact, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}" + ("  (SMOKE: not a result)" if smoke else ""))
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    declared = json.loads(DECLARATION.read_text())
    parser.add_argument("--workload",
                        choices=[w["name"] for w in declared["workloads"]],
                        help="run one workload and end with the contract's "
                             "JSON line; default: all five, one artifact")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 end-to-end, 1 per-layer")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="artifact path of the full run")
    parser.add_argument("--smoke", action="store_true",
                        help=f"sizes / {SMOKE_SCALE}, flagged in the artifact")
    parser.add_argument("--allow-env", action="store_true",
                        help="run although REPRO_* variables are set")
    args = parser.parse_args(argv)

    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator to measure: {REPO_ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    overrides = repro_env()
    if overrides and not args.allow_env:
        print(f"bench: {', '.join(overrides)} set; these change the datapath. "
              "Unset them or pass --allow-env.", file=sys.stderr)
        return 2

    # A smoke run does the minimum number of repetitions.
    seconds = 0.0 if args.smoke else args.seconds
    try:
        if args.workload is None:
            return full_run(declared, args.seed, seconds, args.smoke, args.out)
        scale = SMOKE_SCALE if args.smoke else 1
        if args.trace:
            result = measure_per_layer(args.workload, args.seed, seconds, scale)
            values, units = result["per_layer"], units_of(declared, "per_layer")
        else:
            result = measure_end_to_end(args.workload, args.seed, seconds,
                                        scale)
            values, units = result["end_to_end"], units_of(declared, "end_to_end")
        for failure in result["failures"]:
            print(f"{args.workload}: FAILED: {failure}", file=sys.stderr)
        print("\n".join(_metric_lines(args.workload, values, units)))
        print(contract_line(result, values, units))
        return 0
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        # Campaign stores of the children (bench/out/tmp), crashed or not.
        shutil.rmtree(BENCH_DIR / "out" / "tmp", ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark: the one command runs and keeps its promises.

Runs ``bench/run.py --smoke`` (every size divided by 50, flagged in the
artifact so it can never pass for a result) and checks the artifact
against ``BENCHMARK.json``.  Collected by the tier-1 command.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _git_status() -> str | None:
    """``git status --porcelain`` of the repo, or None outside a git checkout."""
    try:
        done = subprocess.run(["git", "status", "--porcelain"], cwd=REPO_ROOT,
                              capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def test_smoke_run_reports_every_declared_metric(tmp_path):
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in declared["end_to_end"])
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric

    before = _git_status()
    out = tmp_path / "smoke.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "bench" / "run.py"), "--smoke",
         "--seed", "0", "--out", str(out)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert _git_status() == before, "the benchmark run changed the working tree"

    artifact = json.loads(out.read_text())
    assert artifact["smoke"] is True
    assert artifact["manifest"]["size_divisor"] > 1
    assert set(artifact["workloads"]) == {w["name"] for w in declared["workloads"]}
    for name, workload in artifact["workloads"].items():
        assert workload["end_to_end"]["fail_share"] == 0, (name, workload["failures"])
        for kind in ("end_to_end", "per_layer"):
            for metric in declared[kind]:
                value = workload[kind][metric["name"]]
                assert isinstance(value, (int, float)) and math.isfinite(value), (
                    name, metric["name"], value)
                # Every declared metric is printed by name with its unit.
                assert re.search(
                    rf"^{re.escape(name)}\s+{re.escape(metric['name'])}\s+\S+ "
                    rf"{re.escape(metric['unit'])}$", done.stdout, re.M), (
                    name, metric["name"])
        assert set(workload["per_layer"]) == {m["name"] for m in declared["per_layer"]}

"""Streaming store readers and the generator-based report path.

``repro campaign report`` must not load a whole result store into memory:
large campaigns produce stores far bigger than any one summary.
These tests build a synthetic >10k-record store and check that the
streaming readers (:meth:`iter_records`, :meth:`iter_effective_records`)
and the accumulator-based summariser produce exactly the answers the
old load-everything path gave.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import ResultStore, encode_record
from repro.reporting.campaign import summarize_records

SCENARIOS = ("alpha", "beta", "gamma")
RUNS_PER_SCENARIO = 4_000  # 12k records total: comfortably past 10k


def synthetic_record(scenario: str, index: int, status: str = "ok") -> dict:
    return {
        "run_id": f"{scenario}/r{index}",
        "fingerprint": f"{scenario}-{index:08d}",
        "campaign": "synthetic",
        "scenario": scenario,
        "variant": "FIFO",
        "status": status,
        "delivered": 10,
        "dropped": 1,
        "mean_delay": 0.002,
        "max_delay": 0.004 + index * 1e-9,
        "wall_clock_s": 0.001,
    }


@pytest.fixture(scope="module")
def big_store(tmp_path_factory):
    """12k records written as raw lines (no per-append fsync overhead)."""
    path = tmp_path_factory.mktemp("big") / "store.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for scenario in SCENARIOS:
            for index in range(RUNS_PER_SCENARIO):
                handle.write(encode_record(synthetic_record(scenario, index))
                             + "\n")
    return ResultStore(path)


class TestStreamingReaders:
    def test_iter_records_streams_everything(self, big_store):
        count = sum(1 for _ in big_store.iter_records())
        assert count == len(SCENARIOS) * RUNS_PER_SCENARIO

    def test_iter_effective_matches_load_based_dedup(self, tmp_path):
        store = ResultStore(tmp_path / "dup.jsonl")
        store.append(synthetic_record("alpha", 0, status="failed"))
        store.append(synthetic_record("alpha", 1))
        store.append(synthetic_record("alpha", 0, status="ok"))  # re-run wins
        streamed = list(store.iter_effective_records())
        assert streamed == store.effective_records()
        assert [r["status"] for r in streamed] == ["ok", "ok"]

    def test_effective_streaming_uses_last_occurrence_order(self, tmp_path):
        store = ResultStore(tmp_path / "order.jsonl")
        for index in (2, 0, 1):
            store.append(synthetic_record("alpha", index))
        store.append(synthetic_record("alpha", 0))  # re-run: moves to tail
        assert [r["run_id"] for r in store.iter_effective_records()] == [
            "alpha/r2", "alpha/r1", "alpha/r0"]


class TestStreamingSummary:
    def test_generator_input_equals_list_input(self, big_store):
        from_list = summarize_records(big_store.load(),
                                      group_by=("scenario",))
        from_stream = summarize_records(big_store.iter_records(),
                                        group_by=("scenario",))
        assert from_stream == from_list

    def test_group_rows_over_10k_records(self, big_store):
        rows = summarize_records(big_store.iter_effective_records(),
                                 group_by=("scenario",))
        assert [row["scenario"] for row in rows] == list(SCENARIOS)
        for row in rows:
            assert row["runs"] == RUNS_PER_SCENARIO
            assert row["failed"] == 0
            assert row["delivered"] == 10 * RUNS_PER_SCENARIO
            assert row["mean_delay_ms"] == pytest.approx(2.0)

    def test_single_pass_consumption(self, big_store):
        """The summariser takes one pass — a pure iterator suffices."""
        iterator = iter(big_store.iter_records())
        rows = summarize_records(iterator, group_by=("scenario", "variant"))
        assert len(rows) == len(SCENARIOS)
        assert next(iterator, None) is None  # fully consumed, exactly once


class TestCliReportStreams:
    def test_report_over_10k_store(self, big_store, capsys):
        from repro.cli import main

        assert main(["campaign", "report", "--store", str(big_store.path),
                     "--group-by", "scenario", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["scenario"] for row in rows] == list(SCENARIOS)
        assert all(row["runs"] == RUNS_PER_SCENARIO for row in rows)

    def test_report_title_counts_streamed_runs(self, big_store, capsys):
        from repro.cli import main

        assert main(["campaign", "report", "--store",
                     str(big_store.path)]) == 0
        out = capsys.readouterr().out
        assert f"{len(SCENARIOS) * RUNS_PER_SCENARIO} runs" in out

"""Tests for the JSONL result store."""

from __future__ import annotations

import json

import pytest

from repro.campaign import ResultStore, StoreError, strip_timing


def record(fingerprint: str, **extra) -> dict:
    payload = {"fingerprint": fingerprint, "delivered": 10,
               "wall_clock_s": 1.23, "worker_pid": 999}
    payload.update(extra)
    return payload


class TestResultStore:
    def test_append_and_load_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(record("aa"))
        store.append(record("bb"))
        loaded = store.load()
        assert [r["fingerprint"] for r in loaded] == ["aa", "bb"]
        assert len(store) == 2

    def test_missing_file_is_empty(self, tmp_path):
        store = ResultStore(tmp_path / "absent.jsonl")
        assert store.load() == []
        assert store.fingerprints() == set()
        assert not store.exists()

    def test_fingerprints(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(record("aa"))
        store.append(record("bb"))
        store.append({"no_fingerprint": True})
        assert store.fingerprints() == {"aa", "bb"}

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.append(record("aa"))
        with path.open("a") as handle:
            handle.write('{"fingerprint": "bb", "delivered"')  # interrupt
        assert [r["fingerprint"] for r in store.load()] == ["aa"]

    def test_append_after_torn_tail_truncates_it(self, tmp_path):
        # Appending after an interrupted write must not merge the new
        # record into the partial line (which would corrupt the store).
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.append(record("aa"))
        with path.open("a") as handle:
            handle.write('{"fingerprint": "bb", "delivered"')  # interrupt
        store.append(record("cc"))
        assert [r["fingerprint"] for r in store.load()] == ["aa", "cc"]
        store.append(record("dd"))  # the store stays fully parseable
        assert [r["fingerprint"] for r in store.load()] == ["aa", "cc", "dd"]

    def test_effective_records_dedupes_reruns_last_wins(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(record("aa", delivered=1))
        store.append(record("bb", delivered=5))
        store.append(record("aa", delivered=2))
        store.append({"no_fingerprint": True})
        effective = store.effective_records()
        assert [r.get("fingerprint") for r in effective] == ["bb", "aa", None]
        assert effective[1]["delivered"] == 2

    def test_iter_effective_records_survives_a_new_run_between_passes(
            self, tmp_path):
        # `campaign status` streams a store a running campaign appends to.
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(record("fa"))
        store.append(record("fb"))
        it = store.iter_effective_records()
        first = next(it)
        store.append(record("fc"))
        rest = list(it)
        assert [r["fingerprint"] for r in [first] + rest] == ["fa", "fb"]

    def test_iter_effective_records_snapshot_ignores_a_late_rerun(
            self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(record("fa", delivered=1))
        store.append(record("fb", delivered=1))
        it = store.iter_effective_records()
        first = next(it)
        store.append(record("fa", delivered=2))
        records = [first] + list(it)
        assert [(r["fingerprint"], r["delivered"]) for r in records] == [
            ("fa", 1), ("fb", 1)]

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.append(record("aa"))
        with path.open("a") as handle:
            handle.write("garbage\n")
        store.append(record("bb"))
        with pytest.raises(StoreError, match="line 2"):
            store.load()

    def test_latest_by_fingerprint_keeps_last(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(record("aa", delivered=1))
        store.append(record("aa", delivered=2))
        assert store.latest_by_fingerprint()["aa"]["delivered"] == 2

    def test_unknown_status_counts_as_failed(self, tmp_path):
        # Stores may hold statuses no current executor writes (older
        # stores carry "quarantined"): any status but "ok" is re-run on
        # resume and counted as failed.
        store = ResultStore(tmp_path / "r.jsonl")
        ids = dict(campaign="c", scenario="s", variant="v")
        store.append(record("aa", run_id="a", **ids))
        store.append(record("bb", run_id="b", status="quarantined", **ids))
        assert store.completed_fingerprints() == {"aa"}
        summary = store.verify_records()
        assert (summary["ok"], summary["failed"]) == (1, 1)

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(record("aa"))
        store.clear()
        assert store.load() == []
        store.clear()  # idempotent on a missing file

    def test_records_are_canonical_json_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        ResultStore(path).append({"b": 1, "a": 2})
        line = path.read_text().strip()
        assert line == json.dumps({"a": 2, "b": 1}, sort_keys=True,
                                  separators=(",", ":"))


class TestStripTiming:
    def test_removes_only_timing_fields(self):
        stripped = strip_timing(record("aa"))
        assert "wall_clock_s" not in stripped
        assert "worker_pid" not in stripped
        assert stripped["fingerprint"] == "aa"
        assert stripped["delivered"] == 10

    def test_does_not_mutate_input(self):
        original = record("aa")
        strip_timing(original)
        assert "wall_clock_s" in original

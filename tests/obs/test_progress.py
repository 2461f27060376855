"""Progress sidecar contracts: atomic writes, throttling, torn-write
tolerance and the EMA-based rate/ETA.

Everything runs on a fake clock (ProgressWriter takes ``time_fn``), so
the throttle and EMA are tested deterministically.
"""

from __future__ import annotations

import json
import os

from repro.obs.progress import (
    EMA_ALPHA,
    MIN_WRITE_INTERVAL_S,
    ProgressWriter,
    progress_path_for,
    read_progress,
)


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_writer(tmp_path, total=10, **kwargs):
    clock = FakeClock()
    path = str(tmp_path / "store.jsonl.progress")
    writer = ProgressWriter(path, campaign="probe", total=total,
                            time_fn=clock, **kwargs)
    return writer, clock, path


class TestWriter:
    def test_written_at_construction(self, tmp_path):
        _, _, path = make_writer(tmp_path)
        snap = read_progress(path)
        assert snap["state"] == "running"
        assert snap["done"] == 0
        assert snap["total"] == 10
        assert snap["campaign"] == "probe"

    def test_record_run_counts_ok_failed(self, tmp_path):
        writer, clock, path = make_writer(tmp_path)
        clock.advance(1.0)
        writer.record_run(ok=True)
        clock.advance(1.0)
        writer.record_run(ok=False)
        clock.advance(1.0)
        writer.record_run(ok=False)
        snap = read_progress(path)
        assert (snap["done"], snap["ok"], snap["failed"]) == (3, 1, 2)

    def test_rate_ema_and_eta(self, tmp_path):
        writer, clock, path = make_writer(tmp_path, total=5)
        clock.advance(2.0)       # 0.5 runs/s sample seeds the EMA
        writer.record_run(ok=True)
        assert writer.snapshot()["runs_per_s"] == 0.5
        clock.advance(1.0)       # 1.0 runs/s sample folds in at alpha
        writer.record_run(ok=True)
        expected = EMA_ALPHA * 1.0 + (1 - EMA_ALPHA) * 0.5
        snap = read_progress(path)
        assert snap["runs_per_s"] == round(expected, 4)
        assert snap["eta_s"] == round(3 / expected, 2)

    def test_eta_zero_when_nothing_remains(self, tmp_path):
        writer, clock, _ = make_writer(tmp_path, total=1)
        clock.advance(1.0)
        writer.record_run(ok=True)
        assert writer.snapshot()["eta_s"] == 0.0

    def test_writes_are_throttled(self, tmp_path):
        writer, clock, path = make_writer(tmp_path, total=100)
        clock.advance(1.0)
        writer.record_run(ok=True)
        before = read_progress(path)
        # A burst inside the throttle window updates counters in memory
        # but does not rewrite the file...
        clock.advance(MIN_WRITE_INTERVAL_S / 10)
        writer.record_run(ok=True)
        assert read_progress(path)["done"] == before["done"]
        # ...until the interval elapses.
        clock.advance(MIN_WRITE_INTERVAL_S)
        writer.record_run(ok=True)
        assert read_progress(path)["done"] == 3

    def test_finish_always_flushes(self, tmp_path):
        writer, clock, path = make_writer(tmp_path)
        clock.advance(0.01)      # within the throttle window
        writer.record_run(ok=True)
        writer.finish("done")
        snap = read_progress(path)
        assert snap["state"] == "done"
        assert snap["done"] == 1
        assert snap["in_flight"] == 0

    def test_heartbeat_updates_in_flight(self, tmp_path):
        writer, clock, path = make_writer(tmp_path)
        clock.advance(1.0)
        writer.heartbeat(in_flight=4)
        assert read_progress(path)["in_flight"] == 4

    def test_no_tmp_file_left_behind(self, tmp_path):
        writer, clock, path = make_writer(tmp_path)
        clock.advance(1.0)
        writer.record_run(ok=True)
        writer.finish()
        assert os.listdir(tmp_path) == [os.path.basename(path)]


class TestReadTolerance:
    def test_missing_file(self, tmp_path):
        assert read_progress(str(tmp_path / "nope.progress")) is None

    def test_torn_json(self, tmp_path):
        path = tmp_path / "torn.progress"
        path.write_text('{"state": "running", "done"')
        assert read_progress(str(path)) is None

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.progress"
        path.write_text("")
        assert read_progress(str(path)) is None

    def test_non_dict_payload(self, tmp_path):
        path = tmp_path / "list.progress"
        path.write_text(json.dumps([1, 2, 3]))
        assert read_progress(str(path)) is None

    def test_path_helper(self):
        assert progress_path_for("campaign_x.jsonl") \
            == "campaign_x.jsonl.progress"

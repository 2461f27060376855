"""Observability integration across the campaign substrate.

Both execution paths — the serial runner and the warm engine — must
(a) stamp resource capture fields into every store record, success or
failure, and (b) publish a live progress sidecar whose final counters
converge exactly with the store's contents.
"""

from __future__ import annotations

import pytest

from repro.campaign import (
    Campaign,
    CampaignRunner,
    ResultStore,
    record_is_ok,
    strip_timing,
)
from repro.campaign.runner import failure_record
from repro.campaign.spec import RunSpec
from repro.obs.progress import progress_path_for, read_progress
from repro.obs.resources import RESOURCE_FIELDS


def tiny_campaign() -> Campaign:
    return Campaign(
        name="obs_probe",
        title="small sweep for observability tests",
        scenarios=["fig6_chain"],
        pifo_backends=["sorted", "quantized"],
        lang_backends=[None],
        load_scales=[1.0],
        replicates=1,
    )


def assert_resourced(record):
    for field in RESOURCE_FIELDS:
        assert field in record, f"record lacks {field}: {sorted(record)}"
    assert record["rss_peak_bytes"] > 0
    assert record["cpu_user_s"] >= 0.0


class TestSerialRunner:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        store = ResultStore(tmp_path_factory.mktemp("obs") / "r.jsonl")
        report = CampaignRunner(tiny_campaign(), store, workers=1,
                                quick=True).run()
        return store, report

    def test_every_record_carries_resources(self, run):
        store, report = run
        records = store.load()
        assert records
        for record in records:
            assert_resourced(record)
            assert record["events"] > 0
            assert record["events_per_s"] > 0

    def test_events_survives_strip_timing(self, run):
        # events is a pure function of the spec, so determinism
        # comparisons keep it; the machine-dependent fields go.
        store, _ = run
        stripped = strip_timing(store.load()[0])
        assert "events" in stripped
        for field in ("rss_peak_bytes", "cpu_user_s", "cpu_sys_s",
                      "events_per_s", "wall_clock_s"):
            assert field not in stripped

    def test_progress_sidecar_converges_with_store(self, run):
        store, report = run
        progress = read_progress(progress_path_for(str(store.path)))
        assert progress is not None
        assert progress["state"] == "done"
        records = store.load()
        assert progress["done"] == progress["total"] == len(records)
        assert progress["ok"] == sum(record_is_ok(r) for r in records)
        assert progress["failed"] == 0


class TestEngineRunner:
    def test_engine_path_writes_progress_and_resources(self, tmp_path):
        store = ResultStore(tmp_path / "engine.jsonl")
        report = CampaignRunner(tiny_campaign(), store, workers=2,
                                quick=True).run()
        assert report.executed == tiny_campaign().size()
        for record in store.load():
            assert_resourced(record)
        progress = read_progress(progress_path_for(str(store.path)))
        assert progress["state"] == "done"
        assert progress["done"] == report.executed
        assert progress["workers"] == 2


class TestFailureRecords:
    def test_failure_record_has_same_resource_shape(self):
        spec = tiny_campaign().expand(quick=True)[0]
        record = failure_record(spec, "failed", RuntimeError("boom"),
                                attempts=1, wall_clock_s=0.1, trace="tb")
        for field in RESOURCE_FIELDS:
            assert field in record
        assert record["events"] == 0
        assert record["events_per_s"] == 0.0
        assert record["rss_peak_bytes"] > 0

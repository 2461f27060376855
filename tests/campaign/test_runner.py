"""Determinism and resume guarantees of the campaign runner.

The two acceptance claims of the sweep engine:

* parallel execution is invisible in the results — ``workers=4`` produces a
  result store byte-identical to ``workers=1`` modulo the wall-clock
  fields;
* resume-by-fingerprint re-runs *exactly* the missing run set after an
  interrupt, for any subset of surviving records (a pure property of the
  run table, tested with hypothesis).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign import (
    Campaign,
    CampaignRunner,
    ResultStore,
    execute_spec,
    get_campaign,
    strip_timing,
)


def small_campaign() -> Campaign:
    """Four quick fig6 runs: enough factors to shard, fast enough to re-run."""
    return Campaign(
        name="determinism_probe",
        title="small sweep for runner tests",
        scenarios=["fig6_chain"],
        pifo_backends=["sorted", "quantized"],
        lang_backends=[None],
        load_scales=[1.0],
        replicates=1,
    )


def canonical(records):
    return [json.dumps(strip_timing(r), sort_keys=True) for r in records]


@pytest.fixture(scope="module")
def serial_records(tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("serial") / "r.jsonl")
    CampaignRunner(small_campaign(), store, workers=1, quick=True).run()
    return store.load()


class TestWorkerDeterminism:
    def test_parallel_store_identical_to_serial(self, tmp_path, serial_records):
        store = ResultStore(tmp_path / "par.jsonl")
        report = CampaignRunner(small_campaign(), store, workers=4,
                                quick=True).run()
        assert report.executed == len(serial_records)
        assert canonical(store.load()) == canonical(serial_records)

    def test_execute_spec_is_pure(self, serial_records):
        campaign = small_campaign()
        spec = campaign.expand(quick=True)[0]
        again = strip_timing(execute_spec(spec))
        assert again == strip_timing(serial_records[0])

    def test_substrate_factors_compare_on_identical_workloads(self, tmp_path):
        # Same scenario/variant under different PIFO backends must report
        # identical behaviour: the seeds pair the workloads and the
        # backends are behaviourally equivalent.
        campaign = Campaign(
            name="paired_probe",
            title="paired workload probe",
            scenarios=["leaf_spine_fct"],
            variants=["FIFO"],
            pifo_backends=["sorted", "quantized"],
        )
        store = ResultStore(tmp_path / "paired.jsonl")
        CampaignRunner(campaign, store, quick=True).run()
        records = store.load()
        assert len(records) == 2

        def behaviour(record):
            return {key: value for key, value in strip_timing(record).items()
                    if key not in ("pifo_backend", "run_id", "fingerprint")}

        assert behaviour(records[0]) == behaviour(records[1])
        assert records[0]["seed"] == records[1]["seed"]
        assert records[0]["fct_count"] > 0

    def test_worker_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CampaignRunner(small_campaign(), ResultStore(tmp_path / "r.jsonl"),
                           workers=0)


class TestResume:
    def test_resume_after_interrupt_runs_exactly_the_missing_half(
            self, tmp_path, serial_records):
        # Simulated interrupt: only the first half of the records survived.
        store = ResultStore(tmp_path / "resume.jsonl")
        survivors = serial_records[:len(serial_records) // 2]
        for record in survivors:
            store.append(record)

        runner = CampaignRunner(small_campaign(), store, workers=2,
                                quick=True, resume=True)
        missing = [r["run_id"] for r in serial_records[len(survivors):]]
        assert [s.run_id for s in runner.pending_specs()] == missing

        report = runner.run()
        assert report.executed == len(missing)
        assert report.skipped == len(survivors)
        assert sorted(canonical(store.load())) == sorted(canonical(serial_records))

    def test_resume_with_complete_store_runs_nothing(self, tmp_path,
                                                     serial_records):
        store = ResultStore(tmp_path / "full.jsonl")
        for record in serial_records:
            store.append(record)
        report = CampaignRunner(small_campaign(), store, workers=2,
                                quick=True, resume=True).run()
        assert report.executed == 0
        assert report.skipped == len(serial_records)

    def test_without_resume_store_is_appended_not_deduplicated(
            self, tmp_path, serial_records):
        store = ResultStore(tmp_path / "norun.jsonl")
        for record in serial_records:
            store.append(record)
        runner = CampaignRunner(small_campaign(), store, workers=1, quick=True)
        assert len(runner.pending_specs()) == len(serial_records)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_property_any_surviving_subset_resumes_the_complement(
            self, tmp_path_factory, data):
        # Pure run-table property (no simulations): whatever subset of the
        # paper_sweep records survives, pending_specs() is exactly the
        # complement, in run-table order.
        campaign = get_campaign("paper_sweep")
        specs = campaign.expand(quick=True)
        survivors = data.draw(st.sets(
            st.sampled_from([s.fingerprint() for s in specs])))
        store = ResultStore(tmp_path_factory.mktemp("prop") / "r.jsonl")
        for fingerprint in survivors:
            store.append({"fingerprint": fingerprint})
        runner = CampaignRunner(campaign, store, quick=True, resume=True)
        pending = runner.pending_specs()
        expected = [s for s in specs if s.fingerprint() not in survivors]
        assert pending == expected

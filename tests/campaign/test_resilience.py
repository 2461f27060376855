"""Crash isolation, retry, timeouts and quarantine in the campaign runner.

The hardening contract: a raised exception, a timed-out run or a dead
worker process becomes a structured failure record in the store — the
sweep completes, order is preserved, and ``--resume`` re-runs exactly the
failed set.  Faults are injected through ``REPRO_CAMPAIGN_FAULT`` (see
:mod:`repro.campaign.runner`), matched by substring against run ids.
"""

from __future__ import annotations

import signal
import threading
import time
from types import SimpleNamespace

import pytest

import repro.campaign.engine as engine_module
from repro.campaign import (
    Campaign,
    CampaignRunner,
    ResultStore,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    STATUS_WORKER_LOST,
    WarmWorkerEngine,
    WorkerPolicy,
    execute_spec_guarded,
    record_is_ok,
    strip_timing,
)
from repro.campaign.runner import FAULT_ENV

sigalrm_available = pytest.mark.skipif(
    not hasattr(signal, "SIGALRM")
    or threading.current_thread() is not threading.main_thread(),
    reason="per-run timeouts need SIGALRM on the main thread",
)


def probe_campaign(name="resilience_probe") -> Campaign:
    """Four quick fig6 runs; run ids like fig6_chain/FIFO/quantized/..."""
    return Campaign(
        name=name,
        title="resilience probe",
        scenarios=["fig6_chain"],
        pifo_backends=["sorted", "quantized"],
    )


def run_ids(records):
    return [r["run_id"] for r in records]


class TestInjectedExceptions:
    def test_raise_becomes_structured_failure_record(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "FIFO/quantized:raise")
        store = ResultStore(tmp_path / "r.jsonl")
        report = CampaignRunner(probe_campaign(), store, quick=True).run()
        assert report.executed == 4
        assert report.failed == 1
        assert report.aborted is None
        records = store.load()
        failed = [r for r in records if not record_is_ok(r)]
        assert len(failed) == 1
        record = failed[0]
        assert record["status"] == STATUS_FAILED
        assert record["error_type"] == "RuntimeError"
        assert "injected fault" in record["error"]
        assert len(record["traceback_digest"]) == 16
        assert record["attempts"] == 1
        # The failure record still carries the full config columns.
        assert record["scenario"] == "fig6_chain"
        assert record["fingerprint"]

    def test_pool_survives_a_raising_run_in_order(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "FIFO/quantized:raise")
        serial = ResultStore(tmp_path / "serial.jsonl")
        CampaignRunner(probe_campaign(), serial, quick=True).run()
        pooled = ResultStore(tmp_path / "pool.jsonl")
        report = CampaignRunner(probe_campaign(), pooled, workers=2,
                                quick=True).run()
        assert report.failed == 1
        assert run_ids(pooled.load()) == run_ids(serial.load())

    def test_flaky_run_succeeds_on_retry(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "FIFO/quantized:flaky:2")
        store = ResultStore(tmp_path / "r.jsonl")
        report = CampaignRunner(probe_campaign(), store, quick=True,
                                max_attempts=2).run()
        assert report.failed == 0
        by_id = {r["run_id"]: r for r in store.load()}
        flaky = next(r for rid, r in by_id.items() if "FIFO/quantized" in rid)
        assert flaky["status"] == STATUS_OK
        assert flaky["attempts"] == 2
        # Untouched runs succeeded first try.
        assert all(r["attempts"] == 1 for rid, r in by_id.items()
                   if "FIFO/quantized" not in rid)

    def test_exhausted_retries_record_attempt_count(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "FIFO/quantized:raise")
        store = ResultStore(tmp_path / "r.jsonl")
        CampaignRunner(probe_campaign(), store, quick=True,
                       max_attempts=3).run()
        failed = [r for r in store.load() if not record_is_ok(r)]
        assert failed[0]["attempts"] == 3


class TestTimeouts:
    @sigalrm_available
    def test_hung_run_times_out_without_retry(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "FIFO/quantized:hang:30")
        store = ResultStore(tmp_path / "r.jsonl")
        report = CampaignRunner(probe_campaign(), store, quick=True,
                                timeout_s=0.5, max_attempts=3).run()
        assert report.failed == 1
        record = next(r for r in store.load() if not record_is_ok(r))
        assert record["status"] == STATUS_TIMEOUT
        assert record["attempts"] == 1       # timeouts never retry
        assert record["wall_clock_s"] < 5.0

    @sigalrm_available
    def test_alarm_restores_previous_handler(self):
        seen = []
        previous = signal.signal(signal.SIGALRM, lambda s, f: seen.append(s))
        try:
            spec = probe_campaign().expand(quick=True)[0]
            record = execute_spec_guarded(
                spec, WorkerPolicy(timeout_s=30.0))
            assert record["status"] == STATUS_OK
            assert signal.getsignal(signal.SIGALRM).__name__ == "<lambda>"
        finally:
            signal.signal(signal.SIGALRM, previous)


def queued_behind_campaign() -> Campaign:
    """The probe reordered so FIFO/quantized is not last.

    Run table: LSTF/quantized, LSTF/sorted, FIFO/quantized, FIFO/sorted.
    Each worker holds two specs, so whichever worker runs FIFO/quantized
    holds FIFO/sorted queued behind it (on one or two workers alike).
    """
    return Campaign(
        name="resilience_probe",
        title="resilience probe",
        scenarios=["fig6_chain"],
        pifo_backends=["quantized", "sorted"],
    )


@pytest.fixture(scope="module")
def queued_behind_serial(tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("serial") / "r.jsonl")
    CampaignRunner(queued_behind_campaign(), store, quick=True).run()
    return store.load()


class TestDeadWorkers:
    def assert_only_head_spec_failed(self, records, serial, status):
        """One failure record for FIFO/quantized, in run-table order; the
        spec queued behind it ran once on a fresh worker; every other
        record equals the serial store modulo timing fields."""
        assert run_ids(records) == run_ids(serial)
        failed = [r for r in records if not record_is_ok(r)]
        assert [r["run_id"] for r in failed] == [
            "fig6_chain/FIFO/quantized/native/x1/r0"]
        assert failed[0]["status"] == status
        queued = records[3]
        assert queued["run_id"].startswith("fig6_chain/FIFO/sorted/")
        assert record_is_ok(queued)
        assert [strip_timing(r) for r in records if record_is_ok(r)] == [
            strip_timing(r) for r in serial if "FIFO/quantized" not in r["run_id"]]
        return failed[0]

    def test_dead_worker_costs_one_record(self, tmp_path, monkeypatch,
                                          queued_behind_serial):
        # Default policy: no timeout_s.  The parent sees the worker's pipe
        # close at once instead of waiting out a 300 s per-run bound.
        monkeypatch.setenv(FAULT_ENV, "FIFO/quantized:exit:42")
        store = ResultStore(tmp_path / "r.jsonl")
        report = CampaignRunner(queued_behind_campaign(), store, workers=2,
                                quick=True).run()
        assert report.executed == 4
        assert report.failed == 1
        assert report.wall_clock_s < 30.0
        lost = self.assert_only_head_spec_failed(
            store.load(), queued_behind_serial, STATUS_WORKER_LOST)
        assert "exit code 42" in lost["error"]

    def test_worker_dying_on_a_refilled_spec(self, monkeypatch,
                                             queued_behind_serial):
        # One worker: FIFO/quantized (run-table index 2) reaches it as a
        # refill, not in the first fill, and it dies the moment it starts
        # that spec.  A slow commit holds the parent until the worker is
        # gone, so the next refill meets a closed pipe: that must cost the
        # one record, not the sweep.
        monkeypatch.setenv(FAULT_ENV, "FIFO/quantized:exit:42")
        records = []

        def slow_commit(record, line):
            records.append(record)
            time.sleep(0.3)

        specs = queued_behind_campaign().expand(quick=True)
        with WarmWorkerEngine(1) as engine:
            assert engine.execute(specs, slow_commit) == 4
            # The dead worker's counters left with it.
            assert engine.stats.kernel_cache_totals()["workers"] == 1
        lost = self.assert_only_head_spec_failed(
            records, queued_behind_serial, STATUS_WORKER_LOST)
        assert "exit code 42" in lost["error"]

    def assert_wedged_worker_times_out(self, tmp_path, monkeypatch, serial):
        # No policy timeout, so no in-worker alarm: only the parent's
        # per-spec deadline ((0.1 s + 0) x 1 attempt + 5 s) ends the hang.
        monkeypatch.setattr(engine_module, "DEFAULT_WATCHDOG_RUN_S", 0.1)
        monkeypatch.setenv(FAULT_ENV, "FIFO/quantized:hang:60")
        store = ResultStore(tmp_path / "r.jsonl")
        report = CampaignRunner(queued_behind_campaign(), store, workers=2,
                                quick=True).run()
        assert report.executed == 4
        assert report.failed == 1
        assert report.wall_clock_s < 15.0
        timed_out = self.assert_only_head_spec_failed(
            store.load(), serial, STATUS_TIMEOUT)
        assert "exceeded" in timed_out["error"]

    def test_wedged_worker_hits_parent_side_deadline(self, tmp_path,
                                                     monkeypatch,
                                                     queued_behind_serial):
        self.assert_wedged_worker_times_out(tmp_path, monkeypatch,
                                            queued_behind_serial)

    @pytest.mark.parametrize("worker_resets_sigterm", [True, False],
                             ids=["reset", "inherited"])
    def test_wedged_worker_ends_despite_a_raising_sigterm_handler(
            self, tmp_path, monkeypatch, queued_behind_serial,
            worker_resets_sigterm):
        # A parent whose SIGTERM handler raises an Exception (a test
        # harness turning its time limit into one) forks workers that
        # inherit it; the run guard would catch it in the wedged run and
        # keep the worker alive.  Workers reset SIGTERM to the default,
        # and one that still outlives the terminate is killed.
        if not worker_resets_sigterm:
            monkeypatch.setattr(engine_module, "signal", SimpleNamespace(
                signal=lambda signum, handler: None,
                SIGTERM=signal.SIGTERM, SIG_DFL=signal.SIG_DFL))

        def raise_on_sigterm(signum, frame):
            raise RuntimeError("SIGTERM")

        previous = signal.signal(signal.SIGTERM, raise_on_sigterm)
        try:
            self.assert_wedged_worker_times_out(tmp_path, monkeypatch,
                                                queued_behind_serial)
        finally:
            signal.signal(signal.SIGTERM, previous)


class TestFailureBudget:
    def test_max_failures_aborts_with_resumable_store(self, tmp_path,
                                                      monkeypatch):
        # Every run id contains the scenario name, so every run fails.
        monkeypatch.setenv(FAULT_ENV, "fig6_chain:raise")
        store = ResultStore(tmp_path / "r.jsonl")
        report = CampaignRunner(probe_campaign(), store, quick=True,
                                max_failures=1).run()
        assert report.aborted is not None
        assert "max_failures=1" in report.aborted
        assert report.executed == 2          # aborted on the second failure
        # The store keeps what was committed and resume re-runs everything
        # (the two failures plus the two never-attempted runs).
        monkeypatch.delenv(FAULT_ENV)
        resumed = CampaignRunner(probe_campaign(), store, quick=True,
                                 resume=True)
        assert len(resumed.pending_specs()) == 4
        final = resumed.run()
        assert final.failed == 0
        assert len(store.completed_fingerprints()) == 4

    def test_max_failures_aborts_pool_mode_too(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "fig6_chain:raise")
        store = ResultStore(tmp_path / "r.jsonl")
        report = CampaignRunner(probe_campaign(), store, workers=2,
                                quick=True, max_failures=0).run()
        assert report.aborted is not None
        assert 1 <= report.executed < 4

    def test_max_attempts_validation(self, tmp_path):
        with pytest.raises(ValueError, match="max_attempts"):
            CampaignRunner(probe_campaign(),
                           ResultStore(tmp_path / "r.jsonl"), max_attempts=0)


class TestResumeAfterFailures:
    def test_resume_reruns_exactly_the_failed_set(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "FIFO:raise")   # both FIFO runs fail
        store = ResultStore(tmp_path / "r.jsonl")
        CampaignRunner(probe_campaign(), store, quick=True).run()
        failed_ids = [r["run_id"] for r in store.load()
                      if not record_is_ok(r)]
        assert len(failed_ids) == 2

        monkeypatch.delenv(FAULT_ENV)
        resumed = CampaignRunner(probe_campaign(), store, quick=True,
                                 resume=True)
        assert [s.run_id for s in resumed.pending_specs()] == failed_ids
        report = resumed.run()
        assert report.executed == 2
        assert report.failed == 0
        # The re-run records supersede the failures per fingerprint.
        latest = store.latest_by_fingerprint()
        assert all(record_is_ok(r) for r in latest.values())
        assert len(latest) == 4

    def test_interrupt_leaves_flushed_resumable_store(self, tmp_path,
                                                      monkeypatch):
        # Simulated Ctrl-C: the second run raises KeyboardInterrupt at the
        # execute layer.  The runner must re-raise with everything already
        # committed still on disk, and resume must finish the rest.
        import repro.campaign.runner as runner_module

        real = runner_module.execute_spec
        hits = []

        def interrupting(spec):
            hits.append(spec.run_id)
            if len(hits) == 2:
                raise KeyboardInterrupt
            return real(spec)

        monkeypatch.setattr(runner_module, "execute_spec", interrupting)
        store = ResultStore(tmp_path / "r.jsonl")
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(probe_campaign(), store, quick=True).run()
        survivors = store.load()
        assert len(survivors) == 1
        assert record_is_ok(survivors[0])

        monkeypatch.setattr(runner_module, "execute_spec", real)
        report = CampaignRunner(probe_campaign(), store, quick=True,
                                resume=True).run()
        assert report.skipped == 1
        assert report.executed == 3
        assert len(store.completed_fingerprints()) == 4

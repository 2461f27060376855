"""The warm-worker engine: determinism, reuse, warm-up, telemetry.

The engine's contract is serial execution's — a ``workers=N`` store is
byte-identical to serial modulo timing fields — plus the properties that
make it *fast*: the workers persist across campaign executions (cold
start paid once) and records arrive pre-encoded so the parent never
re-serialises.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.campaign import (
    Campaign,
    CampaignRunner,
    ResultStore,
    WarmupSpec,
    WarmWorkerEngine,
    strip_timing,
    warm_kernel_cache,
)


def small_campaign() -> Campaign:
    return Campaign(
        name="engine_probe",
        title="small sweep for engine tests",
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


class TestEngineDeterminism:
    def test_engine_store_identical_to_serial(self, tmp_path, serial_records):
        store = ResultStore(tmp_path / "engine.jsonl")
        with WarmWorkerEngine(
                workers=2,
                warmup=WarmupSpec.for_campaign(small_campaign())) as engine:
            report = CampaignRunner(small_campaign(), store, workers=2,
                                    quick=True, engine=engine).run()
        assert report.executed == len(serial_records)
        assert canonical(store.load()) == canonical(serial_records)

    def test_commit_line_matches_record(self, tmp_path):
        """The pre-encoded line the engine ships IS the committed record."""
        campaign = small_campaign()
        specs = campaign.expand(quick=True)
        seen = []
        with WarmWorkerEngine(workers=2) as engine:
            engine.execute(specs, lambda record, line: seen.append((record, line)))
        assert len(seen) == len(specs)
        for record, line in seen:
            assert json.loads(line) == record

    def test_commit_order_is_run_table_order(self, tmp_path):
        campaign = small_campaign()
        specs = campaign.expand(quick=True)
        committed = []
        with WarmWorkerEngine(workers=4) as engine:
            engine.execute(specs, lambda r, line: committed.append(r["run_id"]))
        assert committed == [spec.run_id for spec in specs]


class TestEnginePersistence:
    def test_pool_survives_across_campaigns(self, tmp_path, serial_records):
        engine = WarmWorkerEngine(
            workers=2, warmup=WarmupSpec.for_campaign(small_campaign()))
        try:
            engine.warm()
            cold = engine.stats.cold_start_s
            assert cold > 0
            for name in ("first", "second"):
                store = ResultStore(tmp_path / f"{name}.jsonl")
                CampaignRunner(small_campaign(), store, workers=2,
                               quick=True, engine=engine).run()
                assert canonical(store.load()) == canonical(serial_records)
            # Reuse pays no second cold start and keeps its telemetry.
            assert engine.stats.cold_start_s == cold
            assert engine.stats.runs == 2 * len(serial_records)
        finally:
            engine.close()

    def test_warm_is_idempotent(self):
        with WarmWorkerEngine(workers=1) as engine:
            first = engine.warm()
            assert engine.warm() == first

    def test_kernel_totals_surface_through_runner(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        runner = CampaignRunner(small_campaign(), store, workers=2,
                                quick=True)
        runner.run()
        totals = runner.kernel_cache_totals
        assert totals is not None
        assert totals["workers"] >= 1
        # The warm-up pre-compiles every shape the campaign needs, so
        # workers report cache installs even before their first run.
        assert totals["installs"] > 0

    def test_workers_capped_at_cpu_count(self):
        import os

        with WarmWorkerEngine(workers=64) as engine:
            assert engine.workers == max(1, min(64, os.cpu_count() or 64))

    def test_explicit_engine_used_even_at_workers_1(self, tmp_path,
                                                    serial_records):
        """workers=1 + a caller's engine runs on the engine, not in-process.

        The warm worker beats serial even without parallelism (its GC
        thresholds stay widened, appends overlap with execution), so a
        provided engine is never silently bypassed.
        """
        store = ResultStore(tmp_path / "r.jsonl")
        with WarmWorkerEngine(
                workers=1,
                warmup=WarmupSpec.for_campaign(small_campaign())) as engine:
            runner = CampaignRunner(small_campaign(), store, workers=1,
                                    quick=True, engine=engine)
            runner.run()
            assert engine.stats.runs == len(serial_records)
        assert runner.kernel_cache_totals["workers"] >= 1
        assert canonical(store.load()) == canonical(serial_records)

    def test_serial_runner_reports_local_kernel_totals(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        runner = CampaignRunner(small_campaign(), store, workers=1,
                                quick=True)
        runner.run()
        assert runner.kernel_cache_totals is not None
        assert runner.kernel_cache_totals["workers"] == 0


class TestWarmup:
    def test_for_campaign_round_trip(self):
        warmup = WarmupSpec.for_campaign(small_campaign())
        assert warmup.scenarios == ("fig6_chain",)
        # Workers receive the spec itself, under fork or spawn alike.
        assert pickle.loads(pickle.dumps(warmup)) == warmup

    def test_warm_kernel_cache_compiles_shapes(self):
        from repro.lang.treekernel import clear_kernel_cache

        clear_kernel_cache()
        info = warm_kernel_cache(WarmupSpec.for_campaign(small_campaign()))
        assert info["size"] > 0

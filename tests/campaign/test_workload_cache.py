"""Cross-run workload memoisation: byte-identical stores, bounded memory.

The cache's contract is invisibility: a campaign executed with workload
memoisation produces a result store byte-identical (modulo
:data:`~repro.campaign.store.TIMING_FIELDS`) to one that rebuilds every
workload from scratch.  Plus the mechanics: paired runs hit the cache,
the LRU stays bounded, replays never share mutable packet state, and
faulted scenarios keep rebuilding their topology.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    Campaign,
    CampaignRunner,
    ResultStore,
    WorkloadCache,
    execute_spec,
    strip_timing,
)
from repro.campaign import workload_cache
from repro.campaign.workload_cache import active_cache, reset_cache
from repro.net import get_scenario


def cache_probe_campaign() -> Campaign:
    """fig6 across two backends + a replicate: 2 workloads, 4 paired runs."""
    return Campaign(
        name="workload_cache_probe",
        title="cache identity probe",
        scenarios=["fig6_chain"],
        pifo_backends=["sorted", "calendar"],
        replicates=2,
    )


def canonical(records):
    return [json.dumps(strip_timing(r), sort_keys=True) for r in records]


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_cache()
    yield
    reset_cache()


def without_cache(monkeypatch):
    """The cold pass: every run rebuilds its workload from scratch."""
    monkeypatch.setattr(workload_cache, "active_cache", lambda: None)


class TestStoreIdentity:
    def test_cached_store_identical_to_uncached(self, tmp_path, monkeypatch):
        campaign = cache_probe_campaign()

        with monkeypatch.context() as patch:
            without_cache(patch)
            cold = ResultStore(tmp_path / "cold.jsonl")
            CampaignRunner(campaign, cold, workers=1, quick=True).run()
        assert active_cache().misses == 0, "the cold pass used the cache"

        reset_cache()
        warm = ResultStore(tmp_path / "warm.jsonl")
        CampaignRunner(campaign, warm, workers=1, quick=True).run()

        cache = active_cache()
        assert cache is not None and cache.hits > 0, \
            "warm pass never hit the cache — the probe is vacuous"
        assert canonical(warm.load()) == canonical(cold.load())

    def test_execute_spec_pure_across_cache_states(self, monkeypatch):
        spec = cache_probe_campaign().expand(quick=True)[0]
        with monkeypatch.context() as patch:
            without_cache(patch)
            cold = strip_timing(execute_spec(spec))
        reset_cache()
        first = strip_timing(execute_spec(spec))
        replay = strip_timing(execute_spec(spec))  # cache hit
        assert first == cold
        assert replay == cold


class TestCacheMechanics:
    def test_paired_runs_share_one_workload(self):
        campaign = cache_probe_campaign()
        cache = WorkloadCache()
        scenario = get_scenario("fig6_chain")
        for spec in campaign.expand(quick=True):
            scenario.run(quick=True, variant=spec.variant,
                         pifo_backend=spec.pifo_backend,
                         base_seed=spec.seed, telemetry=False,
                         workload_cache=cache)
        # 2 replicates x 1 scenario = 2 distinct workloads; every other
        # run (2 backends x variants) replays one of them.
        assert cache.info()["workloads"] == 2
        assert cache.misses == 2
        assert cache.hits > 0

    def test_lru_bound_holds(self):
        cache = WorkloadCache(capacity=2)
        scenario = get_scenario("fig6_chain")
        for seed in range(5):
            cache.arrivals_for(scenario, duration=0.01, base_seed=seed,
                               load_scale=1.0)
        assert cache.info()["workloads"] == 2
        assert cache.misses == 5

    def test_replays_do_not_share_packet_state(self):
        cache = WorkloadCache()
        scenario = get_scenario("fig6_chain")
        protos = cache.arrivals_for(scenario, duration=0.01, base_seed=7,
                                    load_scale=1.0)
        host = next(iter(protos))
        first = [p for _, p in cache.replay(protos[host])]
        for packet in first:
            packet.set("prev_wait_time", 123.0)  # simulate in-run mutation
        second = [p for _, p in cache.replay(protos[host])]
        assert first and len(first) == len(second)
        for a, b in zip(first, second):
            assert b is not a
            assert "prev_wait_time" not in b.fields
            assert a.flow == b.flow and a.length == b.length

    def test_replay_draws_on_the_packet_free_list(self):
        from repro.core.packet import clear_pool, pool_size

        cache = WorkloadCache()
        protos = cache.arrivals_for(get_scenario("fig6_chain"), duration=0.01,
                                    base_seed=7, load_scale=1.0)
        host = next(iter(protos))
        clear_pool()
        for _, packet in list(cache.replay(protos[host])):
            packet.recycle()   # what a streaming sink does at delivery
        pooled = pool_size()
        assert pooled == len(protos[host])
        replayed = [p for _, p in cache.replay(protos[host])]
        assert pool_size() == 0 and len(replayed) == pooled
        clear_pool()

    def test_fault_scenarios_rebuild_topology(self):
        cache = WorkloadCache()
        faulted = get_scenario("chain_flap")
        assert faulted.fault_plan is not None
        assert cache.topology_for(faulted) is not cache.topology_for(faulted)
        clean = get_scenario("fig6_chain")
        assert cache.topology_for(clean) is cache.topology_for(clean)

    def test_faulted_campaign_store_identical(self, tmp_path, monkeypatch):
        campaign = Campaign(
            name="faulted_cache_probe",
            title="cache identity under fault plans",
            scenarios=["chain_flap"],
            pifo_backends=["sorted", "calendar"],
        )
        with monkeypatch.context() as patch:
            without_cache(patch)
            cold = ResultStore(tmp_path / "cold.jsonl")
            CampaignRunner(campaign, cold, workers=1, quick=True).run()
        reset_cache()
        warm = ResultStore(tmp_path / "warm.jsonl")
        CampaignRunner(campaign, warm, workers=1, quick=True).run()
        assert canonical(warm.load()) == canonical(cold.load())

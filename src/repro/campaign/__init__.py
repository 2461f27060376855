"""Campaign engine: parallel parameter sweeps over the scenario registry.

The paper's thesis — one PIFO substrate expresses many scheduling
algorithms — is demonstrated at scale by sweeping algorithms x topologies
x backends x loads, not by running one scenario at a time.  This package
is that execution layer:

* :mod:`~repro.campaign.spec` — :class:`Campaign` factor declarations
  expanding into a deterministic run table of pickle-safe
  :class:`RunSpec` rows, each with a seed derived from
  ``(base_seed, workload_id)`` so scheduler/backend factors compare on
  identical workloads while replicates stay independent;
* :mod:`~repro.campaign.runner` — :class:`CampaignRunner` drives the run
  table serially or through the warm engine (``workers=1`` is
  bit-identical to serial execution, modulo wall-clock fields);
* :mod:`~repro.campaign.engine` — :class:`WarmWorkerEngine`, persistent
  pre-warmed worker processes fed single runs over one pipe each and
  returning pre-encoded store lines;
* :mod:`~repro.campaign.workload_cache` — per-process bounded-LRU
  memoisation of built arrival schedules and topologies: paired runs
  (same workload, different substrate) replay a recorded arrival stream
  instead of regenerating it, with byte-identical results;
* :mod:`~repro.campaign.store` — append-only JSONL :class:`ResultStore`
  with per-run config fingerprints, making interrupted campaigns
  resumable (``--resume`` re-runs exactly the missing and failed sets);
* :mod:`~repro.campaign.builtin` — the campaign registry and the built-in
  ``paper_sweep`` / ``fault_sweep`` campaigns.

Execution is crash-isolated: exceptions, per-run timeouts and dead worker
processes become structured failure records in the store (see
:func:`~repro.campaign.runner.execute_spec_guarded`) instead of killing
the sweep, and bounded retry with backoff covers transient failures.  A
worker that dies or wedges costs only the run it held: the engine records
it and carries on with a fresh worker.

Aggregation of store records into grouped summary tables lives in
:mod:`repro.reporting.campaign`; the CLI front end is
``repro campaign run|list|report|verify``.
"""

from .builtin import (
    CAMPAIGNS,
    FAULT_SWEEP,
    PAPER_SWEEP,
    get_campaign,
    list_campaigns,
    register_campaign,
)
from .runner import (
    CampaignReport,
    CampaignRunner,
    WorkerPolicy,
    execute_spec,
    execute_spec_guarded,
    failure_record,
)
from .engine import (
    EngineStats,
    WarmupSpec,
    WarmWorkerEngine,
    warm_kernel_cache,
)
from .workload_cache import WorkloadCache, active_cache, reset_cache
from .spec import FACTOR_KEYS, Campaign, RunSpec
from .store import (
    FAILURE_STATUSES,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    STATUS_WORKER_LOST,
    TIMING_FIELDS,
    ResultStore,
    StoreError,
    encode_record,
    record_is_ok,
    strip_timing,
)

__all__ = [
    "Campaign",
    "RunSpec",
    "FACTOR_KEYS",
    "CampaignRunner",
    "CampaignReport",
    "WorkerPolicy",
    "execute_spec",
    "execute_spec_guarded",
    "failure_record",
    "WarmWorkerEngine",
    "WarmupSpec",
    "EngineStats",
    "warm_kernel_cache",
    "WorkloadCache",
    "active_cache",
    "reset_cache",
    "ResultStore",
    "StoreError",
    "encode_record",
    "TIMING_FIELDS",
    "STATUS_OK",
    "STATUS_FAILED",
    "STATUS_TIMEOUT",
    "STATUS_WORKER_LOST",
    "FAILURE_STATUSES",
    "record_is_ok",
    "strip_timing",
    "CAMPAIGNS",
    "PAPER_SWEEP",
    "FAULT_SWEEP",
    "register_campaign",
    "get_campaign",
    "list_campaigns",
]

"""Warm-worker campaign execution engine: persistent pools, batch leases.

A fresh pool per campaign loses to serial execution on short runs: every
task pays a pickle/IPC round trip, every fresh pool pays imports, and every
worker re-compiles the tree kernels its first runs need.
:class:`WarmWorkerEngine` removes all three costs:

* **Warm workers.**  The pool is *persistent* — created once, reused across
  any number of campaign executions — and each worker's initializer imports
  :mod:`repro`, registers the scenario catalogue and **pre-warms the
  tree-kernel cache** for the campaign's factor space (every
  scenario x variant x PIFO backend x lang backend shape is compiled
  before the first lease arrives).  All of that is *cold-start* cost, paid
  once and measured separately from sweep throughput.

* **Batch leases, adaptively sized.**  Workers lease contiguous *batches*
  of RunSpecs instead of single runs.  The lease size adapts to the
  observed per-run wall clock (exponential moving average, persisted
  across campaigns on the same engine): short runs get large leases so the
  per-task IPC cost amortises away, long runs get small leases so the pool
  stays load-balanced.  The cyclic GC is suspended for the duration of a
  lease (the simulation substrate is reference-count clean) and re-enabled
  between leases.

* **Compact encoded result rows.**  Workers return each record already
  encoded as its canonical JSONL store line (plus a tiny
  ``(run_id, status, attempts)`` header tuple), so the parent appends raw
  bytes via :meth:`ResultStore.append_line` — the record is serialised
  exactly once, in parallel, and never re-encoded or deep-pickled.

Ordering and failure semantics are those of serial execution: leases are
committed in run-table order (a ``workers=N`` store is
byte-identical to serial modulo the timing fields), per-run failures come
back as structured records, and a dead or wedged worker trips the lease
watchdog so the caller can degrade to crash-isolated execution.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import merge_counts
from .spec import Campaign, RunSpec
from .store import encode_record
from .runner import (
    DEFAULT_WATCHDOG_RUN_S,
    WorkerPolicy,
    _start_method,
    execute_spec_guarded,
)

#: Target wall-clock seconds per lease.  Large enough that the per-lease
#: IPC round trip (~1 ms) is noise, small enough that a pool never idles
#: behind one long lease.
DEFAULT_TARGET_LEASE_S = 0.5

#: Hard cap on runs per lease, whatever the EMA says.
MAX_LEASE_RUNS = 64

#: Leases kept in flight per worker.  Two: one executing, one queued, so a
#: worker never waits on the parent between leases.
LEASES_PER_WORKER = 2


@dataclass(frozen=True)
class WarmupSpec:
    """What the worker initializer pre-warms: the campaign's factor space.

    Built from a :class:`Campaign` with :meth:`for_campaign`; shipped to
    workers as plain tuples so it pickles under any start method.
    """

    scenarios: Tuple[str, ...] = ()
    #: Variant labels to warm; empty = every variant of each scenario.
    variants: Tuple[str, ...] = ()
    pifo_backends: Tuple[Optional[str], ...] = (None,)
    lang_backends: Tuple[Optional[str], ...] = (None,)

    @classmethod
    def for_campaign(cls, campaign: Campaign) -> "WarmupSpec":
        return cls(
            scenarios=tuple(campaign.scenarios),
            variants=tuple(campaign.variants or ()),
            pifo_backends=tuple(campaign.pifo_backends),
            lang_backends=tuple(campaign.lang_backends),
        )

    def to_dict(self) -> Dict:
        return {
            "scenarios": list(self.scenarios),
            "variants": list(self.variants),
            "pifo_backends": list(self.pifo_backends),
            "lang_backends": list(self.lang_backends),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "WarmupSpec":
        return cls(
            scenarios=tuple(data["scenarios"]),
            variants=tuple(data["variants"]),
            pifo_backends=tuple(data["pifo_backends"]),
            lang_backends=tuple(data["lang_backends"]),
        )


def warm_kernel_cache(warmup: WarmupSpec) -> Dict[str, int]:
    """Compile every tree-kernel shape the campaign's runs will need.

    Instantiates one scheduler per (scenario, variant, PIFO backend, lang
    backend) combination — :class:`ProgrammableScheduler` compiles and
    caches its fused kernel at construction — so the first *run* a worker
    executes hits a fully warm cache instead of paying kernel generation
    inside the measured sweep.  Shapes dedupe in the cache, so the cost is
    one compile per distinct shape, not per combination.

    Returns :func:`repro.lang.treekernel.kernel_cache_info` after warming.
    """
    from ..lang.treekernel import kernel_cache_info
    from ..net import get_scenario

    for name in warmup.scenarios:
        scenario = get_scenario(name)
        labels = warmup.variants or tuple(scenario.variants)
        for label in labels:
            if label not in scenario.variants:
                continue
            for lang_backend in (warmup.lang_backends or (None,)):
                try:
                    factory = scenario.scheduler_factory(label, lang_backend)
                except KeyError:
                    continue  # scenario has no program twin for this label
                for pifo_backend in (warmup.pifo_backends or (None,)):
                    scheduler = factory("warm", "port0")
                    if (pifo_backend is not None
                            and hasattr(scheduler, "use_backend")):
                        scheduler.use_backend(pifo_backend)
    return kernel_cache_info()


# --------------------------------------------------------------------------- #
# Worker side                                                                  #
# --------------------------------------------------------------------------- #

#: Installed by the initializer; module global keeps the lease entry point a
#: picklable top-level function.
_LEASE_POLICY = WorkerPolicy()


def _engine_worker_init(policy_dict: Optional[Dict],
                        warmup_dict: Optional[Dict]) -> None:
    """Pool initializer: import, register, pre-warm — once per worker.

    Everything here is cold-start cost the leases never see: the
    :mod:`repro.net` import populates the scenario registry, and
    :func:`warm_kernel_cache` compiles the campaign's kernel shapes.
    """
    from .. import net  # noqa: F401  (side effect: scenario registry)

    net.list_scenarios()
    if policy_dict is not None:
        global _LEASE_POLICY
        _LEASE_POLICY = WorkerPolicy.from_dict(policy_dict)
    if warmup_dict is not None:
        warm_kernel_cache(WarmupSpec.from_dict(warmup_dict))
    # The warm heap (imports, registries, compiled kernels) is permanent:
    # freeze it out of the collector's scan set, then raise the gen-0
    # threshold so simulation churn triggers a handful of collections per
    # sweep instead of hundreds.  Cycle collection stays enabled — a
    # long-lived pool must not leak cyclic garbage — it just stops paying
    # rent on objects that will never die.
    gc.collect()
    gc.freeze()
    gc.set_threshold(50_000, 20, 20)


def _engine_ping(_: int) -> int:
    """No-op task: completing one proves this worker's initializer ran."""
    return os.getpid()


def _execute_lease(start: int, payloads: List[Dict]) -> Tuple:
    """Execute one lease of runs; return compact encoded rows.

    The hot path is reference-count clean, and the initializer already
    froze the warm heap and widened the collector thresholds, so the
    lease body is just the runs — no per-lease GC ceremony.

    Returns ``(start, rows, elapsed_s, pid, kernel_info)`` where each row
    is ``(run_id, status, attempts, line)`` and ``line`` is the record's
    canonical JSONL store line — the parent appends it verbatim.
    """
    from ..lang.treekernel import kernel_cache_info

    started = time.perf_counter()
    rows = []
    for payload in payloads:
        record = execute_spec_guarded(RunSpec.from_dict(payload),
                                      _LEASE_POLICY)
        rows.append((record["run_id"], record["status"],
                     record.get("attempts", 1), encode_record(record)))
    elapsed = time.perf_counter() - started
    return (start, rows, elapsed, os.getpid(), kernel_cache_info())


# --------------------------------------------------------------------------- #
# Parent side                                                                  #
# --------------------------------------------------------------------------- #
class EngineBroken(Exception):
    """The pool stalled or died; ``committed`` runs made it to the store."""

    def __init__(self, reason: str, committed: int) -> None:
        super().__init__(reason)
        self.reason = reason
        self.committed = committed


@dataclass
class _Lease:
    start: int
    size: int
    result: object  # multiprocessing.pool.AsyncResult


@dataclass
class EngineStats:
    """Observability counters the engine accumulates across executions."""

    leases: int = 0
    runs: int = 0
    #: EMA of per-run wall clock (drives adaptive lease sizing).
    mean_run_s: Optional[float] = None
    #: Wall clock spent creating + warming the pool (cold-start cost).
    cold_start_s: float = 0.0
    #: Latest kernel-cache counters per worker pid.
    kernel_by_pid: Dict[int, Dict[str, int]] = field(default_factory=dict)

    def kernel_cache_totals(self) -> Dict[str, int]:
        """Kernel cache counters summed across the pool's workers."""
        totals = merge_counts(self.kernel_by_pid.values())
        totals["workers"] = len(self.kernel_by_pid)
        return totals


class WarmWorkerEngine:
    """A persistent, pre-warmed worker pool that leases batches of runs.

    Create once, call :meth:`execute` any number of times (the pool and
    its warm caches persist between calls), then :meth:`close`.  Also a
    context manager.

    Parameters
    ----------
    workers:
        Worker processes in the pool.
    policy:
        :class:`~repro.campaign.runner.WorkerPolicy` applied to every run
        (timeouts, retry, backoff).
    warmup:
        Factor space whose kernel shapes each worker pre-compiles in its
        initializer (see :class:`WarmupSpec`).  ``None`` skips kernel
        pre-warming (imports and scenario registration still happen).
    target_lease_s:
        Wall-clock size leases adapt towards.
    """

    def __init__(
        self,
        workers: int,
        policy: Optional[WorkerPolicy] = None,
        warmup: Optional[WarmupSpec] = None,
        target_lease_s: float = DEFAULT_TARGET_LEASE_S,
        max_lease_runs: int = MAX_LEASE_RUNS,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        #: Requested worker count, capped at the machine's cores: the
        #: runs are CPU-bound simulations, so oversubscribing past the
        #: core count buys only context-switch thrash (on a 1-core box a
        #: 4-worker pool *loses* to serial; one warm worker beats it).
        self.workers = max(1, min(workers, os.cpu_count() or workers))
        self.policy = policy or WorkerPolicy()
        self.warmup = warmup
        self.target_lease_s = target_lease_s
        self.max_lease_runs = max_lease_runs
        self.stats = EngineStats()
        self._pool = None

    # -- lifecycle ---------------------------------------------------------
    def warm(self) -> float:
        """Ensure the pool exists and every initializer has finished.

        Returns the cumulative cold-start seconds (pool creation, imports,
        scenario registration, kernel pre-warming).  Idempotent: a warm
        pool returns immediately.
        """
        if self._pool is None:
            started = time.perf_counter()
            # Warm the parent too: under fork every worker inherits the
            # imported scenario registry instead of rebuilding it.
            _engine_worker_init(None, None)
            context = multiprocessing.get_context(_start_method())
            warmup_dict = (self.warmup.to_dict()
                           if self.warmup is not None else None)
            self._pool = context.Pool(
                processes=self.workers,
                initializer=_engine_worker_init,
                initargs=(self.policy.to_dict(), warmup_dict),
            )
            # A barrier of no-op tasks: the pool spawns all workers up
            # front and each runs its initializer before its first task,
            # so once these complete every worker is warm.
            self._pool.map(_engine_ping, range(self.workers * 2),
                           chunksize=1)
            self.stats.cold_start_s += time.perf_counter() - started
        return self.stats.cold_start_s

    def close(self) -> None:
        """Shut the pool down (gracefully when healthy)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "WarmWorkerEngine":
        self.warm()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ---------------------------------------------------------
    def execute(
        self,
        specs: Sequence[RunSpec],
        commit: Callable[[Dict, Optional[str]], None],
        heartbeat: Optional[Callable[[int], None]] = None,
    ) -> int:
        """Run every spec through the pool; commit records in table order.

        ``commit(record, line)`` is called once per run, in run-table
        order, with the decoded record *and* its pre-encoded canonical
        store line (append the line, not a re-serialisation).  Returns the
        number of committed runs.

        ``heartbeat`` (if given) is called with the number of runs
        currently leased out whenever the in-flight set changes — the
        live-status sidecar hangs off this so an operator can watch a
        long lease make progress before any record commits.

        Raises :class:`EngineBroken` — with the committed count — when the
        pool stalls beyond the lease watchdog budget (dead or wedged
        worker); the caller decides how to execute the remainder.  Any
        exception out of ``commit`` (failure-budget aborts) and
        ``KeyboardInterrupt`` tear the pool down and propagate; the engine
        rebuilds it lazily on the next call.
        """
        self.warm()
        payloads = [spec.to_dict() for spec in specs]
        total = len(payloads)
        next_submit = 0
        committed = 0
        inflight: List[_Lease] = []
        ready: Dict[int, Tuple] = {}
        try:
            while committed < total:
                while (next_submit < total
                       and len(inflight) < self.workers * LEASES_PER_WORKER):
                    size = self._lease_size(total - next_submit)
                    batch = payloads[next_submit:next_submit + size]
                    result = self._pool.apply_async(
                        _execute_lease, (next_submit, batch))
                    inflight.append(_Lease(next_submit, size, result))
                    next_submit += size
                if heartbeat is not None:
                    heartbeat(sum(lease.size for lease in inflight))
                head = inflight[0]
                try:
                    outcome = head.result.get(timeout=self._budget(inflight))
                except multiprocessing.TimeoutError:
                    # The pool's result pipeline is stalled for good: a
                    # worker died mid-lease (its task is never re-queued)
                    # or is wedged beyond every per-run bound.
                    self._teardown()
                    raise EngineBroken(
                        "lease watchdog expired: worker died or wedged",
                        committed,
                    ) from None
                inflight.pop(0)
                self._observe(outcome)
                ready[outcome[0]] = outcome
                while committed in ready:
                    start, rows, *_ = ready.pop(committed)
                    for run_id, status, attempts, line in rows:
                        commit(json.loads(line), line)
                        committed += 1
            return committed
        except BaseException:
            # Failure-budget abort / Ctrl-C: kill outstanding leases and
            # reap the workers.  The next execute() re-warms lazily.
            self._teardown()
            raise

    def _teardown(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    # -- adaptive sizing & watchdog ---------------------------------------
    def _lease_size(self, remaining: int) -> int:
        """Runs in the next lease, adapted to the observed per-run cost."""
        mean = self.stats.mean_run_s
        if mean is None:
            # No observations yet: small first wave, so the EMA learns the
            # per-run cost without serialising the whole table behind one
            # blind guess.
            size = max(1, min(4, remaining // (self.workers * 4)))
        elif mean <= 0:
            size = self.max_lease_runs
        else:
            size = int(self.target_lease_s / mean) or 1
        # Never leave workers idle at the tail: cap leases so the
        # remaining runs still spread across the pool.
        fair = max(1, -(-remaining // self.workers))  # ceil division
        return max(1, min(size, self.max_lease_runs, fair))

    def _budget(self, inflight: List[_Lease]) -> float:
        """Watchdog seconds to wait on the head lease while healthy.

        Covers every in-flight run (the head lease may be queued behind
        others on a busy pool) at the worst-case per-run bound, doubled
        for scheduler noise.
        """
        per_run = self.policy.timeout_s or DEFAULT_WATCHDOG_RUN_S
        per_run = (per_run + self.policy.backoff_s
                   * self.policy.max_attempts) * self.policy.max_attempts
        runs = sum(lease.size for lease in inflight)
        return 2.0 * per_run * max(1, runs) / max(1, self.workers) + 5.0

    def _observe(self, outcome: Tuple) -> None:
        """Fold one lease's telemetry into the engine stats."""
        start, rows, elapsed, pid, kernel_info = outcome
        self.stats.leases += 1
        self.stats.runs += len(rows)
        self.stats.kernel_by_pid[pid] = kernel_info
        if rows:
            per_run = elapsed / len(rows)
            if self.stats.mean_run_s is None:
                self.stats.mean_run_s = per_run
            else:
                self.stats.mean_run_s += 0.4 * (per_run
                                                - self.stats.mean_run_s)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "warm" if self._pool is not None else "cold"
        return (f"WarmWorkerEngine(workers={self.workers}, {state}, "
                f"runs={self.stats.runs}, leases={self.stats.leases})")

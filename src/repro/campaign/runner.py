"""Campaign execution with deterministic, resumable results.

:class:`CampaignRunner` executes a campaign's run table either serially
(``workers=1``) or on the warm worker processes of
:class:`~repro.campaign.engine.WarmWorkerEngine`.  Three invariants make
the parallelism safe to trust:

* **Seeds are data, not state.**  Every :class:`~repro.campaign.spec.RunSpec`
  carries its own derived seed, so a run's result is a pure function of the
  spec — which worker executed it, and in what order, cannot matter.
* **Ordered collection.**  Workers may *finish* in any order, but
  :meth:`~repro.campaign.engine.WarmWorkerEngine.execute` holds finished
  records until every earlier spec has one and commits in run-table
  order, so a ``workers=N`` store is byte-identical to the serial one
  modulo the :data:`~repro.campaign.store.TIMING_FIELDS`.
* **Resume by fingerprint.**  Completed runs are identified by their config
  fingerprint in the store; ``resume=True`` executes exactly the missing
  *and failed* specs and appends them behind the surviving records.

Workers receive plain dict payloads (fork *or* spawn start methods work)
and resolve scenario names against the registry after import, so nothing
unpicklable ever crosses the process boundary.

Failure isolation
-----------------
A raised exception, a timed-out run or a dead worker process never kills
the campaign: each failure becomes a **structured failure record** (status,
error type, truncated message, traceback digest, attempt count) appended to
the store in the run's table position, so the sweep completes, the store
stays resumable, and ``--resume`` re-runs exactly the failed set.  The
retry state machine per run::

    attempt 1 ──ok──────────────────────────► STATUS_OK record
        │
        exception ──attempts left?──yes──► backoff, attempt N+1
        │                         └──no──► STATUS_FAILED record
        timeout (SIGALRM) ────────────────► STATUS_TIMEOUT record (no retry)
        process death ────────────────────► STATUS_WORKER_LOST record
                                            (detected by the parent)

Retries run *inside* the worker, so a spec still yields exactly one
record.  The engine's parent knows which spec each worker is running: a
worker that dies costs that spec a ``worker_lost`` record (with the exit
code), one that wedges past the per-spec deadline is terminated and its
spec recorded as ``timeout``, and a fresh worker finishes the rest — so
a single poisoned run cannot take down the sweep.

``REPRO_CAMPAIGN_FAULT=<run_id substring>:<mode>[:<arg>]`` injects faults
for testing: ``raise`` (every attempt raises), ``flaky:N`` (raises until
attempt N), ``hang:SECONDS`` (sleeps), ``exit:CODE`` (kills the worker
process).  Matching is by substring against the spec's ``run_id``.
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..obs.progress import ProgressWriter, progress_path_for
from ..obs.resources import ResourceProbe, rss_peak_bytes
from .spec import Campaign, RunSpec
from .store import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    ResultStore,
)

#: Environment variable enabling injected faults (see module docstring).
FAULT_ENV = "REPRO_CAMPAIGN_FAULT"

#: Maximum length of the error message stored in a failure record.
ERROR_MESSAGE_LIMIT = 500


def execute_spec(spec: RunSpec) -> Dict:
    """Execute one run and return its self-describing result record.

    This is the single choke point between the sweep engine and the
    simulation substrate: it resolves the scenario by name, runs exactly
    one scheduler variant with the spec's PIFO backend, lang backend, load
    scale and derived seed, and flattens the
    :class:`~repro.net.scenario.ScenarioResult` into a JSON-safe record.
    """
    from ..net import get_scenario  # imports repro.net.scenarios -> registry
    from .workload_cache import active_cache

    scenario = get_scenario(spec.scenario)
    probe = ResourceProbe().start()
    started = time.perf_counter()
    results = scenario.run(
        quick=spec.quick,
        pifo_backend=spec.pifo_backend,
        variant=spec.variant,
        lang_backend=spec.lang_backend,
        load_scale=spec.load_scale,
        base_seed=spec.seed,
        telemetry=spec.telemetry,
        # Paired runs share a workload by construction; the process cache
        # replays it instead of regenerating it (see workload_cache).
        workload_cache=active_cache(),
    )
    wall_clock_s = time.perf_counter() - started
    result = results[spec.variant]
    resources = probe.stop(events=result.events, wall_s=wall_clock_s)

    total_packets = sum(stats["packets"] for stats in result.flow_stats.values())
    delay_weighted = sum(
        stats["packets"] * stats["mean_delay"]
        for stats in result.flow_stats.values()
        if stats["mean_delay"] is not None
    )
    record: Dict = dict(spec.to_dict())
    record.update({
        "run_id": spec.run_id,
        "fingerprint": spec.fingerprint(),
        "status": STATUS_OK,
        "duration": result.duration,
        "injected": result.conservation["injected"],
        "delivered": result.conservation["delivered"],
        "dropped": result.conservation["dropped"],
        "lost_to_faults": result.conservation.get("lost_to_faults", 0),
        "in_flight": result.conservation["in_flight"],
        "flows_seen": len(result.flow_stats),
        "mean_delay": (delay_weighted / total_packets) if total_packets else None,
        "max_delay": max(
            (stats["max_delay"] for stats in result.flow_stats.values()
             if stats["max_delay"] is not None),
            default=None,
        ),
        "fct_count": result.fct.count if result.fct else 0,
        "fct_mean": result.fct.mean if result.fct else None,
        "fct_p50": result.fct.p50 if result.fct else None,
        "fct_p99": result.fct.p99 if result.fct else None,
        "fct_short_count": result.fct_short.count if result.fct_short else 0,
        "fct_short_mean": result.fct_short.mean if result.fct_short else None,
        "fct_short_p99": result.fct_short.p99 if result.fct_short else None,
        "wall_clock_s": wall_clock_s,
        "worker_pid": os.getpid(),
    })
    record.update(resources)
    return record


# --------------------------------------------------------------------------- #
# Guarded execution: timeouts, retry, structured failure records               #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class WorkerPolicy:
    """Per-run resilience policy shipped to every worker."""

    timeout_s: Optional[float] = None
    max_attempts: int = 1
    backoff_s: float = 0.0

    def to_dict(self) -> Dict:
        return {"timeout_s": self.timeout_s, "max_attempts": self.max_attempts,
                "backoff_s": self.backoff_s}

    @classmethod
    def from_dict(cls, data: Dict) -> "WorkerPolicy":
        return cls(**data)


class _RunTimeout(Exception):
    """Internal: raised by the SIGALRM handler when a run overruns."""


@contextmanager
def _run_alarm(timeout_s: Optional[float]):
    """Arm a wall-clock alarm for one run (POSIX main thread only).

    Uses ``setitimer``/``SIGALRM`` so a hung simulation is interrupted at
    an arbitrary bytecode boundary.  Silently a no-op where alarms are
    unavailable (non-POSIX, or called off the main thread) — the engine's
    parent-side deadline still bounds those cases.
    """
    usable = (timeout_s is not None and timeout_s > 0
              and hasattr(signal, "SIGALRM")
              and threading.current_thread() is threading.main_thread())
    if not usable:
        yield
        return

    def on_alarm(signum, frame):
        raise _RunTimeout(f"run exceeded timeout of {timeout_s}s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _maybe_inject_fault(spec: RunSpec, attempt: int) -> None:
    """Apply the ``REPRO_CAMPAIGN_FAULT`` injection, if it matches."""
    directive = os.environ.get(FAULT_ENV)
    if not directive:
        return
    pattern, _, action = directive.partition(":")
    if pattern not in spec.run_id:
        return
    mode, _, arg = action.partition(":")
    if mode == "raise":
        raise RuntimeError(f"injected fault for {spec.run_id}")
    if mode == "flaky":
        succeed_at = int(arg or 2)
        if attempt < succeed_at:
            raise RuntimeError(
                f"injected flaky fault for {spec.run_id} "
                f"(attempt {attempt} of {succeed_at})"
            )
        return
    if mode == "hang":
        time.sleep(float(arg or 3600.0))
        return
    if mode == "exit":
        os._exit(int(arg or 1))
    raise ValueError(f"unknown {FAULT_ENV} mode {mode!r}")


def failure_record(spec: RunSpec, status: str, error: BaseException,
                   attempts: int, wall_clock_s: float,
                   trace: Optional[str] = None) -> Dict:
    """The structured failure record appended in place of a result.

    Carries the spec's full configuration (so resume/report machinery
    treats it like any record), the failure class and truncated message,
    and a digest of the traceback so identical failures are groupable
    without storing kilobytes of text per run.
    """
    trace_text = trace if trace is not None else traceback.format_exc()
    record: Dict = dict(spec.to_dict())
    record.update({
        "run_id": spec.run_id,
        "fingerprint": spec.fingerprint(),
        "status": status,
        "error_type": type(error).__name__,
        "error": str(error)[:ERROR_MESSAGE_LIMIT],
        "traceback_digest": hashlib.sha256(
            trace_text.encode("utf-8", "replace")).hexdigest()[:16],
        "attempts": attempts,
        "wall_clock_s": wall_clock_s,
        "worker_pid": os.getpid(),
        # Failures carry the same resource fields as successes (events=0:
        # the run produced no usable simulation), so report columns and
        # downstream tooling never need to special-case record shape.
        "rss_peak_bytes": rss_peak_bytes(),
        "cpu_user_s": 0.0,
        "cpu_sys_s": 0.0,
        "events": 0,
        "events_per_s": 0.0,
    })
    return record


def execute_spec_guarded(spec: RunSpec,
                         policy: Optional[WorkerPolicy] = None) -> Dict:
    """Execute one run under the resilience policy; never raises.

    Returns the normal result record on success (with its ``attempts``
    count), a :data:`~repro.campaign.store.STATUS_FAILED` record after the
    last exhausted attempt, or a
    :data:`~repro.campaign.store.STATUS_TIMEOUT` record when the run
    overruns ``policy.timeout_s`` (timeouts never retry: a deterministic
    simulation that hung once will hang again).  ``KeyboardInterrupt``
    passes through — interrupting a campaign must stay interruptible.
    """
    policy = policy or WorkerPolicy()
    attempts = max(1, policy.max_attempts)
    started = time.perf_counter()
    last_error: Optional[BaseException] = None
    last_trace = ""
    for attempt in range(1, attempts + 1):
        try:
            with _run_alarm(policy.timeout_s):
                _maybe_inject_fault(spec, attempt)
                record = execute_spec(spec)
            record["attempts"] = attempt
            return record
        except _RunTimeout as exc:
            return failure_record(
                spec, STATUS_TIMEOUT, exc, attempt,
                time.perf_counter() - started, trace=traceback.format_exc(),
            )
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            last_error = exc
            last_trace = traceback.format_exc()
            if attempt < attempts and policy.backoff_s > 0:
                time.sleep(policy.backoff_s * attempt)
    return failure_record(
        spec, STATUS_FAILED, last_error, attempts,
        time.perf_counter() - started, trace=last_trace,
    )


class CampaignAborted(Exception):
    """Internal control flow: the failure budget was exhausted."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class CampaignReport:
    """Summary of one :meth:`CampaignRunner.run` invocation."""

    campaign: str
    total_runs: int
    executed: int
    skipped: int
    workers: int
    wall_clock_s: float
    store_path: str
    records: List[Dict] = field(default_factory=list)
    #: Runs that ended in a failure record (failed / timeout / worker_lost).
    failed: int = 0
    #: Reason the campaign stopped early, or ``None`` if it ran to the end.
    aborted: Optional[str] = None


class CampaignRunner:
    """Executes a campaign's run table against a result store.

    Parameters
    ----------
    timeout_s:
        Per-run wall-clock budget; an overrunning simulation is interrupted
        (SIGALRM) and recorded as a ``timeout`` failure.
    max_attempts:
        Attempts per run before a ``failed`` record is written (exceptions
        only; timeouts never retry).
    retry_backoff_s:
        Base sleep between attempts (grows linearly with the attempt
        number).
    max_failures:
        Abort the campaign once more than this many runs have failed; the
        store keeps every record committed so far and stays resumable.
        ``None`` (default) never aborts.
    engine:
        An existing :class:`~repro.campaign.engine.WarmWorkerEngine` to
        execute on (its warm workers and kernel caches persist across
        campaigns).  ``None`` (default) creates a
        per-invocation engine sized to ``workers`` and closes it when the
        run finishes.
    """

    def __init__(
        self,
        campaign: Campaign,
        store: ResultStore,
        workers: int = 1,
        quick: bool = False,
        resume: bool = False,
        timeout_s: Optional[float] = None,
        max_attempts: int = 1,
        retry_backoff_s: float = 0.0,
        max_failures: Optional[int] = None,
        engine=None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.campaign = campaign
        self.store = store
        self.workers = workers
        self.quick = quick
        self.resume = resume
        self.max_failures = max_failures
        self.engine = engine
        self.policy = WorkerPolicy(timeout_s=timeout_s,
                                   max_attempts=max_attempts,
                                   backoff_s=retry_backoff_s)
        #: Kernel-cache totals across the execution substrate, populated
        #: by :meth:`run` (worker-aggregated on the engine).
        self.kernel_cache_totals: Optional[Dict] = None

    def pending_specs(self) -> List[RunSpec]:
        """The ordered run table, minus runs whose latest record is ok.

        Failed, timed-out and worker-lost records do *not* count as done —
        resume re-runs exactly that set plus anything never attempted.
        """
        specs = self.campaign.expand(quick=self.quick)
        if not self.resume:
            return specs
        done = self.store.completed_fingerprints()
        return [spec for spec in specs if spec.fingerprint() not in done]

    # -- execution ---------------------------------------------------------
    def run(self, progress: Optional[Callable[[Dict], None]] = None) -> CampaignReport:
        """Execute every pending run; append each record to the store.

        ``progress`` (if given) is called with each record as it is
        committed — the CLI uses it for per-run status lines.  Failures
        are committed as structured records, never raised; the campaign
        stops early only when ``max_failures`` is exceeded (recorded in
        the report's ``aborted`` field) or on ``KeyboardInterrupt``, which
        terminates the workers cleanly and re-raises with the store flushed
        and resumable.
        """
        total = self.campaign.size()
        specs = self.pending_specs()
        started = time.perf_counter()
        records: List[Dict] = []
        failures = 0
        aborted: Optional[str] = None
        # Live-status sidecar (``<store>.progress``): atomic, throttled,
        # best-effort.  ``repro campaign status`` reads it while the sweep
        # runs; readers of the store itself are unaffected.
        status = ProgressWriter(
            progress_path_for(str(self.store.path)),
            campaign=self.campaign.name,
            total=len(specs),
            workers=self.workers,
        )

        def commit(record: Dict, line: Optional[str] = None) -> None:
            nonlocal failures
            # Engine records arrive already encoded as their
            # canonical store line — append the bytes, don't re-serialise.
            if line is not None:
                self.store.append_line(line)
            else:
                self.store.append(record)
            records.append(record)
            status.record_run(ok=record.get("status", STATUS_OK) == STATUS_OK)
            if progress is not None:
                progress(record)
            if record.get("status", STATUS_OK) != STATUS_OK:
                failures += 1
                if (self.max_failures is not None
                        and failures > self.max_failures):
                    raise CampaignAborted(
                        f"aborted after {failures} failures "
                        f"(max_failures={self.max_failures})"
                    )

        try:
            # A caller-supplied engine is used even at workers=1 — its warm
            # GC-free worker beats in-process serial execution; without one,
            # a single-worker (or single-spec) table runs serially in-process
            # rather than paying worker start-up for no parallelism.
            if self.engine is None and (self.workers == 1 or len(specs) <= 1):
                for spec in specs:
                    commit(execute_spec_guarded(spec, self.policy))
            else:
                self._run_engine(specs, commit, status.heartbeat)
        except CampaignAborted as stop:
            aborted = stop.reason
        except BaseException:
            # Ctrl-C / crash: stamp the sidecar before propagating so a
            # status watcher sees "aborted", not an eternally-stale "running".
            status.finish("aborted")
            raise
        status.finish("done" if aborted is None else "aborted")
        if self.kernel_cache_totals is None:
            # Serial (or aborted-before-telemetry) execution: the kernel
            # cache of interest is this process's own.
            from ..lang.treekernel import kernel_cache_info

            self.kernel_cache_totals = dict(kernel_cache_info(), workers=0)

        return CampaignReport(
            campaign=self.campaign.name,
            total_runs=total,
            executed=len(records),
            skipped=total - len(specs),
            workers=self.workers,
            wall_clock_s=time.perf_counter() - started,
            store_path=str(self.store.path),
            records=records,
            failed=failures,
            aborted=aborted,
        )

    def _run_engine(self, specs: List[RunSpec],
                    commit: Callable[[Dict], None],
                    heartbeat: Optional[Callable[[int], None]] = None) -> None:
        """Execute on a :class:`~repro.campaign.engine.WarmWorkerEngine`.

        The caller's persistent engine, or a per-invocation engine warmed
        for this campaign's factor space and closed afterwards.
        """
        from .engine import WarmupSpec, WarmWorkerEngine

        engine = self.engine
        if engine is None:
            engine = WarmWorkerEngine(
                workers=self.workers,
                policy=self.policy,
                warmup=WarmupSpec.for_campaign(self.campaign),
            )
        try:
            engine.execute(specs, commit, heartbeat=heartbeat)
        finally:
            self.kernel_cache_totals = engine.stats.kernel_cache_totals()
            if engine is not self.engine:
                engine.close()

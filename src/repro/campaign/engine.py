"""Warm-worker campaign execution engine: persistent workers, one pipe each.

A fresh pool per campaign loses to serial execution on short runs: every
fresh pool pays imports, and every worker re-compiles the tree kernels its
first runs need.  :class:`WarmWorkerEngine` removes both costs:

* **Warm workers.**  Workers are started once and reused across any
  number of campaign executions; each imports :mod:`repro`, registers the
  scenario catalogue and **pre-warms the tree-kernel cache** for the
  campaign's factor space (every scenario x variant x PIFO backend x
  lang backend shape) before its first run.  That cold-start cost is paid
  once and measured separately from sweep throughput.
* **One pipe per worker, two specs in hand.**  The parent sends each
  worker single RunSpecs over its own pipe and keeps
  :data:`SPECS_PER_WORKER` with it — one running, one queued — so a
  worker never waits on the parent between runs, and the parent always
  knows which specs each worker holds.
* **Compact encoded results.**  Workers return each record encoded as its
  canonical JSONL store line, which the parent appends verbatim via
  :meth:`ResultStore.append_line`: one serialisation, done in parallel.

Records commit in run-table order (a ``workers=N`` store is
byte-identical to serial modulo the timing fields) and per-run failures
come back as structured records.  The parent waits on every worker's
pipe and process sentinel: a worker that dies costs exactly its running
spec (a ``worker_lost`` record carrying the exit code), and one still
running past the per-spec deadline is terminated and its spec recorded
as ``timeout``.  The spec queued behind either goes back to the front of
the queue, and a fresh worker takes the slot.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import merge_counts
from .spec import Campaign, RunSpec
from .store import STATUS_TIMEOUT, STATUS_WORKER_LOST, encode_record
from .runner import WorkerPolicy, execute_spec_guarded, failure_record

#: Specs a worker holds at once: one running, one queued behind it, so a
#: worker never waits on the parent between runs.  (One per worker makes
#: every run pay a parent round trip and loses to serial on short sweeps.)
SPECS_PER_WORKER = 2

#: Per-run wall-clock bound behind the parent-side deadline when the
#: policy sets no ``timeout_s``.  Generous: any legitimate single run
#: finishes orders of magnitude faster.
DEFAULT_WATCHDOG_RUN_S = 300.0

#: Seconds a terminated worker gets to exit before it is killed outright.
KILL_AFTER_S = 1.0


@dataclass(frozen=True)
class WarmupSpec:
    """What each worker pre-warms: the campaign's factor space.

    Built from a :class:`Campaign` with :meth:`for_campaign`; plain
    tuples throughout, so it pickles to workers under any start method.
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
                for pifo_backend in (warmup.pifo_backends or (None,)):
                    scenario.scheduler_factory(
                        label, lang_backend, pifo_backend)("warm", "port0")
    return kernel_cache_info()


# --------------------------------------------------------------------------- #
# Worker side                                                                  #
# --------------------------------------------------------------------------- #
def _engine_worker_init(warmup: Optional[WarmupSpec]) -> None:
    """Worker warm-up: import, register, pre-warm — once per worker.

    Everything here is cold-start cost the runs never see: the
    :mod:`repro.net` import populates the scenario registry, and
    :func:`warm_kernel_cache` compiles the campaign's kernel shapes.
    """
    from .. import net  # noqa: F401  (side effect: scenario registry)

    net.list_scenarios()
    if warmup is not None:
        warm_kernel_cache(warmup)
    # The warm heap (imports, registries, compiled kernels) is permanent:
    # freeze it out of the collector's scan set, then raise the gen-0
    # threshold so simulation churn triggers a handful of collections per
    # sweep instead of hundreds.  Cycle collection stays enabled — a
    # long-lived worker must not leak cyclic garbage — it just stops
    # paying rent on objects that will never die.
    gc.collect()
    gc.freeze()
    gc.set_threshold(50_000, 20, 20)


def _engine_worker(conn, policy_dict: Dict,
                   warmup: Optional[WarmupSpec]) -> None:
    """Worker process body: warm up, report ready, run specs until killed.

    The ready message is this worker's kernel-cache counters; each reply
    after it is ``(line, kernel_info)``, where ``line`` is the record's
    canonical JSONL store line — the parent appends it verbatim.
    """
    from ..lang.treekernel import kernel_cache_info

    # A forked worker inherits the parent's Python-level SIGTERM handler.
    # One that raises an ``Exception`` would be caught by the run guard
    # and keep a wedged worker alive; the parent's terminate must end it.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _engine_worker_init(warmup)
    policy = WorkerPolicy.from_dict(policy_dict)
    conn.send(kernel_cache_info())
    while True:
        record = execute_spec_guarded(RunSpec.from_dict(conn.recv()), policy)
        conn.send((encode_record(record), kernel_cache_info()))


# --------------------------------------------------------------------------- #
# Parent side                                                                  #
# --------------------------------------------------------------------------- #
class _Worker:
    """One worker process, the parent's end of its pipe, and its specs."""

    def __init__(self, context, args: Tuple) -> None:
        self.conn, child = context.Pipe()
        self.process = context.Process(target=_engine_worker,
                                       args=(child, *args), daemon=True)
        self.process.start()
        child.close()
        #: Run-table indices sent, not yet answered; the head is running
        #: since ``head_started`` (``perf_counter``).
        self.held: Deque[int] = deque()
        self.head_started = 0.0

    def stop(self, grace_s: float = 0.0) -> Optional[int]:
        """Reap the process, terminating it if it outlives ``grace_s``
        (a dying worker closes its pipe a moment before it is reapable)
        and killing it if it outlives the terminate by
        :data:`KILL_AFTER_S`; return its exit code."""
        self.process.join(grace_s)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(KILL_AFTER_S)
            if self.process.is_alive():
                self.process.kill()
                self.process.join()
        self.conn.close()
        return self.process.exitcode


@dataclass
class EngineStats:
    """Observability counters the engine accumulates across executions."""

    runs: int = 0
    #: Wall clock spent starting + warming the workers (cold-start cost).
    cold_start_s: float = 0.0
    #: Latest kernel-cache counters per worker pid.
    kernel_by_pid: Dict[int, Dict[str, int]] = field(default_factory=dict)

    def kernel_cache_totals(self) -> Dict[str, int]:
        """Kernel cache counters summed across the engine's workers."""
        totals = merge_counts(self.kernel_by_pid.values())
        totals["workers"] = len(self.kernel_by_pid)
        return totals


class WarmWorkerEngine:
    """Persistent, pre-warmed worker processes, each fed over its own pipe.

    Create once, call :meth:`execute` any number of times (the workers
    and their warm caches persist between calls), then :meth:`close`.
    Also a context manager.

    Parameters
    ----------
    workers:
        Worker processes to run.
    policy:
        :class:`~repro.campaign.runner.WorkerPolicy` applied to every run
        (timeouts, retry, backoff); it also sets the parent-side deadline
        for one spec.
    warmup:
        Factor space whose kernel shapes each worker pre-compiles before
        its first run (see :class:`WarmupSpec`).  ``None`` skips kernel
        pre-warming (imports and scenario registration still happen).
    """

    def __init__(
        self,
        workers: int,
        policy: Optional[WorkerPolicy] = None,
        warmup: Optional[WarmupSpec] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        #: Requested worker count, capped at the machine's cores: the
        #: runs are CPU-bound simulations, so oversubscribing past the
        #: core count buys only context-switch thrash (on a 1-core box 4
        #: workers *lose* to serial; one warm worker beats it).
        self.workers = max(1, min(workers, os.cpu_count() or workers))
        self.policy = policy or WorkerPolicy()
        self.warmup = warmup
        self.stats = EngineStats()
        # Prefer fork (cheap, inherits the warm parent); spawn works too,
        # because everything a worker receives pickles.
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0])
        self._workers: List[_Worker] = []

    # -- lifecycle ---------------------------------------------------------
    def warm(self) -> float:
        """Ensure every worker is started and has finished its warm-up.

        Returns the cumulative cold-start seconds (process start, imports,
        scenario registration, kernel pre-warming).  Idempotent: warm
        workers return immediately.
        """
        if not self._workers:
            started = time.perf_counter()
            # Warm the parent too: under fork every worker inherits the
            # imported scenario registry instead of rebuilding it.
            _engine_worker_init(None)
            self.stats.cold_start_s += time.perf_counter() - started
            self._workers = self._spawn(self.workers)
        return self.stats.cold_start_s

    def close(self) -> None:
        """Terminate and reap every worker."""
        for worker in self._workers:
            worker.stop()
        self._workers = []

    def __enter__(self) -> "WarmWorkerEngine":
        self.warm()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _spawn(self, count: int) -> List[_Worker]:
        """Start ``count`` workers and wait until every one is warm; the
        wait (a replacement's too) counts as cold start."""
        started = time.perf_counter()
        args = (self.policy.to_dict(), self.warmup)
        workers = [_Worker(self._context, args) for _ in range(count)]
        try:
            for worker in workers:
                self.stats.kernel_by_pid[worker.process.pid] = \
                    worker.conn.recv()
        except BaseException:
            for worker in workers:
                worker.stop()
            raise
        self.stats.cold_start_s += time.perf_counter() - started
        return workers

    # -- execution ---------------------------------------------------------
    def execute(
        self,
        specs: Sequence[RunSpec],
        commit: Callable[[Dict, Optional[str]], None],
        heartbeat: Optional[Callable[[int], None]] = None,
    ) -> int:
        """Run every spec on the workers; commit records in table order.

        ``commit(record, line)`` is called once per run, in run-table
        order, with the decoded record *and* its pre-encoded canonical
        store line (append the line, not a re-serialisation).  Returns the
        number of committed runs.

        ``heartbeat`` (if given) is called with the number of runs the
        workers hold whenever the parent wakes — the live-status sidecar
        hangs off this.

        A dead worker's running spec gets a ``worker_lost`` record, a
        wedged one's (past the per-spec deadline) a ``timeout`` record; the
        spec queued behind it is re-run on a fresh worker.  Any exception
        out of ``commit`` (failure-budget aborts) and ``KeyboardInterrupt``
        terminate the workers and propagate; the next call restarts them.
        """
        from multiprocessing.connection import wait  # not on the serial path

        self.warm()
        policy = self.policy
        # The parent-side bound on one spec: every attempt at the policy's
        # timeout (or the generous default) plus its backoff, plus slack.
        # A worker's own alarm fires first; this catches what it cannot.
        deadline_s = ((policy.timeout_s or DEFAULT_WATCHDOG_RUN_S)
                      + policy.backoff_s * policy.max_attempts) \
            * policy.max_attempts + 5.0
        payloads = [spec.to_dict() for spec in specs]
        queue: Deque[int] = deque(range(len(specs)))
        lines: Dict[int, str] = {}
        committed = 0
        try:
            while committed < len(specs):
                for worker in self._workers:
                    while queue and len(worker.held) < SPECS_PER_WORKER:
                        if not worker.held:
                            worker.head_started = time.perf_counter()
                        worker.held.append(queue.popleft())
                        try:
                            worker.conn.send(payloads[worker.held[-1]])
                        except OSError:
                            # Died since _collect looked: the spec stays
                            # held, and the sentinel, which fires on the
                            # next wait, lets _collect settle it.
                            break
                busy = [worker for worker in self._workers if worker.held]
                if heartbeat is not None:
                    heartbeat(sum(len(worker.held) for worker in busy))
                first_due = min(worker.head_started for worker in busy)
                wait([worker.conn for worker in busy]
                     + [worker.process.sentinel for worker in busy],
                     max(0.0, first_due + deadline_s - time.perf_counter()))
                for slot in range(len(self._workers)):
                    self._collect(slot, specs, lines, queue, deadline_s)
                while committed in lines:
                    line = lines.pop(committed)
                    commit(json.loads(line), line)
                    committed += 1
            return committed
        except BaseException:
            # Failure-budget abort / Ctrl-C: kill outstanding runs and
            # reap the workers.  The next execute() re-warms lazily.
            self.close()
            raise

    def _collect(self, slot: int, specs: Sequence[RunSpec],
                 lines: Dict[int, str], queue: Deque[int],
                 deadline_s: float) -> None:
        """Take one worker's replies; replace it if it died or wedged."""
        worker = self._workers[slot]
        # Read the exit status before draining: whatever a dead worker
        # sent before it died is then already in the pipe.
        dead = worker.process.exitcode is not None
        try:
            while worker.conn.poll():
                line, kernel_info = worker.conn.recv()
                lines[worker.held.popleft()] = line
                self.stats.runs += 1
                self.stats.kernel_by_pid[worker.process.pid] = kernel_info
                worker.head_started = time.perf_counter()
        except (EOFError, OSError):
            dead = True
        if dead:
            code = worker.stop(grace_s=5.0)
            status, attempts, wall_s = STATUS_WORKER_LOST, 1, 0.0
            error: Exception = ChildProcessError(
                f"worker died with exit code {code}")
        elif (worker.held and time.perf_counter() - worker.head_started
              > deadline_s):
            worker.stop()
            status, attempts, wall_s = (STATUS_TIMEOUT,
                                        self.policy.max_attempts, deadline_s)
            error = TimeoutError(f"run exceeded {deadline_s:.0f}s")
        else:
            return
        if worker.held:
            index = worker.held.popleft()
            lines[index] = encode_record(failure_record(
                specs[index], status, error, attempts, wall_s, trace=""))
            self.stats.runs += 1
            queue.extendleft(reversed(worker.held))
        del self.stats.kernel_by_pid[worker.process.pid]
        self._workers[slot], = self._spawn(1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "warm" if self._workers else "cold"
        return (f"WarmWorkerEngine(workers={self.workers}, {state}, "
                f"runs={self.stats.runs})")

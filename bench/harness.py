"""Timed repetitions of one workload inside a fresh child process.

The noise guard lives here: every timed section runs with the cyclic
garbage collector paused (what ``repro.perf`` and the campaign workers do),
each repetition records wall and CPU time, a repetition whose CPU / wall
falls under :data:`BUSY_FLOOR` is run again (at most
:data:`MAX_NOISY_RERUNS` extra per workload), the first repetition is a
discarded warm-up, and the reported rate is the median — never a best-of.
"""

from __future__ import annotations

import gc
import statistics
import time
import traceback
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.packet import pool_size
from repro.lang.compiler import compile_cache_info
from repro.lang.treekernel import kernel_cache_info
from repro.obs.resources import rss_peak_bytes

from workloads import (
    FIFO_CHAIN3,
    FIFO_CHAIN3_REFERENCE,
    SIMSTAT_NAMES,
    Outcome,
    lockstep_failure,
)

#: A repetition that got less than this share of one core is re-run.
BUSY_FLOOR = 0.90
MAX_NOISY_RERUNS = 2
#: Timed repetitions per run: at least / at most, whatever ``--seconds`` says.
MIN_REPS = 3
MAX_REPS = 40

#: Counters read through public accessors after the first (cold) repetition.
COUNTER_NAMES = (
    "sim.simulator.events_per_pkt",
    "net.fabric.fused_port_share",
    "lang.treekernel.installs",
    "lang.treekernel.fallbacks",
    "lang.treekernel.compiles",
    "lang.compiler.cache_misses",
    "core.packet.pool_recycled",
    "switch.drop_share",
    "campaign.workload_cache.hit_share",
)


@contextmanager
def gc_paused() -> Iterator[None]:
    """Collect, then keep the cyclic GC off for the timed section inside."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def timed_repetition(workload, seed: int, scale: int,
                     prepared: Any = None) -> Dict[str, Any]:
    """prepare (untimed) -> execute (timed, GC paused) -> collect (untimed)."""
    if prepared is None:
        prepared = workload.prepare(seed, scale)
    with gc_paused():
        cpu_started = time.process_time()
        started = time.perf_counter()
        result = workload.execute(prepared)
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
    outcome: Outcome = workload.collect(prepared, result)
    return {"wall_s": wall, "cpu_s": cpu, "busy_share": cpu / wall,
            "outcome": outcome}


def _library_counters() -> Dict[str, int]:
    kernel = kernel_cache_info()
    return {
        "lang.treekernel.installs": kernel["installs"],
        "lang.treekernel.fallbacks": kernel["fallbacks"],
        "lang.treekernel.compiles": kernel["misses"],
        "lang.compiler.cache_misses": compile_cache_info()["misses"],
        "core.packet.pool_recycled": pool_size(),
    }


def measure(workload, seed: int, seconds: float, scale: int,
            process_started: float,
            min_reps: Optional[int] = None) -> Dict[str, Any]:
    """Set up once cold, warm up once, then repeat for ``seconds`` of timed work.

    ``process_started`` is the child's ``perf_counter`` stamp from before
    ``import repro``, so ``setup_s`` covers import + inputs + build + the
    first kernel compiles.
    """
    if min_reps is None:
        min_reps = MIN_REPS
    attempted = 0
    failures: List[str] = []

    def checked(reference: Optional[Outcome],
                prepared: Any = None) -> Optional[Dict[str, Any]]:
        nonlocal attempted
        try:
            rep = timed_repetition(workload, seed, scale, prepared)
        except Exception:
            attempted += 1
            failures.append(traceback.format_exc(limit=3).strip())
            return None
        outcome = rep["outcome"]
        attempted += outcome.operations
        failures.extend(outcome.failures)
        if reference is not None and outcome.sim_digest != reference.sim_digest:
            failures.append(f"non-deterministic: sim_digest {outcome.sim_digest}"
                            f" != first repetition's {reference.sim_digest}")
        return rep

    # The cold first repetition: its build is the set-up sample, its time is
    # discarded, its counters and simulated statistics are the reported ones.
    before = _library_counters()
    prepared = workload.prepare(seed, scale)
    setup_s = time.perf_counter() - process_started
    warmup = checked(None, prepared)
    del prepared
    if warmup is None:
        return {"attempted": attempted, "failed": len(failures),
                "failures": failures, "reps": []}
    first: Outcome = warmup["outcome"]
    after = _library_counters()
    counters = {name: 0.0 for name in COUNTER_NAMES}
    counters.update(first.counters)
    counters.update({name: after[name] - before[name] for name in after})

    reps: List[Dict[str, Any]] = []
    noisy = 0
    timed = 0.0
    while len(reps) < MAX_REPS and (timed < seconds or len(reps) < min_reps):
        rep = checked(first)
        if rep is None:
            break
        if rep["busy_share"] < BUSY_FLOOR and noisy < MAX_NOISY_RERUNS:
            noisy += 1
            continue
        outcome = rep.pop("outcome")
        rep["delivered"] = outcome.delivered
        rep["pkts_per_s"] = outcome.delivered / rep["wall_s"]
        reps.append(rep)
        timed += rep["wall_s"]

    if workload.name in (FIFO_CHAIN3.name, FIFO_CHAIN3_REFERENCE.name):
        attempted += 1
        try:
            mismatch = lockstep_failure(scale)
        except Exception:
            mismatch = traceback.format_exc(limit=3).strip()
        if mismatch:
            failures.append(mismatch)

    rates = [rep["pkts_per_s"] for rep in reps]
    q1, median, q3 = quartiles(rates) if rates else (0.0, 0.0, 0.0)
    return {
        "input": workload.describe(seed, scale),
        "setup_s": setup_s,
        "reps": reps,
        "pkts_per_s": {"median": median, "q1": q1, "q3": q3, "n": len(rates)},
        "rss_peak_mb": rss_peak_bytes() / 2**20,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "counters": counters,
        "simstat": {name: first.simstat[name] for name in SIMSTAT_NAMES},
        "sim_digest": first.sim_digest,
        "harness": {
            "cpu_busy_share": statistics.median(r["busy_share"] for r in reps)
            if reps else 0.0,
            "noisy_reps": noisy,
            "rep_spread": (q3 - q1) / median if median else 0.0,
        },
    }


def setup_only(workload, seed: int, scale: int,
               process_started: float) -> Dict[str, Any]:
    """One cold set-up sample: import + inputs + build, then exit."""
    workload.prepare(seed, scale)
    return {"setup_s": time.perf_counter() - process_started}

"""The traced run: one repetition under cProfile, bucketed into layers.

The benchmark touches nothing under ``src/``, so the spans are taken from
outside: the profiler's self time per function *is* "span duration minus
children", and grouping it by source file gives one number per layer
(layer = module path under ``src/repro/``).  On the fused datapath this
honestly reports one big ``net.fabric`` span — that is ROADMAP item 5's
complaint, made measurable.

cProfile charges every Python call and no time inside C code, so the
shares lean towards call-heavy layers; ``trace.overhead_x`` says by how
much the traced run was slowed.  Use the shares to find where to look and
the untraced ``pkts_per_s`` to decide whether a change paid.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from typing import Any, Dict

from harness import gc_paused, timed_repetition

#: The traced run is this many times smaller than the measured one.
TRACE_SCALE = 5

#: Layers by exact file under src/repro/ ...
_FILE_LAYERS = {
    "sim/events.py": "sim.events",
    "sim/simulator.py": "sim.simulator",
    "sim/link.py": "sim.link",
    "sim/source.py": "sim.source",
    "sim/sink.py": "sim.sink",
    "core/scheduler.py": "core.scheduler",
    "core/tree.py": "core.tree",
    "core/predicates.py": "core.tree",
    "core/pifo.py": "core.pifo",
    "core/backend.py": "core.pifo",
    "core/packet.py": "core.packet",
    "core/transaction.py": "core.transaction",
    "lang/bridge.py": "lang.bridge",
    "lang/interpreter.py": "lang.interpreter",
    "net/fabric.py": "net.fabric",
    "net/scenario.py": "net.scenario",
    "net/scenarios.py": "net.scenario",
}
#: ... then by directory (the rest of lang/ is the compiler front end and
#: code generators; the rest of net/ is topology, routing and faults).
_DIR_LAYERS = {
    "switch": "switch",
    "algorithms": "algorithms",
    "lang": "lang.compiler",
    "net": "net.other",
    "traffic": "traffic",
    "metrics": "metrics",
    "campaign": "campaign",
    "obs": "obs",
}
#: Source "files" the two code generators register with linecache.
_GENERATED_LAYERS = {
    "<lang-compile:": "lang.generated",
    "<treekernel:": "lang.treekernel.generated",
}

LAYERS = tuple(dict.fromkeys([
    *_FILE_LAYERS.values(), *_DIR_LAYERS.values(),
    *_GENERATED_LAYERS.values(), "builtins", "other",
]))


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    for prefix, layer in _GENERATED_LAYERS.items():
        if filename.startswith(prefix):
            return layer
    if filename == "~" or filename.startswith("<built-in"):
        return "builtins"  # C calls: heappush, list.append, ...
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return "other"  # stdlib and the harness itself
    relative = filename[at + len(marker):]
    layer = _FILE_LAYERS.get(relative)
    if layer is not None:
        return layer
    return _DIR_LAYERS.get(relative.split("/", 1)[0], "other")


def traced_run(workload, seed: int, scale: int) -> Dict[str, Any]:
    """Warm up, time one untraced repetition, then profile one more.

    Both at ``scale * TRACE_SCALE``, so ``trace.overhead_x`` compares like
    with like.  Shares are of the traced total (the sum of self times over
    the timed section), which is therefore the base of every
    ``<layer>.self_share``; ``calls_per_pkt`` is calls per delivered packet.
    """
    scale *= TRACE_SCALE
    timed_repetition(workload, seed, scale)
    untraced = timed_repetition(workload, seed, scale)

    prepared = workload.prepare(seed, scale)
    profiler = cProfile.Profile()
    with gc_paused():
        started = time.perf_counter()
        profiler.enable()
        result = workload.execute(prepared)
        profiler.disable()
        traced_wall = time.perf_counter() - started
    outcome = workload.collect(prepared, result)

    self_time = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for (filename, _line, _name), (_cc, ncalls, tottime, _ct, _callers) in (
            pstats.Stats(profiler).stats.items()):
        layer = layer_of(filename)
        self_time[layer] += tottime
        calls[layer] += ncalls
    total = sum(self_time.values())
    delivered = max(1, outcome.delivered)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = self_time[layer] / total
        metrics[f"{layer}.calls_per_pkt"] = calls[layer] / delivered
    untraced_per_pkt = untraced["wall_s"] / max(1, untraced["outcome"].delivered)
    metrics["trace.overhead_x"] = (traced_wall / delivered) / untraced_per_pkt
    return {
        "metrics": metrics,
        "traced_total_s": total,
        "traced_wall_s": traced_wall,
        "delivered": outcome.delivered,
        "failures": outcome.failures + untraced["outcome"].failures,
        "sim_digest_matches_untraced":
            outcome.sim_digest == untraced["outcome"].sim_digest,
    }

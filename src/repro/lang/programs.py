"""The paper's transactions, written in the transaction language.

Each ``*_SOURCE`` constant is the program text of one figure, kept as close
to the paper's listing as the language allows (the figures themselves mix
Python-ish and C-ish syntax; the language accepts both styles).  The
factory functions below compile each program into a ready-to-use
transaction with the right state, parameters and flow attributes.

These are used three ways:

* as a programmability demonstration (the same algorithms exist hand-written
  in :mod:`repro.algorithms`; equivalence between the two is tested),
* as input to the Domino-style atom analysis (Section 4.1), and
* by the examples and the CLI to show end-to-end "program text in,
  scheduler out".
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

from .bridge import (
    CompiledSchedulingTransaction,
    CompiledShapingTransaction,
    compile_scheduling_program,
    compile_shaping_program,
)

# --------------------------------------------------------------------------- #
# Figure 1 — STFQ (the WFQ approximation used throughout the paper)           #
# --------------------------------------------------------------------------- #
STFQ_SOURCE = """
// Figure 1: scheduling transaction for STFQ
f = flow(p)
if f in last_finish
    p.start = max(virtual_time, last_finish[f])
else
    p.start = virtual_time
last_finish[f] = p.start + p.length / f.weight
p.rank = p.start
"""

#: Dequeue-side virtual-time update STFQ needs (Section 7 discusses why this
#: state must be maintained at the switch).
STFQ_DEQUEUE_SOURCE = """
if dequeued_rank > virtual_time
    virtual_time = dequeued_rank
"""

# --------------------------------------------------------------------------- #
# Figure 4c — Token Bucket Filter (shaping)                                   #
# --------------------------------------------------------------------------- #
TOKEN_BUCKET_SOURCE = """
// Figure 4c: shaping transaction for TBF_Right
tokens = min(tokens + r * (now - last_time), B)
if p.length <= tokens
    p.send_time = now
else
    p.send_time = now + (p.length - tokens) / r
tokens = tokens - p.length
last_time = now
p.rank = p.send_time
"""

# --------------------------------------------------------------------------- #
# Figure 6 — Least Slack-Time First                                           #
# --------------------------------------------------------------------------- #
LSTF_SOURCE = """
// Figure 6: scheduling transaction for LSTF
p.slack = p.slack - p.prev_wait_time;
p.rank = p.slack;
"""

# --------------------------------------------------------------------------- #
# Figure 7 — Stop-and-Go Queueing (shaping)                                   #
# --------------------------------------------------------------------------- #
STOP_AND_GO_SOURCE = """
// Figure 7: shaping transaction for Stop-and-Go Queueing
if (now >= frame_end_time):
    frame_begin_time = frame_end_time
    frame_end_time = frame_begin_time + T
p.rank = frame_end_time
"""

# --------------------------------------------------------------------------- #
# Figure 8 — minimum rate guarantees                                          #
# --------------------------------------------------------------------------- #
MIN_RATE_SOURCE = """
// Figure 8: scheduling transaction for min. rate guarantees
// Replenish tokens
tb = tb + min_rate * (now - last_time);
if (tb > BURST_SIZE) tb = BURST_SIZE;
// Check if we have enough tokens
if (tb > p.size):
    p.over_min = 0;  // under min. rate
    tb = tb - p.size;
else:
    p.over_min = 1;  // over min. rate
last_time = now;
p.rank = p.over_min;
"""

# --------------------------------------------------------------------------- #
# Section 3.4 one-liners                                                      #
# --------------------------------------------------------------------------- #
FIFO_SOURCE = """
// First-In First-Out: rank is the wall-clock arrival time
p.rank = now
"""

STRICT_PRIORITY_SOURCE = """
// Strict priority: rank is a host-set priority field (IP TOS)
p.rank = p.priority
"""

SJF_SOURCE = """
// Shortest Job First: rank is the flow size set by the end host
p.rank = p.flow_size
"""

SRPT_SOURCE = """
// Shortest Remaining Processing Time: rank is the remaining flow size
p.rank = p.remaining_size
"""

EDF_SOURCE = """
// Earliest Deadline First: rank is the time until the packet's deadline
p.rank = p.deadline
"""

LAS_SOURCE = """
// Least Attained Service, switch-maintained: rank is the service the
// packet's flow has received so far
f = flow(p)
if f in attained
    attained[f] = attained[f] + p.length
else
    attained[f] = p.length
p.rank = attained[f]
"""

#: All named program sources, for the CLI and for sweep-style tests.
PROGRAM_SOURCES: Dict[str, str] = {
    "stfq": STFQ_SOURCE,
    "token_bucket": TOKEN_BUCKET_SOURCE,
    "lstf": LSTF_SOURCE,
    "stop_and_go": STOP_AND_GO_SOURCE,
    "min_rate": MIN_RATE_SOURCE,
    "fifo": FIFO_SOURCE,
    "strict_priority": STRICT_PRIORITY_SOURCE,
    "sjf": SJF_SOURCE,
    "srpt": SRPT_SOURCE,
    "edf": EDF_SOURCE,
    "las": LAS_SOURCE,
}

#: State-variable declarations each program needs (names and initial values).
PROGRAM_STATE: Dict[str, Dict[str, object]] = {
    "stfq": {"virtual_time": 0.0, "last_finish": {}},
    "token_bucket": {"tokens": 0.0, "last_time": 0.0},
    "lstf": {},
    "stop_and_go": {"frame_begin_time": 0.0, "frame_end_time": 0.0},
    "min_rate": {"tb": 0.0, "last_time": 0.0},
    "fifo": {},
    "strict_priority": {},
    "sjf": {},
    "srpt": {},
    "edf": {},
    "las": {"attained": {}},
}

#: Which programs are shaping transactions (the rest are scheduling).
SHAPING_PROGRAMS = frozenset({"token_bucket", "stop_and_go"})


# --------------------------------------------------------------------------- #
# Factories                                                                   #
# --------------------------------------------------------------------------- #
def stfq_program(
    weights: Optional[Mapping[str, float]] = None,
    default_weight: float = 1.0,
    backend: Optional[str] = None,
) -> CompiledSchedulingTransaction:
    """Figure 1's STFQ as a compiled program, with per-flow weights."""
    # Converted once: the accessor runs on every rank computation.
    weight_table = {flow: float(weight)
                    for flow, weight in (weights or {}).items()}
    default_weight = float(default_weight)

    def weight_of(flow: object) -> float:
        return weight_table.get(flow, default_weight)

    return compile_scheduling_program(
        STFQ_SOURCE,
        state=PROGRAM_STATE["stfq"],
        flow_attrs={"weight": weight_of},
        dequeue_source=STFQ_DEQUEUE_SOURCE,
        name="stfq",
        backend=backend,
    )


def token_bucket_program(
    rate_bytes_per_s: float,
    burst_bytes: float,
    start_full: bool = True,
    backend: Optional[str] = None,
) -> CompiledShapingTransaction:
    """Figure 4c's token bucket as a compiled shaping program.

    ``rate_bytes_per_s`` is the token fill rate ``r`` and ``burst_bytes`` the
    bucket depth ``B``; both are in bytes to match ``p.length``.
    """
    if rate_bytes_per_s <= 0:
        raise ValueError("rate_bytes_per_s must be positive")
    if burst_bytes <= 0:
        raise ValueError("burst_bytes must be positive")
    state = dict(PROGRAM_STATE["token_bucket"])
    state["tokens"] = float(burst_bytes) if start_full else 0.0
    return compile_shaping_program(
        TOKEN_BUCKET_SOURCE,
        state=state,
        params={"r": float(rate_bytes_per_s), "B": float(burst_bytes)},
        name="token_bucket",
        backend=backend,
    )


def lstf_program(backend: Optional[str] = None) -> CompiledSchedulingTransaction:
    """Figure 6's LSTF as a compiled program.

    Packets must carry ``slack`` and ``prev_wait_time`` fields, set by the
    end host and the upstream switches respectively.
    """
    return compile_scheduling_program(LSTF_SOURCE, name="lstf", backend=backend)


def stop_and_go_program(
    frame_length: float, backend: Optional[str] = None
) -> CompiledShapingTransaction:
    """Figure 7's Stop-and-Go shaping program with frame length ``T``."""
    if frame_length <= 0:
        raise ValueError("frame_length must be positive")
    return compile_shaping_program(
        STOP_AND_GO_SOURCE,
        state=dict(PROGRAM_STATE["stop_and_go"]),
        params={"T": float(frame_length)},
        name="stop_and_go",
        backend=backend,
    )


def min_rate_program(
    min_rate_bytes_per_s: float,
    burst_bytes: float,
    start_full: bool = True,
    backend: Optional[str] = None,
) -> CompiledSchedulingTransaction:
    """Figure 8's minimum-rate-guarantee program for the root of the 2-level
    tree described in Section 3.3."""
    if min_rate_bytes_per_s <= 0:
        raise ValueError("min_rate_bytes_per_s must be positive")
    if burst_bytes <= 0:
        raise ValueError("burst_bytes must be positive")
    state = dict(PROGRAM_STATE["min_rate"])
    state["tb"] = float(burst_bytes) if start_full else 0.0
    return compile_scheduling_program(
        MIN_RATE_SOURCE,
        state=state,
        params={
            "min_rate": float(min_rate_bytes_per_s),
            "BURST_SIZE": float(burst_bytes),
        },
        name="min_rate",
        backend=backend,
    )


def fifo_program(backend: Optional[str] = None) -> CompiledSchedulingTransaction:
    """First-In First-Out (rank = wall-clock arrival)."""
    return compile_scheduling_program(FIFO_SOURCE, name="fifo", backend=backend)


def strict_priority_program(
    backend: Optional[str] = None,
) -> CompiledSchedulingTransaction:
    """Strict priority (rank = the packet's priority field)."""
    return compile_scheduling_program(
        STRICT_PRIORITY_SOURCE, name="strict_priority", backend=backend
    )


def fine_grained_program(
    field: str, backend: Optional[str] = None
) -> CompiledSchedulingTransaction:
    """A Section 3.4 fine-grained priority program: rank = ``p.<field>``.

    ``field`` is typically ``flow_size`` (SJF), ``remaining_size`` (SRPT) or
    ``deadline`` (EDF).
    """
    if not field.isidentifier():
        raise ValueError(f"invalid packet field name {field!r}")
    source = f"p.rank = p.{field}\n"
    return compile_scheduling_program(
        source, name=f"rank-from-{field}", backend=backend
    )


def las_program(backend: Optional[str] = None) -> CompiledSchedulingTransaction:
    """Least Attained Service with switch-maintained per-flow counters."""
    return compile_scheduling_program(
        LAS_SOURCE, state=dict(PROGRAM_STATE["las"]), name="las", backend=backend
    )


#: Factory lookup used by the CLI: name -> zero-argument constructor with
#: representative parameters.
DEFAULT_FACTORIES: Dict[str, Callable[[], object]] = {
    "stfq": stfq_program,
    "token_bucket": lambda: token_bucket_program(
        rate_bytes_per_s=1.25e6, burst_bytes=3000.0
    ),
    "lstf": lstf_program,
    "stop_and_go": lambda: stop_and_go_program(frame_length=1e-3),
    "min_rate": lambda: min_rate_program(
        min_rate_bytes_per_s=1.25e6, burst_bytes=3000.0
    ),
    "fifo": fifo_program,
    "strict_priority": strict_priority_program,
    "sjf": lambda: fine_grained_program("flow_size"),
    "srpt": lambda: fine_grained_program("remaining_size"),
    "edf": lambda: fine_grained_program("deadline"),
    "las": las_program,
}

"""The paper's transactions, written in the transaction language.

Each ``*_SOURCE`` constant is the program text of one figure, kept as close
to the paper's listing as the language allows (the figures themselves mix
Python-ish and C-ish syntax; the language accepts both styles).  The
factory functions below compile each program into a ready-to-use
transaction with the right state, parameters and flow attributes.

This text is the only definition of every algorithm in the catalogue but
FIFO, arrival sequence (both inlined by the tree kernel) and stop-and-go:
STFQ, token-bucket shaping, LSTF, minimum-rate guarantees, strict and
class priority, the rank-from-field family, LAS, SC-EDF and Jitter-EDD's
regulator and scheduler.  Their names in :mod:`repro.algorithms` return
these compiled programs, which the tree kernel splices into its walk.  The
same text feeds the Domino-style atom analysis (Section 4.1) and
``repro show``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional

from ..exceptions import TransactionError
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
// Figure 6: scheduling transaction for LSTF.  The fabric adds every hop's
// wait to prev_wait_time, so the hop that consumes it resets it.
p.slack = p.slack - p.prev_wait_time;
p.prev_wait_time = 0;
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
// Figure 8: scheduling transaction for min. rate guarantees, with one
// token bucket per flow: tb[f] and last_time[f], like STFQ's last_finish[f]
f = flow(p)
// Replenish tokens (a flow's first packet finds its bucket full)
if (f in tb):
    tb[f] = tb[f] + f.min_rate * (now - last_time[f]);
    if (tb[f] > BURST_SIZE) tb[f] = BURST_SIZE;
else:
    tb[f] = BURST_SIZE;
// Check if we have enough tokens (a flow with no guarantee never has)
if (f.min_rate > 0 and tb[f] > p.size):
    p.over_min = 0;  // under min. rate
    tb[f] = tb[f] - p.size;
else:
    p.over_min = 1;  // over min. rate
last_time[f] = now;
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
// packet's flow received before it
f = flow(p)
if f in attained
    attained[f] = attained[f] + p.length
else
    attained[f] = p.length
p.rank = attained[f] - p.length
"""

# --------------------------------------------------------------------------- #
# Section 3.4 hierarchies and non-work-conserving schedulers                  #
# --------------------------------------------------------------------------- #
CLASS_PRIORITY_SOURCE = """
// Strict priority across classes (CBQ's root, Section 3.4): the element is
// a child class, ranked by the priority configured for it
f = flow(p)
p.rank = f.priority
"""

SCED_SOURCE = """
// Service-Curve EDF over latency-rate curves: within a flow's busy period
// deadlines advance by p.length at the reserved rate; a new busy period
// starts f.latency after now
f = flow(p)
if (f in last_deadline and last_deadline[f] >= now):
    start = last_deadline[f]
else:
    start = now + f.latency
last_deadline[f] = start + p.length * 8 / f.rate
p.rank = last_deadline[f]
"""

JITTER_EDD_SOURCE = """
// RCSD / Jitter-EDD regulator: hold each packet for the jitter slack the
// previous hop recorded (0 when no hop did)
p.send_time = now + max(0.0, p.jitter_slack)
p.rank = p.send_time
"""

PER_HOP_DEADLINE_SOURCE = """
// RCSD / Jitter-EDD scheduler: EDF on the per-hop deadline, eligibility
// time plus the connection's local delay bound (0 when unset)
p.rank = now + p.delay_bound
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
    "class_priority": CLASS_PRIORITY_SOURCE,
    "sced": SCED_SOURCE,
    "jitter_edd": JITTER_EDD_SOURCE,
    "per_hop_deadline": PER_HOP_DEADLINE_SOURCE,
}

#: State-variable declarations each program needs (names and initial values).
PROGRAM_STATE: Dict[str, Dict[str, object]] = {
    "stfq": {"virtual_time": 0.0, "last_finish": {}},
    "token_bucket": {"tokens": 0.0, "last_time": 0.0},
    "lstf": {},
    "stop_and_go": {"frame_begin_time": 0.0, "frame_end_time": 0.0},
    "min_rate": {"tb": {}, "last_time": {}},
    "fifo": {},
    "strict_priority": {},
    "sjf": {},
    "srpt": {},
    "edf": {},
    "las": {"attained": {}},
    "class_priority": {},
    "sced": {"last_deadline": {}},
    "jitter_edd": {},
    "per_hop_deadline": {},
}

#: Which programs are shaping transactions (the rest are scheduling).
SHAPING_PROGRAMS = frozenset({"token_bucket", "stop_and_go", "jitter_edd"})


# --------------------------------------------------------------------------- #
# Factories                                                                   #
# --------------------------------------------------------------------------- #
def stfq_program(
    weights: Optional[Mapping[str, float]] = None,
    default_weight: float = 1.0,
    backend: Optional[str] = None,
) -> CompiledSchedulingTransaction:
    """Figure 1's STFQ as a compiled program, with per-flow weights.

    A flow with weight *w* receives a share of link capacity proportional
    to *w* while backlogged; flows absent from ``weights`` use
    ``default_weight``.  The table is the transaction's ``weights``.
    """
    # Converted once: the accessor runs on every rank computation.
    weight_table = {flow: float(weight)
                    for flow, weight in (weights or {}).items()}
    default_weight = float(default_weight)
    if default_weight <= 0:
        raise ValueError("default_weight must be positive")
    for flow, weight in weight_table.items():
        if weight <= 0:
            raise ValueError(f"weight of flow {flow!r} must be positive")

    def weight_of(flow: object) -> float:
        return weight_table.get(flow, default_weight)

    transaction = compile_scheduling_program(
        STFQ_SOURCE,
        state=PROGRAM_STATE["stfq"],
        flow_attrs={"weight": weight_of},
        dequeue_source=STFQ_DEQUEUE_SOURCE,
        name="stfq",
        backend=backend,
    )
    transaction.weights = weight_table
    return transaction


def token_bucket_program(
    rate_bytes_per_s: float,
    burst_bytes: float,
    initial_tokens_bytes: Optional[float] = None,
    backend: Optional[str] = None,
) -> CompiledShapingTransaction:
    """Figure 4c's token bucket as a compiled shaping program.

    ``rate_bytes_per_s`` is the token fill rate ``r`` and ``burst_bytes`` the
    bucket depth ``B``; both are in bytes to match ``p.length``.  The
    bucket starts with ``initial_tokens_bytes`` (default: full, so an idle
    class may send one burst at line rate).
    """
    if rate_bytes_per_s <= 0:
        raise ValueError("rate_bytes_per_s must be positive")
    if burst_bytes <= 0:
        raise ValueError("burst_bytes must be positive")
    state = dict(PROGRAM_STATE["token_bucket"])
    state["tokens"] = float(
        burst_bytes if initial_tokens_bytes is None else initial_tokens_bytes)
    return compile_shaping_program(
        TOKEN_BUCKET_SOURCE,
        state=state,
        params={"r": float(rate_bytes_per_s), "B": float(burst_bytes)},
        name="token_bucket",
        backend=backend,
    )


def lstf_program(
    slack_field: str = "slack",
    prev_wait_field: str = "prev_wait_time",
    backend: Optional[str] = None,
) -> CompiledSchedulingTransaction:
    """Figure 6's LSTF as a compiled program.

    Packets must carry the ``slack`` field, set by the end host; the
    upstream hops add their queueing delay to ``prev_wait_time`` (see
    :func:`repro.algorithms.lstf.stamp_wait_time`), which reads 0 until the
    first hop stamps it.  Other field names must be set on every packet.
    """
    source = LSTF_SOURCE
    if (slack_field, prev_wait_field) != ("slack", "prev_wait_time"):
        if not (slack_field.isidentifier() and prev_wait_field.isidentifier()):
            raise ValueError("LSTF field names must be identifiers")
        source = source.replace("p.prev_wait_time", f"p.{prev_wait_field}")
        source = source.replace("p.slack", f"p.{slack_field}")
    return compile_scheduling_program(source, name="lstf", backend=backend)


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
    min_rates_bps: Mapping[str, float],
    burst_bytes: float = 15000.0,
    default_rate_bps: float = 0.0,
    backend: Optional[str] = None,
) -> CompiledSchedulingTransaction:
    """Figure 8's minimum-rate-guarantee program, one bucket per flow.

    ``min_rates_bps`` maps a flow (or leaf-node name) to its guaranteed
    rate in bits per second, ``f.min_rate`` in the program's bytes per
    second; other flows get ``default_rate_bps`` (zero: best effort, always
    over the minimum).  ``burst_bytes`` is every bucket's ``BURST_SIZE``.
    At the root of Section 3.3's two-level tree the program ranks each
    flow's transmission opportunities; on a single node it ranks packets
    (the collapsed tree).
    """
    if burst_bytes <= 0:
        raise ValueError("burst_bytes must be positive")
    if default_rate_bps < 0 or any(rate < 0 for rate in min_rates_bps.values()):
        raise ValueError("minimum rates must be non-negative")
    # In bytes per second, converted once: the accessor runs per packet.
    rate_table = {flow: rate / 8.0 for flow, rate in min_rates_bps.items()}
    default_rate = default_rate_bps / 8.0

    def min_rate_of(flow: object) -> float:
        return rate_table.get(flow, default_rate)

    return compile_scheduling_program(
        MIN_RATE_SOURCE,
        state=PROGRAM_STATE["min_rate"],
        params={"BURST_SIZE": float(burst_bytes)},
        flow_attrs={"min_rate": min_rate_of},
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
    field_name: str, backend: Optional[str] = None
) -> CompiledSchedulingTransaction:
    """A Section 3.4 fine-grained priority program: rank = ``p.<field_name>``.

    ``field_name`` is typically ``flow_size`` (SJF), ``remaining_size``
    (SRPT) or ``deadline`` (EDF).
    """
    if not field_name.isidentifier():
        raise ValueError(f"invalid packet field name {field_name!r}")
    source = f"p.rank = p.{field_name}\n"
    return compile_scheduling_program(
        source, name=f"rank-from-{field_name}", backend=backend
    )


def las_program(backend: Optional[str] = None) -> CompiledSchedulingTransaction:
    """Least Attained Service with switch-maintained per-flow counters."""
    return compile_scheduling_program(
        LAS_SOURCE, state=PROGRAM_STATE["las"], name="las", backend=backend
    )


def class_priority_program(
    class_priorities: Mapping[str, int],
    default_priority: Optional[int] = None,
    backend: Optional[str] = None,
) -> CompiledSchedulingTransaction:
    """Strict priority across classes, looked up by the element's flow.

    At the root of a hierarchy the element is a child reference, whose flow
    is the child's name.  A class absent from ``class_priorities`` gets
    ``default_priority``; without one, ranking it raises ``KeyError``.
    """
    priority_table = dict(class_priorities)

    def priority_of(name: object) -> int:
        if name in priority_table:
            return priority_table[name]
        if default_priority is not None:
            return default_priority
        raise KeyError(f"no priority configured for class {name!r}")

    return compile_scheduling_program(
        CLASS_PRIORITY_SOURCE,
        flow_attrs={"priority": priority_of},
        name="class_priority",
        backend=backend,
    )


@dataclass(frozen=True)
class LatencyRateCurve:
    """A latency-rate service curve ``S(t) = max(0, rate*(t - latency))``.

    Attributes
    ----------
    rate_bps:
        Long-term reserved rate in bits per second.
    latency_s:
        Initial latency (seconds) before the reserved rate kicks in.
    """

    rate_bps: float
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")

    def service(self, interval_s: float) -> float:
        """Bits of service guaranteed over an interval of this length."""
        return max(0.0, self.rate_bps * (interval_s - self.latency_s))

    def transmission_time(self, length_bytes: float) -> float:
        """Time to serve ``length_bytes`` at the reserved rate."""
        return (length_bytes * 8.0) / self.rate_bps


def sced_program(
    curves: Mapping[str, LatencyRateCurve],
    default_curve: Optional[LatencyRateCurve] = None,
    backend: Optional[str] = None,
) -> CompiledSchedulingTransaction:
    """SC-EDF over each flow's latency-rate service curve.

    Flows without an entry in ``curves`` get ``default_curve``; with none,
    ranking them raises :class:`~repro.exceptions.TransactionError`.
    """
    curve_table = dict(curves)

    def curve_of(flow: object) -> LatencyRateCurve:
        curve = curve_table.get(flow, default_curve)
        if curve is None:
            raise TransactionError(f"flow {flow!r} has no service curve")
        return curve

    return compile_scheduling_program(
        SCED_SOURCE,
        state=PROGRAM_STATE["sced"],
        flow_attrs={"rate": lambda flow: curve_of(flow).rate_bps,
                    "latency": lambda flow: curve_of(flow).latency_s},
        name="sced",
        backend=backend,
    )


def jitter_edd_program(backend: Optional[str] = None) -> CompiledShapingTransaction:
    """Jitter-EDD's regulator: release after the recorded jitter slack."""
    return compile_shaping_program(
        JITTER_EDD_SOURCE, name="jitter_edd", backend=backend
    )


def per_hop_deadline_program(
    backend: Optional[str] = None,
) -> CompiledSchedulingTransaction:
    """Jitter-EDD's scheduler: rank = now + the packet's delay bound."""
    return compile_scheduling_program(
        PER_HOP_DEADLINE_SOURCE, name="per_hop_deadline", backend=backend
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
        {}, burst_bytes=3000.0, default_rate_bps=1e7
    ),
    "fifo": fifo_program,
    "strict_priority": strict_priority_program,
    "sjf": lambda: fine_grained_program("flow_size"),
    "srpt": lambda: fine_grained_program("remaining_size"),
    "edf": lambda: fine_grained_program("deadline"),
    "las": las_program,
    "class_priority": lambda: class_priority_program({}, default_priority=0),
    "sced": lambda: sced_program({}, default_curve=LatencyRateCurve(1e7)),
    "jitter_edd": jitter_edd_program,
    "per_hop_deadline": per_hop_deadline_program,
}

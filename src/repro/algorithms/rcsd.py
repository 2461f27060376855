"""Rate-Controlled Service Disciplines (Section 3.4, item 4).

RCSD is a family of non-work-conserving algorithms composed of a **rate
regulator** (which holds packets until they become eligible) and a **packet
scheduler** (which orders eligible packets).  In the PIFO model the rate
regulator is a shaping transaction and the packet scheduler is a scheduling
transaction on the same node's parent.

Two representative members are provided:

* **Jitter-EDD** — the regulator holds each packet for the *jitter slack*
  recorded at the previous hop (the difference between the previous hop's
  deadline and the packet's actual departure), restoring the traffic pattern
  the previous hop was supposed to emit; the scheduler is EDF on the packet's
  per-hop deadline.
* **Hierarchical Round Robin** — a framing regulator (one frame per class,
  like Stop-and-Go with per-class frame lengths) with FIFO service among
  eligible packets.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from ..core.backend import BackendSpec
from ..core.packet import Packet
from ..core.predicates import FlowIn
from ..core.transaction import (
    SchedulingTransaction,
    ShapingTransaction,
    TransactionContext,
)
from ..core.tree import ScheduleTree, TreeNode
from .fifo import FIFOTransaction
from .stop_and_go import StopAndGoShapingTransaction

#: Packet field carrying the jitter slack (seconds) recorded upstream.
JITTER_FIELD = "jitter_slack"
#: Packet field carrying the per-hop deadline offset (seconds).
DELAY_BOUND_FIELD = "delay_bound"


class JitterEDDRegulator(ShapingTransaction):
    """Holds each packet for its recorded jitter slack.

    The previous hop writes ``jitter_slack = deadline - actual_departure``
    into the packet; this regulator makes the packet eligible only after
    that slack has elapsed, removing the jitter the previous hop introduced.
    Packets without the field are eligible immediately.
    """

    state_variables = ()

    def compute_send_time(self, packet: Packet, ctx: TransactionContext) -> float:
        return ctx.now + max(0.0, packet.get(JITTER_FIELD, 0.0))

    def describe(self) -> str:
        return "JitterEDD regulator (hold for jitter slack)"


class PerHopDeadlineTransaction(SchedulingTransaction):
    """EDF over per-hop deadlines: deadline = eligibility time + delay bound.

    The packet's ``delay_bound`` field is the local delay bound negotiated
    for its connection; the rank is an absolute deadline so different bounds
    interleave correctly.
    """

    state_variables = ()

    def compute_rank(self, packet: Packet, ctx: TransactionContext):
        bound = packet.get(DELAY_BOUND_FIELD)
        if bound is None:
            bound = 0.0
        return ctx.now + bound

    def describe(self) -> str:
        return "Jitter-EDD scheduler (EDF on per-hop deadline)"


def build_jitter_edd_tree(
    flows: Mapping[str, float], pifo_backend: BackendSpec = None
) -> ScheduleTree:
    """Jitter-EDD: per-flow regulators (shaping) under an EDF scheduler.

    ``flows`` maps flow identifiers to their per-hop delay bounds in seconds.
    Each flow gets its own regulator leaf (FIFO within the flow, held back by
    the jitter regulator); the root schedules eligible flows by earliest
    per-hop deadline.  Packets of flows not listed skip the regulator and are
    ranked by the root directly (pure EDF), which is convenient for tests and
    for incremental deployment.
    """
    root = TreeNode(name="JitterEDD", scheduling=PerHopDeadlineTransaction())
    for flow in flows:
        root.add_child(
            TreeNode(
                name=f"regulator:{flow}",
                predicate=FlowIn([flow]),
                scheduling=FIFOTransaction(),
                shaping=JitterEDDRegulator(),
            )
        )
    return ScheduleTree(root, pifo_backend=pifo_backend)


def build_hierarchical_round_robin_tree(
    class_flows: Mapping[str, Mapping[str, float]],
    frame_lengths_s: Mapping[str, float],
    pifo_backend: BackendSpec = None,
) -> ScheduleTree:
    """Hierarchical Round Robin: per-class framing regulators under FIFO.

    Each class gets its own frame length (classes with shorter frames get
    finer-grained, lower-delay service — the "hierarchy" of HRR); packets are
    released at the end of their class frame and then served FIFO at the
    root, mirroring the RCSD decomposition into regulator + scheduler.
    """
    root = TreeNode(name="HRR", scheduling=FIFOTransaction())
    for class_name, flows in class_flows.items():
        frame = frame_lengths_s[class_name]
        root.add_child(
            TreeNode(
                name=class_name,
                predicate=FlowIn(flows),
                scheduling=FIFOTransaction(),
                shaping=StopAndGoShapingTransaction(frame_length=frame),
            )
        )
    return ScheduleTree(root, pifo_backend=pifo_backend)


def stamp_jitter_slack(packet: Packet, deadline: float, actual_departure: float) -> None:
    """Record the jitter slack a hop should restore downstream."""
    packet.set(JITTER_FIELD, max(0.0, deadline - actual_departure))

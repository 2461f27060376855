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
  per-hop deadline.  Both are programs
  (:data:`repro.lang.programs.JITTER_EDD_SOURCE` and
  :data:`~repro.lang.programs.PER_HOP_DEADLINE_SOURCE`); an unstamped
  ``jitter_slack`` or ``delay_bound`` reads 0.
* **Hierarchical Round Robin** — a framing regulator (one frame per class,
  like Stop-and-Go with per-class frame lengths) with FIFO service among
  eligible packets.
"""

from __future__ import annotations

from typing import Mapping

from ..core.backend import BackendSpec
from ..core.packet import Packet
from ..core.predicates import FlowIn
from ..core.tree import ScheduleTree, TreeNode
from ..lang.programs import jitter_edd_program, per_hop_deadline_program
from .fifo import FIFOTransaction
from .stop_and_go import StopAndGoShapingTransaction

#: Packet field carrying the jitter slack (seconds) recorded upstream.
JITTER_FIELD = "jitter_slack"

#: ``JitterEDDRegulator()``: holds each packet for its recorded jitter
#: slack, ``jitter_slack = deadline - actual_departure`` written by the
#: previous hop; packets without the field are eligible immediately.
JitterEDDRegulator = jitter_edd_program

#: ``PerHopDeadlineTransaction()``: EDF over per-hop deadlines, rank =
#: eligibility time + the packet's ``delay_bound`` (the local bound
#: negotiated for its connection), so different bounds interleave.
PerHopDeadlineTransaction = per_hop_deadline_program


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

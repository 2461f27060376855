"""Minimum rate guarantees (Figure 8, Section 3.3).

A flow is guaranteed a minimum rate (provided the guarantees sum to below
link capacity) by a **two-level tree**:

* each flow has a leaf node running FIFO over its own packets, and
* the root runs strict priority over flows: a flow currently *under* its
  minimum rate is scheduled ahead of flows *over* their minimum rate.

Whether a flow is under or over is decided by Figure 8's token bucket,
kept per flow (:data:`repro.lang.programs.MIN_RATE_SOURCE`) and executed
when the flow's reference is pushed into the root.

Section 3.3 also explains why *collapsing* the tree into a single node
reorders packets within a flow; :func:`build_collapsed_min_rate_tree` builds
that (incorrect) variant, running the same program on packets, so the
ablation benchmark can demonstrate the reordering.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..core.backend import BackendSpec
from ..core.predicates import FlowEquals
from ..core.tree import ScheduleTree, TreeNode
from ..lang.programs import min_rate_program
from .fifo import FIFOTransaction

#: Rank assigned to elements of flows under their guaranteed rate.
UNDER_MIN = 0
#: Rank assigned to elements of flows exceeding their guaranteed rate.
OVER_MIN = 1


#: ``MinRateTransaction(min_rates_bps, burst_bytes=15000.0,
#: default_rate_bps=0.0)``: Figure 8's transaction with one token bucket
#: per flow; flows without a guarantee are best effort (always over).
MinRateTransaction = min_rate_program

#: The *incorrect* single-node variant of Section 3.3 runs the same program
#: on packets instead of transmission opportunities: an arriving packet
#: that moves its flow back under the minimum jumps ahead of that flow's
#: earlier packets.  Kept only for the ablation benchmark.
CollapsedMinRateTransaction = MinRateTransaction


def build_min_rate_tree(
    flows: Iterable[str],
    min_rates_bps: Mapping[str, float],
    burst_bytes: float = 15000.0,
    root_name: str = "MinRateRoot",
    pifo_backend: BackendSpec = None,
) -> ScheduleTree:
    """Build the two-level tree of Section 3.3.

    The root attaches priorities to *transmission opportunities* of a flow,
    not to specific packets, so a flow moving from low to high priority
    transmits its earliest buffered packet next — no intra-flow reordering.
    """
    root = TreeNode(
        name=root_name,
        scheduling=MinRateTransaction(min_rates_bps, burst_bytes=burst_bytes),
    )
    for flow in flows:
        root.add_child(
            TreeNode(
                name=flow,
                predicate=FlowEquals(flow),
                scheduling=FIFOTransaction(),
            )
        )
    return ScheduleTree(root, pifo_backend=pifo_backend)


def build_collapsed_min_rate_tree(
    min_rates_bps: Mapping[str, float],
    burst_bytes: float = 15000.0,
    pifo_backend: BackendSpec = None,
) -> ScheduleTree:
    """Single-node variant used by the reordering ablation."""
    root = TreeNode(
        name="CollapsedMinRate",
        scheduling=CollapsedMinRateTransaction(min_rates_bps, burst_bytes=burst_bytes),
    )
    return ScheduleTree(root, pifo_backend=pifo_backend)

"""Scheduling algorithms programmed on top of the PIFO abstraction.

Every algorithm from Sections 2 and 3 of the paper is available here, each
as a scheduling/shaping transaction (or a tree builder for hierarchical
algorithms).  All of them run unmodified on both the reference engine
(:mod:`repro.core.scheduler`) and the cycle-level hardware model
(:mod:`repro.hardware`).

Every algorithm but three is program text in :mod:`repro.lang.programs`,
the one definition the tree kernel splices: the names here return its
compiled transaction, after checking their parameters.  FIFO and arrival
sequence stay native (the kernel inlines them) and so does stop-and-go;
DESIGN.md ("Algorithms are programs") says why.
"""

from ..lang.programs import stfq_program as STFQTransaction
from .cbq import CBQClass, build_cbq_tree
from .fifo import ArrivalSequenceTransaction, FIFOTransaction
from .fine_grained import (
    EarliestDeadlineFirstTransaction,
    FieldRankTransaction,
    LeastAttainedServiceTransaction,
    ShortestJobFirstTransaction,
    SRPTTransaction,
)
from .hierarchies_with_shaping import (
    FIG4_RIGHT_RATE_BPS,
    build_fig4_tree,
    build_shaped_hierarchy,
    fig4_spec,
)
from .hpfq import (
    HierarchySpec,
    ShapingSpec,
    build_deep_hierarchy,
    build_fig3_tree,
    build_hierarchy,
    build_wfq_tree,
    fig3_spec,
    hierarchy_flows,
)
from .lstf import LSTFTransaction, stamp_wait_time
from .min_rate import (
    CollapsedMinRateTransaction,
    MinRateTransaction,
    OVER_MIN,
    UNDER_MIN,
    build_collapsed_min_rate_tree,
    build_min_rate_tree,
)
from .rcsd import (
    JitterEDDRegulator,
    PerHopDeadlineTransaction,
    build_hierarchical_round_robin_tree,
    build_jitter_edd_tree,
    stamp_jitter_slack,
)
from .sced import LatencyRateCurve, SCEDTransaction, admissible
from .stop_and_go import StopAndGoShapingTransaction, worst_case_delay_bound
from .strict_priority import ClassPriorityTransaction, StrictPriorityTransaction
from .token_bucket import TokenBucketShapingTransaction

#: Figures 3 and 4 call Figure 1's STFQ by its WFQ name.
WFQTransaction = STFQTransaction

__all__ = [
    "STFQTransaction",
    "WFQTransaction",
    "FIFOTransaction",
    "ArrivalSequenceTransaction",
    "StrictPriorityTransaction",
    "ClassPriorityTransaction",
    "FieldRankTransaction",
    "ShortestJobFirstTransaction",
    "SRPTTransaction",
    "EarliestDeadlineFirstTransaction",
    "LeastAttainedServiceTransaction",
    "LSTFTransaction",
    "stamp_wait_time",
    "TokenBucketShapingTransaction",
    "StopAndGoShapingTransaction",
    "worst_case_delay_bound",
    "MinRateTransaction",
    "CollapsedMinRateTransaction",
    "build_min_rate_tree",
    "build_collapsed_min_rate_tree",
    "UNDER_MIN",
    "OVER_MIN",
    "HierarchySpec",
    "ShapingSpec",
    "build_hierarchy",
    "build_fig3_tree",
    "fig3_spec",
    "build_wfq_tree",
    "build_deep_hierarchy",
    "hierarchy_flows",
    "build_fig4_tree",
    "fig4_spec",
    "build_shaped_hierarchy",
    "FIG4_RIGHT_RATE_BPS",
    "LatencyRateCurve",
    "SCEDTransaction",
    "admissible",
    "CBQClass",
    "build_cbq_tree",
    "JitterEDDRegulator",
    "PerHopDeadlineTransaction",
    "build_jitter_edd_tree",
    "build_hierarchical_round_robin_tree",
    "stamp_jitter_slack",
]

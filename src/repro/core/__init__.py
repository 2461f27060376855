"""Core PIFO abstractions: packets, PIFOs, transactions, trees, scheduler.

This subpackage implements the paper's programming model (Section 2):

* :class:`~repro.core.packet.Packet` — the unit of scheduling.
* :class:`~repro.core.pifo.PIFO` — push-in first-out queue (rank-ordered
  insert, head dequeue, FIFO tie-break), with interchangeable storage
  backends (:mod:`repro.core.backend`): sorted list, heap calendar,
  integer-rank bucket queue.
* :class:`~repro.core.transaction.SchedulingTransaction` /
  :class:`~repro.core.transaction.ShapingTransaction` — per-packet programs
  computing ranks and release times.
* :class:`~repro.core.tree.ScheduleTree` — trees of transactions for
  hierarchical and non-work-conserving algorithms.
* :class:`~repro.core.scheduler.ProgrammableScheduler` — the reference
  enqueue/dequeue engine.
"""

from .backend import (
    DEFAULT_BACKEND,
    PIFO_BACKENDS,
    BackendSpec,
    PIFOBackend,
    available_backends,
    backend_name,
    make_pifo,
    resolve_backend,
)
from .packet import Packet, make_packets
from .pifo import (
    PIFO,
    CalendarPIFO,
    PIFOBase,
    PIFOEntry,
    QuantizedBucketedPIFO,
    Rank,
    SortedListPIFO,
)
from .predicates import (
    And,
    ClassEquals,
    ClassIn,
    FieldEquals,
    FlowEquals,
    FlowIn,
    MatchAll,
    MatchNone,
    Not,
    Or,
    Predicate,
    PriorityEquals,
)
from .scheduler import ProgrammableScheduler, SchedulerStats, ShapingToken, run_enqueue_dequeue
from .seeds import derive_seed
from .transaction import (
    LambdaSchedulingTransaction,
    LambdaShapingTransaction,
    SchedulingTransaction,
    ShapingTransaction,
    Transaction,
    TransactionContext,
)
from .tree import ScheduleTree, TreeNode, single_node_tree

__all__ = [
    "Packet",
    "make_packets",
    "PIFO",
    "SortedListPIFO",
    "CalendarPIFO",
    "QuantizedBucketedPIFO",
    "PIFOBase",
    "PIFOEntry",
    "Rank",
    "PIFOBackend",
    "BackendSpec",
    "PIFO_BACKENDS",
    "DEFAULT_BACKEND",
    "available_backends",
    "backend_name",
    "make_pifo",
    "resolve_backend",
    "derive_seed",
    "Predicate",
    "MatchAll",
    "MatchNone",
    "ClassEquals",
    "ClassIn",
    "FlowEquals",
    "FlowIn",
    "FieldEquals",
    "PriorityEquals",
    "And",
    "Or",
    "Not",
    "Transaction",
    "TransactionContext",
    "SchedulingTransaction",
    "ShapingTransaction",
    "LambdaSchedulingTransaction",
    "LambdaShapingTransaction",
    "ScheduleTree",
    "TreeNode",
    "single_node_tree",
    "ProgrammableScheduler",
    "SchedulerStats",
    "ShapingToken",
    "run_enqueue_dequeue",
]

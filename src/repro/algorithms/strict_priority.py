"""Strict priority scheduling (Section 3.4, item 1).

The packet's rank is its priority field (lower value = more important, the
IP TOS convention used in the paper).  Within a priority level, packets keep
FIFO order because the PIFO breaks rank ties by enqueue order.  The
transaction is the one-line program
:data:`repro.lang.programs.STRICT_PRIORITY_SOURCE`.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..core.packet import Packet
from ..core.pifo import Rank
from ..core.transaction import SchedulingTransaction, TransactionContext
from ..lang.programs import strict_priority_program

#: ``StrictPriorityTransaction()``: rank = packet priority (lower dequeues
#: first).
StrictPriorityTransaction = strict_priority_program


class ClassPriorityTransaction(SchedulingTransaction):
    """Strict priority across *classes*, looked up from a static table.

    Used at the root of hierarchical schedulers such as CBQ (Section 3.4,
    item 5) and the minimum-rate tree (Section 3.3) where the element being
    ranked is a reference to a child node rather than a packet: the
    element's flow (the child's name) indexes the priority table.
    """

    state_variables = ()

    def __init__(
        self,
        class_priorities: Mapping[str, int],
        default_priority: Optional[int] = None,
    ) -> None:
        self.class_priorities = dict(class_priorities)
        self.default_priority = default_priority
        super().__init__()

    def compute_rank(self, packet: Packet, ctx: TransactionContext) -> Rank:
        name = ctx.element_flow
        if name in self.class_priorities:
            return self.class_priorities[name]
        if self.default_priority is not None:
            return self.default_priority
        raise KeyError(f"no priority configured for class {name!r}")

    def describe(self) -> str:
        return f"ClassPriority({self.class_priorities})"

"""Strict priority scheduling (Section 3.4, item 1).

The packet's rank is its priority field (lower value = more important, the
IP TOS convention used in the paper).  Within a priority level, packets keep
FIFO order because the PIFO breaks rank ties by enqueue order.  The
transaction is the one-line program
:data:`repro.lang.programs.STRICT_PRIORITY_SOURCE`; class priority is
:data:`repro.lang.programs.CLASS_PRIORITY_SOURCE`.
"""

from __future__ import annotations

from ..lang.programs import class_priority_program, strict_priority_program

#: ``StrictPriorityTransaction()``: rank = packet priority (lower dequeues
#: first).
StrictPriorityTransaction = strict_priority_program

#: ``ClassPriorityTransaction(class_priorities, default_priority=None)``:
#: strict priority across *classes*, looked up from a static table.  Used at
#: the root of hierarchical schedulers such as CBQ (Section 3.4, item 5),
#: where the element being ranked is a reference to a child node: its flow
#: (the child's name) indexes the table.  An unknown class without a
#: default raises ``KeyError``.
ClassPriorityTransaction = class_priority_program

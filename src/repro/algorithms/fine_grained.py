"""Fine-grained priority scheduling (Section 3.4, item 1).

These algorithms schedule the packet with the lowest value of a field
initialised by the end host: Shortest Job First (flow size), Shortest
Remaining Processing Time (remaining flow size), Least Attained Service
(service received so far) and Earliest Deadline First (time to deadline).
Each is the one-line program ``p.rank = p.<field>``
(:func:`repro.lang.programs.fine_grained_program`); a packet without the
field fails with :class:`~repro.lang.errors.RuntimeLangError`.

The LAS transaction stays a class: it honours a host-tagged
``attained_service`` and otherwise maintains the attained-service counter
inside the switch.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.packet import Packet
from ..core.pifo import Rank
from ..core.transaction import SchedulingTransaction, TransactionContext
from ..lang.bridge import CompiledSchedulingTransaction
from ..lang.programs import fine_grained_program

#: ``FieldRankTransaction(field_name)``: rank = an end-host-initialised
#: packet field, the generic building block behind SJF/SRPT/EDF.
FieldRankTransaction = fine_grained_program


def ShortestJobFirstTransaction(
    field_name: str = "flow_size",
) -> CompiledSchedulingTransaction:
    """SJF: rank = total flow size, tagged by the end host."""
    return fine_grained_program(field_name)


def SRPTTransaction(
    field_name: str = "remaining_size",
) -> CompiledSchedulingTransaction:
    """SRPT: rank = remaining flow size, tagged by the end host.

    pFabric-style switch-local SRPT; Section 3.5 explains that full pFabric
    (which reorders *all* of a flow's buffered packets on each arrival) is
    beyond a single PIFO — see ``benchmarks/test_sec35_pfabric_gap.py``.
    """
    return fine_grained_program(field_name)


def EarliestDeadlineFirstTransaction(
    field_name: str = "deadline",
) -> CompiledSchedulingTransaction:
    """EDF: rank = absolute deadline carried by the packet."""
    return fine_grained_program(field_name)


class LeastAttainedServiceTransaction(SchedulingTransaction):
    """LAS: rank = bytes of service the flow has received so far.

    If packets carry an ``attained_service`` field (set by the end host as
    the paper suggests), that value is used.  Otherwise the transaction
    maintains a per-flow byte counter in switch state, which is the common
    switch-local realisation of LAS.
    """

    state_variables = ("attained",)

    def __init__(self, field_name: str = "attained_service") -> None:
        self.field_name = field_name
        super().__init__()

    def initial_state(self) -> Dict[str, Any]:
        return {"attained": {}}

    def compute_rank(self, packet: Packet, ctx: TransactionContext) -> Rank:
        tagged = packet.get(self.field_name)
        attained: Dict[str, int] = self.state["attained"]
        flow = ctx.element_flow
        if tagged is not None:
            rank = tagged
            attained[flow] = max(attained.get(flow, 0), tagged) + ctx.element_length
            return rank
        rank = attained.get(flow, 0)
        attained[flow] = rank + ctx.element_length
        return rank

    def describe(self) -> str:
        return "LeastAttainedService(rank = bytes served so far)"

"""Fine-grained priority scheduling (Section 3.4, item 1).

These algorithms schedule the packet with the lowest value of a field
initialised by the end host: Shortest Job First (flow size), Shortest
Remaining Processing Time (remaining flow size), Least Attained Service
(service received so far) and Earliest Deadline First (time to deadline).
Each is the one-line program ``p.rank = p.<field>``
(:func:`repro.lang.programs.fine_grained_program`); a packet without the
field fails with :class:`~repro.lang.errors.RuntimeLangError`.

LAS keeps the attained-service counter inside the switch
(:data:`repro.lang.programs.LAS_SOURCE`); a host-tagged reading is
``FieldRankTransaction("attained_service")``.
"""

from __future__ import annotations

from ..lang.bridge import CompiledSchedulingTransaction
from ..lang.programs import fine_grained_program, las_program

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


#: ``LeastAttainedServiceTransaction()``: rank = bytes the element's flow
#: was served before it, counted by the switch.
LeastAttainedServiceTransaction = las_program

"""Least Slack-Time First (Figure 6, Section 3.1).

LSTF schedules packets in increasing order of *slack* — the time remaining
until the packet's deadline.  The slack is initialised at the end host and
decremented by the wait time experienced at each switch queue.  Figure 6::

    p.slack = p.slack - p.prev_wait_time
    p.rank  = p.slack

The transaction is that program (:data:`repro.lang.programs.LSTF_SOURCE`),
which also resets ``prev_wait_time`` once consumed.  ``prev_wait_time`` is
the queueing delay at the previous hops, which the paper suggests carrying
in the packet via in-band telemetry; the fabric stamps it with
:func:`stamp_wait_time` whenever a packet leaves a queue.
"""

from __future__ import annotations

from ..core.packet import EMPTY_FIELDS, Packet
from ..lang.programs import lstf_program

#: Packet field carrying the wait time at the previous hop (seconds).
PREV_WAIT_FIELD = "prev_wait_time"

#: ``LSTFTransaction(slack_field="slack", prev_wait_field="prev_wait_time")``:
#: rank = slack remaining after subtracting the previous hops' wait.
LSTFTransaction = lstf_program


def stamp_wait_time(packet: Packet, wait_time: float) -> None:
    """Record the queueing delay of the hop a packet just left.

    The simulator calls this when a packet departs a switch so the next hop's
    LSTF transaction can decrement the slack, emulating the timestamp
    tagging described in Section 3.1.  Runs once per packet per hop, so the
    lazy ``fields`` allocation is inlined rather than going through
    :meth:`Packet.set`.
    """
    fields = packet.fields
    if fields is EMPTY_FIELDS:
        packet.fields = {PREV_WAIT_FIELD: wait_time}
        return
    fields[PREV_WAIT_FIELD] = fields.get(PREV_WAIT_FIELD, 0.0) + wait_time

"""Service-Curve Earliest Deadline First (Section 3.4, item 2).

SC-EDF schedules packets in increasing order of a deadline computed from a
flow's *service curve* — a specification of the service the flow should
receive over any time interval.  The scheduling transaction sets the
packet's rank to that deadline.

We implement the widely used **latency-rate** family of service curves,
``S(t) = max(0, rate * (t - latency))``, and the standard SCED deadline
recursion for it: within a flow's busy period deadlines advance by the
packet's transmission time at the reserved rate, and a new busy period
restarts the latency offset.  The transaction is that recursion as a
program (:data:`repro.lang.programs.SCED_SOURCE`).
"""

from __future__ import annotations

from typing import Mapping

from ..lang.programs import LatencyRateCurve, sced_program

#: ``SCEDTransaction(curves, default_curve=None)``: SC-EDF deadlines from
#: each flow's :class:`LatencyRateCurve`; flows without one use
#: ``default_curve``, and with none ranking them raises
#: :class:`~repro.exceptions.TransactionError`.
SCEDTransaction = sced_program


def admissible(curves: Mapping[str, LatencyRateCurve], link_rate_bps: float) -> bool:
    """Schedulability check: reserved rates must not exceed link capacity."""
    return sum(curve.rate_bps for curve in curves.values()) <= link_rate_bps

"""Discrete-event simulation substrate.

Provides the :class:`~repro.sim.simulator.Simulator` kernel, output ports
that drain any scheduler into a fixed-rate link, packet sources and sinks.
The behavioural experiments (HPFQ shares, shaping rate limits, Stop-and-Go
delay bounds, minimum-rate guarantees) are all built from these pieces.
"""

from .events import Event, EventQueue
from .link import OutputPort
from .simulator import Simulator
from .sink import FlowAggregate, PacketSink
from .source import PacketSource

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "OutputPort",
    "FlowAggregate",
    "PacketSink",
    "PacketSource",
]

"""Exception hierarchy for the PIFO reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so a
caller can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class PIFOError(ReproError):
    """Base class for errors raised by PIFO data structures."""


class PIFOEmptyError(PIFOError):
    """Raised when dequeuing or peeking an empty PIFO."""


class PIFOFullError(PIFOError):
    """Raised when pushing into a PIFO that has reached its capacity."""


class TransactionError(ReproError):
    """Raised when a scheduling or shaping transaction misbehaves.

    Examples include a transaction that fails to set a rank, or one whose
    state declaration does not cover a state variable it accesses.
    """


class TreeConfigurationError(ReproError):
    """Raised when a scheduling tree is structurally invalid.

    Examples include a packet that matches no leaf predicate, a node with a
    duplicate name, or a shaping transaction attached to the root node.
    """


class SchedulerError(ReproError):
    """Raised by the reference scheduler engine for invalid operations."""


class HardwareModelError(ReproError):
    """Raised by the cycle-level hardware model for constraint violations."""


class CompilationError(ReproError):
    """Raised when a scheduling tree cannot be compiled onto a PIFO mesh."""


class SimulationError(ReproError):
    """Raised by the discrete-event simulator for scheduling-in-the-past and
    similar misuse."""


class TrafficError(ReproError):
    """Raised by traffic generators for invalid workload specifications."""


class TopologyError(ReproError):
    """Raised by the network fabric layer for malformed topologies.

    Examples include links naming unknown nodes, duplicate node names, or a
    disconnected graph handed to the routing pass.
    """


class RoutingError(ReproError):
    """Raised when a packet cannot be forwarded across the fabric.

    Examples include a packet without a destination address, a destination
    with no installed route, or a route naming a non-existent port."""


class FaultError(ReproError):
    """Raised for invalid fault plans handed to the fabric.

    Examples include a fault event naming a link or switch that does not
    exist in the topology, a switch event naming a host, a negative event
    time, or a packet-loss rate outside ``[0, 1]``."""


class ConservationError(ReproError):
    """Raised when a fabric's packet-conservation identity is violated.

    Every injected packet must be accounted for:
    ``injected == delivered + dropped + lost_to_faults + in_flight``.
    A violation means the fabric leaked or double-counted packets —
    always a bug, never a legitimate simulation outcome."""

"""Scheduling and shaping transactions.

A *scheduling transaction* is a block of code executed for each packet before
it is enqueued into a PIFO; it computes the packet's **rank** (Section 2.1).
A *shaping transaction* computes the **wall-clock time** at which an element
becomes visible to its parent node's scheduler (Section 2.3).

Both are instances of *packet transactions*: atomic, isolated blocks whose
visible state is equivalent to a serial execution across consecutive packets.
In this single-threaded reference model atomicity is automatic, but the
classes still keep all mutable algorithm state in a single ``state`` mapping
so that:

* the Domino-style atom analyser (:mod:`repro.hardware.atoms`) can reason
  about which state variables a transaction reads and writes, and
* tests can snapshot/restore transaction state to verify serialisability.
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..exceptions import TransactionError
from .packet import Packet
from .pifo import Rank


@dataclass(slots=True)
class TransactionContext:
    """Read-only inputs a transaction may use besides the packet itself.

    Attributes
    ----------
    now:
        Current wall-clock time in seconds.  Shaping transactions and the
        FIFO scheduling transaction use it; pure virtual-time algorithms
        (STFQ) ignore it.
    node:
        Name of the tree node executing the transaction.
    element_flow:
        Flow identifier of the element being enqueued.  At a leaf node this
        is the packet's flow; at an interior node it is the child node's
        name (the "flow" from the parent's point of view, as in Figure 3
        where WFQ_Root sees flows ``Left`` and ``Right``).
    element_length:
        Length in bytes attributed to the element.  For a packet this is the
        packet length; for a PIFO reference it is the length of the packet
        whose arrival triggered the enqueue, which is what HPFQ charges to
        the parent's fair scheduler.
    extras:
        Free-form additional inputs (for example per-flow weights).
    """

    now: float = 0.0
    node: str = ""
    element_flow: str = ""
    element_length: int = 0
    extras: Dict[str, Any] = field(default_factory=dict)


class Transaction(abc.ABC):
    """Common behaviour for scheduling and shaping transactions.

    Subclasses keep every mutable algorithm variable inside ``self.state``.
    ``state_variables`` declares the variables the transaction uses, which
    the atom analyser checks against actual accesses.  ``state`` is one
    mapping for the transaction's lifetime: :meth:`reset` and
    :meth:`restore` refill it in place, so code that bound it once (a
    program environment, the fused tree kernel) never goes stale.
    """

    #: Names of the state variables this transaction reads or writes.
    state_variables: tuple = ()

    #: How this transaction executes per packet.  Hand-written classes are
    #: plain Python ("python"); lang-backed transactions report "compiled"
    #: (AST lowered to a native closure) or "interpreted" (per-packet AST
    #: walk, chosen explicitly) — see :mod:`repro.lang.compiler`.
    backend: str = "python"

    def __init__(self) -> None:
        self.state: Dict[str, Any] = {}
        self.executions = 0
        self.reset()

    # -- lifecycle ----------------------------------------------------------
    def reset(self) -> None:
        """Reinitialise all state variables to their starting values."""
        self.state.clear()
        self.state.update(self.initial_state())

    def initial_state(self) -> Dict[str, Any]:
        """Return the initial value of every state variable.

        Subclasses with state must override this; stateless transactions can
        rely on the default empty mapping.
        """
        return {}

    # -- serialisability helpers --------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Deep-copy the transaction state (for serialisability tests)."""
        return copy.deepcopy(self.state)

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Restore state captured by :meth:`snapshot`."""
        restored = copy.deepcopy(snapshot)
        self.state.clear()
        self.state.update(restored)

    # -- hooks ---------------------------------------------------------------
    def on_dequeue(self, element: Any, ctx: TransactionContext) -> None:
        """Called when an element ranked by this transaction is dequeued.

        Most transactions ignore dequeues, but fair-queueing algorithms such
        as STFQ update their virtual time from the start tag of the packet
        being dequeued (Section 7 discusses why this state matters).
        """

    def describe(self) -> str:
        """One-line human-readable description used in reports."""
        return type(self).__name__


class SchedulingTransaction(Transaction):
    """Computes the rank of an element pushed into a scheduling PIFO."""

    @abc.abstractmethod
    def compute_rank(self, packet: Packet, ctx: TransactionContext) -> Rank:
        """Return the rank for ``packet`` (lower ranks dequeue first)."""

    def __call__(self, packet: Packet, ctx: TransactionContext) -> Rank:
        self.executions += 1
        rank = self.compute_rank(packet, ctx)
        if rank is None:
            raise TransactionError(
                f"{type(self).__name__} returned no rank for {packet!r}"
            )
        return rank


class ShapingTransaction(Transaction):
    """Computes the wall-clock release time of an element (Section 2.3).

    The element (packet or PIFO reference) waits in the node's shaping PIFO,
    ranked by this send time, and is released to the parent's scheduling
    PIFO once the wall clock reaches it.
    """

    @abc.abstractmethod
    def compute_send_time(self, packet: Packet, ctx: TransactionContext) -> float:
        """Return the wall-clock time at which the element may be scheduled."""

    def __call__(self, packet: Packet, ctx: TransactionContext) -> float:
        self.executions += 1
        send_time = self.compute_send_time(packet, ctx)
        if send_time is None:
            raise TransactionError(
                f"{type(self).__name__} returned no send time for {packet!r}"
            )
        if send_time < ctx.now - 1e-12:
            # A shaping transaction may never schedule into the past; clamp
            # to "now" which means immediately eligible.
            send_time = ctx.now
        return send_time


class LambdaSchedulingTransaction(SchedulingTransaction):
    """Adapter turning a plain function into a scheduling transaction.

    The function receives ``(packet, ctx, state)`` and returns the rank.
    Useful for quick experiments and for the examples; library algorithms
    use explicit classes for clarity.
    """

    def __init__(
        self,
        fn: Callable[[Packet, TransactionContext, Dict[str, Any]], Rank],
        initial_state: Optional[Dict[str, Any]] = None,
        name: str = "lambda",
        dequeue_fn: Optional[
            Callable[[Any, TransactionContext, Dict[str, Any]], None]
        ] = None,
    ) -> None:
        self._fn = fn
        self._initial = dict(initial_state or {})
        self._name = name
        self._dequeue_fn = dequeue_fn
        self.state_variables = tuple(self._initial)
        super().__init__()

    def initial_state(self) -> Dict[str, Any]:
        return dict(self._initial)

    def compute_rank(self, packet: Packet, ctx: TransactionContext) -> Rank:
        return self._fn(packet, ctx, self.state)

    def on_dequeue(self, element: Any, ctx: TransactionContext) -> None:
        if self._dequeue_fn is not None:
            self._dequeue_fn(element, ctx, self.state)

    def describe(self) -> str:
        return f"lambda scheduling transaction {self._name!r}"


class LambdaShapingTransaction(ShapingTransaction):
    """Adapter turning a plain function into a shaping transaction."""

    def __init__(
        self,
        fn: Callable[[Packet, TransactionContext, Dict[str, Any]], float],
        initial_state: Optional[Dict[str, Any]] = None,
        name: str = "lambda",
    ) -> None:
        self._fn = fn
        self._initial = dict(initial_state or {})
        self._name = name
        self.state_variables = tuple(self._initial)
        super().__init__()

    def initial_state(self) -> Dict[str, Any]:
        return dict(self._initial)

    def compute_send_time(self, packet: Packet, ctx: TransactionContext) -> float:
        return self._fn(packet, ctx, self.state)

    def describe(self) -> str:
        return f"lambda shaping transaction {self._name!r}"

"""Declarative fault injection: failing links and switches in the fabric.

A :class:`FaultPlan` is a schedule of topology faults — link down/up,
switch failure/recovery — plus optional probabilistic per-link packet
loss.  The plan is pure data; attaching it to a
:class:`~repro.net.fabric.Fabric` (the ``fault_plan=`` constructor
argument) creates a :class:`FaultInjector` that executes the events as
ordinary simulator events and keeps the fabric's accounting honest while
the topology changes under it.

Semantics
---------
* **Link down** (both directions): the packet currently being serialised
  onto the link is blackholed when its transmission completes — the bits
  went onto a dead wire — and so is anything still propagating on the
  wire.  The egress port then *halts*: packets already queued behind the
  dead link stay buffered (they count as ``in_flight``) and burst out
  when the link recovers, which is exactly the queue-buildup-and-drain
  behaviour a flapping link produces in a real fabric.
* **Switch down**: every link touching the switch behaves as down; the
  switch's buffered packets stay in place (``in_flight``) until recovery.
* **Routing reconvergence**: each topology change synchronously rebuilds
  every forwarding table over the surviving subgraph (the fabric analogue
  of an instant IGP/ECMP reconvergence).  Destinations that became
  unreachable simply have no route: traffic for them is blackholed at the
  first hop that cannot forward it — counted, never silently lost.
* **Probabilistic loss**: each :class:`LinkLoss` drops packets crossing
  the link with probability ``rate`` inside ``[start, end]``.  Draws come
  from a per-directed-link :class:`random.Random` seeded with
  :func:`~repro.core.seeds.derive_seed` from the plan seed, so loss
  patterns are reproducible and — because per-link crossing order is
  identical on the fused and interpreted datapaths — lockstep-identical
  across both.

Every blackholed packet increments the fabric's ``lost_to_faults``
counter, keeping the conservation identity exact at all times::

    injected == delivered + dropped + lost_to_faults + in_flight
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.seeds import derive_seed
from ..exceptions import FaultError

__all__ = [
    "LinkDown",
    "LinkUp",
    "SwitchDown",
    "SwitchUp",
    "LinkLoss",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "flapping_link",
]


# --------------------------------------------------------------------------- #
# Fault events                                                                 #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class LinkDown:
    """Take the (undirected) link ``src``–``dst`` down at ``time``."""

    time: float
    src: str
    dst: str


@dataclass(frozen=True)
class LinkUp:
    """Restore the link ``src``–``dst`` at ``time``."""

    time: float
    src: str
    dst: str


@dataclass(frozen=True)
class SwitchDown:
    """Fail switch ``node`` (all its links go dark) at ``time``."""

    time: float
    node: str


@dataclass(frozen=True)
class SwitchUp:
    """Recover switch ``node`` at ``time``."""

    time: float
    node: str


FaultEvent = Union[LinkDown, LinkUp, SwitchDown, SwitchUp]


@dataclass(frozen=True)
class LinkLoss:
    """Drop packets crossing ``src``–``dst`` with probability ``rate``.

    Applies to both directions of the link, each with an independent
    derived RNG stream.  ``start``/``end`` bound the lossy window
    (``end=None`` means until the end of the run).
    """

    src: str
    dst: str
    rate: float
    start: float = 0.0
    end: Optional[float] = None


def flapping_link(src: str, dst: str, first_down: float, downtime: float,
                  period: float, cycles: int) -> Tuple[FaultEvent, ...]:
    """Down/up event cycles for one link — the classic flapping hop.

    Cycle ``i`` takes the link down at ``first_down + i * period`` and
    brings it back ``downtime`` later.
    """
    if downtime <= 0 or period <= downtime:
        raise FaultError(
            f"flapping_link needs 0 < downtime < period "
            f"(got downtime={downtime}, period={period})"
        )
    events: List[FaultEvent] = []
    for cycle in range(cycles):
        down_at = first_down + cycle * period
        events.append(LinkDown(down_at, src, dst))
        events.append(LinkUp(down_at + downtime, src, dst))
    return tuple(events)


# --------------------------------------------------------------------------- #
# The plan                                                                     #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FaultPlan:
    """A declarative schedule of faults, validated against a topology.

    ``events`` are applied at their simulated times; ``losses`` are active
    for the whole run (inside their windows).  ``seed`` roots the derived
    per-link loss RNG streams, so two runs of the same plan see identical
    loss patterns.
    """

    events: Tuple[FaultEvent, ...] = ()
    losses: Tuple[LinkLoss, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # Accept plain lists in the constructor; store canonical tuples.
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "losses", tuple(self.losses))

    def validate(self, network) -> None:
        """Check every event/loss names real topology elements.

        Raises :class:`~repro.exceptions.FaultError` on an unknown link or
        switch, a switch event naming a host, a negative time, or a loss
        rate outside ``[0, 1]``.
        """
        for event in self.events:
            if event.time < 0:
                raise FaultError(f"fault event time must be >= 0: {event}")
            if isinstance(event, (LinkDown, LinkUp)):
                self._check_link(network, event.src, event.dst)
            else:
                node = self._check_node(network, event.node)
                if node.kind != "switch":
                    raise FaultError(
                        f"switch fault events must name switches; "
                        f"{event.node!r} is a {node.kind}"
                    )
        for loss in self.losses:
            self._check_link(network, loss.src, loss.dst)
            if not 0.0 <= loss.rate <= 1.0:
                raise FaultError(
                    f"loss rate must be in [0, 1], got {loss.rate} "
                    f"for {loss.src!r}-{loss.dst!r}"
                )
            if loss.end is not None and loss.end < loss.start:
                raise FaultError(
                    f"loss window ends before it starts: {loss}"
                )

    @staticmethod
    def _check_node(network, name: str):
        try:
            return network.node(name)
        except Exception as exc:  # TopologyError on unknown names
            raise FaultError(f"fault plan names unknown node {name!r}") \
                from exc

    @classmethod
    def _check_link(cls, network, src: str, dst: str) -> None:
        cls._check_node(network, src)
        cls._check_node(network, dst)
        if dst not in network.links.get(src, {}) \
                and src not in network.links.get(dst, {}):
            raise FaultError(f"no link {src!r}-{dst!r} in the topology")

    def empty(self) -> bool:
        return not self.events and not self.losses


# --------------------------------------------------------------------------- #
# The injector                                                                 #
# --------------------------------------------------------------------------- #
class FaultInjector:
    """Executes a :class:`FaultPlan` against one live fabric.

    Created by :class:`~repro.net.fabric.Fabric` when a plan is attached;
    holds the current down-set, the per-link loss RNGs and the
    ``lost_to_faults`` ledger.  All mutation happens through simulator
    events scheduled by :meth:`schedule`.
    """

    def __init__(self, fabric, plan: FaultPlan) -> None:
        plan.validate(fabric.network)
        self.fabric = fabric
        self.plan = plan
        #: Directed (src, dst) pairs currently administratively down.
        self.down_links: set = set()
        #: Switch nodes currently failed.
        self.down_switches: set = set()
        #: Blackholed packets by cause: link_down / switch_down / loss /
        #: no_route.
        self.lost_by_cause: Dict[str, int] = {}
        #: Number of routing reconvergences triggered by fault events.
        self.topology_changes = 0
        # Per-directed-link loss windows and their derived RNG streams.
        self._loss_specs: Dict[Tuple[str, str], List[LinkLoss]] = {}
        for loss in plan.losses:
            for pair in ((loss.src, loss.dst), (loss.dst, loss.src)):
                self._loss_specs.setdefault(pair, []).append(loss)
        self._loss_rngs: Dict[Tuple[str, str], random.Random] = {
            pair: random.Random(derive_seed(plan.seed,
                                            f"loss/{pair[0]}->{pair[1]}"))
            for pair in self._loss_specs
        }
        self._install_port_guards()

    # -- wiring ------------------------------------------------------------
    def schedule(self) -> None:
        """Register every plan event with the fabric's simulator."""
        for event in self.plan.events:
            self.fabric.sim.schedule_at(event.time,
                                        lambda e=event: self.apply(e))

    def _install_port_guards(self) -> None:
        """Wrap every egress port's transmit-completion callback.

        The guard checks the port's ``faulted`` flag at completion time:
        a live port runs the generic path unchanged; a dead one blackholes
        the in-flight packet (it was serialised onto a dead wire), keeps
        the upstream buffer accounting exact via the departure callback,
        and halts the transmit loop until recovery kicks it.
        """
        fabric = self.fabric
        for node, switch in fabric.node_switches.items():
            for neighbor in fabric.network.links[node]:
                port = switch.ports[fabric.port_to(neighbor)]
                self._guard_port(port, node, neighbor)

    def _guard_port(self, port, node: str, neighbor: str) -> None:
        inner = port._tx_complete
        injector = self
        sim = self.fabric.sim

        def guarded() -> None:
            if not port.faulted:
                inner()
                return
            packet = port._tx_packet
            port._tx_packet = None
            packet.departure_time = sim.now
            port.busy = False
            # The packet *did* leave this port — transmit counters and the
            # upstream buffer release stay exact — it just never arrives.
            port.transmitted_packets += 1
            port.transmitted_bytes += packet.length
            on_departure = port.on_departure
            if on_departure is not None:
                on_departure(packet)
            injector.record_loss(packet, injector._down_cause(node, neighbor))
            # No self-reschedule: the port halts until a recovery event
            # flips ``faulted`` back and calls ``_try_transmit``.

        port._tx_complete = guarded

    # -- state queries -----------------------------------------------------
    def link_usable(self, src: str, dst: str) -> bool:
        """Whether the directed link ``src -> dst`` currently carries bits."""
        if src in self.down_switches or dst in self.down_switches:
            return False
        return (src, dst) not in self.down_links

    def _down_cause(self, src: str, dst: str) -> str:
        if src in self.down_switches or dst in self.down_switches:
            return "switch_down"
        return "link_down"

    def loss_roll(self, src: str, dst: str, now: float) -> bool:
        """One loss draw for a packet crossing ``src -> dst`` at ``now``."""
        specs = self._loss_specs.get((src, dst))
        if not specs:
            return False
        rng = self._loss_rngs[(src, dst)]
        for spec in specs:
            if now < spec.start:
                continue
            if spec.end is not None and now > spec.end:
                continue
            if rng.random() < spec.rate:
                return True
        return False

    @property
    def lost_to_faults(self) -> int:
        return sum(self.lost_by_cause.values())

    def record_loss(self, packet, cause: str) -> None:
        """Account one blackholed packet under ``cause``."""
        self.lost_by_cause[cause] = self.lost_by_cause.get(cause, 0) + 1
        self.fabric.lost_to_faults += 1

    # -- event application -------------------------------------------------
    def apply(self, event: FaultEvent) -> None:
        """Apply one fault event; reconverges routing if anything changed."""
        if isinstance(event, LinkDown):
            changed = self._set_link(event.src, event.dst, down=True)
        elif isinstance(event, LinkUp):
            changed = self._set_link(event.src, event.dst, down=False)
        elif isinstance(event, SwitchDown):
            changed = event.node not in self.down_switches
            self.down_switches.add(event.node)
        elif isinstance(event, SwitchUp):
            changed = event.node in self.down_switches
            self.down_switches.discard(event.node)
        else:  # pragma: no cover - plan validation forbids this
            raise FaultError(f"unknown fault event {event!r}")
        if changed:
            self.topology_changes += 1
            self._reconverge()

    def _set_link(self, src: str, dst: str, down: bool) -> bool:
        pairs = {(src, dst), (dst, src)}
        if down:
            added = pairs - self.down_links
            self.down_links |= pairs
            return bool(added)
        removed = pairs & self.down_links
        self.down_links -= pairs
        return bool(removed)

    def _reconverge(self) -> None:
        """Routing + port liveness after a topology change.

        Rebuilds every forwarding table over the surviving subgraph, then
        syncs each port's ``faulted`` flag — kicking revived ports so their
        queued backlog starts draining again.
        """
        fabric = self.fabric
        fabric.reinstall_routes(link_filter=self.link_usable)
        for node, switch in fabric.node_switches.items():
            for neighbor in fabric.network.links[node]:
                port = switch.ports[fabric.port_to(neighbor)]
                alive = self.link_usable(node, neighbor)
                was_faulted = port.faulted
                port.faulted = not alive
                if was_faulted and alive and not port.busy:
                    port._try_transmit()

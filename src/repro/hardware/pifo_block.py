"""A PIFO block: flow scheduler + rank store (Section 5.2, Figure 12).

A PIFO block hosts many *logical PIFOs*.  Its interface is exactly the one
the paper gives in Section 4.2:

* **enqueue**(logical PIFO ID, rank, metadata, flow ID) — no return value;
* **dequeue**(logical PIFO ID) — returns the dequeued element (a packet or a
  reference to another PIFO).

Internally an enqueued element goes to the flow scheduler if it is the first
element of its flow, otherwise to the flow's FIFO in the rank store; a
dequeue pops the flow scheduler and, if the flow is still backlogged,
reinserts the flow's next element from the rank store (the "reinsert
pathway" of Figure 12).

Timing constraints from Section 5.2 are modelled explicitly when callers
drive the block with a cycle number:

* at most **one enqueue and one dequeue per clock cycle** per block;
* a dequeue from the **same logical PIFO** at most once every
  ``SAME_PIFO_DEQUEUE_INTERVAL`` (3) cycles — sufficient for a 100 Gbit/s
  port, which needs a packet at most every 5 cycles.

Calls without a cycle number run in *functional mode*: ordering semantics
are identical and the constraint counters still accumulate, but nothing is
refused — that is the mode the behavioural equivalence tests use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..exceptions import HardwareModelError
from .flow_scheduler import DEFAULT_FLOW_CAPACITY, FlowScheduler, FlowSchedulerEntry
from .rank_store import DEFAULT_RANK_STORE_CAPACITY, RankStore

#: Minimum spacing, in cycles, between dequeues of the same logical PIFO
#: (2-cycle pop pipeline + 1 cycle SRAM access for the reinsert).
SAME_PIFO_DEQUEUE_INTERVAL = 3
#: Paper's baseline number of logical PIFOs per block.
DEFAULT_LOGICAL_PIFOS = 256


@dataclass
class BlockStats:
    """Operation and constraint-violation counters for one PIFO block."""

    enqueues: int = 0
    dequeues: int = 0
    rank_store_hits: int = 0
    reinserts: int = 0
    enqueue_conflicts: int = 0
    dequeue_conflicts: int = 0
    same_pifo_violations: int = 0
    per_pifo_enqueues: Dict[int, int] = field(default_factory=dict)


@dataclass
class DequeuedElement:
    """Result of a block dequeue."""

    rank: float
    flow: str
    metadata: Any
    logical_pifo: int


class PIFOBlock:
    """One PIFO block of the mesh."""

    def __init__(
        self,
        name: str = "block",
        capacity_flows: int = DEFAULT_FLOW_CAPACITY,
        rank_store_capacity: int = DEFAULT_RANK_STORE_CAPACITY,
        logical_pifo_count: int = DEFAULT_LOGICAL_PIFOS,
        strict_timing: bool = False,
    ) -> None:
        if logical_pifo_count <= 0:
            raise ValueError("logical_pifo_count must be positive")
        self.name = name
        self.logical_pifo_count = logical_pifo_count
        self.strict_timing = strict_timing
        self.flow_scheduler = FlowScheduler(capacity_flows=capacity_flows)
        self.rank_store = RankStore(capacity_entries=rank_store_capacity)
        self.stats = BlockStats()
        self._last_enqueue_cycle: Optional[int] = None
        self._last_dequeue_cycle: Optional[int] = None
        self._last_pifo_dequeue_cycle: Dict[int, int] = {}

    # -- helpers ---------------------------------------------------------------
    def _check_pifo_id(self, logical_pifo: int) -> None:
        if not 0 <= logical_pifo < self.logical_pifo_count:
            raise HardwareModelError(
                f"logical PIFO {logical_pifo} out of range for block {self.name!r} "
                f"(0..{self.logical_pifo_count - 1})"
            )

    def _note_enqueue_cycle(self, cycle: Optional[int]) -> bool:
        if cycle is None:
            return True
        if self._last_enqueue_cycle == cycle:
            self.stats.enqueue_conflicts += 1
            if self.strict_timing:
                return False
        self._last_enqueue_cycle = cycle
        return True

    def _note_dequeue_cycle(self, cycle: Optional[int], logical_pifo: int) -> bool:
        if cycle is None:
            return True
        allowed = True
        if self._last_dequeue_cycle == cycle:
            self.stats.dequeue_conflicts += 1
            allowed = not self.strict_timing and allowed
            if self.strict_timing:
                return False
        last = self._last_pifo_dequeue_cycle.get(logical_pifo)
        if last is not None and cycle - last < SAME_PIFO_DEQUEUE_INTERVAL:
            self.stats.same_pifo_violations += 1
            if self.strict_timing:
                return False
        self._last_dequeue_cycle = cycle
        self._last_pifo_dequeue_cycle[logical_pifo] = cycle
        return True

    # -- block interface (Section 4.2) ------------------------------------------
    def enqueue(
        self,
        logical_pifo: int,
        rank: float,
        flow: str,
        metadata: Any = None,
        cycle: Optional[int] = None,
    ) -> bool:
        """Enqueue an element.  Returns False only in strict timing mode when
        the per-cycle enqueue port is already taken."""
        self._check_pifo_id(logical_pifo)
        if not self._note_enqueue_cycle(cycle):
            return False
        if self.flow_scheduler.contains_flow(logical_pifo, flow):
            # Flow already has its head in the flow scheduler: the new
            # element joins the flow's FIFO in the rank store.
            self.rank_store.append(logical_pifo, flow, rank, metadata)
            self.stats.rank_store_hits += 1
        else:
            # First element of the flow bypasses the rank store (footnote 6).
            self.flow_scheduler.push(rank, logical_pifo, flow, metadata)
        self.stats.enqueues += 1
        self.stats.per_pifo_enqueues[logical_pifo] = (
            self.stats.per_pifo_enqueues.get(logical_pifo, 0) + 1
        )
        return True

    def dequeue(
        self, logical_pifo: int, cycle: Optional[int] = None
    ) -> Optional[DequeuedElement]:
        """Dequeue the head of a logical PIFO (None when it is empty, or when
        strict timing refuses the operation this cycle)."""
        self._check_pifo_id(logical_pifo)
        if not self._note_dequeue_cycle(cycle, logical_pifo):
            return None
        entry = self.flow_scheduler.pop(logical_pifo)
        if entry is None:
            return None
        self.stats.dequeues += 1
        self._reinsert_if_backlogged(entry)
        return DequeuedElement(
            rank=entry.rank,
            flow=entry.flow,
            metadata=entry.metadata,
            logical_pifo=entry.logical_pifo,
        )

    def _reinsert_if_backlogged(self, entry: FlowSchedulerEntry) -> None:
        nxt = self.rank_store.pop_head(entry.logical_pifo, entry.flow)
        if nxt is None:
            return
        rank, metadata = nxt
        self.flow_scheduler.push(rank, entry.logical_pifo, entry.flow, metadata)
        self.stats.reinserts += 1

    def peek(self, logical_pifo: int) -> Optional[DequeuedElement]:
        """Head of a logical PIFO without removing it."""
        self._check_pifo_id(logical_pifo)
        entry = self.flow_scheduler.peek(logical_pifo)
        if entry is None:
            return None
        return DequeuedElement(
            rank=entry.rank,
            flow=entry.flow,
            metadata=entry.metadata,
            logical_pifo=entry.logical_pifo,
        )

    # -- occupancy -----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.flow_scheduler) + len(self.rank_store)

    def pifo_occupancy(self, logical_pifo: int) -> int:
        """Elements buffered for one logical PIFO (heads + rank store)."""
        heads = sum(
            1 for e in self.flow_scheduler.entries() if e.logical_pifo == logical_pifo
        )
        stored = sum(
            self.rank_store.flow_depth(logical_pifo, e.flow)
            for e in self.flow_scheduler.entries()
            if e.logical_pifo == logical_pifo
        )
        return heads + stored

    def is_empty(self, logical_pifo: Optional[int] = None) -> bool:
        if logical_pifo is None:
            return len(self) == 0
        return self.flow_scheduler.peek(logical_pifo) is None

    # -- PFC -------------------------------------------------------------------------
    def mask_flow(self, flow: str) -> None:
        self.flow_scheduler.mask_flow(flow)

    def unmask_flow(self, flow: str) -> None:
        self.flow_scheduler.unmask_flow(flow)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PIFOBlock(name={self.name!r}, heads={len(self.flow_scheduler)}, "
            f"stored={len(self.rank_store)})"
        )

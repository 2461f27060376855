"""The flow scheduler: the sorted-array core of a PIFO block (Section 5.2).

A naive PIFO would sort all ~60 K buffered packets, which is infeasible.
The paper's key structural observation is that practical algorithms schedule
each flow's packets in FIFO order, so only the *head* element of each flow
needs sorting.  The flow scheduler is that sorted array of flow heads, held
in flip-flops, supporting:

* **push** — insert a flow head (2-cycle pipeline: parallel comparison +
  priority encode, then shift-insert);
* **pop** — remove the first element belonging to a given logical PIFO
  (2-cycle pipeline: equality check + priority encode, then shift-out).

This model reproduces the structure and constraints (entry capacity, two
pushes + one pop per cycle, per-logical-PIFO selection, PFC masking) while
leaving gate-level timing to the calibrated area/timing model
(:mod:`repro.hardware.area_model`).

The storage is the hardware's one sorted array, and the stats count the
comparator/shift work the flip-flop array would perform — the numbers the
Section 5 ablation benchmarks rely on.  An O(1) flow-membership index keeps
the block's per-enqueue ``contains_flow`` check from scanning the array.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from ..exceptions import HardwareModelError

#: Baseline flow-scheduler capacity (Section 5.3): 1024 flows shared across
#: the logical PIFOs of one block.
DEFAULT_FLOW_CAPACITY = 1024


@dataclass
class FlowSchedulerEntry:
    """One flow head held in the flow scheduler.

    ``rank``/``seq`` order the array; ``logical_pifo`` selects entries at
    pop time; ``flow`` identifies the FIFO in the rank store holding the
    rest of the flow's elements; ``metadata`` carries the element itself
    (packet or PIFO reference) in this behavioural model.
    """

    rank: float
    seq: int
    logical_pifo: int
    flow: str
    metadata: Any = None

    def key(self) -> Tuple[float, int]:
        return (self.rank, self.seq)


@dataclass
class FlowSchedulerStats:
    """Operation counters used by the feasibility benchmarks."""

    pushes: int = 0
    pops: int = 0
    comparisons: int = 0
    shifts: int = 0
    masked_skips: int = 0


class FlowScheduler:
    """Sorted array of flow heads (the flip-flop half of a PIFO block).

    Parameters
    ----------
    capacity_flows:
        Maximum number of simultaneously buffered flow heads.
    """

    def __init__(self, capacity_flows: int = DEFAULT_FLOW_CAPACITY) -> None:
        if capacity_flows <= 0:
            raise ValueError("capacity_flows must be positive")
        self.capacity_flows = capacity_flows
        self._entries: List[FlowSchedulerEntry] = []
        self._keys: List[Tuple[float, int]] = []
        # O(1) membership index.
        self._flow_count: Dict[Tuple[int, str], int] = {}
        self._seq = 0
        self._masked_flows: Set[str] = set()
        self.stats = FlowSchedulerStats()

    # -- capacity ----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self) >= self.capacity_flows

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    # -- PFC masking (Section 6.2) -------------------------------------------------
    def mask_flow(self, flow: str) -> None:
        """Make a flow invisible to pops (PFC pause)."""
        self._masked_flows.add(flow)

    def unmask_flow(self, flow: str) -> None:
        """Re-expose a paused flow (PFC resume)."""
        self._masked_flows.discard(flow)

    def masked_flows(self) -> Set[str]:
        return set(self._masked_flows)

    # -- flow membership index ------------------------------------------------------
    def _track_flow(self, logical_pifo: int, flow: str, delta: int) -> None:
        key = (logical_pifo, flow)
        count = self._flow_count.get(key, 0) + delta
        if count:
            self._flow_count[key] = count
        else:
            self._flow_count.pop(key, None)

    # -- push -------------------------------------------------------------------------
    def push(self, entry_rank: float, logical_pifo: int, flow: str, metadata: Any = None) -> None:
        """Insert a flow head, keeping (rank, push order) ordering.

        This models the hardware's parallel compare + priority encode +
        shift; the stats record the equivalent comparator/shift work for the
        ablation benchmark comparing against a flat 60 K-entry sorted array.
        """
        if self.is_full:
            raise HardwareModelError(
                f"flow scheduler full ({self.capacity_flows} flow heads)"
            )
        entry = FlowSchedulerEntry(
            rank=entry_rank, seq=self._seq, logical_pifo=logical_pifo,
            flow=flow, metadata=metadata,
        )
        self._seq += 1
        index = bisect.bisect_right(self._keys, entry.key())
        self._keys.insert(index, entry.key())
        self._entries.insert(index, entry)
        self.stats.pushes += 1
        # Hardware compares against *all* entries in parallel and shifts the
        # tail; count both so work scales with occupancy, as in the chip.
        self.stats.comparisons += len(self._entries)
        self.stats.shifts += len(self._entries) - index
        self._track_flow(logical_pifo, flow, +1)

    # -- pop ---------------------------------------------------------------------------
    def _first_index(self, logical_pifo: Optional[int]) -> Optional[int]:
        for index, entry in enumerate(self._entries):
            self.stats.comparisons += 1
            if entry.flow in self._masked_flows:
                self.stats.masked_skips += 1
                continue
            if logical_pifo is None or entry.logical_pifo == logical_pifo:
                return index
        return None

    def peek(self, logical_pifo: Optional[int] = None) -> Optional[FlowSchedulerEntry]:
        """Head entry of a logical PIFO (or overall), honouring PFC masks."""
        index = self._first_index(logical_pifo)
        return self._entries[index] if index is not None else None

    def pop(self, logical_pifo: Optional[int] = None) -> Optional[FlowSchedulerEntry]:
        """Remove and return the head entry of a logical PIFO."""
        index = self._first_index(logical_pifo)
        if index is None:
            return None
        self._keys.pop(index)
        entry = self._entries.pop(index)
        self.stats.pops += 1
        self.stats.shifts += len(self._entries) - index + 1
        self._track_flow(entry.logical_pifo, entry.flow, -1)
        return entry

    # -- queries --------------------------------------------------------------------------
    def occupancy_by_pifo(self) -> dict:
        counts: dict = {}
        for entry in self.entries():
            counts[entry.logical_pifo] = counts.get(entry.logical_pifo, 0) + 1
        return counts

    def contains_flow(self, logical_pifo: int, flow: str) -> bool:
        return self._flow_count.get((logical_pifo, flow), 0) > 0

    def entries(self) -> List[FlowSchedulerEntry]:
        """Snapshot in dequeue order (for tests)."""
        return list(self._entries)

"""The push-in first-out queue (PIFO) and its interchangeable backends.

A PIFO is a priority queue that lets an element be *pushed into an arbitrary
location* based on the element's rank, but always *dequeues from the head*
(Section 2 of the paper).  Two properties matter for correctness:

* **Lower ranks dequeue first.**  The paper fixes this convention in a
  footnote; we keep it throughout the library.
* **Ties break FIFO.**  Elements with equal rank leave in the order they were
  pushed.  Stop-and-Go queueing (Section 3.2) relies on this to transmit all
  packets of a frame in arrival order.

**Entry layout.**  As in the paper's rank store (Section 5), an element
is stored once: every backend holds one plain ``(rank, seq, element)``
tuple per buffered element and nothing else per element.  ``seq`` is the
PIFO's push counter and therefore unique, so comparing two entries is
decided by ``(rank, seq)`` — rank order, FIFO among ties — and never
reaches the element (a root PIFO mixes packets and ``TreeNode``
references, which do not compare).  Entries are immutable and built by a
tuple display, so a push calls no Python-level function;
:class:`PIFOEntry` names the fields for what ``peek_entry`` /
``pop_entry`` / ``entries()`` hand out.

The interchangeable implementations share one base class and are therefore
behaviourally identical (a property-based suite in
``tests/core/test_pifo_backends.py`` pins the equivalence):

:class:`SortedListPIFO` (alias :data:`PIFO`)
    The reference implementation: one sorted list of entries, ``bisect``
    and a head index.  Pushes are O(n) in the worst case (list insert) but
    fast in practice; pops are O(1) amortised (the head index advances and
    the dead prefix is compacted geometrically).

:class:`CalendarPIFO`
    The same interface with an O(log n) push/pop backed by a heap, used by
    the simulator for large workloads.  The heap holds the entries
    themselves, so heap ordering is PIFO order (rank, then arrival order).

:class:`QuantizedBucketedPIFO`
    A bucket queue keyed by quantised rank, as the hardware's fixed-width
    integer rank fields (Section 5.1) quantise it: a dict of per-slot FIFO
    deques plus a small heap of occupied slots, O(1) amortised push and
    pop.  Elements within one quantum dequeue FIFO; at the default 1 µs
    quantum distinct integer ranks land in distinct slots, so on integer
    ranks it dequeues exactly as :class:`SortedListPIFO` does.

All accept arbitrary elements: packets at the leaves of a scheduling tree,
or references to other PIFOs at interior nodes.  The factory and registry
for selecting a backend by name live in :mod:`repro.core.backend`.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import deque
from functools import partial
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    TypeVar,
)

from ..exceptions import PIFOEmptyError, PIFOFullError

T = TypeVar("T")

#: Rank type.  The paper uses integer ranks in hardware (16 or 32 bits); the
#: reference model accepts any totally ordered value, in particular floats
#: for virtual times and wall-clock departure times.
Rank = float


class PIFOEntry(NamedTuple):
    """A stored ``(rank, seq, element)`` tuple with its fields named, as
    ``peek_entry`` / ``pop_entry`` / ``entries()`` return it.  ``seq`` records
    push order and implements the FIFO tie-breaking rule for equal ranks."""

    rank: Rank
    seq: int
    element: Any


#: Stored tuple -> :class:`PIFOEntry`, built at C level (a NamedTuple's own
#: ``__new__`` / ``_make`` are Python functions).
_as_entry = partial(tuple.__new__, PIFOEntry)
_Stored = Tuple[Rank, int, T]  #: what a backend stores per element


class PIFOBase(Generic[T]):
    """Shared machinery for every PIFO backend.

    Subclasses provide the storage by implementing the hooks
    :meth:`_insert` (unless they fuse :meth:`push`), :meth:`_pop_head`,
    :meth:`_head`, :meth:`_sorted_entries`, :meth:`_clear_storage`,
    :meth:`_rebuild` and ``__len__``, all in terms of stored tuples.
    Everything observable — capacity enforcement, FIFO tie-breaks via the
    sequence number, the push/pop/drop counters, batch operations — lives
    here so the backends cannot drift apart.

    Parameters
    ----------
    capacity:
        Optional bound on the number of buffered elements.  The hardware
        design bounds each PIFO block at 64 K elements (Section 5.1); the
        reference model defaults to unbounded.
    name:
        Optional label used in error messages and debugging output.
    """

    #: Registry name of the backend (see :mod:`repro.core.backend`).
    backend_name = "abstract"

    def __init__(self, capacity: Optional[int] = None, name: str = "pifo") -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        #: Accepted pushes so far: the next entry's ``seq``, and what
        #: :attr:`pushes` reads.
        self._seq = 0
        self.capacity = capacity
        self.name = name
        #: Pushes refused by the capacity bound.
        self.drops = 0
        #: Elements taken out by :meth:`clear` / :meth:`remove`, not popped.
        self.removed = 0

    @property
    def pushes(self) -> int:
        """Elements accepted so far."""
        return self._seq

    @property
    def pops(self) -> int:
        """Elements dequeued from the head so far: every accepted element
        is still buffered, was removed, or was popped."""
        return self._seq - len(self) - self.removed

    # -- storage hooks (implemented by each backend) -------------------------
    def _insert(self, entry: _Stored) -> None:
        raise NotImplementedError

    def _pop_head(self) -> _Stored:
        raise NotImplementedError

    def _head(self) -> _Stored:
        raise NotImplementedError

    def _sorted_entries(self) -> List[_Stored]:
        raise NotImplementedError

    def _clear_storage(self) -> None:
        raise NotImplementedError

    def _rebuild(self, kept: List[_Stored]) -> None:
        """Replace storage with ``kept`` (already in dequeue order)."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    # -- core operations -----------------------------------------------------
    def push(self, element: T, rank: Rank) -> None:
        """Insert ``element`` at the position determined by ``rank``.

        Equal-rank elements retain FIFO order.  Raises
        :class:`~repro.exceptions.PIFOFullError` when the capacity bound
        would be exceeded.
        """
        if self.capacity is not None and len(self) >= self.capacity:
            self.drops += 1
            raise PIFOFullError(
                f"PIFO {self.name!r} is full (capacity={self.capacity})"
            )
        self._insert((rank, self._seq, element))
        self._seq += 1

    def _pop(self) -> _Stored:
        if not len(self):
            raise PIFOEmptyError(f"pop from empty PIFO {self.name!r}")
        return self._pop_head()

    def _peek(self) -> _Stored:
        if not len(self):
            raise PIFOEmptyError(f"peek on empty PIFO {self.name!r}")
        return self._head()

    def pop(self) -> T:
        """Remove and return the head (lowest rank, earliest push)."""
        return self._pop()[2]

    def pop_entry(self) -> PIFOEntry:
        """Like :meth:`pop` but returns the full entry (element and rank)."""
        return _as_entry(self._pop())

    def peek(self) -> T:
        """Return the head element without removing it."""
        return self._peek()[2]

    def peek_rank(self) -> Rank:
        """Return the head element's rank without removing it."""
        return self._peek()[0]

    def peek_entry(self) -> PIFOEntry:
        """Return the head entry without removing it."""
        return _as_entry(self._peek())

    # -- batch fast paths ----------------------------------------------------
    def enqueue_many(self, items: Iterable[Tuple[T, Rank]]) -> int:
        """Push a batch of ``(element, rank)`` pairs; returns how many were
        buffered.

        Unlike :meth:`push`, elements that would exceed the capacity bound
        are *dropped* (counted in :attr:`drops`) instead of raising, so one
        oversized burst does not abort the rest of the batch — the behaviour
        a switch exhibits on buffer exhaustion.
        """
        accepted = 0
        for element, rank in items:
            try:
                self.push(element, rank)
            except PIFOFullError:
                continue
            accepted += 1
        return accepted

    def drain(self) -> List[T]:
        """Pop every element, returning them in dequeue order.

        Equivalent to repeated :meth:`pop` but implemented as one bulk
        operation; used by the simulator and benchmarks as a fast path.
        """
        entries = self._sorted_entries()
        self._clear_storage()
        return [entry[2] for entry in entries]

    # -- introspection -------------------------------------------------------
    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[T]:
        """Iterate elements in dequeue order without removing them."""
        return (entry[2] for entry in self._sorted_entries())

    def entries(self) -> List[PIFOEntry]:
        """Return a snapshot of entries in dequeue order."""
        return list(map(_as_entry, self._sorted_entries()))

    def ranks(self) -> List[Rank]:
        """Return the ranks in dequeue order."""
        return [entry[0] for entry in self._sorted_entries()]

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    def clear(self) -> None:
        """Drop all buffered elements."""
        self.removed += len(self)
        self._clear_storage()

    # -- extended operations used by the switch substrate --------------------
    def remove(self, predicate: Callable[[T], bool]) -> List[T]:
        """Remove and return every element for which ``predicate`` is true.

        Used by buffer management (drop on threshold crossing) and by PFC to
        purge paused flows from a software PIFO.  This is *not* a hardware
        PIFO operation; the hardware model instead masks flows at dequeue
        time (Section 6.2).
        """
        kept: List[_Stored] = []
        removed: List[T] = []
        for entry in self._sorted_entries():
            if predicate(entry[2]):
                removed.append(entry[2])
            else:
                kept.append(entry)
        self._rebuild(kept)
        self.removed += len(removed)
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, len={len(self)})"


class SortedListPIFO(PIFOBase[T]):
    """Reference push-in first-out queue: one sorted list + head index.

    The seed implementation used ``list.pop(0)``, making every dequeue O(n);
    this version advances a head index instead and compacts the dead prefix
    geometrically, so pops are O(1) amortised while pushes keep the simple
    bisect-insert the reference semantics were validated with.  The list
    holds the entries themselves; their order is ``(rank, seq)`` order.
    """

    backend_name = "sorted"

    #: Compact the dead prefix once it exceeds this many slots *and* at
    #: least half the backing list (geometric, so amortised O(1) per pop).
    _COMPACT_MIN = 64

    def __init__(self, capacity: Optional[int] = None, name: str = "pifo") -> None:
        super().__init__(capacity=capacity, name=name)
        #: Sorted from ``_front`` on; consumed slots below it are ``None``.
        #: A non-empty list's last slot is always live (draining clears it).
        self._entries: List[_Stored] = []
        self._front = 0

    def push(self, element: T, rank: Rank) -> None:
        """Fused push: capacity check + entry + insert without the base
        class's extra dispatch (this runs once per packet per hop)."""
        entries = self._entries
        if (self.capacity is not None
                and len(entries) - self._front >= self.capacity):
            self.drops += 1
            raise PIFOFullError(
                f"PIFO {self.name!r} is full (capacity={self.capacity})"
            )
        seq = self._seq
        entry = (rank, seq, element)
        if not entries or entry >= entries[-1]:
            # Monotone ranks (FIFO, arrival-sequence, virtual times under
            # light load) append; the common case costs no bisect or shift.
            entries.append(entry)
        else:
            # bisect_right on (rank, seq): seq is strictly increasing, so an
            # equal rank lands after earlier pushes of that rank (FIFO ties).
            entries.insert(bisect_right(entries, entry, lo=self._front), entry)
        self._seq = seq + 1

    def _pop_head(self) -> _Stored:
        entries = self._entries
        entry = entries[self._front]
        entries[self._front] = None  # type: ignore[call-overload]
        self._front += 1
        if self._front == len(entries):
            self._clear_storage()
        elif self._front >= self._COMPACT_MIN and self._front * 2 >= len(entries):
            del entries[: self._front]
            self._front = 0
        return entry

    def _head(self) -> _Stored:
        return self._entries[self._front]

    def _sorted_entries(self) -> List[_Stored]:
        return self._entries[self._front :]

    def _clear_storage(self) -> None:
        self._entries.clear()
        self._front = 0

    def _rebuild(self, kept: List[_Stored]) -> None:
        self._entries = list(kept)
        self._front = 0

    def __len__(self) -> int:
        return len(self._entries) - self._front


#: Backwards-compatible name: the reference PIFO used throughout the seed.
PIFO = SortedListPIFO


class CalendarPIFO(PIFOBase[T]):
    """Heap-backed PIFO with the same semantics as :class:`SortedListPIFO`.

    Push and pop are O(log n).  Used by the discrete-event simulator when a
    run buffers tens of thousands of packets; behavioural equivalence with
    the reference is enforced by a property-based test.
    """

    backend_name = "calendar"

    def __init__(self, capacity: Optional[int] = None, name: str = "calendar-pifo") -> None:
        super().__init__(capacity=capacity, name=name)
        # The heap holds the entries themselves: tuple comparison runs in C
        # and, because seq is unique, never falls through to the element.
        # This matters — heap sift-downs are the hot loop of large
        # simulations.
        self._heap: List[_Stored] = []

    def _insert(self, entry: _Stored) -> None:
        heapq.heappush(self._heap, entry)

    def _pop_head(self) -> _Stored:
        return heapq.heappop(self._heap)

    def _head(self) -> _Stored:
        return self._heap[0]

    def _sorted_entries(self) -> List[_Stored]:
        return sorted(self._heap)

    def _clear_storage(self) -> None:
        self._heap.clear()

    def _rebuild(self, kept: List[_Stored]) -> None:
        # ``kept`` arrives sorted, which is already a valid heap.
        self._heap = list(kept)

    def __len__(self) -> int:
        return len(self._heap)


class QuantizedBucketedPIFO(PIFOBase[T]):
    """Bucket-queue PIFO keyed by quantised rank.

    The hardware's rank fields are fixed-width integers, so a virtual-time
    or wall-clock rank must be quantised to a slot number before it can be
    stored (Section 5.1's 16/32-bit rank fields are exactly such slots).
    This backend makes that explicit in software: ranks are bucketed by
    ``floor(rank / quantum)``, elements within one quantum dequeue FIFO,
    and the entry keeps its exact rank (``peek_rank`` and shaping release
    times are unquantised).  A dict of per-slot FIFO buckets plus a heap of
    occupied slots gives O(1) amortised push *and* pop: the heap only sees
    one entry per occupied slot, not one per element.

    With the default microsecond quantum, time-ranked algorithms (LSTF,
    FIFO-by-arrival, virtual times) run at a precision far below any
    simulated transmission time, and integer ranks (strict priority,
    arrival sequence numbers) of magnitude below 2**50 each get a slot of
    their own, so they dequeue exactly in (rank, push order).
    """

    backend_name = "quantized"

    #: Default rank quantum: one microsecond of simulated time.
    DEFAULT_QUANTUM = 1e-6

    def __init__(
        self,
        capacity: Optional[int] = None,
        name: str = "quantized-pifo",
        quantum: float = DEFAULT_QUANTUM,
    ) -> None:
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum!r}")
        super().__init__(capacity=capacity, name=name)
        self.quantum = float(quantum)
        self._buckets: Dict[int, Deque[_Stored]] = {}
        self._rank_heap: List[int] = []
        self._size = 0

    def push(self, element: T, rank: Rank) -> None:
        """Fused push: capacity check + bucket append without the base
        class's ``push -> _insert`` double dispatch (mirrors
        :meth:`SortedListPIFO.push`)."""
        if self.capacity is not None and self._size >= self.capacity:
            self.drops += 1
            raise PIFOFullError(
                f"PIFO {self.name!r} is full (capacity={self.capacity})"
            )
        key = math.floor(rank / self.quantum)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = deque()
            heapq.heappush(self._rank_heap, key)
        seq = self._seq
        self._seq = seq + 1
        bucket.append((rank, seq, element))
        self._size += 1

    def _insert(self, entry: _Stored) -> None:
        key = math.floor(entry[0] / self.quantum)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = deque()
            heapq.heappush(self._rank_heap, key)
        bucket.append(entry)
        self._size += 1

    def _min_occupied_key(self) -> int:
        # Lazily discard slots whose bucket has emptied (or duplicate heap
        # entries left behind when a slot was re-occupied).
        heap = self._rank_heap
        while heap:
            key = heap[0]
            if self._buckets.get(key):
                return key
            heapq.heappop(heap)
            self._buckets.pop(key, None)
        raise PIFOEmptyError(f"pop from empty PIFO {self.name!r}")

    def _pop_head(self) -> _Stored:
        key = self._min_occupied_key()
        bucket = self._buckets[key]
        entry = bucket.popleft()
        self._size -= 1
        if not bucket:
            del self._buckets[key]
        return entry

    def _head(self) -> _Stored:
        return self._buckets[self._min_occupied_key()][0]

    def _sorted_entries(self) -> List[_Stored]:
        return [
            entry
            for key in sorted(self._buckets)
            for entry in self._buckets[key]
        ]

    def _clear_storage(self) -> None:
        self._buckets.clear()
        self._rank_heap.clear()
        self._size = 0

    def _rebuild(self, kept: List[_Stored]) -> None:
        self._clear_storage()
        for entry in kept:
            self._insert(entry)

    def __len__(self) -> int:
        return self._size

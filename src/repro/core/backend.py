"""Pluggable PIFO backend layer: protocol, registry and factory.

The paper's thesis is that *one* PIFO primitive can express every scheduling
algorithm; this module makes the primitive's *storage* a first-class,
swappable subsystem so the same algorithm can run on the reference sorted
list, a heap calendar, or a bucket queue keyed by quantised rank — and so
new storage experiments (software sharding, SIMD sort, an FFI kernel) can
slot in without touching any scheduler or simulator code.

A *backend spec* is one of:

* ``None`` — the default backend (:data:`DEFAULT_BACKEND`);
* a registry name: ``"sorted"``, ``"calendar"`` or ``"quantized"`` (the
  bucket queue, ranks quantised to integer slots);
* a backend class (anything implementing :class:`PIFOBackend`), or a
  zero-config callable ``f(capacity=..., name=...)`` returning one.

The layers that build PIFOs accept one: :class:`~repro.core.tree.TreeNode` /
:class:`~repro.core.tree.ScheduleTree`, every tree builder in
:mod:`repro.algorithms`, :class:`~repro.core.scheduler.ProgrammableScheduler`
and, for the switch ports it builds, :class:`~repro.net.fabric.Fabric`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, Type, Union, runtime_checkable

from .pifo import (
    CalendarPIFO,
    PIFOBase,
    PIFOEntry,
    QuantizedBucketedPIFO,
    Rank,
    SortedListPIFO,
)


@runtime_checkable
class PIFOBackend(Protocol):
    """Structural interface every PIFO backend implements.

    Matches :class:`~repro.core.pifo.PIFOBase`; third-party backends only
    need to satisfy this protocol (they do not have to subclass
    ``PIFOBase``, although that is the easy way to stay equivalent).
    """

    capacity: Optional[int]
    name: str
    pushes: int
    pops: int
    drops: int

    def push(self, element, rank: Rank) -> None: ...
    def pop(self): ...
    def pop_entry(self) -> PIFOEntry: ...
    def peek(self): ...
    def peek_rank(self) -> Rank: ...
    def peek_entry(self) -> PIFOEntry: ...
    def enqueue_many(self, items) -> int: ...
    def drain(self) -> list: ...
    def entries(self) -> list: ...
    def ranks(self) -> list: ...
    def remove(self, predicate) -> list: ...
    def clear(self) -> None: ...
    def __len__(self) -> int: ...

    @property
    def is_empty(self) -> bool: ...


#: Spec accepted everywhere a backend can be chosen.
BackendSpec = Union[None, str, Type, Callable[..., "PIFOBackend"]]

#: Name -> class registry.
PIFO_BACKENDS: Dict[str, Type[PIFOBase]] = {
    "sorted": SortedListPIFO,
    "calendar": CalendarPIFO,
    "quantized": QuantizedBucketedPIFO,
}

#: Backend used when a spec is ``None``.
DEFAULT_BACKEND = "sorted"


def available_backends() -> List[str]:
    """Registry names, sorted."""
    return sorted(PIFO_BACKENDS)


def resolve_backend(backend: BackendSpec = None) -> Callable[..., PIFOBackend]:
    """Turn a backend spec into a factory ``f(capacity=..., name=...)``.

    Raises ``ValueError`` for unknown registry names and ``TypeError`` for
    specs that are neither a name, a class, nor a callable.
    """
    if backend is None:
        backend = DEFAULT_BACKEND
    if isinstance(backend, str):
        try:
            return PIFO_BACKENDS[backend.lower()]
        except KeyError:
            raise ValueError(
                f"unknown PIFO backend {backend!r}; available: {available_backends()}"
            ) from None
    if callable(backend):
        return backend
    raise TypeError(
        f"backend spec must be None, a name, a class or a factory, got {backend!r}"
    )


def make_pifo(
    backend: BackendSpec = None,
    capacity: Optional[int] = None,
    name: str = "pifo",
) -> PIFOBackend:
    """Create a PIFO using the given backend spec.

    This is the single construction point every PIFO of a scheduling tree
    goes through.
    """
    return resolve_backend(backend)(capacity=capacity, name=name)


def backend_name(pifo: PIFOBackend) -> str:
    """Registry name of a PIFO instance's backend (class name otherwise)."""
    return getattr(pifo, "backend_name", type(pifo).__name__)

"""Shared-memory switch substrate: cell-accounted buffer and switch."""

from .buffer import (
    DEFAULT_BUFFER_BYTES,
    DEFAULT_CELL_BYTES,
    SharedBuffer,
)
from .switch import (
    DEFAULT_PORT_COUNT,
    DEFAULT_PORT_RATE_BPS,
    PortCounters,
    PortSpec,
    SharedMemorySwitch,
    SwitchStats,
)

__all__ = [
    "SharedBuffer",
    "DEFAULT_BUFFER_BYTES",
    "DEFAULT_CELL_BYTES",
    "SharedMemorySwitch",
    "SwitchStats",
    "PortCounters",
    "PortSpec",
    "DEFAULT_PORT_COUNT",
    "DEFAULT_PORT_RATE_BPS",
]

"""Shared-memory switch substrate: buffer, admission control, switch."""

from .buffer import (
    BufferOccupancy,
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
from .thresholds import (
    AdmissionPolicy,
    AlwaysAdmit,
    DynamicThresholdPolicy,
    StaticThresholdPolicy,
)

__all__ = [
    "SharedBuffer",
    "BufferOccupancy",
    "DEFAULT_BUFFER_BYTES",
    "DEFAULT_CELL_BYTES",
    "AdmissionPolicy",
    "AlwaysAdmit",
    "StaticThresholdPolicy",
    "DynamicThresholdPolicy",
    "SharedMemorySwitch",
    "SwitchStats",
    "PortCounters",
    "PortSpec",
    "DEFAULT_PORT_COUNT",
    "DEFAULT_PORT_RATE_BPS",
]

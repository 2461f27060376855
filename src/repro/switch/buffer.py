"""Shared-memory packet buffer with cell-based accounting.

The paper targets a Broadcom Trident-class shared-memory switch: a 12 MByte
packet buffer carved into 200-byte *cells*, shared by all ports (Section
5.1).  Scheduling is orthogonal to buffering (Section 6.1): before a packet
is enqueued into the scheduler, occupancy counters are checked against
static or dynamic thresholds and the packet is dropped if it would exceed
them.

:class:`SharedBuffer` implements the cell accounting and per-flow / per-port
occupancy counters; admission policies live in
:mod:`repro.switch.thresholds`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.packet import Packet
from ..exceptions import BufferError_

#: Defaults taken from Section 5.1 (Broadcom Trident-class switch).
DEFAULT_BUFFER_BYTES = 12 * 1024 * 1024
DEFAULT_CELL_BYTES = 200


@dataclass
class BufferOccupancy:
    """Snapshot of buffer usage."""

    used_cells: int
    total_cells: int
    used_bytes: int

    @property
    def utilization(self) -> float:
        return self.used_cells / self.total_cells if self.total_cells else 0.0

    @property
    def free_cells(self) -> int:
        return self.total_cells - self.used_cells


class SharedBuffer:
    """Cell-granular shared packet buffer.

    Parameters
    ----------
    capacity_bytes:
        Total buffer size (default 12 MB).
    cell_bytes:
        Cell size; every packet consumes ``ceil(length / cell_bytes)`` cells
        (default 200 B, so a 64 B packet still costs a full cell — the worst
        case the paper sizes the rank store for).
    """

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_BUFFER_BYTES,
        cell_bytes: int = DEFAULT_CELL_BYTES,
    ) -> None:
        if capacity_bytes <= 0 or cell_bytes <= 0:
            raise ValueError("capacity_bytes and cell_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self.cell_bytes = cell_bytes
        self.total_cells = capacity_bytes // cell_bytes
        self.used_cells = 0
        self.used_bytes = 0
        self.cells_by_flow: Dict[str, int] = {}
        self.cells_by_port: Dict[str, int] = {}
        self.drops_no_space = 0

    # -- accounting -----------------------------------------------------------
    def cells_for(self, packet: Packet) -> int:
        """Number of cells a packet occupies."""
        # Integer ceiling division: packet lengths are positive ints, so this
        # is exact and avoids the float round-trip of math.ceil on a path
        # executed several times per packet per hop.
        return (packet.length + self.cell_bytes - 1) // self.cell_bytes

    def occupancy(self) -> BufferOccupancy:
        return BufferOccupancy(
            used_cells=self.used_cells,
            total_cells=self.total_cells,
            used_bytes=self.used_bytes,
        )

    def flow_cells(self, flow: str) -> int:
        return self.cells_by_flow.get(flow, 0)

    def port_cells(self, port: str) -> int:
        return self.cells_by_port.get(port, 0)

    @property
    def free_cells(self) -> int:
        return self.total_cells - self.used_cells

    # -- allocation --------------------------------------------------------------
    def can_admit(self, packet: Packet) -> bool:
        """Is there physically room for this packet?"""
        return self.cells_for(packet) <= self.free_cells

    def allocate(self, packet: Packet, port: str = "") -> int:
        """Reserve cells for a packet; returns the number of cells taken.

        Raises :class:`~repro.exceptions.BufferError_` when the buffer lacks
        space; callers normally check :meth:`can_admit` (or a threshold
        policy) first and drop instead.
        """
        cells = self.cells_for(packet)
        if cells > self.free_cells:
            self.drops_no_space += 1
            raise BufferError_(
                f"buffer full: need {cells} cells, only {self.free_cells} free"
            )
        self.used_cells += cells
        self.used_bytes += packet.length
        self.cells_by_flow[packet.flow] = self.cells_by_flow.get(packet.flow, 0) + cells
        if port:
            self.cells_by_port[port] = self.cells_by_port.get(port, 0) + cells
        return cells

    def release(self, packet: Packet, port: str = "") -> None:
        """Return a packet's cells to the free pool (on transmit or drop)."""
        cells = self.cells_for(packet)
        if cells > self.used_cells:
            raise BufferError_("releasing more cells than are allocated")
        self.used_cells -= cells
        self.used_bytes -= packet.length
        flow_cells = self.cells_by_flow.get(packet.flow, 0)
        if flow_cells < cells:
            raise BufferError_(
                f"flow {packet.flow!r} releasing {cells} cells but holds {flow_cells}"
            )
        self.cells_by_flow[packet.flow] = flow_cells - cells
        if self.cells_by_flow[packet.flow] == 0:
            del self.cells_by_flow[packet.flow]
        if port:
            port_cells = self.cells_by_port.get(port, 0)
            self.cells_by_port[port] = max(0, port_cells - cells)

    def reset(self) -> None:
        """Clear all accounting (fresh run)."""
        self.used_cells = 0
        self.used_bytes = 0
        self.cells_by_flow.clear()
        self.cells_by_port.clear()
        self.drops_no_space = 0

"""Shared-memory packet buffer with cell-based accounting.

The paper targets a Broadcom Trident-class shared-memory switch: a 12 MByte
packet buffer carved into 200-byte *cells*, shared by all ports (Section
5.1).  Scheduling is orthogonal to buffering (Section 6.1): before a packet
is enqueued into the scheduler, the switch checks that its cells fit in the
free part of the buffer and drops it otherwise.

:class:`SharedBuffer` holds the cell occupancy; the switch
(:class:`~repro.switch.switch.SharedMemorySwitch`, and the fabric's fused
ingress) checks it on ingress and releases it on transmit.
"""

from __future__ import annotations

from ..core.packet import Packet

#: Defaults taken from Section 5.1 (Broadcom Trident-class switch).
DEFAULT_BUFFER_BYTES = 12 * 1024 * 1024
DEFAULT_CELL_BYTES = 200


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

    def cells_for(self, packet: Packet) -> int:
        """Number of cells a packet occupies."""
        # Integer ceiling division: packet lengths are positive ints, so this
        # is exact and avoids the float round-trip of math.ceil on a path
        # executed several times per packet per hop.
        return (packet.length + self.cell_bytes - 1) // self.cell_bytes

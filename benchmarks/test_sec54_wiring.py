"""Section 5.4 — interconnecting PIFO blocks with a full mesh.

Regenerates the wiring arithmetic: 106 bits per directed block pair, 20
pairs for a 5-block mesh, 2120 bits total — small compared to the wiring of
an RMT match-action pipeline.
"""

from __future__ import annotations

from conftest import report

from repro.hardware import (
    MeshDesign,
    PAPER_TOTAL_MESH_WIRES,
    PAPER_WIRES_PER_SET,
    PIFOBlock,
    PIFOMesh,
)


def build_mesh_design():
    return MeshDesign()


def test_sec54_wire_counts():
    mesh = build_mesh_design()
    report(
        "Section 5.4: full-mesh wiring",
        [
            {
                "quantity": "bits per wire set",
                "paper": PAPER_WIRES_PER_SET,
                "model": mesh.bits_per_wire_set(),
            },
            {"quantity": "wire sets (5 blocks)", "paper": 20, "model": mesh.wire_sets()},
            {
                "quantity": "total mesh wires",
                "paper": PAPER_TOTAL_MESH_WIRES,
                "model": mesh.total_mesh_wires(),
            },
        ],
    )
    assert mesh.bits_per_wire_set() == PAPER_WIRES_PER_SET
    assert mesh.wire_sets() == 20
    assert mesh.total_mesh_wires() == PAPER_TOTAL_MESH_WIRES


def test_sec54_wiring_growth_with_block_count():
    """Wiring grows quadratically with block count — the reason the paper
    argues a full mesh is only sensible because the number of blocks is
    small (fewer than ~5 levels of hierarchy in practice)."""
    def sweep():
        results = {}
        for count in (2, 3, 5, 8, 16):
            mesh = PIFOMesh()
            for index in range(count):
                mesh.add_block(PIFOBlock(name=f"b{index}"))
            results[count] = mesh.total_mesh_wires()
        return results

    wires = sweep()
    report(
        "Section 5.4: total wires vs number of blocks",
        [{"blocks": count, "total_wires": total} for count, total in wires.items()],
    )
    assert wires[5] == PAPER_TOTAL_MESH_WIRES
    assert wires[16] / wires[5] > 10  # quadratic blow-up

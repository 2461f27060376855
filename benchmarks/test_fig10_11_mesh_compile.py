"""Figures 10-11 / Section 4.3 — compiling trees onto a PIFO mesh.

Regenerates the two compilation examples: HPFQ maps onto two PIFO blocks
(Figure 10b) and Hierarchies-with-Shaping needs a third block for the
TBF_Right shaping PIFO whose next hop enqueues into the root block
(Figure 11b).  Also measures compilation throughput for a 5-level
hierarchy — the configuration the introduction claims the hardware can
support.
"""

from __future__ import annotations

from conftest import report

from repro.algorithms import build_deep_hierarchy, build_fig3_tree, build_fig4_tree
from repro.hardware import compile_tree


def compile_both():
    return compile_tree(build_fig3_tree()), compile_tree(build_fig4_tree())


def test_fig10_11_mesh_configurations():
    hpfq_program, shaped_program = compile_both()
    rows = []
    for name, program in (("HPFQ (Fig 10)", hpfq_program),
                          ("Hierarchies w/ Shaping (Fig 11)", shaped_program)):
        rows.append(
            {
                "algorithm": name,
                "tree_levels": program.levels,
                "pifo_blocks": program.block_count(),
                "blocks": ", ".join(sorted(program.mesh.blocks)),
            }
        )
    report("Figures 10-11: compiled mesh configurations", rows)

    assert hpfq_program.block_count() == 2
    assert shaped_program.block_count() == 3
    # Next-hop tables follow the figures: root dequeues chain to the leaf
    # block; leaf PIFOs transmit; the shaping PIFO enqueues into the root.
    root_slot = hpfq_program.scheduling_assignment["Root"]
    assert hpfq_program.mesh.next_hop(root_slot.block, root_slot.logical_pifo).operation == "dequeue"
    right_shape = shaped_program.shaping_assignment["Right"]
    hop = shaped_program.mesh.next_hop(right_shape.block, right_shape.logical_pifo)
    assert hop.operation == "enqueue"
    assert hop.target_block == shaped_program.scheduling_assignment["Root"].block


def test_five_level_hierarchy_compiles_within_five_blocks():
    """The introduction's headline configuration: a 5-level hierarchical
    scheduler with programmable levels fits the 5-block mesh the area model
    prices out."""
    def compile_deep():
        return compile_tree(build_deep_hierarchy(levels=5, fanout=2, flows_per_leaf=2))

    program = compile_deep()
    report(
        "5-level hierarchy compilation",
        [{"levels": program.levels, "blocks": program.block_count(),
          "logical_pifos": len(program.scheduling_assignment)}],
    )
    assert program.levels == 5
    assert program.block_count() == 5
    assert len(program.scheduling_assignment) == 1 + 2 + 4 + 8 + 16

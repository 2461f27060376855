"""Table 1 — chip-area breakdown of a PIFO block and the 5-block mesh.

Regenerates every row of Table 1 from the analytic area model and checks the
headline claim: a 5-block PIFO mesh (plus 300 atoms for rank computation)
costs about 7.35 mm^2, i.e. <4% of a 200 mm^2 switching chip.
"""

from __future__ import annotations

from conftest import report

from repro.hardware import MeshDesign, PAPER_TABLE1, PIFOBlockDesign


def build_table1():
    mesh = MeshDesign()
    return mesh.table1()


def test_table1_block_and_mesh_area():
    rows = build_table1()
    comparison = [
        {"component": "flow scheduler", "paper_mm2": PAPER_TABLE1["flow_scheduler"],
         "model_mm2": rows["flow_scheduler"]},
        {"component": "rank store", "paper_mm2": PAPER_TABLE1["rank_store"],
         "model_mm2": rows["rank_store"]},
        {"component": "next pointers", "paper_mm2": PAPER_TABLE1["next_pointers"],
         "model_mm2": rows["next_pointers"]},
        {"component": "free list", "paper_mm2": PAPER_TABLE1["free_list"],
         "model_mm2": rows["free_list"]},
        {"component": "head/tail/count", "paper_mm2": PAPER_TABLE1["head_tail_count"],
         "model_mm2": rows["head_tail_count"]},
        {"component": "one PIFO block", "paper_mm2": PAPER_TABLE1["one_block"],
         "model_mm2": rows["one_block"]},
        {"component": "5-block mesh", "paper_mm2": PAPER_TABLE1["mesh_5_blocks"],
         "model_mm2": rows["mesh_blocks"]},
        {"component": "300 atoms", "paper_mm2": PAPER_TABLE1["atoms"],
         "model_mm2": rows["atoms"]},
        {"component": "overhead (%)", "paper_mm2": PAPER_TABLE1["overhead_percent"],
         "model_mm2": rows["overhead_percent"]},
    ]
    report("Table 1: PIFO mesh area breakdown (mm^2)", comparison)
    for row in comparison:
        assert row["model_mm2"] == pytest_approx(row["paper_mm2"], rel=0.03), row["component"]
    assert rows["overhead_percent"] < 4.0


def pytest_approx(value, rel):
    import pytest

    return pytest.approx(value, rel=rel)


def test_table1_block_area_scales_with_rank_store_size():
    """Sensitivity: halving the rank store saves the SRAM rows but not the
    flow scheduler, quantifying where the block's area actually goes."""
    def sweep():
        return {
            entries: PIFOBlockDesign(rank_store_entries=entries).block_area_mm2()
            for entries in (16_000, 32_000, 64_000, 128_000)
        }

    areas = sweep()
    report(
        "Table 1 sensitivity: block area vs rank-store entries",
        [{"entries": k, "block_mm2": v} for k, v in areas.items()],
    )
    assert areas[128_000] > areas[64_000] > areas[16_000]
    # The flow scheduler (0.224 mm^2) never scales with rank-store size.
    assert areas[16_000] > 0.224

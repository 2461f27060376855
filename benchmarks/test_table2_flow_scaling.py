"""Table 2 — flow-scheduler area and 1 GHz timing vs number of flows.

Regenerates the five rows of Table 2 from the calibrated area model: area
grows linearly with the number of flows and timing closes at 1 GHz up to
2048 flows (failing at 4096).
"""

from __future__ import annotations

import pytest
from conftest import report

from repro.hardware import FlowSchedulerDesign, PAPER_TABLE2, table2_rows


def test_table2_area_and_timing_vs_flows():
    rows = table2_rows()
    report(
        "Table 2: flow scheduler area / timing vs #flows",
        [
            {
                "flows": row["flows"],
                "paper_mm2": row["paper_area_mm2"],
                "model_mm2": row["model_area_mm2"],
                "paper_1GHz": row["paper_meets_timing"],
                "model_1GHz": row["model_meets_timing"],
            }
            for row in rows
        ],
    )
    paper = {flows: (area, timing) for flows, area, timing in PAPER_TABLE2}
    for row in rows:
        paper_area, paper_timing = paper[row["flows"]]
        assert row["model_area_mm2"] == pytest.approx(paper_area, rel=0.06)
        assert row["model_meets_timing"] == paper_timing


def test_table2_area_is_linear_in_flows():
    def slope_check():
        small = FlowSchedulerDesign(num_flows=512).area_mm2()
        large = FlowSchedulerDesign(num_flows=2048).area_mm2()
        return large / small

    ratio = slope_check()
    report("Table 2: area(2048 flows) / area(512 flows)", [{"ratio": ratio}])
    assert ratio == pytest.approx(4.0, rel=0.01)

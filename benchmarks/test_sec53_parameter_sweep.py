"""Section 5.3 — flow-scheduler parameter variations.

Regenerates the parameter sweep around the baseline design point: widening
the rank to 32 bits or the metadata to 64 bits raises the area to
0.317 mm^2, growing the number of logical PIFOs to 1024 raises it to
0.233 mm^2, and timing still closes in every case.
"""

from __future__ import annotations

import pytest
from conftest import report

from repro.hardware import (
    FlowSchedulerDesign,
    PAPER_PARAMETER_VARIATIONS,
    parameter_variation_rows,
)


def test_sec53_parameter_variations_match_paper():
    rows = parameter_variation_rows()
    report(
        "Section 5.3: flow-scheduler area under parameter variations",
        [
            {
                "variation": row["variation"],
                "paper_mm2": row["paper_area_mm2"],
                "model_mm2": row["model_area_mm2"],
                "meets_1GHz": row["meets_timing"],
            }
            for row in rows
        ],
    )
    for row in rows:
        assert row["model_area_mm2"] == pytest.approx(
            PAPER_PARAMETER_VARIATIONS[row["variation"]], rel=0.03
        )
        assert row["meets_timing"]


def test_sec53_combined_worst_case_still_feasible():
    """A combined configuration (32-bit rank, 64-bit metadata, 1024 logical
    PIFOs, 2048 flows) stays under 1 mm^2 and meets timing — headroom for
    richer schedulers than the baseline."""
    def build():
        return FlowSchedulerDesign(
            rank_bits=32, metadata_bits=64, num_logical_pifos=1024, num_flows=2048
        )

    design = build()
    report(
        "Section 5.3: combined configuration",
        [{"area_mm2": design.area_mm2(), "meets_1GHz": design.meets_timing_at_1ghz()}],
    )
    assert design.area_mm2() < 1.0
    assert design.meets_timing_at_1ghz()

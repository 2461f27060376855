"""Extensions beyond the paper's core design.

The paper closes by predicting that a programmable PIFO scheduler would seed
a lineage of follow-on designs, and Section 6 sketches extensions that the
hardware design "facilitates" without fully specifying.  This package
implements both kinds of material so they can be compared against the exact
PIFO quantitatively:

* :mod:`repro.extensions.sp_pifo` — SP-PIFO, the best-known follow-on: an
  *approximation* of a PIFO built from a handful of strict-priority FIFO
  queues with dynamic queue bounds.  It trades inversions (packets dequeued
  out of rank order) for a much simpler data structure.  Implemented here so
  the ablation benchmark can quantify how close the approximation gets to
  the exact PIFO this paper builds.
* :mod:`repro.extensions.multi_pipeline` — the Section 6.3 sketch: a PIFO
  block servicing several ingress and egress pipelines, i.e. multiple
  enqueues and dequeues per clock cycle.
"""

from .multi_pipeline import (
    MultiPipelineBlock,
    MultiPipelineStats,
    PipelinePortConfig,
    required_pipelines,
)
from .sp_pifo import (
    InversionReport,
    SPPIFOQueue,
    count_inversions,
    compare_with_exact_pifo,
)

__all__ = [
    "SPPIFOQueue",
    "InversionReport",
    "count_inversions",
    "compare_with_exact_pifo",
    "MultiPipelineBlock",
    "MultiPipelineStats",
    "PipelinePortConfig",
    "required_pipelines",
]

"""Figures 3 and 4 built from program text, on a chosen lang back end.

The strongest programmability claim in the paper is that whole hierarchies —
Figure 3's HPFQ and Figure 4's Hierarchies-with-Shaping — are expressible as
program text alone.  Every node of
:func:`repro.algorithms.build_fig3_tree` and
:func:`repro.algorithms.build_fig4_tree` already runs a compiled STFQ or
token-bucket program, so these builders return the very same trees; they
add the ``backend`` knob, the lang execution back end (``"compiled"``, the
default, or ``"interpreted"``) passed to every program.  ``pifo_backend``
selects the PIFO storage backend (see :mod:`repro.core.backend`).
"""

from __future__ import annotations

from typing import Optional

from ..algorithms.hierarchies_with_shaping import FIG4_RIGHT_RATE_BPS, fig4_spec
from ..algorithms.hpfq import build_hierarchy as _build_hierarchy, fig3_spec
from ..core.backend import BackendSpec
from ..core.tree import ScheduleTree


def build_fig3_tree_from_programs(
    backend: Optional[str] = None,
    pifo_backend: BackendSpec = None,
) -> ScheduleTree:
    """Figure 3's HPFQ hierarchy (:func:`repro.algorithms.build_fig3_tree`)."""
    return _build_hierarchy(fig3_spec(), pifo_backend=pifo_backend,
                            backend=backend)


def build_fig4_tree_from_programs(
    right_rate_bps: float = FIG4_RIGHT_RATE_BPS,
    backend: Optional[str] = None,
    pifo_backend: BackendSpec = None,
) -> ScheduleTree:
    """Figure 4: HPFQ plus a token-bucket program on class Right
    (:func:`repro.algorithms.build_fig4_tree`)."""
    return _build_hierarchy(fig4_spec(right_rate_bps=right_rate_bps),
                            pifo_backend=pifo_backend, backend=backend)

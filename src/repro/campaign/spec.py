"""Campaign declarations and deterministic run-table expansion.

A :class:`Campaign` declares experiment *factors* — scenarios, scheduler
variants, PIFO backends, transaction-language backends, load scales and
seed replicates — and :meth:`Campaign.expand` multiplies them into an
ordered run table of :class:`RunSpec` entries.  The expansion is a pure
function of the declaration: the same campaign always yields the same
specs in the same order, which is what makes sharded execution and
resume-by-fingerprint sound.

A :class:`RunSpec` is deliberately *flat* — strings, numbers and booleans
only — so it pickles across :mod:`multiprocessing` workers and serialises
into the JSONL result store untouched.  Scenario/variant names are resolved
against the scenario registry inside the worker, never shipped as code.

Each run's RNG seed is derived with
:func:`~repro.core.seeds.derive_seed` from ``(base_seed, workload_id)``,
where the workload identifier encodes the factor levels that define the
offered traffic (scenario, load scale, replicate).  Seeds are therefore
reproducible regardless of worker count or execution order, replicates
get independent streams, and runs differing only in scheduler variant,
PIFO backend or lang backend replay the *identical* workload — the
paired comparison the sweep exists to make.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from ..core.seeds import derive_seed

#: Factor columns of the run table, in expansion (outer-to-inner) order.
FACTOR_KEYS = (
    "scenario",
    "variant",
    "pifo_backend",
    "lang_backend",
    "load_scale",
    "replicate",
)


@dataclass(frozen=True)
class RunSpec:
    """One row of a campaign's run table (pickle- and JSON-safe)."""

    campaign: str
    scenario: str
    variant: str
    #: PIFO backend registry name; ``None`` = the substrate default.
    pifo_backend: Optional[str]
    #: ``"compiled"`` / ``"interpreted"`` selects the back end every
    #: variant's programs run on; ``None`` = each variant's default.
    lang_backend: Optional[str]
    load_scale: float
    replicate: int
    quick: bool
    #: Derived RNG seed for this run (see :meth:`Campaign.expand`).
    seed: int
    #: Record per-hop / per-port telemetry during the run.  Off by default
    #: in sweeps: results are provably identical (the lockstep equivalence
    #: suite), only the optional observability output differs.
    telemetry: bool = False

    @property
    def run_id(self) -> str:
        """Stable human-readable identifier encoding every factor level."""
        return "/".join([
            self.scenario,
            self.variant,
            self.pifo_backend or "default",
            self.lang_backend or "native",
            f"x{self.load_scale:g}",
            f"r{self.replicate}",
        ])

    @property
    def workload_id(self) -> str:
        """The factor levels that *define the offered traffic*.

        Scenario, load scale and replicate shape the workload; scheduler
        variant, PIFO backend and lang backend are substrate choices that
        must be compared on the identical packet stream.  Seeds therefore
        derive from this identifier, not from :attr:`run_id` — see
        :meth:`Campaign.expand`.
        """
        return f"{self.scenario}/x{self.load_scale:g}/r{self.replicate}"

    def to_dict(self) -> Dict:
        return {
            "campaign": self.campaign,
            "scenario": self.scenario,
            "variant": self.variant,
            "pifo_backend": self.pifo_backend,
            "lang_backend": self.lang_backend,
            "load_scale": self.load_scale,
            "replicate": self.replicate,
            "quick": self.quick,
            "seed": self.seed,
            "telemetry": self.telemetry,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "RunSpec":
        return cls(**{key: payload.get(key, False) if key == "telemetry"
                      else payload[key] for key in (
            "campaign", "scenario", "variant", "pifo_backend", "lang_backend",
            "load_scale", "replicate", "quick", "seed", "telemetry",
        )})

    def fingerprint(self) -> str:
        """Content hash of the run configuration (not its results).

        Two runs with identical fingerprints would execute the identical
        simulation, which is exactly the predicate ``--resume`` needs to
        skip already-completed work.  ``telemetry`` is deliberately
        excluded: it is pure observability (the lockstep equivalence suite
        proves results are identical either way), so toggling it must not
        invalidate completed runs — and stores written before the flag
        existed keep resuming cleanly.
        """
        payload = self.to_dict()
        del payload["telemetry"]
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class Campaign:
    """A declarative parameter sweep over the scenario registry."""

    name: str
    title: str
    #: Scenario registry names to sweep.
    scenarios: Sequence[str]
    #: Variant labels to run; ``None`` sweeps every variant of each scenario
    #: (in the scenario's declaration order).
    variants: Optional[Sequence[str]] = None
    pifo_backends: Sequence[Optional[str]] = (None,)
    lang_backends: Sequence[Optional[str]] = (None,)
    load_scales: Sequence[float] = (1.0,)
    replicates: int = 1
    base_seed: int = 0
    #: Per-hop / per-port telemetry during runs.  Off by default: sweeps
    #: consume aggregate records, and the hot path is ~25% faster without
    #: the per-packet bookkeeping.  Results are identical either way.
    telemetry: bool = False
    description: str = ""
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError(f"campaign {self.name!r} sweeps no scenarios")
        if self.variants is not None and not self.variants:
            raise ValueError(
                f"campaign {self.name!r}: variants must be non-empty "
                "(or None to sweep every scenario variant)"
            )
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not self.pifo_backends or not self.lang_backends or not self.load_scales:
            raise ValueError("factor level lists must be non-empty")

    def _variants_for(self, scenario_name: str) -> List[str]:
        if self.variants is not None:
            return list(self.variants)
        from ..net import get_scenario  # deferred: avoids an import cycle

        return list(get_scenario(scenario_name).variants)

    def expand(self, quick: bool = False) -> List[RunSpec]:
        """The deterministic run table: the full factor cross-product.

        Expansion order is the nested-loop order of :data:`FACTOR_KEYS`
        (scenario outermost, replicate innermost).  Each spec's seed is
        ``derive_seed(base_seed, workload_id)`` — a pure function of the
        factor levels that define the offered traffic (scenario, load
        scale, replicate), independent of expansion or execution order.
        Runs that differ only in scheduler variant, PIFO backend or lang
        backend share a seed *deliberately*: those factors are compared on
        the identical packet stream (paired comparisons), while replicates
        and load levels get independent streams.
        """
        specs: List[RunSpec] = []
        for scenario_name in self.scenarios:
            for variant in self._variants_for(scenario_name):
                for pifo_backend in self.pifo_backends:
                    for lang_backend in self.lang_backends:
                        for load_scale in self.load_scales:
                            for replicate in range(self.replicates):
                                spec = RunSpec(
                                    campaign=self.name,
                                    scenario=scenario_name,
                                    variant=variant,
                                    pifo_backend=pifo_backend,
                                    lang_backend=lang_backend,
                                    load_scale=float(load_scale),
                                    replicate=replicate,
                                    quick=quick,
                                    seed=0,
                                    telemetry=self.telemetry,
                                )
                                specs.append(replace(
                                    spec,
                                    seed=derive_seed(self.base_seed,
                                                     spec.workload_id),
                                ))
        return specs

    def size(self) -> int:
        """Number of runs the campaign expands to (without expanding)."""
        per_scenario = (
            len(self.pifo_backends) * len(self.lang_backends)
            * len(self.load_scales) * self.replicates
        )
        return sum(
            len(self._variants_for(name)) * per_scenario
            for name in self.scenarios
        )

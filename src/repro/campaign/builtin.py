"""Built-in campaigns and the campaign registry.

The flagship is :data:`PAPER_SWEEP`: the paper's two fabric scenarios
(``fig6_chain``, ``leaf_spine_fct``) swept across all three PIFO storage
backends and both transaction-language execution backends — 24 runs that
demonstrate the substrate's headline claim (one scheduler substrate, many
algorithms, interchangeable storage and execution layers) as a single
command: ``repro campaign run paper_sweep --quick``.

Campaigns register by name in :data:`CAMPAIGNS`, mirroring the scenario
and experiment registries, so the CLI and tests discover them uniformly.
"""

from __future__ import annotations

from typing import Dict, List

from .spec import Campaign

CAMPAIGNS: Dict[str, Campaign] = {}


def register_campaign(campaign: Campaign) -> Campaign:
    """Add a campaign to the registry (idempotent by name)."""
    CAMPAIGNS[campaign.name] = campaign
    return campaign


def get_campaign(name: str) -> Campaign:
    try:
        return CAMPAIGNS[name]
    except KeyError:
        known = ", ".join(sorted(CAMPAIGNS))
        raise KeyError(
            f"unknown campaign {name!r}; known campaigns: {known}"
        ) from None


def list_campaigns() -> List[Campaign]:
    return [CAMPAIGNS[name] for name in sorted(CAMPAIGNS)]


FAULT_SWEEP = register_campaign(Campaign(
    name="fault_sweep",
    title="Fault scenarios x PIFO backends",
    scenarios=["chain_flap", "dead_spine"],
    pifo_backends=["sorted", "calendar"],
    description=(
        "Both fault-injection scenarios (flapping chain link, dead spine) "
        "across two PIFO storage backends: 8 runs exercising scheduling "
        "under failing links and switches, with exact lost_to_faults "
        "conservation accounting."
    ),
    notes=(
        "Each run executes the scenario's FaultPlan as simulator events; "
        "routing reconverges on every topology change and blackholed "
        "packets land in the lost_to_faults counter, so "
        "injected == delivered + dropped + lost_to_faults + in_flight "
        "holds for every record."
    ),
))


PAPER_SWEEP = register_campaign(Campaign(
    name="paper_sweep",
    title="Fabric scenarios x PIFO backends x lang backends",
    scenarios=["fig6_chain", "leaf_spine_fct"],
    pifo_backends=["sorted", "calendar", "quantized"],
    lang_backends=["compiled", "interpreted"],
    description=(
        "Both fabric scenarios, all three PIFO storage structures (sorted "
        "list, heap calendar, and the bucket queue via its quantized "
        "real-rank front), both transaction-language execution backends: "
        "24 runs showing the same algorithms behave identically across "
        "the substrate's interchangeable layers."
    ),
    notes=(
        "Every variant's programs run on the swept lang backend (FIFO "
        "runs its program too, off its native fast path); seeds derive "
        "from (base_seed, workload_id), so every backend combination "
        "replays the identical workload."
    ),
))

"""Network fabric layer: topologies, routing, multi-hop simulation.

The paper's headline claims are about *networks* — LSTF minimises urgent
delay across hops, SRPT/pFabric comparisons run on fabrics — while the
substrate below this package simulates one port.  :mod:`repro.net` closes
that gap:

* :mod:`~repro.net.topology` — :class:`Network` graphs of :class:`Host` /
  :class:`SwitchNode` objects joined by :class:`Link`\\ s (rate +
  propagation delay), with :func:`linear_chain`, :func:`dumbbell` and
  :func:`leaf_spine` builders;
* :mod:`~repro.net.routing` — static shortest-path forwarding tables with
  an ECMP option (stable CRC32 flow hashing);
* :mod:`~repro.net.fabric` — :class:`Fabric` instantiates a
  :class:`~repro.switch.SharedMemorySwitch` per node and chains egress
  ports to next-hop ingress through the
  :class:`~repro.sim.link.OutputPort` delivery hook, stamping per-hop
  timestamps on every packet;
* :mod:`~repro.net.scenario` — the declarative :class:`Scenario` engine
  (topology + traffic matrix + scheduler variants + metrics) and registry;
* :mod:`~repro.net.scenarios` — built-in fabric scenarios (``fig6_chain``,
  ``leaf_spine_fct``, plus the fault scenarios ``chain_flap`` and
  ``dead_spine``) consumed by the experiment registry and CLI;
* :mod:`~repro.net.faults` — declarative :class:`FaultPlan` schedules of
  link/switch failures and probabilistic loss, executed against a live
  fabric with exact ``lost_to_faults`` conservation accounting.

Any scheduler and any PIFO backend that runs on a single
:class:`~repro.sim.link.OutputPort` runs unmodified on any topology.
"""

from .fabric import Fabric, HostInjector
from .faults import (
    FaultInjector,
    FaultPlan,
    LinkDown,
    LinkLoss,
    LinkUp,
    SwitchDown,
    SwitchUp,
    flapping_link,
)
from .routing import build_forwarding_tables, hop_distances, next_hops, path
from .scenario import (
    SCENARIOS,
    Demand,
    Scenario,
    ScenarioResult,
    get_scenario,
    list_scenarios,
    register,
)
from .scenarios import CHAIN_FLAP, DEAD_SPINE, FIG6_CHAIN, LEAF_SPINE_FCT
from .topology import (
    DEFAULT_LINK_RATE_BPS,
    Host,
    Link,
    Network,
    SwitchNode,
    dumbbell,
    leaf_spine,
    linear_chain,
)

__all__ = [
    "Network",
    "Host",
    "SwitchNode",
    "Link",
    "DEFAULT_LINK_RATE_BPS",
    "linear_chain",
    "dumbbell",
    "leaf_spine",
    "hop_distances",
    "next_hops",
    "path",
    "build_forwarding_tables",
    "Fabric",
    "HostInjector",
    "Demand",
    "Scenario",
    "ScenarioResult",
    "SCENARIOS",
    "register",
    "get_scenario",
    "list_scenarios",
    "FIG6_CHAIN",
    "LEAF_SPINE_FCT",
    "CHAIN_FLAP",
    "DEAD_SPINE",
    "FaultPlan",
    "FaultInjector",
    "LinkDown",
    "LinkUp",
    "SwitchDown",
    "SwitchUp",
    "LinkLoss",
    "flapping_link",
]

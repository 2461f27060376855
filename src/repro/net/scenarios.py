"""Built-in fabric scenarios.

Two scenarios upgrade the paper's single-port experiments to real
multi-hop fabrics:

* :data:`FIG6_CHAIN` — Figure 6's LSTF-vs-FIFO urgent-packet claim on a
  three-switch chain with cross traffic entering at every hop.  LSTF's
  whole point is multi-hop: a packet that lost slack queueing at hop 1
  jumps ahead at hops 2 and 3, which a single congested port cannot show.
* :data:`LEAF_SPINE_FCT` — the Section 3.4 SRPT-vs-FIFO flow-completion
  claim on a 4-leaf / 2-spine Clos fabric with ECMP and two senders
  converging on each receiver (incast at the receiver's access link).

Both register themselves in :data:`~repro.net.scenario.SCENARIOS` on
import, and the experiment registry (:mod:`repro.reporting.experiments`)
wraps them so ``repro run fig6 --quick`` and ``repro run leaf_spine_fct
--quick`` execute fabric runs.
"""

from __future__ import annotations

import random
from typing import Iterator, Tuple

from ..algorithms.fifo import FIFOTransaction
from ..core.packet import Packet
from ..core.scheduler import ProgrammableScheduler
from ..core.tree import single_node_tree
from ..lang.programs import fifo_program, fine_grained_program, lstf_program
from .faults import FaultPlan, LinkLoss, SwitchDown, flapping_link
from .scenario import Demand, Scenario, VariantBuilder, register
from .topology import leaf_spine, linear_chain


def _single_node(make_transaction) -> VariantBuilder:
    """A variant running ``make_transaction(lang_backend)`` as a one-node
    tree on every switch port."""

    def for_backend(lang_backend, pifo_backend):
        def factory(switch: str, port: str) -> ProgrammableScheduler:
            return ProgrammableScheduler(
                single_node_tree(make_transaction(lang_backend)),
                pifo_backend=pifo_backend)

        return factory

    return for_backend


def _fifo(lang_backend):
    """FIFO stays native, the fused fast path; naming a lang back end runs
    its program so the campaign's back-end factor reaches every variant."""
    if lang_backend is None:
        return FIFOTransaction()
    return fifo_program(backend=lang_backend)


_FIFO = _single_node(_fifo)
_LSTF = _single_node(lambda backend: lstf_program(backend=backend))
_SRPT = _single_node(
    lambda backend: fine_grained_program("remaining_size", backend=backend))


# --------------------------------------------------------------------------- #
# Figure 6 on a 3-hop chain                                                    #
# --------------------------------------------------------------------------- #
CHAIN_LINK_RATE = 10e6
CHAIN_HOPS = 3
#: End-to-end slack budget carried by urgent packets (seconds).
URGENT_SLACK = 0.02
#: Relaxed slack carried by everything else.
BULK_SLACK = 0.5


def _fig6_mix(seed: int = 0) -> Iterator[Tuple[float, Packet]]:
    """The congested urgent/bulk mix of Figure 6, addressed h_src -> h_dst."""
    rng = random.Random(seed)
    time = 0.0
    for index in range(200):
        time += rng.expovariate(2000.0)
        urgent = index % 10 == 0
        yield time, Packet(
            flow="urgent" if urgent else "bulk",
            length=600,
            fields={"slack": URGENT_SLACK if urgent else BULK_SLACK},
        )


def build_fig6_chain() -> Scenario:
    """LSTF vs per-hop FIFO on a linear chain with per-hop cross traffic."""
    demands = [
        Demand(src="h_src", dst="h_dst", kind="explicit", arrivals=_fig6_mix),
    ]
    # One cross-traffic host per switch, all draining toward h_dst, so every
    # hop of the main path is congested (offered load grows hop by hop).
    for hop in range(1, CHAIN_HOPS + 1):
        demands.append(
            Demand(
                src=f"c{hop}", dst="h_dst", kind="cbr",
                rate_bps=7e6, packet_size=1500,
                flow=f"cross{hop}", fields={"slack": BULK_SLACK},
            )
        )
    return Scenario(
        name="fig6_chain",
        title="Figure 6: LSTF vs per-hop FIFO on a 3-switch chain",
        topology=lambda: linear_chain(
            CHAIN_HOPS, link_rate_bps=CHAIN_LINK_RATE, cross_hosts=True
        ),
        demands=demands,
        variants={"LSTF": _LSTF, "FIFO": _FIFO},
        duration=0.2,
        quick_duration=0.12,
        keep_packets=False,
        paper_reference="Figure 6, Section 3.1",
        notes=(
            "Urgent packets carry a 20 ms end-to-end slack; the fabric "
            "stamps each hop's queueing delay into prev_wait_time and LSTF "
            "re-ranks on remaining slack at every switch, so urgent packets "
            "that lost slack early overtake bulk later.  Per-hop FIFO has "
            "no such recourse and blows the budget."
        ),
    )


# --------------------------------------------------------------------------- #
# Section 3.4 FCT on a leaf-spine fabric                                       #
# --------------------------------------------------------------------------- #
LEAF_SPINE_RATE = 1e9
FCT_LOAD = 0.4e9


def build_leaf_spine_fct() -> Scenario:
    """SRPT vs FIFO flow completion times on a 4-leaf / 2-spine Clos."""
    pairs = [
        ("h0_0", "h2_0"), ("h1_0", "h2_0"),   # incast onto h2_0
        ("h0_1", "h3_0"), ("h1_1", "h3_0"),   # incast onto h3_0
    ]
    # Seeds are derived per demand from (scenario base seed, flow name), so
    # the four senders offer independent flow arrival processes.
    demands = [
        Demand(src=src, dst=dst, kind="flows", rate_bps=FCT_LOAD,
               flow=f"{src}->{dst}")
        for src, dst in pairs
    ]
    return Scenario(
        name="leaf_spine_fct",
        title="Section 3.4: SRPT vs FIFO FCT on a leaf-spine fabric",
        topology=lambda: leaf_spine(
            leaves=4, spines=2, hosts_per_leaf=2,
            host_rate_bps=LEAF_SPINE_RATE,
        ),
        demands=demands,
        variants={"SRPT": _SRPT, "FIFO": _FIFO},
        duration=0.15,
        quick_duration=0.05,
        ecmp=True,
        keep_packets=False,
        paper_reference="Section 3.4",
        notes=(
            "Two senders on different leaves converge on each receiver, so "
            "the receiver's access link is the bottleneck; flows spread "
            "across both spines by ECMP flow hashing.  SRPT (rank = "
            "remaining flow size, a one-line transaction) completes short "
            "flows ahead of long ones and shortens mean and tail FCT "
            "against per-hop FIFO on the identical workload."
        ),
    )


# --------------------------------------------------------------------------- #
# Fault scenarios: scheduling under failing links and switches                  #
# --------------------------------------------------------------------------- #
def build_chain_flap() -> Scenario:
    """LSTF vs FIFO on a 3-switch chain whose middle hop flaps.

    The s1-s2 link goes down for 20 ms out of every 50 ms (three cycles),
    and the s2-s3 link drops half a percent of packets throughout.  Each
    outage strands the main path: s1's egress queue builds while the link
    is dark, the packet on the wire at failure time is blackholed into
    ``lost_to_faults``, and the backlog bursts out on recovery — exactly
    the regime where LSTF's re-ranking on remaining slack should recover
    urgent packets that lost their budget waiting out the flap, while
    per-hop FIFO drains the backlog in arrival order.
    """
    demands = [
        Demand(src="h_src", dst="h_dst", kind="poisson", rate_bps=6e6,
               packet_size=1500, flow="bulk", fields={"slack": BULK_SLACK}),
        Demand(src="h_src", dst="h_dst", kind="poisson", rate_bps=0.5e6,
               packet_size=600, flow="urgent", fields={"slack": URGENT_SLACK}),
    ]
    plan = FaultPlan(
        events=flapping_link("s1", "s2", first_down=0.03, downtime=0.02,
                             period=0.05, cycles=3),
        losses=(LinkLoss("s2", "s3", rate=0.005),),
    )
    return Scenario(
        name="chain_flap",
        title="Fault injection: LSTF vs FIFO across a flapping middle hop",
        topology=lambda: linear_chain(CHAIN_HOPS,
                                      link_rate_bps=CHAIN_LINK_RATE),
        demands=demands,
        variants={"LSTF": _LSTF, "FIFO": _FIFO},
        duration=0.2,
        quick_duration=0.1,
        keep_packets=False,
        fault_plan=plan,
        paper_reference="Section 3.1 (robustness extension)",
        notes=(
            "Urgent and bulk Poisson streams share the chain; the middle "
            "link flaps down 20 ms of every 50 ms and the last hop loses "
            "0.5% of packets.  Conservation holds throughout: "
            "injected == delivered + dropped + lost_to_faults + in_flight."
        ),
    )


def build_dead_spine() -> Scenario:
    """SRPT vs FIFO FCT on a leaf-spine fabric that loses one spine.

    ``spine1`` fails 15 ms in and never recovers.  ECMP reconverges onto
    ``spine0``, halving fabric capacity: flows hashed onto the dead spine
    lose their in-flight packets to ``lost_to_faults``, everything after
    the reconvergence shares the surviving spine.  SRPT's short-flow
    advantage should persist (and matter more) on the degraded fabric.
    """
    pairs = [
        ("h0_0", "h2_0"), ("h1_0", "h2_0"),
        ("h0_1", "h3_0"), ("h1_1", "h3_0"),
    ]
    demands = [
        Demand(src=src, dst=dst, kind="flows", rate_bps=FCT_LOAD,
               flow=f"{src}->{dst}")
        for src, dst in pairs
    ]
    return Scenario(
        name="dead_spine",
        title="Fault injection: SRPT vs FIFO with one dead spine",
        topology=lambda: leaf_spine(
            leaves=4, spines=2, hosts_per_leaf=2,
            host_rate_bps=LEAF_SPINE_RATE,
        ),
        demands=demands,
        variants={"SRPT": _SRPT, "FIFO": _FIFO},
        duration=0.15,
        quick_duration=0.05,
        ecmp=True,
        keep_packets=False,
        fault_plan=FaultPlan(events=(SwitchDown(0.015, "spine1"),)),
        paper_reference="Section 3.4 (robustness extension)",
        notes=(
            "spine1 dies at t=15 ms and stays dead; ECMP reconverges onto "
            "spine0.  Packets queued inside or in flight toward the dead "
            "spine are blackholed into lost_to_faults; the remaining "
            "traffic completes over half the fabric."
        ),
    )


FIG6_CHAIN = register(build_fig6_chain())
LEAF_SPINE_FCT = register(build_leaf_spine_fct())
CHAIN_FLAP = register(build_chain_flap())
DEAD_SPINE = register(build_dead_spine())

"""Write a scheduling algorithm as program text and run it (Section 4.1).

The paper's workflow is: write the scheduling/shaping transaction as a small
program (the figures' listings), compile it, check it fits the switch's atom
budget, and attach it to a PIFO.  This example does all four steps with the
transaction language in :mod:`repro.lang`:

1. compile Figure 1's STFQ listing and schedule a backlogged workload,
2. write a *custom* algorithm (deadline-aware weighted fairness) that exists
   in no textbook, to show the scheduler really is programmable,
3. print the Domino-style atom pipeline report for both,
4. show the native Python closure the program actually runs as — programs
   execute compiled by default (:mod:`repro.lang.compiler`), not by
   walking the AST per packet.

Run it with::

    python examples/transaction_language_tour.py
"""

from __future__ import annotations

from repro.core import Packet, ProgrammableScheduler, single_node_tree
from repro.lang import compile_scheduling_program
from repro.lang.programs import STFQ_SOURCE, stfq_program

#: A scheduling algorithm that is not in the paper: packets carry a deadline
#: and a weight class; urgent packets (deadline within `horizon`) are served
#: earliest-deadline-first, everything else falls back to weighted fairness
#: by accumulating per-flow virtual service.
CUSTOM_SOURCE = """
// Deadline-aware weighted fairness
f = flow(p)
if f in service
    service[f] = service[f] + p.length / f.weight
else
    service[f] = p.length / f.weight
if p.deadline <= now + horizon
    p.rank = p.deadline - boost     // urgent: schedule by deadline
else
    p.rank = service[f]             // relaxed: weighted fair queueing
"""


def run_stfq_from_source() -> None:
    print("=== 1. Figure 1's STFQ, straight from the listing ===")
    print(STFQ_SOURCE.strip())
    scheduler = ProgrammableScheduler(
        single_node_tree(stfq_program(weights={"video": 3.0, "bulk": 1.0}))
    )
    for _ in range(8):
        scheduler.enqueue(Packet(flow="video", length=1500))
        scheduler.enqueue(Packet(flow="bulk", length=1500))
    order = [packet.flow for packet in scheduler.drain()]
    print("\ndeparture order:", " ".join(order))
    print("video holds 3 of every 4 slots: Figure 1's 3:1 weighted share\n")


def run_custom_algorithm() -> None:
    print("=== 2. A custom algorithm the paper never mentions ===")
    print(CUSTOM_SOURCE.strip())
    weights = {"tenantA": 4.0, "tenantB": 1.0}
    transaction = compile_scheduling_program(
        CUSTOM_SOURCE,
        state={"service": {}},
        params={"horizon": 0.010, "boost": 1_000_000.0},
        flow_attrs={"weight": lambda flow: weights.get(flow, 1.0)},
        name="deadline-aware-wfq",
        require_line_rate=True,
    )
    scheduler = ProgrammableScheduler(single_node_tree(transaction))

    # tenantA and tenantB are both backlogged; one tenantB packet is urgent.
    for index in range(6):
        scheduler.enqueue(
            Packet(flow="tenantA", length=1500, fields={"deadline": 1.0 + index}),
            now=0.0,
        )
        scheduler.enqueue(
            Packet(flow="tenantB", length=1500, fields={"deadline": 1.0 + index}),
            now=0.0,
        )
    scheduler.enqueue(
        Packet(flow="tenantB", length=200, fields={"deadline": 0.004}), now=0.0
    )
    order = [(packet.flow, packet.length) for packet in scheduler.drain()]
    print("\ndeparture order:", order)
    print("the urgent 200-byte tenantB packet jumps the whole backlog;")
    print("the rest follows the 4:1 weighted fair split\n")


def show_atom_pipelines() -> None:
    print("=== 3. Does it fit at line rate? (Section 4.1) ===")
    for name, transaction in (
        ("stfq", stfq_program()),
        ("deadline-aware-wfq", compile_scheduling_program(
            CUSTOM_SOURCE,
            state={"service": {}},
            params={"horizon": 0.010, "boost": 1e6},
            flow_attrs={"weight": lambda flow: 1.0},
            name="deadline-aware-wfq",
        )),
    ):
        pipeline = transaction.pipeline_report()
        print(
            f"{name:20s} feasible={pipeline.feasible}  atoms={pipeline.total_atoms}  "
            f"depth={pipeline.pipeline_depth}  area={pipeline.area_mm2:.4f} mm^2"
        )


def show_generated_code() -> None:
    print("\n=== 4. What actually runs per packet ===")
    transaction = stfq_program(weights={"video": 3.0, "bulk": 1.0})
    print(f"execution backend: {transaction.backend}")
    generated = transaction.generated_source()
    if generated is None:
        print("(interpreter fallback active — no generated source to show)")
        return
    print(generated.rstrip())
    print("\nper-packet cost is one function call; the interpreter AST walk")
    print("is only a fallback (or forced with backend='interpreted')")


if __name__ == "__main__":
    run_stfq_from_source()
    run_custom_algorithm()
    show_atom_pipelines()
    show_generated_code()

"""Section 3.4 — fine-grained priority scheduling (SJF / SRPT / LAS).

Regenerates: mean and tail flow completion times on a heavy-tailed workload,
comparing SRPT and SJF (one-line PIFO transactions) against FIFO.  Paper
claim: programming these algorithms is trivial with a PIFO; their benefit
(as established in the literature the paper cites) is much lower FCT for
short flows.
"""

from __future__ import annotations

from conftest import report

from repro.algorithms import (
    FIFOTransaction,
    LeastAttainedServiceTransaction,
    ShortestJobFirstTransaction,
    SRPTTransaction,
)
from repro.core import ProgrammableScheduler, single_node_tree
from repro.metrics import fct_summary
from repro.sim import OutputPort, PacketSource, Simulator
from repro.traffic import flow_arrivals, web_search_flow_sizes

LINK_RATE = 1e9
DURATION = 0.3
LOAD = 0.7


def run_with(transaction):
    sim = Simulator()
    scheduler = ProgrammableScheduler(single_node_tree(transaction))
    port = OutputPort(sim, scheduler, rate_bps=LINK_RATE)
    arrivals = flow_arrivals(
        "flow", load_bps=LOAD * LINK_RATE, duration=DURATION,
        size_distribution=web_search_flow_sizes(), seed=42,
    )
    PacketSource(sim, port, arrivals)
    sim.run(until=DURATION * 2)
    return port.sink.packets


def summarise(packets):
    overall = fct_summary(packets)
    short = fct_summary(packets, max_size_bytes=100_000)
    return overall, short


def test_sec34_srpt_and_sjf_beat_fifo_on_short_flow_fct():
    def run_all():
        return {
            "FIFO": summarise(run_with(FIFOTransaction())),
            "SJF": summarise(run_with(ShortestJobFirstTransaction())),
            "SRPT": summarise(run_with(SRPTTransaction())),
            "LAS": summarise(run_with(LeastAttainedServiceTransaction())),
        }

    results = run_all()
    report(
        "Section 3.4: flow completion times, heavy-tailed web-search workload",
        [
            {
                "scheduler": name,
                "flows": overall.count,
                "mean_fct_ms": overall.mean * 1e3,
                "p99_fct_ms": overall.p99 * 1e3,
                "short_flow_mean_fct_ms": short.mean * 1e3,
            }
            for name, (overall, short) in results.items()
        ],
    )
    fifo_overall, fifo_short = results["FIFO"]
    for name in ("SJF", "SRPT"):
        overall, short = results[name]
        assert overall.count == fifo_overall.count
        # Size-aware scheduling improves short-flow and mean FCT vs FIFO.
        assert short.mean <= fifo_short.mean
        assert overall.mean <= fifo_overall.mean * 1.05
    # SRPT is at least as good as SJF on mean FCT (it uses strictly more
    # information).
    assert results["SRPT"][0].mean <= results["SJF"][0].mean * 1.05

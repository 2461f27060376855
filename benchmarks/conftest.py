"""Shared helpers for the benchmark/experiment harness.

Every module in this directory regenerates one table or figure of the paper
(see DESIGN.md's per-experiment index).  Each benchmark:

* runs the experiment once (speed is measured by ``bench/`` alone),
* prints a small paper-vs-measured table with ``report()``, and
* asserts the qualitative claim (who wins, by roughly what factor).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.core import ProgrammableScheduler
from repro.sim import OutputPort, PacketSource, Simulator
from repro.traffic import FlowSpec, cbr_arrivals, merge_arrivals


def report(title: str, rows: Iterable[Mapping]) -> None:
    """Print a small aligned table (shown with pytest -s or on failure)."""
    rows = list(rows)
    if not rows:
        print(f"\n== {title} == (no rows)")
        return
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(_fmt(row[column])) for row in rows))
        for column in columns
    }
    print(f"\n== {title} ==")
    print("  ".join(str(column).ljust(widths[column]) for column in columns))
    for row in rows:
        print("  ".join(_fmt(row[column]).ljust(widths[column]) for column in columns))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def run_overload_experiment(
    tree,
    flow_rates_bps: Mapping[str, float],
    link_rate_bps: float,
    duration_s: float,
    packet_size: int = 1500,
    scheduler=None,
):
    """Drive a scheduler with CBR overload on one port; return the port."""
    sim = Simulator()
    sched = scheduler if scheduler is not None else ProgrammableScheduler(tree)
    port = OutputPort(sim, sched, rate_bps=link_rate_bps, name="port0")
    streams = [
        cbr_arrivals(FlowSpec(name=flow, rate_bps=rate, packet_size=packet_size),
                     duration=duration_s)
        for flow, rate in flow_rates_bps.items()
    ]
    PacketSource(sim, port, merge_arrivals(*streams))
    sim.run(until=duration_s)
    return port


def measured_shares(port, flows: Sequence[str], start: float, end: float):
    """Byte shares of the given flows over [start, end]."""
    shares = port.sink.share_by_flow(start=start, end=end)
    return {flow: shares.get(flow, 0.0) for flow in flows}

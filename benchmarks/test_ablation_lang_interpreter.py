"""Ablation (Section 4.1) — the transaction-language execution backends.

The paper's transactions are *programs* compiled by Domino onto atom
pipelines; this reproduction runs each program two ways: by the
AST-walking interpreter, and lowered to native Python closures by
:mod:`repro.lang.compiler` (the default, and what
:class:`repro.algorithms.STFQTransaction` returns).  This module checks
that:

* both produce identical schedules, and the same as the
  :mod:`repro.algorithms` name (the benchmarks are only meaningful if the
  comparison is apples-to-apples), and
* the interpreter's overhead is a bounded constant factor (so it remains a
  usable fallback).

How fast the compiled backend computes ranks is measured by ``bench/``
(``lang.compiler.rank_ns_per_call``), not here.
"""

from __future__ import annotations

import time

from conftest import report

from repro.algorithms import STFQTransaction
from repro.core import Packet, ProgrammableScheduler, TransactionContext, single_node_tree
from repro.lang.programs import stfq_program

FLOWS = ["a", "b", "c", "d"]
WEIGHTS = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
PACKETS = 2_000


def _drive(transaction) -> list:
    scheduler = ProgrammableScheduler(single_node_tree(transaction))
    for i in range(PACKETS):
        flow = FLOWS[i % len(FLOWS)]
        scheduler.enqueue(Packet(flow=flow, length=1000 + (i % 7) * 100))
    return [(p.flow, p.length) for p in scheduler.drain()]


def test_ablation_program_backends_match_hand_written():
    def run():
        return _drive(stfq_program(weights=WEIGHTS))

    compiled_order = run()
    interpreted_order = _drive(stfq_program(weights=WEIGHTS, backend="interpreted"))
    # repro.algorithms' STFQ: the compiled program, built by its class name.
    hand_order = _drive(STFQTransaction(weights=WEIGHTS))
    assert compiled_order == hand_order
    assert interpreted_order == hand_order

    report(
        "Ablation: transaction language back ends vs repro.algorithms STFQ",
        [
            {"implementation": "STFQTransaction (compiled program)",
             "packets": PACKETS,
             "departure_order_identical": True},
            {"implementation": "compiled program", "packets": PACKETS,
             "departure_order_identical": compiled_order == hand_order},
            {"implementation": "interpreted program", "packets": PACKETS,
             "departure_order_identical": interpreted_order == hand_order},
        ],
    )


def time_ranks(transaction, count=3_000):
    """Seconds to compute ``count`` ranks/send-times with ``transaction``."""
    ctx = TransactionContext(now=0.0, node="n", element_flow="a", element_length=1000)
    packet = Packet(flow="a", length=1000)
    start = time.perf_counter()
    for _ in range(count):
        transaction(packet, ctx)
    return time.perf_counter() - start


def test_ablation_interpreter_overhead_is_constant_factor():
    """Per-packet rank computation cost of the interpreted program stays a
    (small) constant factor over ``STFQTransaction``, the compiled one."""

    def run():
        hand = time_ranks(STFQTransaction(weights=WEIGHTS))
        interpreted = time_ranks(stfq_program(weights=WEIGHTS, backend="interpreted"))
        return hand, interpreted

    hand_s, interpreted_s = run()
    slowdown = interpreted_s / max(hand_s, 1e-9)
    report(
        "Ablation: per-rank computation cost (3 K ranks)",
        [
            {"implementation": "STFQTransaction (compiled program)",
             "seconds": hand_s, "slowdown": 1.0},
            {"implementation": "interpreted program", "seconds": interpreted_s,
             "slowdown": slowdown},
        ],
    )
    # The interpreter walks a small AST per packet; anything beyond ~200x
    # would signal an accidental complexity blow-up rather than constant
    # interpretation overhead.
    assert slowdown < 200

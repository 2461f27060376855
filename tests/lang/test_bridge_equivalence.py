"""Compiled programs must implement the paper's figures.

Every catalogue entry but FIFO, arrival sequence and stop-and-go is
defined once, as program text in :mod:`repro.lang.programs`; its name in
:mod:`repro.algorithms` returns that program.  These tests restate each
figure's arithmetic in a few lines of plain Python, drive the program with
identical packet sequences (including hypothesis-generated ones) and
require identical ranks, send times and departure orders.  Stop-and-go
still has a native class, which the program is compared against.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Packet, ProgrammableScheduler, TransactionContext, single_node_tree
from repro.algorithms import (
    SRPTTransaction,
    StopAndGoShapingTransaction,
)
from repro.exceptions import TransactionError
from repro.lang import RuntimeLangError, compile_scheduling_program, compile_shaping_program
from repro.lang.programs import (
    DEFAULT_FACTORIES,
    PROGRAM_SOURCES,
    fine_grained_program,
    lstf_program,
    min_rate_program,
    stfq_program,
    stop_and_go_program,
    token_bucket_program,
)


def make_ctx(flow, length, now=0.0):
    return TransactionContext(now=now, node="n", element_flow=flow, element_length=length)


def stfq_reference(arrivals, weights):
    """Figure 1 by hand: the start tags of ``(flow, length)`` arrivals that
    are all enqueued before any dequeue (virtual time stays 0)."""
    virtual_time, last_finish, starts = 0.0, {}, []
    for flow, length in arrivals:
        start = max(virtual_time, last_finish.get(flow, virtual_time))
        last_finish[flow] = start + length / weights.get(flow, 1.0)
        starts.append(start)
    return starts


def token_bucket_reference(arrivals, rate, burst):
    """Figure 4c by hand: send times of ``(now, length)`` arrivals and the
    final ``(tokens, last_time)``, starting from a full bucket."""
    tokens, last_time, send_times = burst, 0.0, []
    for now, length in arrivals:
        tokens = min(tokens + rate * (now - last_time), burst)
        if length <= tokens:
            send_times.append(now)
        else:
            send_times.append(now + (length - tokens) / rate)
        tokens -= length
        last_time = now
    return send_times, (tokens, last_time)


def min_rate_reference(arrivals, rates, burst):
    """Figure 8 by hand, one bucket per flow: the ranks of ``(flow, length,
    now)`` arrivals; a flow without a positive rate is always over."""
    buckets, ranks = {}, []
    for flow, length, now in arrivals:
        rate = rates.get(flow, 0.0)
        if rate <= 0:
            ranks.append(1)
            continue
        tokens, last_time = buckets.get(flow, (burst, 0.0))
        tokens = min(tokens + rate * (now - last_time), burst)
        if tokens > length:
            ranks.append(0)
            tokens -= length
        else:
            ranks.append(1)
        buckets[flow] = (tokens, now)
    return ranks


# --------------------------------------------------------------------------- #
# STFQ (Figure 1)                                                             #
# --------------------------------------------------------------------------- #
class TestSTFQEquivalence:
    def ranks(self, arrivals, weights):
        compiled = stfq_program(weights=weights)
        return [compiled(Packet(flow=flow, length=length),
                         make_ctx(flow, length))
                for flow, length in arrivals]

    def test_single_flow_ranks_match(self):
        arrivals = [("a", 1000)] * 20
        assert self.ranks(arrivals, {}) == [1000.0 * i for i in range(20)]

    def test_weights_are_converted_once_at_construction(self):
        # The accessor runs per rank computation and only looks up; integer
        # weights still divide as floats, a bad one fails up front.
        program = stfq_program(weights={"gold": 4}, default_weight=2)
        weight_of = program.flow_attrs["weight"]
        assert (weight_of("gold"), weight_of("other")) == (4.0, 2.0)
        assert all(type(weight_of(flow)) is float for flow in ("gold", "other"))
        with pytest.raises((TypeError, ValueError)):
            stfq_program(weights={"gold": "heavy"})

    def test_two_flows_with_weights(self):
        weights = {"gold": 4.0, "bronze": 1.0}
        sequence = ["gold", "bronze", "gold", "gold", "bronze", "gold", "bronze"]
        arrivals = [(flow, 1500) for flow in sequence]
        assert self.ranks(arrivals, weights) == pytest.approx(
            stfq_reference(arrivals, weights))

    def test_dequeue_side_virtual_time_update(self):
        compiled = stfq_program()
        packet = Packet(flow="a", length=1000)
        compiled(packet, make_ctx("a", 1000))
        # Dequeuing an element with rank 123 advances virtual_time to it.
        ctx = TransactionContext(now=0.0, node="n", element_flow="a",
                                 element_length=1000, extras={"rank": 123.0})
        compiled.on_dequeue(packet, ctx)
        assert compiled.state["virtual_time"] == 123.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.integers(min_value=64, max_value=9000),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_property_identical_ranks_on_random_sequences(self, arrivals):
        weights = {"a": 1.0, "b": 2.0, "c": 0.5, "d": 4.0}
        assert self.ranks(arrivals, weights) == pytest.approx(
            stfq_reference(arrivals, weights))

    def test_full_scheduler_departure_order_matches(self):
        weights = {"a": 3.0, "b": 1.0}
        scheduler = ProgrammableScheduler(single_node_tree(stfq_program(weights=weights)))
        arrivals = [("a" if i % 3 else "b", 1000 + (i % 5) * 100)
                    for i in range(30)]
        for index, (flow, length) in enumerate(arrivals):
            scheduler.enqueue(Packet(flow=flow, length=length,
                                     fields={"index": index}))
        starts = stfq_reference(arrivals, weights)
        expected = sorted(range(len(arrivals)), key=lambda i: (starts[i], i))
        assert [p.get("index") for p in scheduler.drain()] == expected


# --------------------------------------------------------------------------- #
# Token bucket (Figure 4c)                                                    #
# --------------------------------------------------------------------------- #
class TestTokenBucketEquivalence:
    RATE = 10e6 / 8.0
    BURST = 3000.0

    def send_times(self, compiled, arrivals):
        return [compiled(Packet(flow="r", length=length),
                         make_ctx("r", length, now))
                for now, length in arrivals]

    def test_burst_then_spacing(self):
        compiled = token_bucket_program(rate_bytes_per_s=self.RATE,
                                        burst_bytes=self.BURST)
        arrivals = [(0.0, 1500)] * 10
        expected, _ = token_bucket_reference(arrivals, self.RATE, self.BURST)
        assert self.send_times(compiled, arrivals) == pytest.approx(expected)
        # Two packets ride the full bucket; the rest are spaced at rate r.
        assert expected[:2] == [0.0, 0.0] and expected[2] > 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=0.01, allow_nan=False),
                st.integers(min_value=64, max_value=9000),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_property_identical_send_times(self, gaps_and_lengths):
        compiled = token_bucket_program(rate_bytes_per_s=self.RATE,
                                        burst_bytes=self.BURST)
        arrivals, now = [], 0.0
        for gap, length in gaps_and_lengths:
            now += gap
            arrivals.append((now, length))
        expected, _ = token_bucket_reference(arrivals, self.RATE, self.BURST)
        send_times = self.send_times(compiled, arrivals)
        assert send_times == pytest.approx(expected)
        assert all(send >= now - 1e-12 for send, (now, _) in zip(send_times, arrivals))

    def test_state_trajectories_match(self):
        compiled = token_bucket_program(rate_bytes_per_s=self.RATE,
                                        burst_bytes=self.BURST)
        arrivals = [(now, 1200) for now in (0.0, 0.0001, 0.0002, 0.01, 0.0101, 0.5)]
        self.send_times(compiled, arrivals)
        _, (tokens, last_time) = token_bucket_reference(
            arrivals, self.RATE, self.BURST)
        assert compiled.state["tokens"] == pytest.approx(tokens)
        assert compiled.state["last_time"] == pytest.approx(last_time)


# --------------------------------------------------------------------------- #
# LSTF (Figure 6)                                                             #
# --------------------------------------------------------------------------- #
class TestLSTFEquivalence:
    def test_rank_is_decremented_slack(self):
        packet = Packet(flow="a", length=500, fields={"slack": 10.0, "prev_wait_time": 3.0})
        assert lstf_program()(packet, make_ctx("a", 500)) == 7.0
        # The consumed wait is reset, so the next hop subtracts only its own.
        assert packet.get("prev_wait_time") == 0

    def test_slack_written_back_to_packet(self):
        compiled = lstf_program()
        packet = Packet(flow="a", length=500, fields={"slack": 10.0, "prev_wait_time": 4.0})
        compiled(packet, make_ctx("a", 500))
        assert packet.get("slack") == 6.0

    def test_missing_slack_raises(self):
        compiled = lstf_program()
        packet = Packet(flow="a", length=500)
        with pytest.raises((RuntimeLangError, TransactionError)):
            compiled(packet, make_ctx("a", 500))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_property_departure_order_matches(self, slack_wait_pairs):
        scheduler = ProgrammableScheduler(single_node_tree(lstf_program()))
        for index, (slack, wait) in enumerate(slack_wait_pairs):
            fields = {"slack": slack, "prev_wait_time": wait, "index": index}
            scheduler.enqueue(Packet(flow="f", length=100, fields=fields))
        expected = sorted(range(len(slack_wait_pairs)),
                          key=lambda i: (slack_wait_pairs[i][0]
                                         - slack_wait_pairs[i][1], i))
        assert [p.get("index") for p in scheduler.drain()] == expected


# --------------------------------------------------------------------------- #
# Stop-and-Go (Figure 7)                                                      #
# --------------------------------------------------------------------------- #
class TestStopAndGoEquivalence:
    FRAME = 0.001

    def test_release_at_frame_end(self):
        hand = StopAndGoShapingTransaction(frame_length=self.FRAME)
        compiled = stop_and_go_program(frame_length=self.FRAME)
        # Arrivals inside consecutive frames (never idle for a whole frame),
        # where the paper's single-if update and the generalised while-loop
        # update agree.
        arrival_times = [0.0, 0.0002, 0.0009, 0.0011, 0.0015, 0.0021, 0.0028]
        for now in arrival_times:
            packet = Packet(flow="s", length=200)
            send_hand = hand(packet, make_ctx("s", 200, now))
            send_prog = compiled(packet, make_ctx("s", 200, now))
            assert send_prog == pytest.approx(send_hand)
            assert send_prog >= now

    def test_all_packets_in_a_frame_share_a_release_time(self):
        compiled = stop_and_go_program(frame_length=self.FRAME)
        releases = set()
        for now in (0.0, 0.0001, 0.0004, 0.0009):
            packet = Packet(flow="s", length=200)
            releases.add(compiled(packet, make_ctx("s", 200, now)))
        assert len(releases) == 1

    def test_frame_advances_monotonically(self):
        compiled = stop_and_go_program(frame_length=self.FRAME)
        previous = 0.0
        for now in (0.0, 0.0005, 0.0012, 0.0024, 0.0036, 0.0048):
            packet = Packet(flow="s", length=200)
            release = compiled(packet, make_ctx("s", 200, now))
            assert release >= previous
            previous = release


# --------------------------------------------------------------------------- #
# Minimum rate guarantees (Figure 8)                                          #
# --------------------------------------------------------------------------- #
class TestMinRateEquivalence:
    RATE_BPS = 8e6  # 1 MB/s
    BURST = 3000.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from("abc"),
                st.integers(min_value=64, max_value=1500),
                st.floats(min_value=0.0, max_value=0.005, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_per_flow_priority_flips_match_reference(self, arrivals):
        rates = {"a": self.RATE_BPS, "b": self.RATE_BPS / 10.0}
        compiled = min_rate_program(rates, burst_bytes=self.BURST)
        timed, now = [], 0.0
        for flow, length, gap in arrivals:
            now += gap
            timed.append((flow, length, now))
        ranks = [compiled(Packet(flow=flow, length=length),
                          make_ctx(flow, length, now))
                 for flow, length, now in timed]
        bytes_per_s = {flow: rate / 8.0 for flow, rate in rates.items()}
        assert ranks == min_rate_reference(timed, bytes_per_s, self.BURST)

    def test_ranks_are_binary(self):
        compiled = min_rate_program({"g": 8e6}, burst_bytes=3000.0)
        for i in range(50):
            packet = Packet(flow="g", length=1500)
            rank = compiled(packet, make_ctx("g", 1500, i * 1e-4))
            assert rank in (0, 1)


# --------------------------------------------------------------------------- #
# Fine-grained priorities (Section 3.4)                                       #
# --------------------------------------------------------------------------- #
class TestFineGrainedEquivalence:
    def test_srpt_matches_hand_written(self):
        # Section 3.4's SRPT is the one-line program p.rank = p.remaining_size.
        srpt = SRPTTransaction()
        assert srpt.program_name == "rank-from-remaining_size"
        for remaining in (100, 5000, 1, 250000):
            packet = Packet(flow="x", length=1500, fields={"remaining_size": remaining})
            assert srpt(packet, make_ctx("x", 1500)) == remaining

    def test_invalid_field_name_rejected(self):
        with pytest.raises(ValueError):
            fine_grained_program("not a valid identifier")


# --------------------------------------------------------------------------- #
# Construction-time checks                                                    #
# --------------------------------------------------------------------------- #
class TestCompilationChecks:
    def test_scheduling_program_must_set_rank(self):
        compiled = compile_scheduling_program("x = 1")
        with pytest.raises(RuntimeLangError):
            compiled(Packet(flow="a", length=100), make_ctx("a", 100))

    def test_shaping_program_must_set_send_time_or_rank(self):
        compiled = compile_shaping_program("x = 1")
        with pytest.raises(RuntimeLangError):
            compiled(Packet(flow="a", length=100), make_ctx("a", 100))

    def test_require_line_rate_accepts_paper_programs(self):
        transaction = compile_scheduling_program(
            PROGRAM_SOURCES["stfq"],
            state={"virtual_time": 0.0, "last_finish": {}},
            flow_attrs={"weight": lambda flow: 1.0},
            require_line_rate=True,
        )
        report = transaction.pipeline_report()
        assert report.feasible

    def test_reset_restores_initial_state(self):
        compiled = stfq_program()
        packet = Packet(flow="a", length=1000)
        compiled(packet, make_ctx("a", 1000))
        assert compiled.state["last_finish"]
        compiled.reset()
        assert compiled.state["last_finish"] == {}
        assert compiled.state["virtual_time"] == 0.0

    def test_reset_does_not_share_table_between_instances(self):
        first = stfq_program()
        second = stfq_program()
        first(Packet(flow="a", length=1000), make_ctx("a", 1000))
        assert second.state["last_finish"] == {}

    def test_default_factories_build_working_transactions(self):
        for name, factory in DEFAULT_FACTORIES.items():
            transaction = factory()
            report = transaction.pipeline_report()
            assert report.feasible, name

    def test_describe_mentions_program_name(self):
        assert "stfq" in stfq_program().describe()

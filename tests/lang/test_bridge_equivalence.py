"""Compiled programs must behave like the hand-written algorithm classes.

The same scheduling algorithms exist twice in the library: hand-written
transaction classes in :mod:`repro.algorithms` and program text in
:mod:`repro.lang.programs`.  These tests drive both with identical packet
sequences (including hypothesis-generated ones) and require identical ranks,
send times and departure orders — the strongest evidence that the language
implements the paper's figures faithfully.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Packet, ProgrammableScheduler, TransactionContext, single_node_tree
from repro.algorithms import (
    LSTFTransaction,
    MinRateTransaction,
    STFQTransaction,
    SRPTTransaction,
    StopAndGoShapingTransaction,
    TokenBucketShapingTransaction,
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


# --------------------------------------------------------------------------- #
# STFQ (Figure 1)                                                             #
# --------------------------------------------------------------------------- #
class TestSTFQEquivalence:
    def make_pair(self, weights=None):
        weights = weights or {}
        return (
            STFQTransaction(weights=weights),
            stfq_program(weights=weights),
        )

    def test_single_flow_ranks_match(self):
        hand, compiled = self.make_pair()
        for i in range(20):
            packet = Packet(flow="a", length=1000)
            ctx = make_ctx("a", 1000)
            assert hand(packet, ctx) == compiled(packet, make_ctx("a", 1000))

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
        hand, compiled = self.make_pair(weights)
        sequence = ["gold", "bronze", "gold", "gold", "bronze", "gold", "bronze"]
        for flow in sequence:
            packet = Packet(flow=flow, length=1500)
            assert hand(packet, make_ctx(flow, 1500)) == pytest.approx(
                compiled(packet, make_ctx(flow, 1500))
            )

    def test_dequeue_side_virtual_time_update(self):
        hand, compiled = self.make_pair()
        packet = Packet(flow="a", length=1000)
        hand(packet, make_ctx("a", 1000))
        compiled(packet, make_ctx("a", 1000))
        # Simulate dequeuing an element with rank 123: both must advance
        # virtual_time identically.
        ctx = TransactionContext(now=0.0, node="n", element_flow="a",
                                 element_length=1000, extras={"rank": 123.0})
        hand.on_dequeue(packet, ctx)
        compiled.on_dequeue(packet, ctx)
        assert hand.state["virtual_time"] == compiled.state["virtual_time"] == 123.0

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
        hand, compiled = self.make_pair(weights)
        for flow, length in arrivals:
            packet = Packet(flow=flow, length=length)
            rank_hand = hand(packet, make_ctx(flow, length))
            rank_prog = compiled(packet, make_ctx(flow, length))
            assert rank_prog == pytest.approx(rank_hand)

    def test_full_scheduler_departure_order_matches(self):
        weights = {"a": 3.0, "b": 1.0}
        hand_sched = ProgrammableScheduler(single_node_tree(STFQTransaction(weights=weights)))
        prog_sched = ProgrammableScheduler(single_node_tree(stfq_program(weights=weights)))
        packets = []
        for i in range(30):
            flow = "a" if i % 3 else "b"
            packets.append((flow, 1000 + (i % 5) * 100))
        for flow, length in packets:
            hand_sched.enqueue(Packet(flow=flow, length=length))
            prog_sched.enqueue(Packet(flow=flow, length=length))
        hand_order = [(p.flow, p.length) for p in hand_sched.drain()]
        prog_order = [(p.flow, p.length) for p in prog_sched.drain()]
        assert hand_order == prog_order


# --------------------------------------------------------------------------- #
# Token bucket (Figure 4c)                                                    #
# --------------------------------------------------------------------------- #
class TestTokenBucketEquivalence:
    RATE_BPS = 10e6
    BURST = 3000.0

    def make_pair(self):
        hand = TokenBucketShapingTransaction(rate_bps=self.RATE_BPS, burst_bytes=self.BURST)
        compiled = token_bucket_program(
            rate_bytes_per_s=self.RATE_BPS / 8.0, burst_bytes=self.BURST
        )
        return hand, compiled

    def test_burst_then_spacing(self):
        hand, compiled = self.make_pair()
        now = 0.0
        for i in range(10):
            packet = Packet(flow="r", length=1500)
            ctx_h = make_ctx("r", 1500, now)
            ctx_c = make_ctx("r", 1500, now)
            assert hand(packet, ctx_h) == pytest.approx(compiled(packet, ctx_c))

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
        hand, compiled = self.make_pair()
        now = 0.0
        for gap, length in gaps_and_lengths:
            now += gap
            packet = Packet(flow="r", length=length)
            send_hand = hand(packet, make_ctx("r", length, now))
            send_prog = compiled(packet, make_ctx("r", length, now))
            assert send_prog == pytest.approx(send_hand)
            assert send_prog >= now - 1e-12

    def test_state_trajectories_match(self):
        hand, compiled = self.make_pair()
        times = [0.0, 0.0001, 0.0002, 0.01, 0.0101, 0.5]
        for now in times:
            packet = Packet(flow="r", length=1200)
            hand(packet, make_ctx("r", 1200, now))
            compiled(packet, make_ctx("r", 1200, now))
        assert compiled.state["tokens"] == pytest.approx(hand.state["tokens"])
        assert compiled.state["last_time"] == pytest.approx(hand.state["last_time"])


# --------------------------------------------------------------------------- #
# LSTF (Figure 6)                                                             #
# --------------------------------------------------------------------------- #
class TestLSTFEquivalence:
    def test_rank_is_decremented_slack(self):
        hand = LSTFTransaction()
        compiled = lstf_program()
        packet_h = Packet(flow="a", length=500, fields={"slack": 10.0, "prev_wait_time": 3.0})
        packet_c = Packet(flow="a", length=500, fields={"slack": 10.0, "prev_wait_time": 3.0})
        assert hand(packet_h, make_ctx("a", 500)) == compiled(packet_c, make_ctx("a", 500)) == 7.0

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
        hand_sched = ProgrammableScheduler(single_node_tree(LSTFTransaction()))
        prog_sched = ProgrammableScheduler(single_node_tree(lstf_program()))
        for index, (slack, wait) in enumerate(slack_wait_pairs):
            fields = {"slack": slack, "prev_wait_time": wait, "index": index}
            hand_sched.enqueue(Packet(flow="f", length=100, fields=dict(fields)))
            prog_sched.enqueue(Packet(flow="f", length=100, fields=dict(fields)))
        hand_order = [p.get("index") for p in hand_sched.drain()]
        prog_order = [p.get("index") for p in prog_sched.drain()]
        assert hand_order == prog_order


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

    def test_single_flow_priority_flips_match(self):
        hand = MinRateTransaction(min_rates_bps={"g": self.RATE_BPS},
                                  burst_bytes=self.BURST)
        compiled = min_rate_program(
            min_rate_bytes_per_s=self.RATE_BPS / 8.0, burst_bytes=self.BURST
        )
        # Back-to-back packets exhaust the bucket (rank flips 0 -> 1); a long
        # idle period refills it (rank returns to 0).
        schedule = [0.0, 0.0001, 0.0002, 0.0003, 0.0004, 0.0005, 0.5, 0.5001]
        hand_ranks, prog_ranks = [], []
        for now in schedule:
            packet = Packet(flow="g", length=1500)
            hand_ranks.append(hand(packet, make_ctx("g", 1500, now)))
            prog_ranks.append(compiled(packet, make_ctx("g", 1500, now)))
        assert prog_ranks == hand_ranks
        assert 0 in prog_ranks and 1 in prog_ranks

    def test_ranks_are_binary(self):
        compiled = min_rate_program(min_rate_bytes_per_s=1e6, burst_bytes=3000.0)
        for i in range(50):
            packet = Packet(flow="g", length=1500)
            rank = compiled(packet, make_ctx("g", 1500, i * 1e-4))
            assert rank in (0, 1)


# --------------------------------------------------------------------------- #
# Fine-grained priorities (Section 3.4)                                       #
# --------------------------------------------------------------------------- #
class TestFineGrainedEquivalence:
    def test_srpt_matches_hand_written(self):
        hand = SRPTTransaction()
        compiled = fine_grained_program("remaining_size")
        for remaining in (100, 5000, 1, 250000):
            packet = Packet(flow="x", length=1500, fields={"remaining_size": remaining})
            assert hand(packet, make_ctx("x", 1500)) == compiled(packet, make_ctx("x", 1500))

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

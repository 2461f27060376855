"""Tests for the token-bucket shaping transaction (Figure 4c)."""

from __future__ import annotations

import pytest

from repro.algorithms import TokenBucketShapingTransaction
from repro.core import Packet, TransactionContext


def ctx(now, length):
    return TransactionContext(now=now, element_length=length)


class TestTokenBucketShapingTransaction:
    def test_burst_sends_immediately(self):
        txn = TokenBucketShapingTransaction(rate_bps=8e6, burst_bytes=3000)
        send = txn(Packet(flow="A", length=1500), ctx(0.0, 1500))
        assert send == pytest.approx(0.0)

    def test_exhausted_bucket_delays_send(self):
        txn = TokenBucketShapingTransaction(rate_bps=8e6, burst_bytes=1000)
        txn(Packet(flow="A", length=1000), ctx(0.0, 1000))  # drains the bucket
        send = txn(Packet(flow="A", length=1000), ctx(0.0, 1000))
        # 1000 bytes at 1 MB/s (8 Mbit/s) -> 1 ms.
        assert send == pytest.approx(0.001)

    def test_long_burst_spaced_at_exactly_rate(self):
        txn = TokenBucketShapingTransaction(rate_bps=8e6, burst_bytes=1000)
        sends = [
            txn(Packet(flow="A", length=1000), ctx(0.0, 1000)) for _ in range(5)
        ]
        gaps = [b - a for a, b in zip(sends, sends[1:])]
        assert all(gap == pytest.approx(0.001) for gap in gaps)

    def test_tokens_replenish_while_idle_up_to_burst(self):
        txn = TokenBucketShapingTransaction(rate_bps=8e6, burst_bytes=2000)
        txn(Packet(flow="A", length=2000), ctx(0.0, 2000))
        # After 10 seconds idle the bucket is full again (but capped at B).
        send = txn(Packet(flow="A", length=2000), ctx(10.0, 2000))
        assert send == pytest.approx(10.0)

    def test_paper_pseudocode_token_arithmetic(self):
        """Follow Figure 4c step by step for a deterministic sequence."""
        txn = TokenBucketShapingTransaction(rate_bps=8e6, burst_bytes=1500,
                                            initial_tokens_bytes=500)
        # now=0: tokens=500, packet 1000 > tokens -> send at (1000-500)/1e6 = 0.5ms
        send1 = txn(Packet(flow="A", length=1000), ctx(0.0, 1000))
        assert send1 == pytest.approx(0.0005)
        assert txn.state["tokens"] == pytest.approx(-500.0)
        # now=1ms: replenish 1000 bytes -> tokens=500; packet 400 fits.
        send2 = txn(Packet(flow="A", length=400), ctx(0.001, 400))
        assert send2 == pytest.approx(0.001)
        assert txn.state["tokens"] == pytest.approx(100.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TokenBucketShapingTransaction(rate_bps=0, burst_bytes=100)
        with pytest.raises(ValueError):
            TokenBucketShapingTransaction(rate_bps=1e6, burst_bytes=0)

    def test_reset_refills_bucket(self):
        txn = TokenBucketShapingTransaction(rate_bps=8e6, burst_bytes=1000)
        txn(Packet(flow="A", length=1000), ctx(0.0, 1000))
        txn.reset()
        assert txn.state["tokens"] == 1000


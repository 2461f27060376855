"""Tests for the bucket-queue backend (ranks quantised to integer slots)."""

from __future__ import annotations

import pytest

from repro.core import QuantizedBucketedPIFO, make_pifo


class TestQuantizedBucketedPIFO:
    def test_registry_names(self):
        assert type(make_pifo("quantized")) is QuantizedBucketedPIFO

    def test_accepts_float_ranks(self):
        pifo = QuantizedBucketedPIFO()
        pifo.push("late", 0.5)
        pifo.push("early", 0.25)
        assert pifo.pop() == "early"
        assert pifo.pop() == "late"

    def test_peek_rank_is_unquantised(self):
        pifo = QuantizedBucketedPIFO(quantum=1.0)
        pifo.push("x", 0.75)
        assert pifo.peek_rank() == 0.75

    def test_within_quantum_fifo_order(self):
        # Both ranks land in slot 0 of a 1-second quantum: FIFO applies
        # even though the second push has the lower exact rank.
        pifo = QuantizedBucketedPIFO(quantum=1.0)
        pifo.push("first", 0.9)
        pifo.push("second", 0.1)
        assert pifo.pop() == "first"
        assert pifo.pop() == "second"

    def test_cross_quantum_rank_order(self):
        pifo = QuantizedBucketedPIFO(quantum=1e-6)
        ranks = [0.003, 0.001, 0.002, 0.0005]
        for rank in ranks:
            pifo.push(rank, rank)
        assert pifo.drain() == sorted(ranks)

    def test_invalid_quantum(self):
        with pytest.raises(ValueError):
            QuantizedBucketedPIFO(quantum=0.0)
        with pytest.raises(ValueError):
            QuantizedBucketedPIFO(quantum=-1e-6)

    def test_negative_ranks_order(self):
        pifo = QuantizedBucketedPIFO(quantum=0.5)
        pifo.push("b", -0.2)
        pifo.push("a", -1.7)
        pifo.push("c", 0.3)
        assert pifo.drain() == ["a", "b", "c"]

"""Unit tests for the ordered merger (sequential semantics)."""

import random
from array import array

import pytest

from repro.sim.engine import Simulator
from repro.streams.merger import OrderedMerger, SequenceError, UnorderedMerger
from repro.streams.tuples import StreamTuple, TupleBlock


def tup(seq):
    return StreamTuple(seq=seq, cost_multiplies=1.0)


class TestOrdering:
    def test_in_order_tuples_flow_through(self):
        emitted = []
        merger = OrderedMerger(Simulator(), on_emit=lambda t: emitted.append(t.seq))
        for seq in range(5):
            merger.accept(0, tup(seq))
        assert emitted == [0, 1, 2, 3, 4]
        assert merger.pending_count == 0

    def test_out_of_order_tuples_held_back(self):
        emitted = []
        merger = OrderedMerger(Simulator(), on_emit=lambda t: emitted.append(t.seq))
        merger.accept(1, tup(2))
        merger.accept(1, tup(1))
        assert emitted == []
        assert merger.pending_count == 2
        merger.accept(0, tup(0))
        assert emitted == [0, 1, 2]

    def test_interleaving_across_workers(self):
        emitted = []
        merger = OrderedMerger(Simulator(), on_emit=lambda t: emitted.append(t.seq))
        # Worker 0 got evens, worker 1 got odds; worker 1 runs ahead.
        for seq in (1, 3, 5):
            merger.accept(1, tup(seq))
        for seq in (0, 2, 4):
            merger.accept(0, tup(seq))
        assert emitted == [0, 1, 2, 3, 4, 5]

    def test_duplicate_rejected(self):
        merger = OrderedMerger(Simulator())
        merger.accept(0, tup(0))
        with pytest.raises(SequenceError):
            merger.accept(0, tup(0))

    def test_duplicate_pending_rejected(self):
        merger = OrderedMerger(Simulator())
        merger.accept(0, tup(5))
        with pytest.raises(SequenceError):
            merger.accept(1, tup(5))


class TestDiagnostics:
    def test_max_pending_tracks_reordering_depth(self):
        merger = OrderedMerger(Simulator())
        for seq in (3, 2, 1):
            merger.accept(0, tup(seq))
        assert merger.max_pending == 3

    def test_received_per_worker(self):
        merger = OrderedMerger(Simulator())
        merger.accept(0, tup(0))
        merger.accept(1, tup(1))
        merger.accept(1, tup(2))
        assert merger.received_per_worker == {0: 1, 1: 2}

    def test_last_emit_time_uses_sim_clock(self):
        sim = Simulator()
        merger = OrderedMerger(sim)
        sim.call_at(2.5, lambda: merger.accept(0, tup(0)))
        sim.run_until(3.0)
        assert merger.last_emit_time == 2.5


class TestUnorderedMerger:
    def test_forwards_immediately_out_of_order(self):
        emitted = []
        merger = UnorderedMerger(
            Simulator(), on_emit=lambda t: emitted.append(t.seq)
        )
        for seq in (2, 0, 1):
            merger.accept(0, tup(seq))
        assert emitted == [2, 0, 1]
        assert merger.pending_count == 0

    def test_counts_and_completion(self):
        merger = UnorderedMerger(Simulator())
        done = []
        merger.on_completion(2, lambda: done.append(True))
        merger.accept(0, tup(5))
        merger.accept(1, tup(3))
        assert merger.emitted == 2
        assert done == [True]
        assert merger.received_per_worker == {0: 1, 1: 1}

    def test_duplicate_rejected(self):
        merger = UnorderedMerger(Simulator())
        merger.accept(0, tup(7))
        with pytest.raises(SequenceError):
            merger.accept(1, tup(7))


class TestCompletion:
    def test_callback_fires_at_target(self):
        merger = OrderedMerger(Simulator())
        done = []
        merger.on_completion(3, lambda: done.append(merger.emitted))
        for seq in range(5):
            merger.accept(0, tup(seq))
        assert done == [3]

    def test_target_must_be_positive(self):
        with pytest.raises(ValueError):
            OrderedMerger(Simulator()).on_completion(0, lambda: None)


class TestRunLatency:
    def test_out_of_order_runs_sum_latency_left_to_right(self):
        # Runs arrive out of order, so both the in-order fast path and the
        # parked-run drain accumulate ``array('d')`` borns. Each run sums
        # ``now - born`` left to right and then adds its total, so the
        # result must equal that hand-computed sum to the last bit.
        rng = random.Random(5)
        borns = [rng.random() for _ in range(64)]
        sim = Simulator()
        merger = OrderedMerger(sim)
        blocks = []
        for start in range(0, 64, 16):
            block = TupleBlock.uniform(start, 16, 100.0)
            block.borns = array("d", borns[start : start + 16])
            blocks.append(block)
        sim.call_at(1.0, lambda: merger.accept_runs(1, [blocks[1]]))
        sim.call_at(1.0, lambda: merger.accept_runs(0, [blocks[0]]))
        sim.call_at(2.0, lambda: merger.accept_runs(1, [blocks[3]]))
        sim.call_at(2.0, lambda: merger.accept_runs(0, [blocks[2]]))
        sim.run_until(3.0)

        expected = 0.0
        for index, now in enumerate((1.0, 1.0, 2.0, 2.0)):
            total = 0.0
            for born in borns[16 * index : 16 * index + 16]:
                total += now - born
            expected += total
        assert merger.emitted == 64
        assert merger.next_seq == 64
        assert merger.latency_count == 64
        assert merger.latency_seconds == expected

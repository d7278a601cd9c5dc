"""Stateful property test: the process region's run-wise result absorb.

A hypothesis rule-based state machine registers the tuples ``0..N-1``
as in flight, split into runs owned by two worker slots, and delivers
results through ``ProcessRegion._handle_message`` — no processes, no
sockets — in arbitrary order: whole runs or slices of them, as one
``RESULT_BATCH`` frame or as single ``RESULT`` frames, from either slot,
with arbitrary replayed copies. After every step:

* the output is the gap-free, ordered prefix of everything delivered;
* ``duplicates_dropped`` equals the number of extra copies delivered;
* the ``unacked`` maps hold exactly the seqs not yet delivered.

At the end every remaining run is delivered: the output is exactly
``0..N-1`` in order and every ``unacked`` map is empty.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.net import framing
from repro.proc.region import ProcessRegion


def frames(entries, batched):
    """Encode ``entries`` as one RESULT_BATCH or one RESULT per entry."""
    if batched:
        wire = framing.encode_result_batch(entries)
    else:
        wire = b"".join(framing.encode_result(*entry) for entry in entries)
    return framing.MessageAssembler().feed(wire)


class ResultRunMachine(RuleBasedStateMachine):
    @initialize(
        n=st.integers(min_value=1, max_value=48),
        data=st.data(),
    )
    def setup(self, n, data):
        self.region = ProcessRegion(2, window=n, batch_size=4)
        cuts = sorted(
            data.draw(
                st.sets(st.integers(min_value=1, max_value=n - 1))
                if n > 1 else st.just(set())
            )
        )
        bounds = [0, *cuts, n]
        self.runs = [
            [(seq, 0.0, b"r%d" % seq) for seq in range(lo, hi)]
            for lo, hi in zip(bounds, bounds[1:])
        ]
        with self.region._cv:
            for run in self.runs:
                slot = self.region.slots[
                    data.draw(st.integers(min_value=0, max_value=1))
                ]
                for seq, cost, body in run:
                    self.region._owner[seq] = slot.index
                    slot.unacked[seq] = (cost, body)
        self.n = n
        self.copies = [0] * n

    def deliver(self, entries, batched, sender):
        slot = self.region.slots[sender]
        for message in frames(entries, batched):
            self.region._handle_message(slot, slot.incarnation, message)
        for seq, _, _ in entries:
            self.copies[seq] += 1

    @rule(
        data=st.data(),
        batched=st.booleans(),
        sender=st.integers(min_value=0, max_value=1),
    )
    def deliver_slice(self, data, batched, sender):
        run = data.draw(st.sampled_from(self.runs))
        lo = data.draw(st.integers(min_value=0, max_value=len(run) - 1))
        hi = data.draw(st.integers(min_value=lo + 1, max_value=len(run)))
        self.deliver(run[lo:hi], batched, sender)

    @invariant()
    def output_is_the_delivered_prefix(self):
        prefix = 0
        while prefix < self.n and self.copies[prefix]:
            prefix += 1
        assert self.region.outputs == [
            (seq, b"r%d" % seq) for seq in range(prefix)
        ]

    @invariant()
    def extra_copies_count_as_duplicates(self):
        extra = sum(c - 1 for c in self.copies if c > 1)
        assert self.region.stats().duplicates_dropped == extra
        assert self.region.results == sum(1 for c in self.copies if c)

    @invariant()
    def unacked_holds_exactly_the_undelivered(self):
        unacked = set()
        for slot in self.region.slots:
            unacked |= slot.unacked.keys()
        assert unacked == {s for s in range(self.n) if not self.copies[s]}

    def teardown(self):
        try:
            for run in self.runs:
                self.deliver(run, True, 0)
            assert self.region.outputs == [
                (seq, b"r%d" % seq) for seq in range(self.n)
            ]
            assert all(not slot.unacked for slot in self.region.slots)
        finally:
            self.region._listener_sock.close()


TestResultRunsStateful = ResultRunMachine.TestCase
TestResultRunsStateful.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)

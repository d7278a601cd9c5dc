"""The process backend's send path: the paper's blocking signal, end to end.

Every parent-to-worker frame goes through
:class:`~repro.net.socket_transport.BlockingSocketSender`. These tests
run real worker processes and check that

* with a 10x slower worker, blocking concentrates on that worker's slot;
* when large bodies fill a slow worker's socket before its window
  fills, the sender's ``select`` wait lands in that slot's
  ``blocked_seconds`` and the output stays gap-free;
* a failover that closes a socket while the sender waits in ``select``
  ends in the failed-send path (death, replay), not in a stray
  exception.
"""

import signal
import threading

import pytest

from repro.proc.region import ProcessRegion
from repro.proc.supervisor import UP
from tests.proc.test_region import FAST, expect_ordered

pytestmark = pytest.mark.sockets

#: Large enough that a few in-flight tuples exceed the loopback socket
#: buffers long before a window of ``n`` tuples could fill.
BIG_BODY = b"x" * (512 * 1024)


@pytest.fixture
def thread_errors():
    """Collect exceptions that escape any thread during the test."""
    errors = []
    previous = threading.excepthook
    threading.excepthook = lambda args: errors.append(args.exc_value)
    yield errors
    threading.excepthook = previous


class TestBlockingSignal:
    def test_blocking_concentrates_on_slow_worker(self):
        # Equal routing weights over workers of unequal speed: the 10x
        # slower worker's window keeps filling, so the splitter blocks
        # on its slot far more than on the others.
        region = ProcessRegion(
            3,
            multipliers=[1.0, 1.0, 10.0],
            initial_weights=[1.0, 1.0, 1.0],
            window=8,
            supervisor_config=FAST,
        )
        n = 150
        try:
            region.start().wait_ready(timeout=30.0)
            stats = region.run([0.002] * n, timeout=60.0)
            outputs = list(region.outputs)
        finally:
            region.close()
        expect_ordered(outputs, n)
        blocked = stats.blocked_seconds
        assert blocked[2] > blocked[0]
        assert blocked[2] > blocked[1]


class TestSocketFullWait:
    def test_select_wait_lands_in_slow_slot(self):
        # The window (n) can never fill, so every blocked second comes
        # from the sender waiting in select on a full socket.
        n = 60
        region = ProcessRegion(
            2,
            multipliers=[1.0, 10.0],
            initial_weights=[1.0, 1.0],
            window=n,
            supervisor_config=FAST,
        )
        try:
            region.start().wait_ready(timeout=30.0)
            stats = region.run(
                [0.002] * n, bodies=[BIG_BODY] * n, timeout=60.0
            )
            outputs = list(region.outputs)
        finally:
            region.close()
        expect_ordered(outputs, n, lambda i: BIG_BODY)
        assert stats.restarts == 0
        assert region.block_counters[1].lifetime_episodes > 0
        assert stats.blocked_seconds[1] > 0.0
        assert stats.blocked_seconds[1] > stats.blocked_seconds[0]


class TestSocketClosedMidWait:
    def test_failover_during_select_takes_failed_send_path(
        self, thread_errors
    ):
        # Worker 0 is frozen, so the sender fills its socket and sits in
        # select. The heartbeat timeout then fails the slot over, which
        # closes that socket under the waiting sender. The send must
        # come back as a plain failure: declare_dead, replay, restart.
        n = 40
        region = ProcessRegion(
            2,
            initial_weights=[1.0, 1.0],
            window=n,
            supervisor_config=FAST,
        )
        sends = []
        send_frame = region._send_frame

        def recording_send_frame(index, frame, tuples=0):
            ok = send_frame(index, frame, tuples)
            sends.append((index, ok))
            return ok

        region._send_frame = recording_send_frame
        try:
            region.start().wait_ready(timeout=30.0)
            assert region.slots[0].state == UP
            assert region.supervisor.kill(0, signal.SIGSTOP)
            stats = region.run(
                [0.0] * n, bodies=[BIG_BODY] * n, timeout=60.0
            )
            outputs = list(region.outputs)
        finally:
            region.close()
        expect_ordered(outputs, n)
        assert thread_errors == []
        # The wait on the frozen worker ended as a failed send ...
        assert (0, False) in sends
        # ... whose select time was still charged to its slot ...
        assert stats.blocked_seconds[0] > 0.0
        # ... and whose tuples were replayed, not lost.
        assert stats.episodes >= 1
        assert stats.replayed >= 1

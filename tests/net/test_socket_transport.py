"""Integration tests for the real-socket sender.

These exercise real OS sockets (AF_UNIX socket pairs) and kernel buffers;
they are skipped automatically when the environment forbids sockets.
The process backend's use of the sender is tested with real worker
processes in ``tests/proc/test_send_path.py``.
"""

import socket
import threading
import time

import pytest

from repro.net.socket_transport import (
    _POLL_MAX,
    BlockingSocketSender,
    PeerDeadError,
    SendTimeoutError,
)


def _sockets_available() -> bool:
    try:
        left, right = socket.socketpair()
        left.close()
        right.close()
        return True
    except OSError:
        return False


pytestmark = [
    pytest.mark.sockets,
    pytest.mark.skipif(not _sockets_available(), reason="no socketpair support"),
]


class TestBlockingSocketSender:
    def test_send_without_pressure_records_no_blocking(self):
        left, right = socket.socketpair()
        try:
            sender = BlockingSocketSender(left)
            sender.send(b"x" * 64)
            assert right.recv(128) == b"x" * 64
            assert sender.blocking.read() == 0.0
        finally:
            left.close()
            right.close()

    def test_try_send_reports_would_block(self):
        left, right = socket.socketpair()
        try:
            for sock in (left, right):
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 2048)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 2048)
            sender = BlockingSocketSender(left)
            frame = b"x" * 1024
            blocked = False
            for _ in range(1000):
                if not sender.try_send(frame):
                    blocked = True
                    break
            assert blocked, "kernel buffers never filled"
            assert sender.blocking.read() == 0.0  # try_send never blocks
        finally:
            left.close()
            right.close()

    def test_send_blocks_and_records_time(self):
        left, right = socket.socketpair()
        try:
            for sock in (left, right):
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 2048)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 2048)
            sender = BlockingSocketSender(left)
            frame = b"x" * 1024

            import threading

            def slow_reader():
                import time

                received = 0
                while received < 64 * 1024:
                    time.sleep(0.002)
                    try:
                        received += len(right.recv(4096))
                    except OSError:
                        return

            reader = threading.Thread(target=slow_reader, daemon=True)
            reader.start()
            for _ in range(64):
                sender.send(frame)
            assert sender.blocking.lifetime_episodes > 0
            assert sender.blocking.lifetime_seconds > 0.0
        finally:
            left.close()
            right.close()


def _fill(sender: BlockingSocketSender, frame: bytes) -> None:
    """Fill the kernel buffers until a send would block."""
    for _ in range(10_000):
        if not sender.try_send(frame):
            return
    raise AssertionError("kernel buffers never filled")


def _small_pair() -> tuple[socket.socket, socket.socket]:
    left, right = socket.socketpair()
    for sock in (left, right):
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 2048)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 2048)
    return left, right


class TestBoundedWait:
    """The hardened ``_wait_writable``: bounded polls, timeout, peer death."""

    def test_send_timeout_raises_instead_of_hanging(self):
        left, right = _small_pair()
        try:
            sender = BlockingSocketSender(left, send_timeout=0.1)
            frame = b"x" * 1024
            _fill(sender, frame)
            started = time.monotonic()
            with pytest.raises(SendTimeoutError):
                sender.send(frame)  # nobody reads: must give up, not hang
            elapsed = time.monotonic() - started
            assert 0.05 <= elapsed < 5.0
        finally:
            left.close()
            right.close()

    def test_timed_out_wait_still_charges_blocking(self):
        left, right = _small_pair()
        try:
            sender = BlockingSocketSender(left, send_timeout=0.05)
            frame = b"x" * 1024
            _fill(sender, frame)
            with pytest.raises(SendTimeoutError):
                sender.send(frame)
            assert sender.blocking.lifetime_seconds >= 0.04
        finally:
            left.close()
            right.close()

    def test_backoff_poll_interval_is_bounded(self):
        # A failover closes the socket while the sender sleeps in
        # select. The live peer never reads, so the only way out of the
        # wait is noticing the close, which must take at most about one
        # bounded poll and surface as PeerDeadError.
        left, right = _small_pair()
        try:
            sender = BlockingSocketSender(left)
            frame = b"x" * 1024
            _fill(sender, frame)
            closer = threading.Timer(0.1, left.close)
            closer.start()
            started = time.monotonic()
            with pytest.raises(PeerDeadError):
                sender.send(frame)
            elapsed = time.monotonic() - started
            closer.join()
            assert elapsed < 0.1 + _POLL_MAX + 1.0
            assert sender.blocking.lifetime_seconds >= 0.05
        finally:
            left.close()
            right.close()

    def test_wait_on_closed_socket_raises_peer_dead(self):
        # A socket closed between two polls has fileno() == -1, which
        # select rejects with ValueError; the sender must turn that into
        # PeerDeadError so callers see one kind of failed send.
        left, right = _small_pair()
        try:
            sender = BlockingSocketSender(left)
            left.close()
            with pytest.raises(PeerDeadError, match="closed while blocked"):
                sender._wait_writable()
            assert sender.blocking.lifetime_episodes == 1
        finally:
            right.close()

    def test_socket_stays_in_blocking_mode(self):
        # The process backend's receiver does blocking recv on the same
        # socket, so the sender must never flip it to non-blocking:
        # MSG_DONTWAIT makes only the send attempt non-blocking.
        left, right = _small_pair()
        try:
            sender = BlockingSocketSender(left, send_timeout=0.05)
            frame = b"x" * 1024
            _fill(sender, frame)
            with pytest.raises(SendTimeoutError):
                sender.send(frame)
            assert left.getblocking()
            assert right.recv(16) == b"x" * 16
        finally:
            left.close()
            right.close()

    def test_peer_close_raises_peer_dead(self):
        left, right = _small_pair()
        sender = BlockingSocketSender(left)
        frame = b"x" * 1024
        try:
            right.close()
            # The peer is gone: EPIPE on send must surface as PeerDeadError,
            # not BrokenPipeError escaping raw (send may need a couple of
            # attempts before the kernel reports the death).
            with pytest.raises(PeerDeadError):
                for _ in range(100):
                    sender.send(frame)
        finally:
            left.close()

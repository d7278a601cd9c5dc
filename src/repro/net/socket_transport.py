"""Real-socket send path: the paper's blocking measurement on OS sockets.

Section 3 of the paper measures blocking like this: each tuple send is
attempted with ``MSG_DONTWAIT``; if the kernel reports it would block, the
sender issues ``select`` on that socket and records how long it waited.
:class:`BlockingSocketSender` implements exactly that syscall sequence,
and the process backend (:mod:`repro.proc.region`) ships every
parent-to-worker frame through it, so its balancer sees real socket
backpressure.

One substitution (documented in DESIGN.md): Linux ``select`` writes the
*remaining* time into its timeout argument, which the paper reads to get
the blocked duration. Python's ``select.select`` does not expose the
mutated struct, so we time the call with ``time.monotonic()`` — the same
quantity, measured one layer up.

The socket itself stays in blocking mode. The process backend's receiver
thread does blocking ``recv`` on the same socket, and flipping the socket
to non-blocking would make that ``recv`` raise ``BlockingIOError``; the
sender passes ``MSG_DONTWAIT`` on every ``send`` instead, which makes
just that one call non-blocking.
"""

from __future__ import annotations

import select
import socket
import time

from repro.net.blocking import BlockingCounter
from repro.util.validation import check_positive

#: MSG_DONTWAIT is Linux-specific. Elsewhere the flag is 0 and a send on
#: a blocking socket simply blocks, unmeasured.
_DONTWAIT = getattr(socket, "MSG_DONTWAIT", 0)

#: The blocked wait polls ``select`` with a timeout that doubles from
#: ``_POLL_START`` up to ``_POLL_MAX`` seconds. Closing a socket from
#: another thread does not wake a ``select`` already sleeping on it, so
#: ``_POLL_MAX`` bounds how long a closed socket goes unnoticed.
_POLL_START = 0.005
_POLL_MAX = 0.25


class PeerDeadError(ConnectionError):
    """The receiving peer is gone (reset, closed, or socket exception)."""


class SendTimeoutError(TimeoutError):
    """A send did not become possible within the sender's ``send_timeout``."""


class BlockingSocketSender:
    """Send frames on a stream socket, recording blocking time.

    The blocked wait is a **bounded** ``select`` loop: each poll has a
    timeout and watches the exceptional set as well as writability, so a
    dead peer, or a socket closed under the sender, raises
    :exc:`PeerDeadError` instead of parking the sender in one unbounded
    syscall. An optional ``send_timeout`` bounds the whole wait, raising
    :exc:`SendTimeoutError`. Both are ``OSError`` subclasses, so a caller
    can treat any failed send as one failure.
    """

    def __init__(
        self, sock: socket.socket, *, send_timeout: float | None = None
    ) -> None:
        if send_timeout is not None:
            check_positive("send_timeout", send_timeout)
        self.sock = sock
        #: Overall bound on one blocked wait (None waits indefinitely,
        #: still in bounded polls so peer death is noticed between them).
        self.send_timeout = send_timeout
        #: Cumulative blocking time, exactly as the data transport layer
        #: of the paper maintains it.
        self.blocking = BlockingCounter()

    def try_send(self, frame: bytes) -> bool:
        """One non-blocking attempt; ``False`` means it would block.

        Once the kernel takes part of the frame, the remainder is
        completed (blocking for it if needed) so frames never interleave.
        """
        try:
            sent = self.sock.send(frame, _DONTWAIT)
        except BlockingIOError:
            return False
        except OSError as exc:
            raise PeerDeadError(f"peer is gone: {exc}") from exc
        self._finish(frame, sent)
        return True

    def send(self, frame: bytes) -> None:
        """Send a frame, electing to block (and timing it) when necessary."""
        if self.try_send(frame):
            return
        self._wait_writable()
        self._finish(frame, 0)

    def _finish(self, frame: bytes, sent: int) -> None:
        # After select reports writability a send can still be partial
        # (or would block again); loop until the frame is out.
        view = memoryview(frame)[sent:]
        while view:
            try:
                view = view[self.sock.send(view, _DONTWAIT):]
            except BlockingIOError:
                self._wait_writable()
            except OSError as exc:
                raise PeerDeadError(f"peer is gone: {exc}") from exc

    def _wait_writable(self) -> None:
        """Wait until the socket is writable, timing the blocked interval.

        The interval is charged to :attr:`blocking` however the wait
        ends: writable, timed out, or failed.
        """
        started = time.monotonic()
        deadline = (
            None if self.send_timeout is None else started + self.send_timeout
        )
        poll = _POLL_START
        try:
            while True:
                timeout = poll
                if deadline is not None:
                    timeout = min(poll, max(0.0, deadline - time.monotonic()))
                try:
                    _, writable, exceptional = select.select(
                        [], [self.sock], [self.sock], timeout
                    )
                except (OSError, ValueError) as exc:
                    # A socket closed under us has fileno() == -1, which
                    # select rejects with ValueError, not OSError.
                    raise PeerDeadError(
                        f"socket closed while blocked: {exc}"
                    ) from exc
                if exceptional:
                    raise PeerDeadError(
                        "socket entered an exceptional state while blocked"
                    )
                if writable:
                    return
                if deadline is not None and time.monotonic() >= deadline:
                    raise SendTimeoutError(
                        f"send not possible within {self.send_timeout:g}s"
                    )
                poll = min(poll * 2.0, _POLL_MAX)
        finally:
            self.blocking.add(time.monotonic() - started)

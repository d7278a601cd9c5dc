"""Data transport substrate.

The paper's data transport layer is TCP: one connection from the splitter to
each parallel worker PE, with a bounded send buffer on the splitter's host
and a bounded receive buffer on the worker's host. When both are full, a
send blocks — and the transport layer records for how long (Section 3).

Two implementations share that contract:

* :class:`SimulatedConnection` — deterministic, used by every experiment;
* :mod:`repro.net.socket_transport` — real OS sockets driven exactly as the
  paper describes (``MSG_DONTWAIT`` send, then ``select`` and measure),
  the send path of the multi-process backend (:mod:`repro.proc`), whose
  wire format is :mod:`repro.net.framing`.
"""

from repro.net.blocking import BlockingCounter
from repro.net.buffers import BoundedBuffer, BufferFullError
from repro.net.connection import SimulatedConnection

__all__ = [
    "BlockingCounter",
    "BoundedBuffer",
    "BufferFullError",
    "SimulatedConnection",
]

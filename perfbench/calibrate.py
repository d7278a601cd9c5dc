"""Host-speed calibration: fixed reference work timed beside each pass.

On a small shared host the CPU time of the same work drifts by up to
2x, within a run and between runs: co-tenants on the same physical cores
slow every instruction, and the guest sees little of it as steal. A
probe that shares no code with ``src/`` and runs at the same moments as
a pass slows down with it, so the pass's CPU divided by the probe's
slowdown measures the program rather than its neighbours. A change to
the program never moves a probe; only the host does.

Two probes, one per backend, because the two backends feel a busy host
differently:

* ``Sampler`` (simulator, and set-up) — every ``SAMPLE_EVERY_S`` of wall
  time a ``SIGALRM`` handler runs ``SAMPLE_STEPS`` steps of a small
  pure-Python event loop (heap, dict, small objects, floats) on the
  pass's own thread and times it on the thread's CPU clock. Over 33
  passes of one ``sim-wide-b64`` input its mean sample correlated 0.98
  with the pass's CPU, and the spread of per-pass CPU fell from 32% raw
  to 5% calibrated (13% when the same kernel ran only before and after
  each pass; a large-working-set variant did not track at all). The
  samples' own CPU is subtracted from the pass.
* ``wire_cpu`` (process backend) — an echo peer process over loopback TCP:
  batches of length-prefixed records out from one thread, replies
  decoded by a receiver thread, CPU of both processes per record, like a
  ``ProcessRegion`` pass. It runs just before and just after each pass
  (``HostSpeed``). Over 120 ceiling passes its figure correlated 0.68
  with the region's CPU per tuple, and the drift between the two halves
  of the series fell from 16% raw to 1%. It also calibrates the
  backend's set-up (spawn and connect, wall time). The interpreter probe
  does not track the process backend.

A calibrated figure is in seconds (or µs) of a host on which the probe
costs its ``*_NOMINAL*`` value.
"""

from __future__ import annotations

import heapq
import os
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

#: Wall seconds between in-pass samples, interpreter steps per sample,
#: and a sample's CPU seconds on a quiet host.
SAMPLE_EVERY_S = 0.01
SAMPLE_STEPS = 300
SAMPLE_NOMINAL_S = 5e-4
#: Record batches per wire-probe round, records per batch (the ceiling's
#: B), batches in flight, rounds per probe (median taken), and the
#: probe's CPU µs per record on a quiet host.
WIRE_BATCHES = 150
WIRE_BATCH = 64
WIRE_WINDOW = 4
WIRE_ROUNDS = 5
WIRE_NOMINAL_US = 1.5

_LEN = struct.Struct("!I")
_REC = struct.Struct("!IH")
_CPU_QUERY = b"CPU?"


class _Node:
    __slots__ = ("count", "total", "last")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.last = None

    def add(self, value: float, seq: int) -> float:
        self.count += 1
        self.total += value
        self.last = (value, seq)
        return self.total / self.count


def interpreter_kernel(steps: int) -> int:
    """The interpreter probe's fixed work; returns the records it popped."""
    heap: list = []
    nodes: dict = {}
    x = 12345
    popped = 0
    for i in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x % 1000 * 0.001 + i, i, x % 256))
        if len(heap) > 64:
            t, seq, key = heapq.heappop(heap)
            node = nodes.get(key)
            if node is None:
                node = nodes[key] = _Node()
            node.add(t, seq)
            popped += 1
    return popped


class Sampler:
    """Samples the host's speed on the measured thread, inside a pass.

    ``with Sampler() as s: work()``; then ``s.program_cpu`` is the
    process CPU of ``work`` without the samples, and ``s.slowdown`` the
    mean sample over ``SAMPLE_NOMINAL_S``. The work must run on the
    main thread, which is where Python runs signal handlers.
    """

    def __enter__(self) -> "Sampler":
        self.samples: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._cpu0 = time.process_time()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def _sample(self, _signum, _frame) -> None:
        t0 = time.thread_time()
        interpreter_kernel(SAMPLE_STEPS)
        self.samples.append(time.thread_time() - t0)

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        cpu = time.process_time() - self._cpu0
        signal.signal(signal.SIGALRM, self._previous)
        self.program_cpu = cpu - sum(self.samples)
        if not self.samples:  # shorter than one sampling interval
            self._sample(None, None)
        self.slowdown = statistics.mean(self.samples) / SAMPLE_NOMINAL_S


def _frames(sock: socket.socket, want: int, sink) -> None:
    """Read ``want`` length-prefixed frames from ``sock`` into ``sink``."""
    buf = bytearray()
    got = 0
    while got < want:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("wire probe peer closed early")
        buf += chunk
        while got < want and len(buf) >= 4:
            (n,) = _LEN.unpack_from(buf, 0)
            if len(buf) < 4 + n:
                break
            sink(bytes(buf[4:4 + n]))
            del buf[:4 + n]
            got += 1


def _echo_peer(sock: socket.socket) -> None:
    """The peer: answer each batch with its sequence numbers."""
    buf = bytearray()
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return
        buf += chunk
        out = []
        while len(buf) >= 4:
            (n,) = _LEN.unpack_from(buf, 0)
            if len(buf) < 4 + n:
                break
            frame = bytes(buf[4:4 + n])
            del buf[:4 + n]
            if frame == _CPU_QUERY:
                reply = struct.pack("!d", time.process_time())
            else:
                seqs = []
                off = 0
                while off < len(frame):
                    seq, length = _REC.unpack_from(frame, off)
                    off += _REC.size + length
                    seqs.append(struct.pack("!I", seq))
                reply = b"".join(seqs)
            out.append(_LEN.pack(len(reply)) + reply)
        if out:
            sock.sendall(b"".join(out))


class _WirePeer:
    """An echo peer process (this file run as a script) on loopback TCP."""

    def __init__(self) -> None:
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        listener.settimeout(30.0)
        self.proc = subprocess.Popen([
            sys.executable, os.path.abspath(__file__),
            str(listener.getsockname()[1]),
        ])
        try:
            self.sock, _ = listener.accept()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        finally:
            listener.close()
        self.sock.settimeout(None)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.bodies = [bytes(i % 129) for i in range(WIRE_BATCH * 8)]

    def peer_cpu(self) -> float:
        self.sock.sendall(_LEN.pack(len(_CPU_QUERY)) + _CPU_QUERY)
        out: list[bytes] = []
        _frames(self.sock, 1, out.append)
        return struct.unpack("!d", out[0])[0]

    def round_us(self) -> float:
        """CPU µs of both processes per record over one round."""
        peer0, self0 = self.peer_cpu(), time.process_time()
        window = threading.Semaphore(WIRE_WINDOW)
        receiver = threading.Thread(
            target=_frames,
            args=(self.sock, WIRE_BATCHES, lambda _f: window.release()),
        )
        receiver.start()
        seq = 0
        bodies = self.bodies
        for _ in range(WIRE_BATCHES):
            records = []
            for _ in range(WIRE_BATCH):
                body = bodies[seq % len(bodies)]
                records.append(_REC.pack(seq, len(body)) + body)
                seq += 1
            frame = b"".join(records)
            window.acquire()
            self.sock.sendall(_LEN.pack(len(frame)) + frame)
        receiver.join()
        self1, peer1 = time.process_time(), self.peer_cpu()
        return (self1 - self0 + peer1 - peer0) / seq * 1e6

    def close(self) -> None:
        self.sock.close()
        self.proc.wait()


def wire_cpu() -> float:
    """Slowdown of the host for process-to-process work (1.0 = nominal).

    The peer is started and reaped inside the call, so no probe process
    is alive (or unreaped) while a region pass measures
    ``RUSAGE_CHILDREN``; its start-up is not part of the measured CPU.
    """
    peer = _WirePeer()
    try:
        rounds = [peer.round_us() for _ in range(WIRE_ROUNDS)]
    finally:
        peer.close()
    return statistics.median(rounds) / WIRE_NOMINAL_US


class HostSpeed:
    """Brackets every pass with a probe; ``measure`` adds ``slowdown``."""

    def __init__(self, probe) -> None:
        self.probe = probe
        self.last = probe()

    def measure(self, run_pass) -> dict:
        before = self.last
        p = run_pass()
        self.last = self.probe()
        p["slowdown"] = (before + self.last) / 2
        return p


def calibrated(p: dict, key: str = "cpu_s") -> float:
    """A pass's figure divided by the host's slowdown during the pass."""
    return p[key] / p["slowdown"]


if __name__ == "__main__":
    # The wire probe's peer: ``python3 calibrate.py <port>``.
    with socket.create_connection(("127.0.0.1", int(sys.argv[1]))) as conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        _echo_peer(conn)

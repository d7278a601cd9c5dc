#!/usr/bin/env python3
"""Measure blocking rates on real OS sockets, as the paper does.

Most of this repository runs on the deterministic simulator; this example
exercises the actual syscall path of Section 3 on the multi-process
backend: every frame to a worker is tried with ``MSG_DONTWAIT``, a send
the kernel would block elects to block in a timed ``select``, and each
connection keeps a cumulative blocking-time counter (which also counts
waits on a full retransmit window).

Three worker processes serve tuples at different speeds (worker 2 is 10x
slower). The splitter pushes tuples as fast as the workers take them, and
the balancer, fed only those per-connection blocking counters once a
second, shifts weight away from the slow worker.

Run:  PYTHONPATH=src python examples/real_sockets.py
"""

import time

from repro.core.balancer import LoadBalancer
from repro.proc.region import ProcessRegion

MULTIPLIERS = [1.0, 1.0, 10.0]  # worker 2 is 10x slower
TUPLE_COST = 0.0004  # seconds of service at multiplier 1
ROUND_SECONDS = 1.0
ROUNDS = 8


def main() -> None:
    balancer = LoadBalancer(len(MULTIPLIERS))
    region = ProcessRegion(3, multipliers=MULTIPLIERS, balancer=balancer)
    print("3 worker processes on real sockets; worker 2 is 10x slower.")
    print(f"{'round':>6} {'weights':>22} {'blocking rates (s/s)':>30}")
    try:
        region.start().wait_ready(timeout=60.0)
        for round_index in range(ROUNDS):
            round_end = time.monotonic() + ROUND_SECONDS
            while time.monotonic() < round_end:
                region.submit(TUPLE_COST)
            rates = ", ".join(f"{r:6.3f}" for r in balancer.last_rates)
            print(f"{round_index:>6} {str(balancer.weights):>22} [{rates}]")
        region.drain(timeout=60.0)
    finally:
        region.close()

    final = balancer.weights
    print(f"\nfinal weights: {final}")
    if final[2] < min(final[0], final[1]):
        print("the balancer starved the slow worker using only "
              "kernel-level blocking measurements.")
    else:
        print("note: on a noisy machine the signal can need more rounds.")


if __name__ == "__main__":
    main()

"""The four benchmark workloads and the passes that measure them.

A *pass* builds the workload from its seed, runs it once and returns
raw measurements. ``run.py`` repeats passes for the requested time and
reduces them to metrics. Every pass of a workload runs the same inputs,
so the simulator passes must produce the same result fingerprint.

* ``sim-narrow-b1`` — Figure 9 dynamic config, 8 PEs, per-tuple path.
* ``sim-wide-b64`` — Figure 13 config at 64 PEs, clustering, B=64.
* ``proc-ceiling-b64`` — 2 worker processes, zero-cost tuples, B=64,
  closed loop from one thread.
* ``proc-trickle-kill-b1`` — 2 worker processes, 1 ms sleep tuples, B=1,
  seeded Poisson open loop at 400 tuples/s, one SIGKILL per pass.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import random
import resource
import time

from calibrate import Sampler
from repro.core.balancer import LoadBalancer
from repro.core.policies import WeightedPolicy
from repro.experiments.figures import fig09_config, fig13_config
from repro.experiments.runner import run_experiment
from repro.sim.engine import Simulator
from repro.streams.region import ParallelRegion
from repro.streams.sources import FiniteSource, constant_cost

SIM = ("sim-narrow-b1", "sim-wide-b64")
PROC = ("proc-ceiling-b64", "proc-trickle-kill-b1")
NAMES = SIM + PROC

#: The seed whose simulator fingerprints are stored in reference.json.
DEFAULT_SEED = 1
#: Simulator passes cycle through this many jitter seeds derived from
#: the workload seed, so a run's medians do not rest on one seed's
#: balancing trajectory.
SUB_SEEDS = 8
#: Relative service-time noise of the simulated PEs, seeded per workload.
SIM_JITTER = 0.1
#: Tuples per pass.
BUDGET = {
    "sim-narrow-b1": 60_000,
    "sim-wide-b64": 60_000,
    "proc-ceiling-b64": 15_000,
    "proc-trickle-kill-b1": 1_000,
}
PROC_WORKERS = 2
#: Stamp every 7th tuple's latency on the ceiling (coprime with B=64).
LATENCY_STRIDE = 7
TRICKLE_RATE = 400.0
TRICKLE_COST = 0.001
PROC_TIMEOUT = 60.0


# ------------------------------------------------------------------ simulator


def sub_seed(seed: int, k: int) -> int:
    """The jitter seed of sub-seed ``k`` of workload seed ``seed``."""
    return seed * SUB_SEEDS + k


def sim_config(name: str, seed: int):
    """The experiment config of a simulator workload (``seed`` as is)."""
    total = BUDGET[name]
    if name == "sim-narrow-b1":
        config = fig09_config(8, dynamic=True, total_tuples=total)
    elif name == "sim-wide-b64":
        config = fig13_config(64, total_tuples=total).with_batch_size(64)
    else:
        raise ValueError(f"not a simulator workload: {name}")
    config.region = dataclasses.replace(
        config.region, service_jitter=SIM_JITTER, seed=seed
    )
    return config


def sim_setup(name: str, seed: int) -> None:
    """Build what a run builds before its first event (setup probe)."""
    config = sim_config(name, seed)
    n = config.n_workers
    balancer = LoadBalancer(n, config.balancer)
    ParallelRegion(
        Simulator(),
        FiniteSource(config.total_tuples, constant_cost(config.tuple_cost)),
        WeightedPolicy(balancer.weights),
        config.build_placement(),
        params=config.region,
        load_multipliers=config.load_schedule.initial_multipliers(n),
    )


def fingerprint(result) -> str:
    """Digest of everything a simulator run decides (no wall-clock)."""
    payload = {
        "execution_time": result.execution_time,
        "completed": result.completed,
        "emitted": result.emitted,
        "sim_time": result.sim_time,
        "rerouted": result.rerouted,
        "total_sent": result.total_sent,
        "block_events": result.block_events,
        "final_weights": result.final_weights,
        "events_processed": result.events_processed,
        "throughput": [
            list(result.throughput_series.times),
            list(result.throughput_series.values),
        ],
        "latency": [
            list(result.latency_series.times),
            list(result.latency_series.values),
        ],
        "weights": [list(s.values) for s in result.weight_series],
        "rates": [list(s.values) for s in result.rate_series],
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def sim_pass(
    name: str,
    seed: int,
    *,
    obs: bool,
    keep_result: bool = False,
    calibrate: bool = False,
) -> dict:
    """One ``run_experiment`` of a simulator workload.

    With ``calibrate`` the run is sampled by ``calibrate.Sampler``:
    ``cpu_s`` excludes the samples and ``slowdown`` is the host's.
    """
    config = sim_config(name, seed)
    if obs:
        config = config.with_observability()
    gc.collect()
    wall0 = time.perf_counter()
    if calibrate:
        with Sampler() as sampler:
            result = run_experiment(config, "lb-adaptive")
        cpu, slowdown = sampler.program_cpu, sampler.slowdown
    else:
        cpu0 = time.process_time()
        result = run_experiment(config, "lb-adaptive")
        cpu, slowdown = time.process_time() - cpu0, None
    wall = time.perf_counter() - wall0
    ok = result.completed and result.emitted == config.total_tuples
    return {
        "tuples": config.total_tuples,
        "cpu_s": cpu,
        "slowdown": slowdown,
        "wall_s": wall,
        "ok": ok,
        "fingerprint": fingerprint(result),
        "makespan_s": result.execution_time,
        "latency_ms": [v * 1e3 for v in result.latency_series.values],
        "result": result if keep_result else None,
    }


def percentile(data: list[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (0..1) of sorted ``data``."""
    if not data:
        return 0.0
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


# ----------------------------------------------------------- process backend


def rusage_cpu() -> tuple[float, float]:
    """``(self, reaped children)`` user+system CPU seconds."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def pid_cpu(pid: int | None) -> float:
    """CPU seconds a live process has used so far (0 if unreadable)."""
    if pid is None:
        return 0.0
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def reap_children(timeout: float = 5.0) -> None:
    """Wait for every exited child so ``RUSAGE_CHILDREN`` counts it.

    The supervisor replaces a killed incarnation's handle when it
    respawns, so that zombie may never be waited for by anyone else.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no children left at all
        if pid == 0:
            time.sleep(0.01)  # a child has not exited yet


def check_order(seqs: list[int], n: int) -> dict:
    """Count missing, duplicated and out-of-order sequence numbers."""
    seen: set[int] = set()
    duplicated = out_of_order = 0
    last = -1
    for seq in seqs:
        if seq in seen:
            duplicated += 1
            continue
        seen.add(seq)
        if seq < last:
            out_of_order += 1
        last = max(last, seq)
    missing = n - len(seen & set(range(n)))
    return {
        "missing": missing,
        "duplicated": duplicated,
        "out_of_order": out_of_order,
        "failed": missing + duplicated + out_of_order,
    }


def proc_inputs(name: str, seed: int) -> dict:
    """The generated tuples of one process pass."""
    rng = random.Random(f"{name}:{seed}")
    n = BUDGET[name]
    if name == "proc-ceiling-b64":
        return {
            "n": n,
            "bodies": [rng.randbytes(rng.randrange(129)) for _ in range(n)],
        }
    gaps = [rng.expovariate(TRICKLE_RATE) for _ in range(n)]
    return {
        "n": n,
        "gaps": gaps,
        # SIGKILL one worker once the merger has emitted a seeded count
        # in the middle third of the pass.
        "kill_emitted": rng.randrange(n // 3, 2 * n // 3),
        "kill_worker": rng.randrange(PROC_WORKERS),
    }


def proc_pass(
    name: str, inputs: dict, *, obs: bool, keep_seqs: bool = False
) -> dict:
    """One region lifetime: spawn, wait ready, timed load, drain, reap.

    The timed window opens after ``wait_ready()``: spawn and connect are
    reported only as setup. Workers sleep their service time and are
    never put in ``worker_mode="spin"``: spin charges time spent
    preempted as service, so with more workers than cores it reports
    more work than the CPU did.
    """
    from repro.faults.schedule import FaultSchedule
    from repro.obs.hub import ObservabilityHub
    from repro.proc.faults import RealFaultDriver
    from repro.proc.region import ProcessRegion

    n = inputs["n"]
    ceiling = name == "proc-ceiling-b64"
    batch = 64 if ceiling else 1
    clock = time.perf_counter
    # The ceiling's latency and makespan are read on the parent's CPU
    # clock: on a small shared host its wall-clock tail tracks co-tenant
    # CPU steal rather than the region. Every LATENCY_STRIDE-th tuple is
    # stamped (the stride is coprime with the batch size, so every batch
    # position is sampled) to keep the clock reads off the measured path.
    lat_clock = time.process_time if ceiling else clock
    stride = LATENCY_STRIDE if ceiling else 1
    emit = [0.0] * n
    seqs: list[int] = []

    def sink(seq: int, _body: bytes) -> None:
        if seq % stride == 0:
            emit[seq] = lat_clock()
        seqs.append(seq)

    reap_children()
    t0 = clock()
    region = ProcessRegion(PROC_WORKERS, batch_size=batch, sink=sink)
    if obs:
        hub = ObservabilityHub(region.clock)
        region.attach_observability(hub)
    driver = None
    if name == "proc-trickle-kill-b1":
        driver = RealFaultDriver(region).arm(
            FaultSchedule.crash_after_emitted(
                inputs["kill_worker"], inputs["kill_emitted"]
            )
        )
    start = [0.0] * n
    late: list[float] = []
    error = None
    setup_s = None
    makespan_s = 0.0
    pre_worker_cpu = 0.0
    cpu_self0, cpu_kids0 = rusage_cpu()
    w0 = clock()
    try:
        region.start()
        region.wait_ready(timeout=30.0)
        setup_s = clock() - t0
        pre_worker_cpu = sum(pid_cpu(s.pid) for s in region.slots)
        cpu_self0, cpu_kids0 = rusage_cpu()
        w0 = clock()
        m0 = lat_clock()
        if driver is None:
            bodies = inputs["bodies"]
            for i in range(n):
                if i % stride == 0:
                    start[i] = lat_clock()
                region.submit(0.0, bodies[i])
        else:
            driver.start()
            due = w0
            for i, gap in enumerate(inputs["gaps"]):
                due += gap
                start[i] = due
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                late.append(clock() - due)
                region.submit(TRICKLE_COST, b"")
        region.drain(timeout=PROC_TIMEOUT)
        makespan_s = lat_clock() - m0
    except Exception as exc:  # a broken run counts as failed tuples
        error = f"{type(exc).__name__}: {exc}"
    finally:
        wall_s = clock() - w0
        if driver is not None:
            driver.stop()
        region.close()
    if obs:
        hub.finalize(region.clock())
        hub.report()
    reap_children()
    cpu_self1, cpu_kids1 = rusage_cpu()
    stats = region.stats()
    order = check_order(seqs, n)
    if error is not None:
        order["failed"] = max(order["failed"], n)
    latency = sorted(
        (emit[i] - start[i]) * 1e3
        for i in range(0, n, stride)
        if emit[i] > 0.0
    )
    parent_cpu = cpu_self1 - cpu_self0
    worker_cpu = max(0.0, cpu_kids1 - cpu_kids0 - pre_worker_cpu)
    return {
        "tuples": n,
        "setup_s": setup_s if setup_s is not None else clock() - t0,
        "wall_s": wall_s,
        "makespan_s": makespan_s,
        "parent_cpu_s": parent_cpu,
        "worker_cpu_s": worker_cpu,
        "cpu_s": parent_cpu + worker_cpu,
        "latency_p50_ms": percentile(latency, 0.50),
        "latency_p99_ms": percentile(latency, 0.99),
        "late_p99_ms": percentile(sorted(late), 0.99) * 1e3,
        "late_max_ms": max(late, default=0.0) * 1e3,
        "seqs": seqs if keep_seqs else None,
        "order": order,
        "error": error,
        "stats": stats,
    }

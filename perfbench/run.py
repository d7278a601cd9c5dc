#!/usr/bin/env python3
"""The repository benchmark: four workloads over both region backends.

Run from the repository root::

    python3 perfbench/run.py --workload sim-narrow-b1 --seed 1 --seconds 20 --trace 0

``--trace 0`` is a timed run: tracing off, passes repeated for
``--seconds``, every end-to-end metric reported as a median over passes
(simulator: per jitter sub-seed, then over sub-seeds), CPU-clock figures
calibrated for the host's speed (``calibrate.py``).
``--trace 1`` is the per-layer run: one untraced pass, then traced
passes with a recorder wrapped around every layer (``tracing.py``); it
reports every per-layer metric, the tracing overhead and the share of
CPU no layer explains.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Lines before it describe the
run (provenance, spreads, fingerprints, the layer -> end-to-end map);
the same record is written to ``perfbench/out/``. Definitions of every
metric on every workload are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from calibrate import HostSpeed, Sampler, calibrated, wire_cpu

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Setup probes per simulator run (each is a fresh interpreter).
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_tuples_per_cpu_s": "1/s",
    "sim_makespan_s": "s",
    "obs_tuples_per_cpu_s": "1/s",
    "proc_cpu_us_per_tuple": "us",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}

#: Per-layer metric -> (unit, end-to-end metric it should move, workloads).
PER_LAYER = {
    "sim.engine.events": ("count", "sim_tuples_per_cpu_s", "sim-narrow-b1"),
    "sim.engine.self_cpu_s": ("s", "sim_tuples_per_cpu_s", "sim-narrow-b1"),
    "streams.splitter.dispatches": ("count", "sim_tuples_per_cpu_s", "sim"),
    "streams.splitter.block_episodes": ("count", "sim_tuples_per_cpu_s", "sim"),
    "streams.splitter.self_cpu_s": ("s", "sim_tuples_per_cpu_s", "sim"),
    "core.policies.calls": ("count", "sim_tuples_per_cpu_s", "sim-wide-b64"),
    "core.policies.self_cpu_s": ("s", "sim_tuples_per_cpu_s", "sim-wide-b64"),
    "net.connection.sends": ("count", "sim_tuples_per_cpu_s", "sim-narrow-b1"),
    "net.connection.self_cpu_s": ("s", "sim_tuples_per_cpu_s", "sim-narrow-b1"),
    "streams.pe.runs": ("count", "sim_tuples_per_cpu_s", "sim"),
    "streams.pe.tuples_per_run": ("ratio", "sim_tuples_per_cpu_s", "sim"),
    "streams.pe.self_cpu_s": ("s", "sim_tuples_per_cpu_s", "sim"),
    "streams.merger.accepts": ("count", "sim_tuples_per_cpu_s", "sim-wide-b64"),
    "streams.merger.pending_peak": ("count", "sim_tuples_per_cpu_s", "sim-wide-b64"),
    "streams.merger.self_cpu_s": ("s", "sim_tuples_per_cpu_s", "sim-wide-b64"),
    "core.balancer.rounds": ("count", "sim_makespan_s", "sim-wide-b64"),
    "core.balancer.cpu_s_per_round": ("s", "sim_tuples_per_cpu_s", "sim-wide-b64"),
    "core.rate_function.calls": ("count", "sim_tuples_per_cpu_s", "sim-wide-b64"),
    "core.rate_function.self_cpu_s": ("s", "sim_tuples_per_cpu_s", "sim-wide-b64"),
    "core.monotone.calls": ("count", "sim_tuples_per_cpu_s", "sim-wide-b64"),
    "core.monotone.self_cpu_s": ("s", "sim_tuples_per_cpu_s", "sim-wide-b64"),
    "core.rap.calls": ("count", "sim_tuples_per_cpu_s", "sim-wide-b64"),
    "core.rap.self_cpu_s": ("s", "sim_tuples_per_cpu_s", "sim-wide-b64"),
    "core.clustering.calls": ("count", "sim_tuples_per_cpu_s", "sim-wide-b64"),
    "core.clustering.self_cpu_s": ("s", "sim_tuples_per_cpu_s", "sim-wide-b64"),
    "obs.self_cpu_s": ("s", "obs_tuples_per_cpu_s", "sim-narrow-b1"),
    "proc.region.submit.calls": ("count", "proc_cpu_us_per_tuple", "proc-ceiling-b64"),
    "proc.region.submit.self_s": ("s", "proc_cpu_us_per_tuple", "proc-ceiling-b64"),
    "proc.region.blocked_s": ("s", "proc_cpu_us_per_tuple", "proc-ceiling-b64"),
    "proc.region.drain_s": ("s", "proc_cpu_us_per_tuple", "proc-ceiling-b64"),
    "proc.region.parent_cpu_us_per_tuple": ("us", "proc_cpu_us_per_tuple", "proc-ceiling-b64"),
    "net.framing.encode.calls": ("count", "proc_cpu_us_per_tuple", "proc"),
    "net.framing.encode.self_s": ("s", "proc_cpu_us_per_tuple", "proc"),
    "net.framing.decode.calls": ("count", "proc_cpu_us_per_tuple", "proc"),
    "net.framing.decode.self_s": ("s", "proc_cpu_us_per_tuple", "proc"),
    "net.framing.frames_sent_per_tuple": ("ratio", "latency_p50_ms", "proc"),
    "net.framing.frames_recv_per_tuple": ("ratio", "latency_p50_ms", "proc"),
    "net.framing.bytes_per_tuple": ("B", "proc_cpu_us_per_tuple", "proc"),
    "net.framing.data_flushes": ("count", "proc_cpu_us_per_tuple", "proc"),
    "net.framing.mean_batch_occupancy": ("ratio", "proc_cpu_us_per_tuple", "proc"),
    "proc.worker.worker_cpu_us_per_tuple": ("us", "proc_cpu_us_per_tuple", "proc"),
    "proc.worker.per_worker_results_skew": ("ratio", "proc_cpu_us_per_tuple", "proc"),
    "proc.supervisor.ttq_ms": ("ms", "latency_p99_ms", "proc-trickle-kill-b1"),
    "proc.supervisor.ttr_ms": ("ms", "latency_p99_ms", "proc-trickle-kill-b1"),
    "proc.supervisor.restarts": ("count", "latency_p99_ms", "proc-trickle-kill-b1"),
    "proc.supervisor.replayed": ("count", "latency_p99_ms", "proc-trickle-kill-b1"),
    "proc.supervisor.duplicates_dropped": ("count", "latency_p99_ms", "proc-trickle-kill-b1"),
    "generator.late_p99_ms": ("ms", "none (context)", "proc"),
    "generator.late_max_ms": ("ms", "none (context)", "proc"),
    "generator.wall_tuples_per_s": ("1/s", "none (context)", "proc"),
    "trace.overhead_ratio": ("ratio", "none (accounting)", "all"),
    "trace.unexplained_share": ("ratio", "none (accounting)", "all"),
}

# ------------------------------------------------------------------ helpers


def spread(values: list[float]) -> float | None:
    """Interquartile range as a share of the median (None below 2 values)."""
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_jiffies() -> tuple[int, int] | None:
    """``(steal, total)`` jiffies over all CPUs from ``/proc/stat``."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    steal = fields[7] if len(fields) > 7 else 0
    # guest time is already counted in user/nice.
    return steal, sum(fields[:8])


def provenance(seed: int, jiffies0, jiffies1) -> dict:
    from repro.util import arrays

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    steal = None
    if jiffies0 and jiffies1 and jiffies1[1] > jiffies0[1]:
        steal = (jiffies1[0] - jiffies0[0]) / (jiffies1[1] - jiffies0[1])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "have_numpy": arrays.HAVE_NUMPY,
        "platform": platform.platform(),
        "commit": commit,
        "source_digest": source_digest(),
        "seed": seed,
        "cpu_steal_share": steal,
    }


def source_digest() -> str:
    """sha256 over ``src/`` (identifies the code where git is absent)."""
    import hashlib

    paths = sorted(
        os.path.join(dirpath, name)
        for dirpath, _, filenames in os.walk(SRC)
        for name in filenames
        if name.endswith(".py")
    )
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


def setup_probe(workload: str, seed: int) -> float:
    """Calibrated CPU seconds of a fresh interpreter's set-up.

    The probe (``--setup-probe``) imports the program and builds the
    workload's region under ``calibrate.Sampler``; its CPU is divided by
    the host's slowdown.
    """
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def seed_median(passes: list[dict], value) -> float:
    """Median over jitter sub-seeds of each sub-seed's median ``value``.

    A few jitter seeds drive ``sim-wide-b64`` into a trajectory that
    costs twice the CPU of the others in every pass (jitter seed 434
    took 3.5 calibrated s against 1.5-1.7 s); with a mean over four
    sub-seeds one such seed moved a run's figure by 25%. The median
    over sub-seeds reports the typical seed and does not depend on how
    many passes of each fitted in the run.
    """
    by_seed: dict[int, list[float]] = {}
    for p in passes:
        by_seed.setdefault(p["k"], []).append(value(p))
    return statistics.median(statistics.median(v) for v in by_seed.values())


def run_pairs(seconds: float, one_pair) -> None:
    """Run obs-off/obs-on pass pairs while another pair still fits."""
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one_pair()
        pair = time.perf_counter() - t0
        if time.perf_counter() - started + pair > seconds:
            return


# ------------------------------------------------------------- timed runs


def timed_sim(wl, workload: str, seed: int, seconds: float, reference: dict):
    setups = [setup_probe(workload, seed) for _ in range(SETUP_REPEATS)]
    started = time.perf_counter()
    off: list[dict] = []
    on: list[dict] = []
    # A discarded warm-up pass fills the caches and lazy imports; its
    # output is still checked.
    warm = wl.sim_pass(workload, wl.sub_seed(seed, 0), obs=False)
    warm["k"] = 0

    def one_pair() -> None:
        k = len(off) % wl.SUB_SEEDS
        jitter_seed = wl.sub_seed(seed, k)
        for passes, obs in ((off, False), (on, True)):
            p = wl.sim_pass(workload, jitter_seed, obs=obs, calibrate=True)
            p["k"] = k
            passes.append(p)

    run_pairs(seconds - (time.perf_counter() - started), one_pair)
    stored = reference.get(workload) if seed == wl.DEFAULT_SEED else None
    first: dict[int, str] = {}
    for p in [warm] + off:
        first.setdefault(p["k"], p["fingerprint"])
    expected = stored or first
    checked = [warm] + off + on
    failed = sum(
        p["tuples"] for p in checked
        if not p["ok"] or p["fingerprint"] != expected[p["k"]]
    )
    attempted = sum(p["tuples"] for p in checked)
    tuples = off[0]["tuples"]
    cpu_off = seed_median(off, calibrated)
    metrics = {
        "setup_s": statistics.median(setups),
        "sim_tuples_per_cpu_s": tuples / cpu_off,
        "sim_makespan_s": seed_median(off, lambda p: p["makespan_s"] or 0.0),
        "obs_tuples_per_cpu_s": tuples / seed_median(on, calibrated),
        "proc_cpu_us_per_tuple": cpu_off / tuples * 1e6,
        "latency_p50_ms": seed_median(
            off, lambda p: wl.percentile(sorted(p["latency_ms"]), 0.50)),
        "latency_p99_ms": seed_median(
            off, lambda p: wl.percentile(sorted(p["latency_ms"]), 0.99)),
    }
    info = {
        "passes": {"obs_off": len(off), "obs_on": len(on), "warm_up": 1},
        "fingerprints": {
            f"sub-seed {p['k']}": p["fingerprint"] for p in off},
        "makespans_s": [p["makespan_s"] for p in off],
        "setup_samples_s": setups,
        "cpu_s_off": [p["cpu_s"] for p in off],
        "cpu_s_on": [p["cpu_s"] for p in on],
        "sub_seed_off": [p["k"] for p in off],
        "slowdown_off": [p["slowdown"] for p in off],
        "slowdown_on": [p["slowdown"] for p in on],
        "spread_cpu_off": spread([p["cpu_s"] for p in off]),
        "spread_calibrated_cpu_off": spread([calibrated(p) for p in off]),
        "wall_tuples_per_s": statistics.median(
            p["tuples"] / p["wall_s"] for p in off),
        "obs_cost_ratio": (
            metrics["sim_tuples_per_cpu_s"] / metrics["obs_tuples_per_cpu_s"]
            - 1.0
        ),
        "latency_intervals": len(off[0]["latency_ms"]),
    }
    return metrics, attempted, failed, info


def timed_proc(wl, workload: str, seed: int, seconds: float):
    started = time.perf_counter()
    inputs = wl.proc_inputs(workload, seed)
    host = HostSpeed(wire_cpu)
    off: list[dict] = []
    on: list[dict] = []
    # A discarded warm-up pass; its output is still checked.
    warm = host.measure(lambda: wl.proc_pass(workload, inputs, obs=False))
    run_pairs(seconds - (time.perf_counter() - started), lambda: (
        off.append(host.measure(
            lambda: wl.proc_pass(workload, inputs, obs=False))),
        on.append(host.measure(
            lambda: wl.proc_pass(workload, inputs, obs=True))),
    ))
    passes = off + on
    attempted = sum(p["tuples"] for p in [warm] + passes)
    failed = sum(p["order"]["failed"] for p in [warm] + passes)
    # The ceiling's makespan and latency are on the parent's CPU clock
    # (see workloads.proc_pass), so they are calibrated like the CPU
    # figures; the trickle's are wall-clock.
    if workload == "proc-ceiling-b64":
        def timing(key: str) -> float:
            return statistics.median(calibrated(p, key) for p in off)
    else:
        def timing(key: str) -> float:
            return statistics.median(p[key] for p in off)
    tuples = off[0]["tuples"]
    cpu_off = statistics.median(calibrated(p) for p in off)
    metrics = {
        # Spawn and connect is wall time; over ten runs it tracked the
        # wire probe (0.099 s at 1.7 µs per probe record, 0.12 s at
        # 2.1 µs) and the quotient held within 4%.
        "setup_s": statistics.median(calibrated(p, "setup_s") for p in passes),
        "sim_tuples_per_cpu_s": tuples / cpu_off,
        "sim_makespan_s": timing("makespan_s"),
        "obs_tuples_per_cpu_s": (
            tuples / statistics.median(calibrated(p) for p in on)),
        "proc_cpu_us_per_tuple": cpu_off / tuples * 1e6,
        "latency_p50_ms": timing("latency_p50_ms"),
        "latency_p99_ms": timing("latency_p99_ms"),
    }
    info = {
        "passes": {"obs_off": len(off), "obs_on": len(on), "warm_up": 1},
        "errors": [p["error"] for p in [warm] + passes if p["error"]],
        "order": [p["order"] for p in passes],
        "latency_samples_per_pass": off[0]["tuples"],
        "wall_tuples_per_s": statistics.median(
            p["tuples"] / p["wall_s"] for p in off),
        "parent_cpu_us_per_tuple": statistics.median(
            calibrated(p, "parent_cpu_s") / p["tuples"] * 1e6 for p in off),
        "worker_cpu_us_per_tuple": statistics.median(
            calibrated(p, "worker_cpu_s") / p["tuples"] * 1e6 for p in off),
        "cpu_s_off": [p["cpu_s"] for p in off],
        "cpu_s_on": [p["cpu_s"] for p in on],
        "slowdown_off": [p["slowdown"] for p in off],
        "slowdown_on": [p["slowdown"] for p in on],
        "spread_cpu_us_off": spread(
            [p["cpu_s"] / p["tuples"] * 1e6 for p in off]),
        "spread_calibrated_cpu_us_off": spread(
            [calibrated(p) / p["tuples"] * 1e6 for p in off]),
        "obs_cost_ratio": (
            metrics["sim_tuples_per_cpu_s"] / metrics["obs_tuples_per_cpu_s"]
            - 1.0
        ),
        "generator_late_p99_ms": statistics.median(
            p["late_p99_ms"] for p in off),
        "restarts": [p["stats"].restarts for p in passes],
    }
    return metrics, attempted, failed, info


# ------------------------------------------------------------- traced runs


def _fn(summary: dict, layer: str, qualname: str, key: str):
    return summary["functions"].get(f"{layer}:{qualname}", {}).get(key, 0)


def traced_sim(wl, tracing, workload: str, seed: int, reference: dict):
    jitter_seed = wl.sub_seed(seed, 0)
    untraced = wl.sim_pass(workload, jitter_seed, obs=False)
    tracer = tracing.Tracer()
    wrapped = tracing.install(tracer)
    tracer.enabled = True
    traced = wl.sim_pass(workload, jitter_seed, obs=False, keep_result=True)
    tracer.enabled = False
    summary = tracer.summarize()
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"{workload}-seed{seed}.spans"))
    tracer.reset()
    tracer.enabled = True
    traced_on = wl.sim_pass(workload, jitter_seed, obs=True)
    tracer.enabled = False
    summary_on = tracer.summarize()

    passes = (untraced, traced, traced_on)
    stored = reference.get(workload) if seed == wl.DEFAULT_SEED else None
    expected = stored[0] if stored else untraced["fingerprint"]
    failed = sum(
        p["tuples"] for p in passes
        if not p["ok"] or p["fingerprint"] != expected
    )
    attempted = sum(p["tuples"] for p in passes)
    result = traced["result"]
    layers = summary["layers"]

    def self_cpu(layer: str, s: dict = summary) -> float:
        return s["layers"].get(layer, {}).get("self_cpu_s", 0.0)

    def calls(layer: str) -> int:
        return layers.get(layer, {}).get("calls", 0)

    conn = "SimulatedConnection"
    sends = sum(
        _fn(summary, "net.connection", f"{conn}.{m}", "calls")
        for m in ("send_nowait", "send_many", "send_run")
    )
    runs = sum(
        _fn(summary, "streams.pe", f"WorkerPE.{m}", "calls")
        for m in ("_complete", "_complete_run")
    )
    accepts = sum(
        _fn(summary, "streams.merger", f"OrderedMerger.{m}", "calls")
        for m in ("accept", "accept_run", "accept_runs")
    )
    rounds = _fn(summary, "core.balancer", "LoadBalancer.update", "calls")
    round_cpu = _fn(summary, "core.balancer", "LoadBalancer.update", "incl_cpu_s")
    explained = sum(v["self_cpu_s"] for v in layers.values())
    metrics = dict.fromkeys(PER_LAYER, 0)
    metrics.update({
        "sim.engine.events": result.events_processed,
        "sim.engine.self_cpu_s": self_cpu("sim.engine"),
        "streams.splitter.dispatches": (
            result.batches_dispatched or result.total_sent),
        "streams.splitter.block_episodes": result.block_events,
        "streams.splitter.self_cpu_s": self_cpu("streams.splitter"),
        "core.policies.calls": calls("core.policies"),
        "core.policies.self_cpu_s": self_cpu("core.policies"),
        "net.connection.sends": sends,
        "net.connection.self_cpu_s": self_cpu("net.connection"),
        "streams.pe.runs": runs,
        "streams.pe.tuples_per_run": result.emitted / runs if runs else 0.0,
        "streams.pe.self_cpu_s": self_cpu("streams.pe"),
        "streams.merger.accepts": accepts,
        "streams.merger.pending_peak": result.max_merger_pending,
        "streams.merger.self_cpu_s": self_cpu("streams.merger"),
        "core.balancer.rounds": rounds,
        "core.balancer.cpu_s_per_round": round_cpu / rounds if rounds else 0.0,
        "obs.self_cpu_s": self_cpu("obs", summary_on),
        "trace.overhead_ratio": traced["cpu_s"] / untraced["cpu_s"],
        "trace.unexplained_share": 1.0 - explained / traced["cpu_s"],
    })
    for layer in ("core.rate_function", "core.monotone", "core.rap",
                  "core.clustering"):
        metrics[f"{layer}.calls"] = calls(layer)
        metrics[f"{layer}.self_cpu_s"] = self_cpu(layer)
    info = {
        "wrapped_functions": wrapped,
        "spans": summary["spans"],
        "spans_obs_on": summary_on["spans"],
        "untraced_cpu_s": untraced["cpu_s"],
        "traced_cpu_s": traced["cpu_s"],
        "traced_obs_on_cpu_s": traced_on["cpu_s"],
        "layer_self_cpu_s": {k: v["self_cpu_s"] for k, v in layers.items()},
        "layer_self_cpu_s_obs_on": {
            k: v["self_cpu_s"] for k, v in summary_on["layers"].items()},
        "absent": {
            m: "process-backend layer; not exercised by a simulator workload"
            for m in PER_LAYER
            if m.split(".")[0] in ("proc", "generator")
            or m.startswith("net.framing")
        },
    }
    if metrics["trace.unexplained_share"] > 0.10:
        info["unexplained_note"] = (
            "over 10% of traced CPU is outside every layer span: code in "
            "repro.experiments.runner (config and result assembly) and the "
            "tracer's own bookkeeping between spans"
        )
    return metrics, attempted, failed, info


def traced_proc(wl, tracing, workload: str, seed: int):
    inputs = wl.proc_inputs(workload, seed)
    untraced = wl.proc_pass(workload, inputs, obs=False)
    tracer = tracing.Tracer()
    wrapped = tracing.install(tracer)
    tracer.enabled = True
    traced = wl.proc_pass(workload, inputs, obs=False)
    tracer.enabled = False
    summary = tracer.summarize()
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"{workload}-seed{seed}.spans"))

    passes = (untraced, traced)
    attempted = sum(p["tuples"] for p in passes)
    failed = sum(p["order"]["failed"] for p in passes)
    n = untraced["tuples"]
    stats = untraced["stats"]
    framing = [
        (qual, rec) for key, rec in summary["functions"].items()
        for layer, qual in [key.split(":", 1)] if layer == "net.framing"
    ]
    encode = [rec for qual, rec in framing if "encode" in qual]
    decode = [rec for qual, rec in framing if "encode" not in qual]
    submit_self = _fn(
        summary, "proc.region", "ProcessRegion.submit", "self_wall_s")
    results = stats.per_worker_results
    explained = sum(v["self_cpu_s"] for v in summary["layers"].values())
    metrics = dict.fromkeys(PER_LAYER, 0)
    metrics.update({
        "proc.region.submit.calls": _fn(
            summary, "proc.region", "ProcessRegion.submit", "calls"),
        "proc.region.submit.self_s": submit_self,
        "proc.region.blocked_s": sum(stats.blocked_seconds),
        "proc.region.drain_s": _fn(
            summary, "proc.region", "ProcessRegion.drain", "incl_wall_s"),
        "proc.region.parent_cpu_us_per_tuple": untraced["parent_cpu_s"] / n * 1e6,
        "net.framing.encode.calls": sum(r["calls"] for r in encode),
        "net.framing.encode.self_s": sum(r["self_wall_s"] for r in encode),
        "net.framing.decode.calls": sum(r["calls"] for r in decode),
        "net.framing.decode.self_s": sum(r["self_wall_s"] for r in decode),
        "net.framing.frames_sent_per_tuple": stats.wire_frames_sent / n,
        "net.framing.frames_recv_per_tuple": stats.wire_frames_received / n,
        "net.framing.bytes_per_tuple": stats.wire_bytes_sent / n,
        "net.framing.data_flushes": stats.data_flushes,
        "net.framing.mean_batch_occupancy": stats.mean_batch_occupancy,
        "proc.worker.worker_cpu_us_per_tuple": untraced["worker_cpu_s"] / n * 1e6,
        "proc.worker.per_worker_results_skew": (
            max(results) / (sum(results) / len(results)) if sum(results) else 0.0),
        "proc.supervisor.ttq_ms": (stats.time_to_quarantine or 0.0) * 1e3,
        "proc.supervisor.ttr_ms": (stats.time_to_reconverge or 0.0) * 1e3,
        "proc.supervisor.restarts": stats.restarts,
        "proc.supervisor.replayed": stats.replayed,
        "proc.supervisor.duplicates_dropped": stats.duplicates_dropped,
        "generator.late_p99_ms": untraced["late_p99_ms"],
        "generator.late_max_ms": untraced["late_max_ms"],
        "generator.wall_tuples_per_s": n / untraced["wall_s"],
        "trace.overhead_ratio": traced["parent_cpu_s"] / untraced["parent_cpu_s"],
        "trace.unexplained_share": 1.0 - explained / traced["parent_cpu_s"],
    })
    absent = {
        m: "simulator layer; not exercised by a process-backend workload"
        for m in PER_LAYER
        if m.split(".")[0] in ("sim", "streams", "core", "obs")
        or m.startswith("net.connection")
    }
    if workload == "proc-ceiling-b64":
        for m in PER_LAYER:
            if m.startswith(("proc.supervisor.", "generator.late")):
                absent[m] = "no fault and no open-loop schedule on this workload"
    info = {
        "wrapped_functions": wrapped,
        "spans": summary["spans"],
        "untraced_parent_cpu_s": untraced["parent_cpu_s"],
        "traced_parent_cpu_s": traced["parent_cpu_s"],
        "layer_self_cpu_s": {
            k: v["self_cpu_s"] for k, v in summary["layers"].items()},
        "layer_self_wall_s": {
            k: v["self_wall_s"] for k, v in summary["layers"].items()},
        "absent": absent,
        "unexplained_note": (
            "parent threads outside any layer span: the benchmark's own "
            "load loop and sink, the RealFaultDriver thread, and interpreter overhead"
        ),
        "errors": [p["error"] for p in passes if p["error"]],
    }
    return metrics, attempted, failed, info


# ------------------------------------------------------------------- main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        with Sampler() as sampler:
            import workloads as wl

            wl.sim_setup(args.workload, args.seed)
        print(sampler.program_cpu / sampler.slowdown)
        return 0
    import workloads as wl

    if args.workload not in wl.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.NAMES)}", file=sys.stderr)
        return 2

    reference = load_reference()
    jiffies0 = cpu_jiffies()
    if args.trace:
        import tracing

        if args.workload in wl.SIM:
            metrics, attempted, failed, info = traced_sim(
                wl, tracing, args.workload, args.seed, reference)
        else:
            metrics, attempted, failed, info = traced_proc(
                wl, tracing, args.workload, args.seed)
        units = {m: spec[0] for m, spec in PER_LAYER.items()}
        info["layer_to_end_to_end"] = {
            m: {"moves": spec[1], "on": spec[2]} for m, spec in PER_LAYER.items()
        }
    else:
        if args.workload in wl.SIM:
            metrics, attempted, failed, info = timed_sim(
                wl, args.workload, args.seed, args.seconds, reference)
        else:
            metrics, attempted, failed, info = timed_proc(
                wl, args.workload, args.seed, args.seconds)
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = END_TO_END
    info["provenance"] = provenance(args.seed, jiffies0, cpu_jiffies())
    info["elapsed_s"] = time.perf_counter() - t_start

    out = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    os.makedirs(OUT, exist_ok=True)
    record = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as f:
        json.dump({"result": out, "info": info}, f, indent=1, default=str)
    for key, value in info.items():
        print(f"perfbench {key}: {json.dumps(value, default=str)}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

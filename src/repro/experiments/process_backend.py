"""Run an :class:`ExperimentConfig` on the multi-process backend.

The simulator backend models time; this backend *spends* it: the same
configuration vocabulary (workers, hosts, tuple cost, fault schedule,
policy) is executed as real OS processes over real sockets via
:class:`repro.proc.region.ProcessRegion`, and the same
:class:`~repro.experiments.runner.RunResult` comes back — with
wall-clock time standing in for simulated time, and scheduled faults
delivered as real signals by
:class:`~repro.proc.faults.RealFaultDriver`.

Mapping from configuration to wall time: the fastest host's thread
speed sets the base per-tuple cost in seconds
(``tuple_cost / max_thread_speed``), and every worker gets a service
multiplier ``max_speed / its_speed * initial_load_multiplier`` — ratios
between workers, which is all the paper's results depend on, are
preserved exactly.

What does **not** map (and raises, loudly, instead of silently lying):
open-loop arrival rates, overload bursts, timed load-schedule events,
and the ``reroute``/``oracle`` policies — all are defined in terms of
simulator machinery with no process equivalent yet.
"""

from __future__ import annotations

import dataclasses
import time

from repro.core.balancer import LoadBalancer, even_split
from repro.experiments.config import ExperimentConfig, HostSpec
from repro.experiments.runner import RunResult
from repro.faults.schedule import FaultSchedule
from repro.obs.export import write_exports
from repro.obs.hub import ObservabilityHub, ObsReport
from repro.proc.faults import RealFaultDriver
from repro.proc.region import ProcessRegion
from repro.proc.supervisor import SupervisorConfig
from repro.streams.region import RegionParams
from repro.util.timeseries import TimeSeries

#: Policies the process backend can execute.
PROCESS_POLICIES = ("rr", "fixed", "lb-static", "lb-adaptive")


def run_process_experiment(
    config: ExperimentConfig,
    policy: str,
    *,
    record_series: bool = True,
    fixed_weights: list[int] | None = None,
    worker_mode: str = "sleep",
    window: int = 32,
    supervisor_config: SupervisorConfig | None = None,
    timeout: float | None = None,
) -> RunResult:
    """Execute ``config`` with real worker processes; return a RunResult.

    ``worker_mode="spin"`` makes workers burn CPU for their service time
    (true multi-core load); ``"sleep"`` (default) sleeps it, which keeps
    tests cheap and timing identical.
    """
    if policy not in PROCESS_POLICIES:
        raise ValueError(
            f"policy {policy!r} is not executable on the process backend; "
            f"choose from {PROCESS_POLICIES}"
        )
    if (policy == "fixed") != (fixed_weights is not None):
        raise ValueError("fixed_weights is required iff policy='fixed'")
    if config.total_tuples is None:
        raise ValueError(
            "the process backend runs finite tuple budgets: set "
            "total_tuples"
        )
    if config.arrival_rate is not None:
        raise ValueError(
            "the process backend has no open-loop rated source; unset "
            "arrival_rate"
        )
    if config.load_schedule.events or config.load_schedule.count_events:
        raise ValueError(
            "timed/progress load-schedule events are not supported on "
            "the process backend (initial multipliers are)"
        )

    n = config.n_workers
    speeds = [
        config.host_specs[h].thread_speed for h in config.worker_host
    ]
    base_speed = max(speeds)
    cost_seconds = config.tuple_cost / base_speed
    load = config.load_schedule.initial_multipliers(n)
    multipliers = [
        (base_speed / speeds[j]) * load[j] for j in range(n)
    ]

    resolution = config.balancer.resolution
    balancer: LoadBalancer | None = None
    initial_weights: list[float] | None = None
    if policy == "rr":
        initial_weights = [1.0] * n
    elif policy == "fixed":
        assert fixed_weights is not None
        initial_weights = [float(w) for w in fixed_weights]
    else:
        balancer_config = config.balancer
        if policy == "lb-static" and balancer_config.decay != 0.0:
            balancer_config = dataclasses.replace(balancer_config, decay=0.0)
        balancer = LoadBalancer(n, balancer_config)

    if supervisor_config is None:
        # Scale liveness detection off the recovery tunables so one
        # config describes both backends' failure handling.
        supervisor_config = SupervisorConfig(
            heartbeat_interval=max(
                0.02, config.recovery.staleness_timeout / 5.0
            ),
            heartbeat_timeout=config.recovery.staleness_timeout,
            monitor_interval=min(0.05, config.recovery.check_interval),
            worker_mode=worker_mode,
            seed=config.region.seed,
        )

    region = ProcessRegion(
        n,
        multipliers=multipliers,
        window=window,
        batch_size=config.region.batch_size,
        supervisor_config=supervisor_config,
        balancer=balancer,
        balancer_interval=config.sample_interval,
        initial_weights=initial_weights,
    )

    hub: ObservabilityHub | None = None
    if config.region.observability:
        hub = ObservabilityHub(region.clock, config.obs)
        region.attach_observability(hub)
        if balancer is not None:
            balancer.attach_audit(hub.audit, region.clock)
            hub.link_round_source(lambda: balancer.rounds)

    driver: RealFaultDriver | None = None
    if not config.fault_schedule.empty():
        driver = RealFaultDriver(region)
        config.fault_schedule.arm_real(driver)

    total = config.total_tuples
    budget = timeout if timeout is not None else config.horizon()
    completed = False
    try:
        # Spawn and connect are warm-up, not run time, and a fault must
        # not fire at a worker that never connected.
        region.start().wait_ready(timeout=budget)
        wall_start = time.perf_counter()
        if driver is not None:
            driver.start()
        for _ in range(total):
            region.submit(cost_seconds)
        region.drain(timeout=budget)
        completed = True
    finally:
        if driver is not None:
            driver.stop()
        region.close()
    wall_seconds = time.perf_counter() - wall_start
    stats = region.stats()

    obs_report: ObsReport | None = None
    if hub is not None:
        hub.finalize(region.clock())
        obs_report = hub.report()
        write_exports(obs_report, config.obs)

    if balancer is not None:
        final_weights = balancer.weights
    elif initial_weights is not None:
        total_w = sum(initial_weights)
        final_weights = [
            round(w * resolution / total_w) for w in initial_weights
        ]
    else:  # pragma: no cover - unreachable given the policy gate
        final_weights = even_split(resolution, n)

    throughput = TimeSeries("throughput")
    if record_series and stats.wall_seconds > 0:
        throughput.record(
            stats.wall_seconds, stats.results / stats.wall_seconds
        )

    return RunResult(
        name=config.name,
        policy=policy,
        n_workers=n,
        execution_time=stats.wall_seconds if completed else None,
        completed=completed,
        emitted=stats.results,
        sim_time=stats.wall_seconds,
        throughput_series=throughput,
        latency_series=TimeSeries("latency"),
        weight_series=[TimeSeries(f"weight[{j}]") for j in range(n)],
        rate_series=[TimeSeries(f"blocking_rate[{j}]") for j in range(n)],
        cluster_snapshots=[],
        rerouted=0,
        total_sent=stats.tuples + stats.replayed,
        block_events=sum(
            c.lifetime_episodes for c in region.block_counters
        ),
        final_weights=final_weights,
        quarantines=stats.episodes,
        time_to_quarantine=stats.time_to_quarantine,
        time_to_reconverge=stats.time_to_reconverge,
        tuples_replayed=stats.replayed,
        tuples_lost=0,
        events_processed=0,
        wall_seconds=wall_seconds,
        worker_restarts=stats.restarts,
        obs=obs_report,
    )


def process_scenario(
    *,
    n_workers: int = 4,
    total_tuples: int = 400,
    tuple_cost_seconds: float = 0.002,
    crash_worker: int | None = 1,
    crash_at_emitted: int | None = None,
    crash_at: float = 0.3,
    batch_size: int = 1,
) -> ExperimentConfig:
    """The canonical process-backend scenario: real workers, one kill.

    By default worker ``crash_worker`` is SIGKILLed at ``crash_at``
    seconds of wall time; pass ``crash_at_emitted`` to trigger on merger
    progress instead, and ``crash_worker=None`` for a fault-free run.
    The tuple cost is given directly in seconds of service time (the
    host spec is derived so that ``tuple_cost / thread_speed`` lands on
    it exactly). ``batch_size`` selects the batched wire protocol
    (``DATA_BATCH``/``RESULT_BATCH`` runs); 1 keeps the per-tuple wire.
    """
    schedule = FaultSchedule.none()
    if crash_worker is not None:
        if crash_at_emitted is not None:
            schedule = FaultSchedule.crash_after_emitted(
                crash_worker, crash_at_emitted
            )
        else:
            schedule = FaultSchedule.crash(crash_worker, at=crash_at)
    speed = 1e6
    return ExperimentConfig(
        name="process-kill-recovery",
        n_workers=n_workers,
        tuple_cost=tuple_cost_seconds * speed,
        host_specs=[HostSpec("local", thread_speed=speed)],
        worker_host=[0] * n_workers,
        total_tuples=total_tuples,
        splitter_cost_multiplies=None,
        region=RegionParams(backend="process", batch_size=batch_size),
        fault_schedule=schedule,
    )

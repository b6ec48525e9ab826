"""End-to-end experiment runner.

Builds the full stack from an :class:`ExperimentConfig` — simulation,
network fabric, cluster, HDFS with placement policy, workload pools, the
common submission trace, the chosen cluster manager and one driver per
application — replays the trace, runs the simulation to quiescence and
returns the collected metrics.

Determinism: every stochastic component draws from its own named stream of
a single :class:`~repro.common.rng.RngStreams` derived from ``config.seed``,
and the submission trace plus all job structures are materialised *before*
the simulation starts.  Two configs differing only in ``manager`` therefore
see byte-identical workloads — the paper's common-schedule methodology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.common.errors import ConfigurationError
from repro.common.rng import RngStreams
from repro.common.units import BlockSpec
from repro.experiments.config import ExperimentConfig
from repro.faults.detector import AdaptiveFailureDetector, FailureDetector
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, ManagerCrash
from repro.hdfs.filesystem import HDFS
from repro.hdfs.placement import (
    PlacementPolicy,
    PopularityAwarePlacement,
    RackAwarePlacement,
    RandomPlacement,
)
from repro.managers.admission import AdmissionController
from repro.managers.base import ClusterManager
from repro.managers.custody import CustodyManager
from repro.managers.mesos import MesosManager
from repro.managers.recovery import RecoveryCoordinator
from repro.managers.standalone import StandaloneManager
from repro.managers.yarn import YarnManager
from repro.metrics.collector import (
    ExperimentMetrics,
    FaultStats,
    MetricsCollector,
    PerfCounters,
)
from repro.network.fabric import NetworkFabric
from repro.obs.events import DRIVER, ENGINE, NETWORK
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.sinks import RingSink
from repro.obs.timeseries import TimeSeriesSampler
from repro.obs.tracer import Tracer
from repro.scheduling.driver import ApplicationDriver
from repro.scheduling.policies import (
    DelayScheduler,
    FifoScheduler,
    HintedDelayScheduler,
    LocalityFirstScheduler,
    TaskScheduler,
)
from repro.simulation.engine import Simulation
from repro.simulation.timeline import Timeline
from repro.workload.application import Application
from repro.workload.generators import JobFactory, profile_by_name
from repro.workload.job import Job
from repro.workload.trace import SubmissionTrace, common_schedule

__all__ = ["ExperimentResult", "run_experiment"]


@dataclass
class ExperimentResult:
    """Everything a bench or test needs from one run."""

    config: ExperimentConfig
    metrics: ExperimentMetrics
    apps: List[Application]
    sim_time: float
    allocation_rounds: int
    timeline: Optional[Timeline] = None
    manager: Optional[ClusterManager] = None
    fault_injector: Optional[FaultInjector] = None
    speculative_launches: int = 0
    speculative_wins: int = 0
    perf: Optional[PerfCounters] = None
    faults: Optional[FaultStats] = None
    tracer: Optional[Tracer] = None
    trace_events: Optional[list] = None
    sampler: Optional[TimeSeriesSampler] = None
    registry: Optional[MetricsRegistry] = None
    recovery: Optional[RecoveryCoordinator] = None


def _make_placement(config: ExperimentConfig) -> PlacementPolicy:
    if config.placement == "random":
        return RandomPlacement()
    if config.placement == "rack-aware":
        return RackAwarePlacement()
    return PopularityAwarePlacement(max_replicas=2 * config.replication + 1)


def _make_scheduler(config: ExperimentConfig, cluster: Cluster) -> TaskScheduler:
    if config.scheduler == "delay":
        cls = (
            HintedDelayScheduler
            if config.custody_enforce_hints and config.manager == "custody"
            else DelayScheduler
        )
        return cls(
            wait=config.delay_wait,
            rack_wait=config.rack_wait,
            topology=cluster.topology if config.rack_wait is not None else None,
        )
    if config.scheduler == "fifo":
        return FifoScheduler()
    return LocalityFirstScheduler()


def _make_manager(
    config: ExperimentConfig,
    sim: Simulation,
    cluster: Cluster,
    streams: RngStreams,
    tracer: Optional[Tracer] = None,
    perf: Optional[PerfCounters] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> ClusterManager:
    weights = None
    if config.app_weights is not None:
        weights = dict(zip(config.app_ids, config.app_weights))
    if config.manager == "standalone":
        return StandaloneManager(
            sim,
            cluster,
            num_apps=config.num_apps,
            rng=streams.get("manager.standalone"),
            spread=config.spread,
            weights=weights,
            tracer=tracer,
            coalesce=config.alloc_coalesce,
            counters=perf,
            metrics=metrics,
        )
    if config.manager == "yarn":
        return YarnManager(
            sim,
            cluster,
            num_apps=config.num_apps,
            weights=weights,
            tracer=tracer,
            coalesce=config.alloc_coalesce,
            counters=perf,
            metrics=metrics,
        )
    if config.manager == "mesos":
        return MesosManager(
            sim,
            cluster,
            num_apps=config.num_apps,
            offer_interval=config.mesos_offer_interval,
            weights=weights,
            tracer=tracer,
            coalesce=config.alloc_coalesce,
            counters=perf,
            metrics=metrics,
        )
    return CustodyManager(
        sim,
        cluster,
        num_apps=config.num_apps,
        fill=config.custody_fill,
        validate=config.validate_plans,
        weights=weights,
        tracer=tracer,
        coalesce=config.alloc_coalesce,
        counters=perf,
        metrics=metrics,
    )


def _make_sampler(
    config: ExperimentConfig,
    sim: Simulation,
    tracer: Tracer,
    cluster: Cluster,
    fabric: NetworkFabric,
    drivers: Dict[str, ApplicationDriver],
    manager: Optional[ClusterManager] = None,
) -> TimeSeriesSampler:
    """Standard time-series probes: utilization, queues, locality, network."""
    sampler = TimeSeriesSampler(sim, tracer, interval=config.trace_sample_interval)
    executors = cluster.executors
    total_slots = sum(e.slots for e in executors) or 1

    def busy_fraction() -> float:
        return sum(len(e.running_tasks) for e in executors) / total_slots

    def pending_tasks() -> float:
        return float(sum(d.runnable_count for d in drivers.values()))

    def local_job_fraction() -> float:
        # The apps' live locality counters equal a rescan of is_local_job.
        decided = sum(d.app.decided_job_count for d in drivers.values())
        locals_ = sum(d.app.local_job_count for d in drivers.values())
        return locals_ / decided if decided else 0.0

    sampler.add_series("executors.busy_fraction", busy_fraction, cat=DRIVER)
    sampler.add_series("tasks.pending", pending_tasks, cat=DRIVER)
    sampler.add_series("jobs.local_fraction", local_job_fraction, cat=DRIVER)
    sampler.add_series(
        "net.throughput", fabric.aggregate_rate, cat=NETWORK, track="fabric"
    )
    sampler.add_series(
        "engine.pending_events",
        lambda: float(sim.pending_events),
        cat=ENGINE,
        track="engine",
    )
    sampler.add_series(
        "engine.events_processed",
        lambda: float(sim.events_processed),
        cat=ENGINE,
        track="engine",
    )
    if manager is not None:
        sampler.add_series(
            "manager.alloc_rounds",
            lambda: float(manager.allocation_rounds),
            cat=DRIVER,
            track=f"manager:{manager.name}",
        )
    return sampler


def run_experiment(
    config: ExperimentConfig,
    *,
    max_sim_time: float = 1e7,
    fault_plan: Optional[FaultPlan] = None,
    trace: Optional[SubmissionTrace] = None,
    tracer: Optional[Tracer] = None,
) -> ExperimentResult:
    """Execute one evaluation run; see module docstring.

    ``max_sim_time`` is a safety net: a policy/scheduler combination that
    livelocks (e.g. locality-first scheduling on a data-unaware manager)
    terminates there with its unfinished jobs reported in the metrics.
    ``fault_plan`` optionally injects slowdowns / executor crashes / disk
    failures into the run (see :mod:`repro.faults`).
    ``trace`` replays a caller-supplied submission schedule instead of the
    generated common schedule — its app ids must be a subset of
    ``config.app_ids`` and its per-app job indices contiguous from zero
    (one job is built per event, in trace order).
    ``tracer`` attaches an observability tracer (:mod:`repro.obs`) to every
    layer of the stack; when None and ``config.trace`` is set, a default
    :class:`Tracer` with an in-memory ring sink is built.  The tracer's
    clock is bound to this run's virtual clock either way.
    ``config.timeline_enabled`` attaches a :class:`Timeline` sink to that
    tracer, or to a private one when the run is not traced.
    """
    streams = RngStreams(seed=config.seed)
    sim = Simulation()
    perf = PerfCounters() if config.perf_counters else None
    if tracer is None and config.trace:
        tracer = Tracer(sinks=[RingSink()])
    # The tracer every component emits into.
    run_tracer = tracer
    timeline: Optional[Timeline] = None
    if config.timeline_enabled:
        timeline = Timeline(clock=lambda: sim.now)
        if run_tracer is None:
            run_tracer = Tracer(sinks=[timeline])
        else:
            run_tracer.add_sink(timeline)
    if run_tracer is not None:
        run_tracer.clock = lambda: sim.now
    registry: Optional[MetricsRegistry] = None
    metrics = NULL_METRICS
    if config.metrics:
        registry = MetricsRegistry(clock=lambda: sim.now)
        metrics = registry
    fabric = NetworkFabric(
        sim,
        counters=perf,
        tracer=run_tracer,
        metrics=metrics,
    )
    cluster = Cluster(
        ClusterConfig(
            num_nodes=config.num_nodes,
            cores_per_node=config.cores_per_node,
            memory_per_node=config.memory_per_node,
            disk_bandwidth=config.disk_bandwidth,
            uplink=config.uplink,
            downlink=config.downlink,
            executors_per_node=config.executors_per_node,
            executor_slots=config.executor_slots,
            nodes_per_rack=config.nodes_per_rack,
        ),
        fabric=fabric,
    )
    hdfs = HDFS(
        cluster,
        block_spec=BlockSpec(size=config.block_size, replication=config.replication),
        placement=_make_placement(config),
        rng=streams.get("hdfs.placement"),
        cache_per_node=config.cache_per_node,
    )

    profile = profile_by_name(config.workload)
    factory = JobFactory(
        hdfs,
        streams.get("workload.jobs"),
        pool_size=config.pool_size,
        popularity_skew=config.popularity_skew,
    )
    if trace is None:
        trace = common_schedule(
            list(config.app_ids),
            config.jobs_per_app,
            streams.get("workload.arrivals"),
            mean_interarrival=config.mean_interarrival,
        )
    else:
        unknown = {e.app_id for e in trace} - set(config.app_ids)
        if unknown:
            raise ConfigurationError(
                f"trace references apps not in the config: {sorted(unknown)}"
            )
    # Materialise every job in trace order so job structure is independent
    # of the manager policy under test.
    jobs: Dict[tuple, Job] = {}
    for event in trace:
        jobs[(event.app_id, event.job_index)] = factory.build_job(
            event.app_id,
            profile,
            expected_jobs=config.jobs_per_app,
            input_fraction=config.kmn_fraction,
        )

    manager = _make_manager(config, sim, cluster, streams, run_tracer, perf, metrics)
    if config.admission_control:
        manager.attach_admission(
            AdmissionController(
                sim,
                factor=config.admission_factor,
                retry_interval=config.admission_retry,
            )
        )
    recovery: Optional[RecoveryCoordinator] = None
    if config.manager_recovery:
        recovery = RecoveryCoordinator(
            sim,
            lease_duration=config.lease_duration,
            lease_renew_interval=config.lease_renew_interval,
            checkpoint_interval=config.checkpoint_interval,
            reconciliation_window=config.reconciliation_window,
            wal_flush_lag=config.wal_flush_lag,
            tracer=run_tracer,
            metrics=metrics,
        )
        manager.attach_recovery(recovery)
    if (
        fault_plan is not None
        and recovery is None
        and any(isinstance(e, ManagerCrash) for e in fault_plan)
    ):
        raise ConfigurationError(
            "fault plan contains ManagerCrash events but manager_recovery "
            "is off; enable it on the ExperimentConfig"
        )
    injector: Optional[FaultInjector] = None
    detector: Optional[FailureDetector] = None
    if fault_plan is not None and len(fault_plan):
        if config.detector_timeout is not None:
            if config.detector_mode == "adaptive":
                detector = AdaptiveFailureDetector(
                    sim,
                    interval=config.heartbeat_interval,
                    suspect_after=config.detector_suspect_after,
                    dead_after=config.detector_dead_after,
                    tracer=run_tracer,
                    metrics=metrics,
                )
            else:
                detector = FailureDetector(
                    sim,
                    interval=config.heartbeat_interval,
                    timeout=config.detector_timeout,
                    tracer=run_tracer,
                    metrics=metrics,
                )
        injector = FaultInjector(
            sim, cluster, hdfs, fault_plan,
            fabric=fabric,
            detector=detector,
            network_timeout=config.network_timeout,
            re_replication_parallelism=config.re_replication_parallelism,
            tracer=run_tracer,
            metrics=metrics,
        )
        injector.bind_manager(manager)
        manager.fault_injector = injector
        manager.detector = detector
    drivers: Dict[str, ApplicationDriver] = {}
    for app_id in config.app_ids:
        app = Application(app_id, executor_quota=manager.quota_of(app_id))
        driver = ApplicationDriver(
            sim,
            app,
            cluster,
            hdfs,
            fabric,
            _make_scheduler(config, cluster),
            speculation=config.speculation,
            speculation_quantile=config.speculation_quantile,
            speculation_multiplier=config.speculation_multiplier,
            fault_injector=injector,
            shuffle_fanout=config.shuffle_fanout,
            max_task_attempts=config.max_task_attempts,
            retry_backoff=config.retry_backoff,
            blacklist_threshold=config.blacklist_threshold,
            blacklist_window=config.blacklist_window,
            blacklist_timeout=config.blacklist_timeout,
            retry_jitter_rng=(
                streams.get(f"driver.retry.{app_id}") if config.retry_jitter else None
            ),
            retry_budget=config.retry_budget,
            retry_refill=config.retry_refill,
            submission_retry_limit=config.submission_retry_limit,
            circuit_breaker=config.circuit_breaker,
            hedging=config.hedging,
            hedge_quantile=config.hedge_quantile,
            hedge_multiplier=config.hedge_multiplier,
            tracer=run_tracer,
            metrics=metrics,
        )
        drivers[app_id] = driver
        manager.register_driver(driver)

    for event in trace:
        job = jobs[(event.app_id, event.job_index)]
        sim.schedule_at(event.time, drivers[event.app_id].submit_job, job)

    sampler: Optional[TimeSeriesSampler] = None
    if tracer is not None and tracer.enabled:
        sampler = _make_sampler(config, sim, tracer, cluster, fabric, drivers, manager)
        sampler.start()

    # Drain events up to the safety cap without advancing the clock past the
    # last real event (run(until=...) would park the clock at the cap).
    while True:
        nxt = sim.peek()
        if nxt is None or nxt > max_sim_time:
            break
        sim.step()
    if sampler is not None:
        sampler.flush()
    if sim.pending_events:
        # Hit the safety cap with work still queued: surface it loudly for
        # configurations that are *expected* to finish.
        unfinished = sum(
            1 for d in drivers.values() for j in d.app.jobs if not j.finished
        )
        if unfinished and max_sim_time >= 1e7:
            raise ConfigurationError(
                f"simulation hit max_sim_time={max_sim_time:g} with "
                f"{unfinished} unfinished jobs (policy livelock?)"
            )

    apps = [drivers[a].app for a in config.app_ids]
    summary = MetricsCollector().collect(apps)
    if registry is not None:
        for name, help_, value in (
            ("run_jobs_finished", "Jobs completed by quiescence.", summary.finished_jobs),
            ("run_jobs_unfinished", "Jobs left unfinished at quiescence.", summary.unfinished_jobs),
            ("run_locality_mean", "Mean per-job input locality.", summary.locality_mean),
            ("run_locality_min", "Worst per-job input locality.", summary.locality_min),
            ("run_fairness_index", "Jain's index over per-app local-job fractions.", summary.fairness_index),
            ("run_sim_time", "Virtual seconds simulated.", sim.now),
        ):
            registry.gauge(name, help_).set(value)
    faults: Optional[FaultStats] = None
    if injector is not None:
        breaker_totals = {"opens": 0, "probes": 0, "closes": 0}
        breakers_open = 0
        for d in drivers.values():
            if d.breakers is not None:
                totals = d.breakers.totals()
                for key in breaker_totals:
                    breaker_totals[key] += totals[key]
                # "Open at end" means still *excluding* the node: an OPEN
                # breaker past its cooldown denies nothing (the next launch
                # is its probe), so it has functionally reconverged.
                breakers_open += sum(
                    1 for _, b in d.breakers if not b.would_allow(sim.now)
                )
        admission = manager.admission
        faults = FaultStats(
            injected=injector.injected,
            tasks_requeued=injector.tasks_requeued,
            failed_attempts=sum(d.failed_attempts for d in drivers.values()),
            abandoned_tasks=sum(d.abandoned_tasks for d in drivers.values()),
            data_loss_tasks=sum(d.data_loss_tasks for d in drivers.values()),
            blacklist_events=sum(d.blacklist_events for d in drivers.values()),
            failed_launches=manager.failed_launches,
            detector_reports=detector.reported_failures if detector else 0,
            replicas_lost=injector.replicas_lost,
            replicas_restored=injector.replicas_restored,
            blocks_lost=injector.blocks_lost,
            recovery_flows=injector.recovery_flows,
            recovery_bytes=injector.recovery_bytes,
            transfers_failed=fabric.failed_count,
            mttr={
                kind: float(sum(times) / len(times))
                for kind, times in sorted(injector.mttr.items())
                if times
            },
            detector_suspicions=getattr(detector, "suspicions", 0),
            detector_false_positives=getattr(detector, "false_positives", 0),
            detector_false_negatives=getattr(detector, "false_negatives", 0),
            detector_true_positives=getattr(detector, "true_positives", 0),
            retries_denied=sum(d.retries_denied for d in drivers.values()),
            hedges_launched=sum(d.hedges_launched for d in drivers.values()),
            hedges_won=sum(d.hedges_won for d in drivers.values()),
            hedges_lost=sum(d.hedges_lost for d in drivers.values()),
            breaker_opens=breaker_totals["opens"],
            breaker_probes=breaker_totals["probes"],
            breaker_closes=breaker_totals["closes"],
            breakers_open_at_end=breakers_open,
            admission_deferred=admission.admission_deferred if admission else 0,
            load_shed=admission.load_shed if admission else 0,
            manager_crashes=recovery.manager_crashes if recovery else 0,
            manager_recoveries=recovery.recoveries if recovery else 0,
            recovery_seconds_mean=(
                sum(recovery.recovery_durations) / len(recovery.recovery_durations)
                if recovery and recovery.recovery_durations
                else 0.0
            ),
            leases_readopted=recovery.leases_readopted if recovery else 0,
            leases_expired=recovery.leases_expired if recovery else 0,
            zombies_reclaimed=recovery.zombies_reclaimed if recovery else 0,
            zombies_surviving=recovery.zombies_surviving if recovery else 0,
            wal_replay_entries=recovery.wal_replay_entries if recovery else 0,
            wal_lost_entries=recovery.wal_lost_entries if recovery else 0,
            checkpoints_taken=recovery.log.checkpoints_taken if recovery else 0,
            rounds_stalled=recovery.rounds_stalled if recovery else 0,
            recovery_tasks_requeued=recovery.tasks_requeued if recovery else 0,
            submissions_buffered=sum(
                d.submissions_buffered for d in drivers.values()
            ),
            submission_retries=sum(
                d.submission_retries for d in drivers.values()
            ),
        )
    return ExperimentResult(
        config=config,
        metrics=summary,
        apps=apps,
        sim_time=sim.now,
        allocation_rounds=manager.allocation_rounds,
        timeline=timeline,
        manager=manager,
        fault_injector=injector,
        speculative_launches=sum(d.speculative_launches for d in drivers.values()),
        speculative_wins=sum(d.speculative_wins for d in drivers.values()),
        perf=perf,
        faults=faults,
        tracer=tracer,
        trace_events=tracer.events() if tracer is not None else None,
        sampler=sampler,
        registry=registry,
        recovery=recovery,
    )

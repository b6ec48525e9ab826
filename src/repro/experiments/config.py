"""ExperimentConfig: every knob of an evaluation run, with §VI-A defaults."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.units import GB, GBPS, MB

__all__ = ["ExperimentConfig"]

_MANAGERS = ("custody", "standalone", "yarn", "mesos")
_SCHEDULERS = ("delay", "fifo", "locality-first")
_PLACEMENTS = ("random", "rack-aware", "popularity")
_WORKLOADS = ("pagerank", "wordcount", "sort")


@dataclass(frozen=True)
class ExperimentConfig:
    """One evaluation run.

    Defaults reproduce the paper's setup: a 100-node cluster of 8-core /
    16 GB / 40 Gbps-down / 2 Gbps-up machines with two executors per node,
    128 MB blocks replicated three times, four applications submitting 30
    jobs each with exponential(14 s) inter-arrivals, delay scheduling inside
    every application.
    """

    manager: str = "custody"
    workload: str = "wordcount"
    num_nodes: int = 100
    num_apps: int = 4
    app_weights: Optional[Tuple[float, ...]] = None  # weighted max-min quotas
    jobs_per_app: int = 30
    seed: int = 0
    cores_per_node: int = 8
    memory_per_node: float = 16 * GB
    executors_per_node: int = 2
    executor_slots: int = 4
    nodes_per_rack: int = 20
    disk_bandwidth: float = 500 * MB
    uplink: float = 2 * GBPS
    downlink: float = 40 * GBPS
    block_size: float = 128 * MB
    replication: int = 3
    placement: str = "random"
    cache_per_node: float = 0.0  # in-memory block cache per node (bytes)
    mean_interarrival: float = 14.0
    scheduler: str = "delay"
    delay_wait: float = 3.0
    rack_wait: Optional[float] = None  # enables the node->rack->any ladder
    speculation: bool = False
    speculation_quantile: float = 0.75
    speculation_multiplier: float = 1.5
    pool_size: Optional[int] = None
    popularity_skew: float = 1.2
    kmn_fraction: Optional[float] = None  # KMN [10]: fraction of inputs required
    shuffle_fanout: int = 1  # parallel source nodes per shuffle fetch
    spread: bool = False  # standalone spreadOut mode
    mesos_offer_interval: float = 1.0
    custody_fill: bool = True
    custody_enforce_hints: bool = False  # enforce z^u_ijk suggestions (§V)
    timeline_enabled: bool = False
    validate_plans: bool = False
    alloc_coalesce: bool = True  # coalesce same-instant allocation rounds
    perf_counters: bool = False  # collect PerfCounters from the engine hot paths
    trace: bool = False  # attach a repro.obs Tracer (ring sink) to the run
    trace_sample_interval: float = 5.0  # sim-seconds between time-series samples
    metrics: bool = False  # attach a label-aware MetricsRegistry to every layer
    # ------------------------------------------------ failure-handling knobs
    heartbeat_interval: float = 3.0  # worker heartbeat period (seconds)
    detector_timeout: Optional[float] = None  # None: managers see ground truth
    max_task_attempts: int = 8  # per-task attempt budget before abandoning
    retry_backoff: float = 1.0  # base of the exponential retry backoff
    blacklist_threshold: int = 3  # failures within the window to blacklist
    blacklist_window: float = 60.0  # sliding window for failure counting
    blacklist_timeout: float = 60.0  # how long a blacklisted node stays out
    network_timeout: float = 30.0  # connect timeout for partitioned transfers
    re_replication_parallelism: int = 4  # concurrent recovery copies
    # ------------------------------------------------------- robustness knobs
    # All default-off / fixed-mode: a config that leaves them untouched runs
    # the exact pre-robustness event sequence.
    detector_mode: str = "fixed"  # fixed | adaptive (phi-accrual-style)
    detector_suspect_after: float = 3.0  # phi threshold to suspect a node
    detector_dead_after: float = 8.0  # phi threshold to declare it dead
    retry_jitter: bool = False  # full-jitter the retry backoff delay
    retry_budget: Optional[int] = None  # per-job retry token bucket (None: off)
    retry_refill: float = 0.0  # budget tokens regained per second
    circuit_breaker: bool = False  # breakers subsume the fixed blacklist
    hedging: bool = False  # hedged backup launches on suspected nodes
    hedge_quantile: float = 0.95  # runtime percentile arming a hedge
    hedge_multiplier: float = 1.5  # threshold = multiplier * percentile
    admission_control: bool = False  # defer job admission under overload
    admission_factor: float = 4.0  # overload = demand > factor * capacity
    admission_retry: float = 5.0  # seconds between admission re-checks
    # -------------------------------------------------------- recovery knobs
    # All default-off: without manager_recovery the control plane is the
    # immortal seed manager and no ManagerCrash may appear in the plan.
    manager_recovery: bool = False  # checkpoint/WAL/lease crash-recovery
    lease_duration: float = 60.0  # grant lease TTL after its last renewal
    lease_renew_interval: float = 10.0  # healthy-manager renewal period
    checkpoint_interval: float = 30.0  # state snapshot period (piggybacked)
    reconciliation_window: float = 5.0  # post-restart re-register window
    wal_flush_lag: float = 0.0  # trailing WAL seconds lost by a crash
    submission_retry_limit: int = 6  # driver retries against a down manager

    def __post_init__(self) -> None:
        if self.manager not in _MANAGERS:
            raise ConfigurationError(f"manager must be one of {_MANAGERS}, got {self.manager!r}")
        if self.scheduler not in _SCHEDULERS:
            raise ConfigurationError(
                f"scheduler must be one of {_SCHEDULERS}, got {self.scheduler!r}"
            )
        if self.placement not in _PLACEMENTS:
            raise ConfigurationError(
                f"placement must be one of {_PLACEMENTS}, got {self.placement!r}"
            )
        if self.workload not in _WORKLOADS:
            raise ConfigurationError(
                f"workload must be one of {_WORKLOADS}, got {self.workload!r}"
            )
        if self.num_apps < 1 or self.jobs_per_app < 1:
            raise ConfigurationError("num_apps and jobs_per_app must be >= 1")
        if self.replication < 1:
            raise ConfigurationError(f"replication must be >= 1, got {self.replication}")
        for name in ("uplink", "downlink"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigurationError(
                    f"{name} must be positive and finite, got {value}"
                )
        if self.cache_per_node < 0:
            raise ConfigurationError(
                f"cache_per_node must be >= 0, got {self.cache_per_node}"
            )
        if not (0.0 < self.speculation_quantile <= 1.0):
            raise ConfigurationError(
                f"speculation_quantile must be in (0, 1], got {self.speculation_quantile}"
            )
        if self.speculation_multiplier < 1.0:
            raise ConfigurationError(
                f"speculation_multiplier must be >= 1, got {self.speculation_multiplier}"
            )
        if self.kmn_fraction is not None and not (0.0 < self.kmn_fraction <= 1.0):
            raise ConfigurationError(
                f"kmn_fraction must be in (0, 1], got {self.kmn_fraction}"
            )
        if self.shuffle_fanout < 1:
            raise ConfigurationError(
                f"shuffle_fanout must be >= 1, got {self.shuffle_fanout}"
            )
        if self.heartbeat_interval <= 0:
            raise ConfigurationError(
                f"heartbeat_interval must be positive, got {self.heartbeat_interval}"
            )
        if self.detector_timeout is not None and self.detector_timeout < self.heartbeat_interval:
            raise ConfigurationError(
                f"detector_timeout ({self.detector_timeout}) must be >= "
                f"heartbeat_interval ({self.heartbeat_interval})"
            )
        if self.max_task_attempts < 1:
            raise ConfigurationError(
                f"max_task_attempts must be >= 1, got {self.max_task_attempts}"
            )
        if self.retry_backoff < 0:
            raise ConfigurationError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )
        if self.blacklist_threshold < 1:
            raise ConfigurationError(
                f"blacklist_threshold must be >= 1, got {self.blacklist_threshold}"
            )
        if self.blacklist_window <= 0 or self.blacklist_timeout <= 0:
            raise ConfigurationError("blacklist window/timeout must be positive")
        if self.network_timeout <= 0:
            raise ConfigurationError(
                f"network_timeout must be positive, got {self.network_timeout}"
            )
        if self.re_replication_parallelism < 1:
            raise ConfigurationError(
                "re_replication_parallelism must be >= 1, "
                f"got {self.re_replication_parallelism}"
            )
        if self.detector_mode not in ("fixed", "adaptive"):
            raise ConfigurationError(
                f"detector_mode must be 'fixed' or 'adaptive', "
                f"got {self.detector_mode!r}"
            )
        if self.detector_suspect_after <= 1.0:
            raise ConfigurationError(
                f"detector_suspect_after must be > 1, "
                f"got {self.detector_suspect_after}"
            )
        if self.detector_dead_after <= self.detector_suspect_after:
            raise ConfigurationError(
                "detector_dead_after must exceed detector_suspect_after"
            )
        if self.retry_budget is not None and self.retry_budget < 1:
            raise ConfigurationError(
                f"retry_budget must be >= 1, got {self.retry_budget}"
            )
        if self.retry_refill < 0:
            raise ConfigurationError(
                f"retry_refill must be >= 0, got {self.retry_refill}"
            )
        if not (0.0 < self.hedge_quantile <= 1.0):
            raise ConfigurationError(
                f"hedge_quantile must be in (0, 1], got {self.hedge_quantile}"
            )
        if self.hedge_multiplier < 1.0:
            raise ConfigurationError(
                f"hedge_multiplier must be >= 1, got {self.hedge_multiplier}"
            )
        if self.admission_factor <= 0:
            raise ConfigurationError(
                f"admission_factor must be positive, got {self.admission_factor}"
            )
        if self.admission_retry <= 0:
            raise ConfigurationError(
                f"admission_retry must be positive, got {self.admission_retry}"
            )
        if self.lease_duration <= 0:
            raise ConfigurationError(
                f"lease_duration must be positive, got {self.lease_duration}"
            )
        if self.lease_renew_interval <= 0:
            raise ConfigurationError(
                f"lease_renew_interval must be positive, "
                f"got {self.lease_renew_interval}"
            )
        if self.checkpoint_interval <= 0:
            raise ConfigurationError(
                f"checkpoint_interval must be positive, "
                f"got {self.checkpoint_interval}"
            )
        if self.reconciliation_window < 0:
            raise ConfigurationError(
                f"reconciliation_window must be >= 0, "
                f"got {self.reconciliation_window}"
            )
        if self.wal_flush_lag < 0:
            raise ConfigurationError(
                f"wal_flush_lag must be >= 0, got {self.wal_flush_lag}"
            )
        if self.submission_retry_limit < 1:
            raise ConfigurationError(
                f"submission_retry_limit must be >= 1, "
                f"got {self.submission_retry_limit}"
            )
        if self.trace_sample_interval <= 0:
            raise ConfigurationError(
                f"trace_sample_interval must be positive, "
                f"got {self.trace_sample_interval}"
            )
        if self.app_weights is not None:
            if len(self.app_weights) != self.num_apps:
                raise ConfigurationError(
                    f"app_weights must have {self.num_apps} entries, "
                    f"got {len(self.app_weights)}"
                )
            if any(w <= 0 for w in self.app_weights):
                raise ConfigurationError("app_weights must be positive")

    # ------------------------------------------------------------- conveniences
    @property
    def app_ids(self) -> tuple:
        """Deterministic application ids ("app-00" ...)."""
        return tuple(f"app-{i:02d}" for i in range(self.num_apps))

    def with_manager(self, manager: str) -> "ExperimentConfig":
        """Same run under a different policy (the common-trace comparison)."""
        return replace(self, manager=manager)

    def scaled(self, factor: float) -> "ExperimentConfig":
        """A cheaper variant for CI: scale the job count, keep the shape."""
        if factor <= 0:
            raise ConfigurationError(f"scale factor must be positive, got {factor}")
        return replace(self, jobs_per_app=max(1, int(round(self.jobs_per_app * factor))))

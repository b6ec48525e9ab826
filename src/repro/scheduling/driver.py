"""ApplicationDriver: the Spark-driver analogue.

One driver per application.  It receives jobs from the submission trace,
walks each job's stage chain, and launches tasks into the executors the
cluster manager has granted it, consulting its :class:`TaskScheduler`
(delay scheduling by default) for every free slot.  It reports job
submission/completion and executor idleness to the manager — the hooks
Custody's reallocation listens on (§V).

Execution model per task *attempt*:

* **input task** — if the hosting node holds the block on disk or in cache,
  stream it locally; otherwise fetch it over the network from a replica
  holder (remote read = no locality) and cache it if caching is enabled.
* **shuffle task** — fetch the aggregated upstream output; the source node
  rotates deterministically over the nodes that ran the previous stage.
  (Approximation: one aggregate flow per reduce task instead of one flow
  per map-reduce pair — preserves volume and NIC contention, drops
  per-flow fan-in.)
* then burn the task's CPU time (scaled by any active node slowdown) and
  release the slot.

Tasks run as interruptible **attempts** so two mechanisms compose:

* **speculative execution** (straggler mitigation, [26][27] in the paper's
  §IV-B): once most of a stage has finished, a running task that exceeds
  ``speculation_multiplier`` × the stage's median completed duration gets a
  clone on a free slot; the first finisher wins and the loser is killed.
* **executor failure** (fault injection): all attempts on a failed executor
  are killed and their tasks requeued.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.executor import Executor
from repro.common.errors import AllocationError, TransferFailedError
from repro.hdfs.filesystem import HDFS
from repro.network.fabric import NetworkFabric
from repro.network.transfer import Transfer
from repro.obs.events import BreakerTransition, HedgeLaunch, JobSpan, TaskAttempt
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.scheduling.policies import TaskScheduler
from repro.scheduling.queue import RunnableQueue
from repro.scheduling.robustness import CLOSED, CircuitBreakerBoard, RetryBudget
from repro.simulation.engine import EventHandle, Simulation
from repro.workload.application import Application
from repro.workload.job import Job
from repro.workload.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.managers.base import ClusterManager

__all__ = ["ApplicationDriver"]


class _Attempt:
    """One execution attempt of a task on an executor.

    A small state machine: read the input, burn the CPU, report to the
    driver.  Every wakeup is a plain callback: the launch hop and the
    read/CPU timers are event handles held in ``_handle``, and a fetch is a
    subscription to each transfer's ``done`` signal.  The order of those
    wakeups is part of the run's behaviour (DESIGN.md §5, *Task attempts*):

    * the body starts in its own ``call_soon`` event after launch;
    * a shuffle starts its remote transfers in source order, then schedules
      its local-read timer, and completes (or fails) inside the event of
      the last source to land (or the first to fail);
    * a task with no CPU time finishes in its read-completion event.

    :meth:`release` is the one cleanup path of a kill or a failure.
    """

    __slots__ = (
        "driver", "task", "executor", "speculative", "hedge", "started_at",
        "transfers", "live", "was_local", "read_time", "_handle", "_outstanding",
    )

    def __init__(
        self,
        driver: "ApplicationDriver",
        task: Task,
        executor: Executor,
        speculative: bool,
        started_at: float,
        hedge: bool = False,
    ):
        self.driver = driver
        self.task = task
        self.executor = executor
        self.speculative = speculative
        #: a hedged backup (suspicion-triggered, distinct from speculation)
        self.hedge = hedge
        self.started_at = started_at
        #: in-flight transfers owned by this attempt (for kill-time cleanup)
        self.transfers: List[Transfer] = []
        #: False once finished, killed or failed: late wakeups are ignored
        self.live = True
        self.was_local: Optional[bool] = None
        self.read_time = 0.0
        self._handle: Optional[EventHandle] = None
        #: shuffle sources (or the one remote fetch) still being read
        self._outstanding = 0

    def launch(self) -> None:
        """Run the attempt's body in its own event at this instant."""
        self._handle = self.driver.sim.call_soon(self._start)

    def _start(self) -> None:
        driver, task = self.driver, self.task
        sim = driver.sim
        node = self.executor.node
        here = node.node_id
        if task.is_input:
            block = task.block
            assert block is not None
            if driver.hdfs.can_serve_locally(block.block_id, here):
                self.was_local = True
                self._handle = sim.schedule(
                    driver.hdfs.local_read_time(block, here), self._read_done
                )
                return
            self.was_local = False
            src = driver._pick_fetch_source(block.block_id, here)
            if src is None:
                # Every replica is gone (or unreachable with none better
                # known): fail the attempt instead of crashing.
                driver._fail_attempt(self, "no-replicas")
                return
            transfer = driver.fabric.start_transfer(src, here, block.size)
            self.transfers.append(transfer)
            self._outstanding = 1
            transfer.done.subscribe(self._source_done)
            return
        if task.shuffle_bytes > 0:
            sources = driver._shuffle_sources(task)
            if not sources:
                self._handle = sim.schedule(
                    node.local_read_time(task.shuffle_bytes), self._read_done
                )
                return
            per_source = task.shuffle_bytes / len(sources)
            fabric = driver.fabric
            for src in sources:
                if src != here:
                    self.transfers.append(fabric.start_transfer(src, here, per_source))
            # Wait on the sources in source order, once every transfer has
            # started (at most one source is local: sources are distinct).
            self._outstanding = len(sources)
            remote = iter(self.transfers)
            for src in sources:
                if src == here:
                    self._handle = sim.schedule(
                        node.local_read_time(per_source), self._source_done, None, None
                    )
                else:
                    next(remote).done.subscribe(self._source_done)
            return
        self._read_done()

    def _source_done(self, _value, exception: Optional[TransferFailedError]) -> None:
        """One fetched source (or the local share of a shuffle) is in."""
        if not self.live:
            return  # a wakeup already queued when the attempt was killed
        if exception is not None:
            self.driver._fail_attempt(self, exception.cause)
            return
        self._outstanding -= 1
        if self._outstanding:
            return
        self.transfers.clear()
        hdfs = self.driver.hdfs
        if self.was_local is False and hdfs.caching_enabled:
            # Cache-on-remote-read: later scans of this hot dataset become
            # local (§II, §VII).
            hdfs.cache_block(self.executor.node_id, self.task.block)
        self._read_done()

    def _read_done(self) -> None:
        driver = self.driver
        self.read_time = driver.sim.now - self.started_at
        cpu = self.task.cpu_time * driver._cpu_factor(self.executor.node_id)
        if cpu > 0:
            self._handle = driver.sim.schedule(cpu, self._cpu_done)
        else:
            self._cpu_done()

    def _cpu_done(self) -> None:
        self.live = False
        self.driver._finish_attempt(self)

    def release(self) -> None:
        """Stop the attempt where it stands and free its slot.

        Cancels the pending wakeup (launch hop, read or CPU timer), the
        signal subscriptions and the in-flight transfers.  Late wakeups
        already queued (a signal's hop) find the attempt dead and do nothing.
        """
        self.live = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        if self.transfers:
            fabric = self.driver.fabric
            for transfer in self.transfers:
                transfer.done.unsubscribe(self._source_done)
                fabric.cancel_transfer(transfer)
            self.transfers.clear()
        task_id, executor = self.task.task_id, self.executor
        if task_id in executor.running_tasks:
            executor.finish_task(task_id)


class ApplicationDriver:
    """Runs one application's jobs on its granted executors."""

    def __init__(
        self,
        sim: Simulation,
        app: Application,
        cluster: Cluster,
        hdfs: HDFS,
        fabric: NetworkFabric,
        scheduler: TaskScheduler,
        *,
        speculation: bool = False,
        speculation_quantile: float = 0.75,
        speculation_multiplier: float = 1.5,
        fault_injector: Optional["FaultInjector"] = None,
        shuffle_fanout: int = 1,
        max_task_attempts: int = 8,
        retry_backoff: float = 1.0,
        blacklist_threshold: int = 3,
        blacklist_window: float = 60.0,
        blacklist_timeout: float = 60.0,
        retry_jitter_rng=None,
        retry_budget: Optional[int] = None,
        retry_refill: float = 0.0,
        submission_retry_limit: int = 6,
        circuit_breaker: bool = False,
        hedging: bool = False,
        hedge_quantile: float = 0.95,
        hedge_multiplier: float = 1.5,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if not (0.0 < speculation_quantile <= 1.0):
            raise ValueError(
                f"speculation_quantile must be in (0, 1], got {speculation_quantile}"
            )
        if speculation_multiplier < 1.0:
            raise ValueError(
                f"speculation_multiplier must be >= 1, got {speculation_multiplier}"
            )
        if shuffle_fanout < 1:
            raise ValueError(f"shuffle_fanout must be >= 1, got {shuffle_fanout}")
        if max_task_attempts < 1:
            raise ValueError(f"max_task_attempts must be >= 1, got {max_task_attempts}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff}")
        if blacklist_threshold < 1:
            raise ValueError(
                f"blacklist_threshold must be >= 1, got {blacklist_threshold}"
            )
        if blacklist_window <= 0 or blacklist_timeout <= 0:
            raise ValueError("blacklist window/timeout must be positive")
        if retry_budget is not None and retry_budget < 1:
            raise ValueError(f"retry_budget must be >= 1, got {retry_budget}")
        if retry_refill < 0:
            raise ValueError(f"retry_refill must be >= 0, got {retry_refill}")
        if submission_retry_limit < 1:
            raise ValueError(
                f"submission_retry_limit must be >= 1, got {submission_retry_limit}"
            )
        if not (0.0 < hedge_quantile <= 1.0):
            raise ValueError(f"hedge_quantile must be in (0, 1], got {hedge_quantile}")
        if hedge_multiplier < 1.0:
            raise ValueError(f"hedge_multiplier must be >= 1, got {hedge_multiplier}")
        self.sim = sim
        self.app = app
        self.cluster = cluster
        self.hdfs = hdfs
        self.fabric = fabric
        self.scheduler = scheduler
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.speculation = speculation
        self.speculation_quantile = speculation_quantile
        self.speculation_multiplier = speculation_multiplier
        self.fault_injector = fault_injector
        self.shuffle_fanout = shuffle_fanout
        self.max_task_attempts = max_task_attempts
        self.retry_backoff = retry_backoff
        self.blacklist_threshold = blacklist_threshold
        self.blacklist_window = blacklist_window
        self.blacklist_timeout = blacklist_timeout
        self.retry_jitter_rng = retry_jitter_rng
        self.retry_budget_tokens = retry_budget
        self.retry_refill = retry_refill
        self.submission_retry_limit = submission_retry_limit
        self.hedging = hedging
        self.hedge_quantile = hedge_quantile
        self.hedge_multiplier = hedge_multiplier
        #: per-node circuit breakers (None = legacy sliding-window blacklist)
        self.breakers: Optional[CircuitBreakerBoard] = None
        if circuit_breaker:
            self.breakers = CircuitBreakerBoard(
                threshold=blacklist_threshold,
                window=blacklist_window,
                cooldown=blacklist_timeout,
                on_transition=self._on_breaker_transition,
            )
        self.manager: Optional["ClusterManager"] = None
        #: Demand epoch: bumped whenever this driver's allocation-relevant
        #: state changes (runnable input tasks, owned executors, task
        #: starts/finishes).  The manager's incremental demand index caches
        #: a driver's AppDemand keyed on this number — any mutation here
        #: forces a rebuild, so over-bumping is safe and under-bumping is
        #: the only correctness hazard.
        self.demand_epoch = 0
        self.speculative_launches = 0
        self.speculative_wins = 0
        self.requeued_tasks = 0
        self.failed_attempts = 0
        self.abandoned_tasks = 0
        self.data_loss_tasks = 0
        self.blacklist_events = 0
        self.hedges_launched = 0
        self.hedges_won = 0
        self.hedges_lost = 0
        self.retries_denied = 0
        self.submissions_buffered = 0
        self.submission_retries = 0
        #: jobs accepted locally while the manager was down; the manager
        #: notification is delivered by retry or by the recovery flush
        self._pending_submissions: List[Job] = []
        self._executors: Dict[str, Executor] = {}
        #: ``executors`` cache, re-sorted after any grant or loss
        self._executor_order: Optional[List[Executor]] = None
        self._runnable = RunnableQueue(hdfs.namenode)
        self._attempts: Dict[str, List[_Attempt]] = {}
        self._stage_remaining: Dict[Tuple[str, int], int] = {}
        self._stage_durations: Dict[Tuple[str, int], List[float]] = {}
        self._stage_nodes: Dict[Tuple[str, int], List[str]] = {}
        self._shuffle_rotation: Dict[Tuple[str, int], int] = {}
        self._jobs: Dict[str, Job] = {}
        #: job id → retry token bucket (created lazily when budgets are on)
        self._job_budgets: Dict[str, RetryBudget] = {}
        self._wakeup: Optional[EventHandle] = None
        self._spec_wakeup: Optional[EventHandle] = None
        self._hedge_wakeup: Optional[EventHandle] = None
        # Pre-bound metric instruments (no-ops when metering is off).  All
        # of these only *read* driver state — enabling metrics cannot
        # change a trajectory.
        self.metrics = metrics if metrics is not None else NULL_METRICS
        app_label = app.app_id
        self._m_job_arrivals = self.metrics.counter(
            "job_arrivals_total", "Jobs submitted to a driver.", ("app",)
        ).labels(app=app_label)
        self._m_job_completions = self.metrics.counter(
            "job_completions_total", "Jobs that reached completion.", ("app",)
        ).labels(app=app_label)
        self._m_jct = self.metrics.histogram(
            "job_completion_seconds",
            "Job completion time (submit to last stage done), sim seconds.",
            ("app",),
        ).labels(app=app_label)
        _launches = self.metrics.counter(
            "task_launches_total",
            "Task attempts started, by kind (primary / speculative / hedge).",
            ("app", "kind"),
        )
        self._m_launch_primary = _launches.labels(app=app_label, kind="primary")
        self._m_launch_speculative = _launches.labels(app=app_label, kind="speculative")
        self._m_launch_hedge = _launches.labels(app=app_label, kind="hedge")
        self._m_retries = self.metrics.counter(
            "task_retries_total", "Failed tasks requeued for another attempt.", ("app",)
        ).labels(app=app_label)
        self._m_retries_denied = self.metrics.counter(
            "task_retries_denied_total",
            "Retries refused by an exhausted per-job token budget.",
            ("app",),
        ).labels(app=app_label)
        self._m_failed_attempts = self.metrics.counter(
            "task_attempt_failures_total", "Attempts that died mid-flight.", ("app",)
        ).labels(app=app_label)
        self._m_abandoned = self.metrics.counter(
            "task_abandoned_total",
            "Tasks permanently given up, by reason.",
            ("app", "reason"),
        )
        self._m_breaker = self.metrics.counter(
            "breaker_transitions_total",
            "Circuit-breaker state transitions, by target state.",
            ("app", "state"),
        )
        _hedges = self.metrics.counter(
            "hedges_total",
            "Hedged backup attempts by outcome (launched / won / lost).",
            ("app", "outcome"),
        )
        self._m_hedges_launched = _hedges.labels(app=app_label, outcome="launched")
        self._m_hedges_won = _hedges.labels(app=app_label, outcome="won")
        self._m_hedges_lost = _hedges.labels(app=app_label, outcome="lost")
        self._m_speculative_wins = self.metrics.counter(
            "speculative_wins_total",
            "Speculative clones that beat their primary attempt.",
            ("app",),
        ).labels(app=app_label)
        self._m_queue_depth = self.metrics.gauge(
            "runnable_queue_depth", "Tasks waiting for a slot right now.", ("app",)
        ).labels(app=app_label)
        self._m_submissions_buffered = self.metrics.counter(
            "driver_submissions_buffered_total",
            "Job submissions accepted locally while the manager was down.",
            ("app",),
        ).labels(app=app_label)
        #: task id → failed attempt count (drives backoff and the budget)
        self._failure_counts: Dict[str, int] = {}
        #: node id → recent attempt-failure timestamps (blacklist window)
        self._node_failures: Dict[str, List[float]] = {}
        #: node id → blacklist expiry time
        self._blacklist: Dict[str, float] = {}

    # ------------------------------------------------------------- inspection
    @property
    def app_id(self) -> str:
        """Owning application's id."""
        return self.app.app_id

    @property
    def executors(self) -> List[Executor]:
        """Executors currently granted to this application (id order)."""
        return list(self._ordered_executors())

    def _ordered_executors(self) -> List[Executor]:
        if self._executor_order is None:
            self._executor_order = [self._executors[k] for k in sorted(self._executors)]
        return self._executor_order

    @property
    def executor_count(self) -> int:
        """ζ_i — executors currently held."""
        return len(self._executors)

    @property
    def runnable_tasks(self) -> List[Task]:
        """Tasks ready to run, FIFO order (a copy)."""
        return list(self._runnable)

    @property
    def runnable_count(self) -> int:
        """How many tasks are ready to run (no copy)."""
        return len(self._runnable)

    @property
    def running_count(self) -> int:
        """Tasks with at least one active attempt."""
        return len(self._attempts)

    @property
    def outstanding_tasks(self) -> int:
        """Runnable + running task count (the manager's capacity signal)."""
        return len(self._runnable) + len(self._attempts)

    def owned_nodes(self) -> List[str]:
        """Distinct node ids hosting this app's executors."""
        return sorted({e.node_id for e in self._executors.values()})

    # ------------------------------------------------------------ job intake
    def submit_job(self, job: Job) -> None:
        """Accept a new job: record it, enqueue its input stage, dispatch."""
        now = self.sim.now
        job.submitted_at = now
        self._jobs[job.job_id] = job
        self.app.add_job(job)
        self._m_job_arrivals.inc()
        self._enqueue_stage(job, 0)
        if self.tracer.narrating:
            self.tracer.narrate(
                "job.submit", job.job_id, app=self.app_id, inputs=job.num_input_tasks
            )
        if self.manager is not None:
            recovery = self.manager.recovery
            if recovery is not None and not recovery.accepting_submissions:
                # The control plane is down: the job is accepted locally
                # (it can run on already-owned executors) and the manager
                # notification is retried with bounded backoff.
                self._buffer_submission(job)
            else:
                if recovery is not None:
                    recovery.note_job_submitted(self.app_id, job.job_id)
                self.manager.on_job_submitted(self, job)
        self._dispatch_or_defer()

    def _buffer_submission(self, job: Job) -> None:
        """Queue a manager notification the dead control plane missed."""
        self._pending_submissions.append(job)
        self.submissions_buffered += 1
        self._m_submissions_buffered.inc()
        self.tracer.instant(
            "job.submit.buffered", "driver", track=self.app_id, job=job.job_id
        )
        self._schedule_submission_retry(job, 1)

    def _schedule_submission_retry(self, job: Job, attempt: int) -> None:
        """Full-jitter exponential backoff, same shape as task retries."""
        delay = min(self.retry_backoff * (2.0 ** (attempt - 1)), 60.0)
        if self.retry_jitter_rng is not None and delay > 0:
            delay = float(self.retry_jitter_rng.uniform(0.0, delay))
        self.sim.schedule(delay, self._retry_submission, job, attempt)

    def _retry_submission(self, job: Job, attempt: int) -> None:
        if job not in self._pending_submissions:
            return  # already delivered by the recovery flush
        manager = self.manager
        if manager is None:
            return
        recovery = manager.recovery
        if recovery is None or recovery.accepting_submissions:
            self._pending_submissions.remove(job)
            self.submission_retries += 1
            if recovery is not None:
                recovery.note_job_submitted(self.app_id, job.job_id)
            manager.on_job_submitted(self, job)
            return
        if attempt >= self.submission_retry_limit:
            # Bounded: give up retrying; the coordinator's post-recovery
            # flush delivers whatever is still pending.
            return
        self.submission_retries += 1
        self._schedule_submission_retry(job, attempt + 1)

    def flush_pending_submissions(self) -> None:
        """Recovery hook: deliver every buffered submission to the manager."""
        if self.manager is None or not self._pending_submissions:
            return
        pending, self._pending_submissions = self._pending_submissions, []
        recovery = self.manager.recovery
        for job in pending:
            if recovery is not None:
                recovery.note_job_submitted(self.app_id, job.job_id)
            self.manager.on_job_submitted(self, job)

    def _enqueue_stage(self, job: Job, stage_index: int) -> None:
        stage = job.stages[stage_index]
        now = self.sim.now
        self.demand_epoch += 1
        key = (job.job_id, stage_index)
        # KMN quorum: the input stage barrier fires after K of N tasks.
        if stage_index == 0:
            self._stage_remaining[key] = job.input_quorum
        else:
            self._stage_remaining[key] = len(stage.tasks)
        self._stage_durations[key] = []
        self._stage_nodes[key] = []
        for task in stage.tasks:
            task.submitted_at = now
        self._runnable.extend(stage.tasks)
        self._m_queue_depth.set(len(self._runnable))

    # -------------------------------------------------------- executor churn
    def attach_executor(self, executor: Executor) -> None:
        """Manager grant: the executor now belongs to this app."""
        if executor.owner != self.app_id:
            raise AllocationError(
                f"{executor.executor_id} owned by {executor.owner!r}, "
                f"cannot attach to {self.app_id!r}"
            )
        self._executors[executor.executor_id] = executor
        self._executor_order = None
        self.demand_epoch += 1
        self._dispatch()

    def detach_executor(self, executor: Executor) -> None:
        """Manager revocation; only idle executors may be detached."""
        if executor.running_tasks:
            raise AllocationError(
                f"{executor.executor_id} is busy; cannot detach from {self.app_id}"
            )
        self._executors.pop(executor.executor_id, None)
        self._executor_order = None
        self.demand_epoch += 1

    def consider_offer(self, executor: Executor) -> bool:
        """Mesos-style offer: would this app use a slot on that node now?"""
        if self._blacklisted(executor.node_id):
            return False
        return self.scheduler.accepts_offer(
            self._runnable, executor.node_id, self.sim.now
        )

    def set_task_hints(self, mapping: Dict[str, str]) -> None:
        """Forward Custody's task→executor suggestions to a hint-aware
        scheduler (no-op for schedulers without ``set_hints``)."""
        setter = getattr(self.scheduler, "set_hints", None)
        if setter is not None:
            setter(mapping)

    def on_executor_failure(self, executor: Executor) -> int:
        """Fault hook: kill every attempt on ``executor``, requeue the tasks.

        Returns the number of tasks requeued synchronously (a task's first
        failure requeues at once; repeat failures back off exponentially and
        can exhaust the attempt budget — see :meth:`_handle_task_failure`).
        The executor itself is detached; ownership/release is the fault
        injector's business.
        """
        victims = [
            attempt
            for attempts in self._attempts.values()
            for attempt in attempts
            if attempt.executor is executor
        ]
        requeued = 0
        for attempt in victims:
            task = attempt.task
            self._kill_attempt(attempt)
            if not self._attempts.get(task.task_id):
                # No surviving attempt: hand the task to the retry machinery.
                self._attempts.pop(task.task_id, None)
                if task.cancelled or task.finished_at is not None:
                    continue
                if self._handle_task_failure(task, executor.node_id, "executor-lost"):
                    requeued += 1
        self._executors.pop(executor.executor_id, None)
        self._executor_order = None
        self.demand_epoch += 1
        self._dispatch()
        return requeued

    def reclaim_executor(self, executor: Executor) -> int:
        """Recovery hook: the restarted manager reclaimed ``executor``
        (expired lease or zombie).  Kills its attempts and requeues the
        tasks immediately — a control-plane action, so unlike
        :meth:`on_executor_failure` the node is not penalised (no
        blacklist/breaker signal, no failure count, no retry-budget spend).
        """
        victims = [
            attempt
            for attempts in self._attempts.values()
            for attempt in attempts
            if attempt.executor is executor
        ]
        requeued = 0
        for attempt in victims:
            task = attempt.task
            self._kill_attempt(attempt)
            if not self._attempts.get(task.task_id):
                self._attempts.pop(task.task_id, None)
                if task.cancelled or task.finished_at is not None:
                    continue
                task.started_at = None
                task.executor_id = None
                task.node_id = None
                task.was_local = None
                task.read_time = None
                self._requeue_task(task, executor.node_id, dispatch=False)
                requeued += 1
        self._executors.pop(executor.executor_id, None)
        self._executor_order = None
        self.demand_epoch += 1
        self._dispatch()
        return requeued

    # ------------------------------------------------------- retry / blacklist
    def _blacklisted(self, node_id: str) -> bool:
        """True while ``node_id`` is excluded from scheduling.

        With circuit breakers enabled the breaker's read-only predicate
        subsumes the timed blacklist (HALF_OPEN admits exactly one probe;
        recovery is verified by traffic, not assumed on expiry).
        """
        if self.breakers is not None:
            return not self.breakers.breaker(node_id).would_allow(self.sim.now)
        expiry = self._blacklist.get(node_id)
        if expiry is None:
            return False
        if self.sim.now >= expiry:
            del self._blacklist[node_id]
            return False
        return True

    def _on_breaker_transition(self, node_id: str, prev: str, state: str) -> None:
        """Board hook: record every breaker state change."""
        if state == "open":
            self.blacklist_events += 1
        self._m_breaker.labels(app=self.app_id, state=state).inc()
        if self.tracer.enabled:
            self.tracer.emit(
                BreakerTransition(
                    self.sim.now,
                    track=node_id,
                    attrs={"node": node_id, "state": state, "prev": prev,
                           "app": self.app_id},
                )
            )

    def _note_node_failure(self, node_id: str) -> None:
        """Count an attempt failure against a node; blacklist on threshold."""
        now = self.sim.now
        if self.breakers is not None:
            self.breakers.breaker(node_id).on_failure(now)
            return
        recent = [
            t
            for t in self._node_failures.get(node_id, [])
            if now - t <= self.blacklist_window
        ]
        recent.append(now)
        self._node_failures[node_id] = recent
        if len(recent) >= self.blacklist_threshold and not self._blacklisted(node_id):
            self._blacklist[node_id] = now + self.blacklist_timeout
            self.blacklist_events += 1
            self.tracer.instant(
                "node.blacklist",
                "driver",
                track=node_id,
                app=self.app_id,
                until=self._blacklist[node_id],
                failures=len(recent),
            )

    def _budget_for(self, job_id: str) -> RetryBudget:
        """The job's retry token bucket (budgets enabled)."""
        budget = self._job_budgets.get(job_id)
        if budget is None:
            assert self.retry_budget_tokens is not None
            budget = RetryBudget(self.retry_budget_tokens, self.retry_refill)
            self._job_budgets[job_id] = budget
        return budget

    def _handle_task_failure(self, task: Task, node_id: str, reason: str) -> bool:
        """Route a failed task through retry/backoff/abandon.

        Returns True when the task was requeued synchronously (its first
        failure — the behaviour schedulers and tests rely on); later
        failures requeue after exponential backoff.  A task whose input data
        no longer exists anywhere is abandoned as data loss; one that burns
        its whole attempt budget is abandoned as exhausted.
        """
        self._note_node_failure(node_id)
        count = self._failure_counts.get(task.task_id, 0) + 1
        self._failure_counts[task.task_id] = count
        if (
            task.is_input
            and task.block is not None
            and not self.hdfs.namenode.serving_set(task.block.block_id)
        ):
            self.data_loss_tasks += 1
            self._abandon_task(task, "data-loss")
            return False
        if count >= self.max_task_attempts:
            self._abandon_task(task, "attempts-exhausted")
            return False
        if self.retry_budget_tokens is not None:
            # Every retry spends one job token; a drained bucket sheds the
            # task instead of feeding the failure loop more attempts.
            if not self._budget_for(task.job_id).try_spend(self.sim.now):
                self.retries_denied += 1
                self._m_retries_denied.inc()
                self.tracer.instant(
                    "task.retry_denied",
                    "driver",
                    track=self.app_id,
                    task=task.task_id,
                    job=task.job_id,
                )
                self._abandon_task(task, "retry-budget-exhausted")
                return False
        task.started_at = None
        task.executor_id = None
        task.node_id = None
        task.was_local = None
        task.read_time = None
        if count == 1:
            # Synchronous requeue without dispatching: the caller dispatches
            # once after the whole failure is processed (dispatching here
            # could launch tasks onto an executor that is mid-teardown).
            self._requeue_task(task, node_id, dispatch=False)
            return True
        delay = min(self.retry_backoff * (2.0 ** (count - 2)), 60.0)
        if self.retry_jitter_rng is not None and delay > 0:
            # Full jitter (uniform over [0, cap]): correlated failures then
            # de-synchronise instead of retrying in lockstep waves.
            delay = float(self.retry_jitter_rng.uniform(0.0, delay))
        self.tracer.instant(
            "task.retry",
            "driver",
            track=self.app_id,
            task=task.task_id,
            count=count,
            delay=delay,
            reason=reason,
        )
        if delay <= 0:
            self._requeue_task(task, node_id, dispatch=False)
            return True
        self.sim.schedule(delay, self._requeue_task, task, node_id)
        return False

    def _requeue_task(self, task: Task, node_id: str, dispatch: bool = True) -> None:
        """Put a failed task back on the runnable queue (possibly delayed)."""
        if task.cancelled or task.finished_at is not None:
            return  # cancelled (KMN surplus) or finished meanwhile
        if task in self._runnable or task.task_id in self._attempts:
            return
        self._runnable.push(task)
        self.demand_epoch += 1
        self.requeued_tasks += 1
        self._m_retries.inc()
        self._m_queue_depth.set(len(self._runnable))
        if self.tracer.narrating:
            self.tracer.narrate(
                "task.requeue", task.task_id, app=self.app_id, node=node_id
            )
        if dispatch:
            self._dispatch()
            if (
                task in self._runnable
                and not self._attempts
                and self.manager is not None
                and not any(
                    e.free_slots > 0
                    and e.healthy
                    and not self._blacklisted(e.node_id)
                    for e in self._executors.values()
                )
            ):
                # The backoff window hid this task from outstanding_tasks, so
                # the manager may have reclaimed every executor meanwhile.
                # With nothing running (no future finish to trigger dispatch)
                # and no usable slot, only a fresh allocation round can
                # un-strand the task.
                self.manager.on_demand_changed(self)

    def _abandon_task(self, task: Task, reason: str) -> None:
        """Give up on a task permanently, keeping stage accounting live.

        The abandoned task counts toward its stage barrier so the job still
        completes (degraded) instead of hanging forever — the task itself is
        recorded as ``task.abandon`` and tallied in ``abandoned_tasks``.
        """
        task.cancelled = True
        self.demand_epoch += 1
        self.abandoned_tasks += 1
        self._m_abandoned.labels(app=self.app_id, reason=reason).inc()
        self.tracer.instant(
            "task.abandon", "driver", track=self.app_id, task=task.task_id, reason=reason
        )
        key = (task.job_id, task.stage_index)
        remaining = self._stage_remaining.get(key, 0)
        if remaining <= 0:
            return  # stage barrier already fired (e.g. KMN quorum met)
        self._stage_remaining[key] = remaining - 1
        if self._stage_remaining[key] == 0:
            job = self._jobs[task.job_id]
            if task.stage_index == 0 and job.input_quorum < job.num_input_tasks:
                self._cancel_surplus_inputs(job)
            self._on_stage_done(job, task.stage_index)

    # --------------------------------------------------------------- dispatch
    def _dispatch_or_defer(self) -> None:
        """Dispatch now — unless an allocation round is coalesced at this
        instant, in which case dispatch *after* it in the same flush.

        With round coalescing the manager defers its round to the end of
        the instant; dispatching immediately would launch tasks onto the
        pre-round executor set, whereas a synchronous manager grants first
        and dispatches second.  Deferring the dispatch behind the pending
        round (``defer`` preserves registration order) restores that
        ordering for single-boundary instants.
        """
        manager = self.manager
        if manager is not None and manager.round_pending:
            self.sim.defer(("driver.dispatch", self.app_id), self._dispatch)
        else:
            self._dispatch()

    def _dispatch(self) -> None:
        """Greedily match runnable tasks to free slots, then arm the wakeup.

        Passes run over the healthy executors with free slots on the nodes
        the scheduler could place a task on, in id order, one launch per
        executor per pass.  An executor leaves the rotation once it is full,
        excluded or offered nothing: at a fixed instant a shrinking queue
        cannot turn an empty answer into a task (the :class:`TaskScheduler`
        contract).
        """
        runnable = self._runnable
        if runnable:
            now = self.sim.now
            pick = self.scheduler.pick_task
            candidates = self._ordered_executors()
            nodes = self.scheduler.eligible_nodes(runnable, now)
            if nodes is not None:
                candidates = [e for e in candidates if e.node_id in nodes]
            rotation = [e for e in candidates if e.free_slots > 0 and e.healthy]
            while rotation and runnable:
                kept = []
                for executor in rotation:
                    if self._blacklisted(executor.node_id):
                        continue
                    task = pick(
                        runnable, executor.node_id, now, executor_id=executor.executor_id
                    )
                    if task is None:
                        continue
                    runnable.remove(task)
                    self._start_attempt(task, executor, speculative=False)
                    if executor.free_slots > 0:
                        kept.append(executor)
                    if not runnable:
                        break
                rotation = kept
        self._m_queue_depth.set(len(runnable))
        if self.speculation:
            self._launch_speculative_attempts()
        if self.hedging:
            self._launch_hedges()
        self._arm_wakeup()

    def _arm_wakeup(self) -> None:
        if self._wakeup is not None:
            self._wakeup.cancel()
            self._wakeup = None
        if not self._runnable:
            return
        executors = self._executors.values()
        if not any(e.free_slots > 0 and not self._blacklisted(e.node_id) for e in executors):
            free = [e for e in executors if e.free_slots > 0]
            if not free:
                return
            # Every free slot sits on an excluded node: wake up when the
            # earliest blacklist expiry / breaker probe admits one again.
            if self.breakers is not None:
                times = [
                    self.breakers.breaker(e.node_id).next_probe_time() for e in free
                ]
                expiry = min((t for t in times if t is not None), default=float("inf"))
            else:
                expiry = min(
                    self._blacklist.get(e.node_id, float("inf")) for e in free
                )
            if expiry > self.sim.now and expiry != float("inf"):
                self._wakeup = self.sim.schedule_at(expiry, self._dispatch)
            return
        when = self.scheduler.next_wakeup(self._runnable, self.sim.now)
        if when is not None and when > self.sim.now:
            self._wakeup = self.sim.schedule_at(when, self._dispatch)
            self.tracer.instant(
                "driver.delay_wait",
                "driver",
                track=self.app_id,
                until=when,
                queued=len(self._runnable),
            )

    # ------------------------------------------------------------ speculation
    def _launch_speculative_attempts(self) -> None:
        """Clone stragglers onto free slots (one clone per task at a time).

        Also arms a timer at the earliest moment a currently-running
        singleton attempt will cross its straggler threshold, so clones
        launch even when the cluster is otherwise quiet.
        """
        if self._spec_wakeup is not None:
            self._spec_wakeup.cancel()
            self._spec_wakeup = None
        free = [
            e
            for e in self.executors
            if e.free_slots > 0 and not self._blacklisted(e.node_id)
        ]
        if not free:
            return
        now = self.sim.now
        next_check: Optional[float] = None
        for task_id, attempts in list(self._attempts.items()):
            if not free:
                break
            if len(attempts) != 1:
                continue  # already cloned (or being finalised)
            attempt = attempts[0]
            threshold = self._speculation_threshold(attempt.task)
            if threshold is None:
                continue
            eligible_at = attempt.started_at + threshold
            if now < eligible_at:
                if next_check is None or eligible_at < next_check:
                    next_check = eligible_at
                continue
            # Prefer a local executor for the clone; else first free slot.
            executor = self._pick_clone_slot(attempt.task, free)
            if executor is None:
                continue
            self._start_attempt(attempt.task, executor, speculative=True)
            self.speculative_launches += 1
            self._m_launch_speculative.inc()
            if executor.free_slots <= 0:
                free.remove(executor)
        if next_check is not None and next_check > now:
            self._spec_wakeup = self.sim.schedule_at(next_check, self._dispatch)

    def _speculation_threshold(self, task: Task) -> Optional[float]:
        """Duration beyond which ``task`` counts as a straggler, or None."""
        key = (task.job_id, task.stage_index)
        durations = self._stage_durations.get(key)
        total = len(self._jobs[task.job_id].stages[task.stage_index].tasks)
        if not durations or len(durations) < self.speculation_quantile * total:
            return None
        ordered = sorted(durations)
        median = ordered[len(ordered) // 2]
        return self.speculation_multiplier * median

    def _pick_clone_slot(self, task: Task, free: List[Executor]) -> Optional[Executor]:
        running_on = {a.executor.executor_id for a in self._attempts[task.task_id]}
        candidates = [e for e in free if e.executor_id not in running_on]
        if not candidates:
            return None
        if task.is_input and task.block is not None:
            serves, block_id = self.hdfs.namenode.serves, task.block.block_id
            local = [e for e in candidates if serves(block_id, e.node_id)]
            if local:
                return local[0]
            if not self.hdfs.namenode.locations(block_id):
                # Every replica is gone: the clone's fetch would fail at
                # once, and re-cloning it at the same instant never ends.
                return None
        return candidates[0]

    # --------------------------------------------------------------- hedging
    def _node_suspected(self, node_id: str) -> bool:
        """Suspicion signal feeding hedges: detector gray-zone belief or a
        breaker that is not fully CLOSED (recovering / tripping node)."""
        injector = self.fault_injector
        if injector is not None and injector.detector is not None:
            if injector.detector.is_suspected(node_id):
                return True
        if self.breakers is not None:
            return self.breakers.breaker(node_id).state != CLOSED
        return False

    def _hedge_threshold(self, task: Task) -> Optional[float]:
        """Adaptive percentile bar a running attempt must cross to hedge."""
        key = (task.job_id, task.stage_index)
        durations = self._stage_durations.get(key)
        if not durations or len(durations) < 3:
            return None  # not enough history for a meaningful percentile
        ordered = sorted(durations)
        idx = min(len(ordered) - 1, max(0, int(self.hedge_quantile * len(ordered))))
        return self.hedge_multiplier * ordered[idx]

    def _launch_hedges(self) -> None:
        """Back up slow attempts running on suspected nodes.

        A hedge generalises speculation: instead of waiting for most of the
        stage to finish, it fires as soon as (a) the attempt's runtime
        crosses an adaptive percentile of the stage's completed durations
        and (b) the hosting node is *suspected* — the detector's gray zone
        or a non-closed breaker.  The backup always lands on a different
        node; first finisher wins, the loser is killed.
        """
        if self._hedge_wakeup is not None:
            self._hedge_wakeup.cancel()
            self._hedge_wakeup = None
        free = [
            e
            for e in self.executors
            if e.free_slots > 0 and not self._blacklisted(e.node_id)
        ]
        if not free:
            return
        now = self.sim.now
        next_check: Optional[float] = None
        for task_id, attempts in list(self._attempts.items()):
            if not free:
                break
            if len(attempts) != 1:
                continue  # already backed up (hedge or speculation)
            attempt = attempts[0]
            node_id = attempt.executor.node_id
            if not self._node_suspected(node_id):
                continue
            threshold = self._hedge_threshold(attempt.task)
            if threshold is None:
                continue
            eligible_at = attempt.started_at + threshold
            if now < eligible_at:
                if next_check is None or eligible_at < next_check:
                    next_check = eligible_at
                continue
            executor = self._pick_hedge_slot(attempt.task, free, node_id)
            if executor is None:
                continue
            self.hedges_launched += 1
            self._m_hedges_launched.inc()
            self._m_launch_hedge.inc()
            if self.tracer.enabled:
                self.tracer.emit(
                    HedgeLaunch(
                        now,
                        track=executor.node_id,
                        attrs={
                            "task": attempt.task.task_id,
                            "app": self.app_id,
                            "primary_node": node_id,
                            "hedge_node": executor.node_id,
                            "elapsed": now - attempt.started_at,
                        },
                    )
                )
            self._start_attempt(attempt.task, executor, speculative=True, hedge=True)
            if executor.free_slots <= 0:
                free.remove(executor)
        if next_check is not None and next_check > now:
            self._hedge_wakeup = self.sim.schedule_at(next_check, self._dispatch)

    def _pick_hedge_slot(
        self, task: Task, free: List[Executor], primary_node: str
    ) -> Optional[Executor]:
        """A free slot off the primary's node, preferring unsuspected hosts."""
        candidates = [e for e in free if e.node_id != primary_node]
        if not candidates:
            return None
        trusted = [e for e in candidates if not self._node_suspected(e.node_id)]
        pool = trusted or candidates
        if task.is_input and task.block is not None:
            serves, block_id = self.hdfs.namenode.serves, task.block.block_id
            local = [e for e in pool if serves(block_id, e.node_id)]
            if local:
                return local[0]
        return pool[0]

    # ---------------------------------------------------------------- attempts
    def _trace_attempt(
        self, attempt: _Attempt, outcome: str, read_time: Optional[float] = None
    ) -> None:
        """Emit the attempt's lifetime as a TaskAttempt span (tracing only).

        The span covers launch→now on the executor's lane; successful
        attempts carry the queue→input→run phase split and the locality
        tag, failed/killed ones just the outcome.
        """
        if not self.tracer.enabled:
            return
        task, executor = attempt.task, attempt.executor
        now = self.sim.now
        attrs = {
            "task": task.task_id,
            "app": self.app_id,
            "outcome": outcome,
            "speculative": attempt.speculative,
        }
        if task.submitted_at is not None:
            attrs["queue"] = attempt.started_at - task.submitted_at
        if outcome == "success":
            if read_time is not None:
                attrs["input"] = read_time
                attrs["run"] = (now - attempt.started_at) - read_time
            if task.locality_level is not None:
                attrs["locality"] = task.locality_level
            if attempt.speculative:
                # The task's duration runs from its primary's launch.
                attrs["task_duration"] = task.duration
        self.tracer.emit(
            TaskAttempt(
                attempt.started_at,
                dur=now - attempt.started_at,
                track=executor.node_id,
                lane=executor.executor_id,
                attrs=attrs,
            )
        )

    def _start_attempt(
        self, task: Task, executor: Executor, *, speculative: bool, hedge: bool = False
    ) -> None:
        now = self.sim.now
        if self.breakers is not None:
            # Consume the breaker grant (an OPEN breaker past cooldown
            # transitions to HALF_OPEN here — this launch IS the probe).
            self.breakers.breaker(executor.node_id).allows_launch(now)
        executor.start_task(task.task_id)
        attempt = _Attempt(self, task, executor, speculative, now, hedge)
        self._attempts.setdefault(task.task_id, []).append(attempt)
        if not speculative:
            task.started_at = now
            task.executor_id = executor.executor_id
            task.node_id = executor.node_id
            self.demand_epoch += 1
            self._m_launch_primary.inc()
        if self.tracer.narrating:
            self.tracer.narrate(
                "task.start" if not speculative else ("task.hedge.start" if hedge else "task.speculate"),
                task.task_id,
                app=self.app_id,
                executor=executor.executor_id,
                node=executor.node_id,
            )
        attempt.launch()

    def _kill_attempt(self, attempt: _Attempt) -> None:
        """Kill an attempt, releasing its slot before returning."""
        attempts = self._attempts.get(attempt.task.task_id)
        if attempts and attempt in attempts:
            attempts.remove(attempt)
        self._trace_attempt(attempt, "killed")
        attempt.release()

    def _pick_fetch_source(self, block_id: str, reader_node: str) -> Optional[str]:
        """Replica holder a remote read fetches from, fault-aware.

        Without a fault injector this is exactly
        :meth:`~repro.hdfs.namenode.NameNode.pick_source`.  Under faults the
        driver filters holders through its (possibly stale) view — the
        failure detector's belief when one exists, else ground-truth
        reachability — and falls back to the unfiltered pick when the view
        rejects every holder (the fetch then fails and retries normally).
        Returns None when no replica exists at all.
        """
        namenode = self.hdfs.namenode
        holders = namenode.locations(block_id)
        if not holders:
            return None
        injector = self.fault_injector
        if injector is not None:
            detector = getattr(injector, "detector", None)
            if detector is not None:
                live = [h for h in holders if detector.is_alive(h)]
            else:
                live = [h for h in holders if injector.node_reachable(h)]
            if live:
                holders = live
        for node in holders:
            if node != reader_node:
                return node
        return holders[0]

    def _fail_attempt(self, attempt: _Attempt, reason: str) -> None:
        """An attempt died mid-flight (fetch failed / data gone): clean up
        its slot and route the task through the retry machinery."""
        task, executor = attempt.task, attempt.executor
        self.failed_attempts += 1
        self._m_failed_attempts.inc()
        self.demand_epoch += 1
        attempt.release()
        attempts = self._attempts.get(task.task_id)
        known = attempts is not None and attempt in attempts
        if known:
            attempts.remove(attempt)
        self._trace_attempt(attempt, reason)
        if known and not attempts:
            self._attempts.pop(task.task_id, None)
            if not task.cancelled and task.finished_at is None:
                self._handle_task_failure(task, executor.node_id, reason)
        if (
            not executor.running_tasks
            and executor.owner == self.app_id
            and executor.healthy
            and self.manager is not None
        ):
            self.manager.on_executor_idle(self, executor)
        self._dispatch()

    def _cpu_factor(self, node_id: str) -> float:
        if self.fault_injector is None:
            return 1.0
        return self.fault_injector.cpu_factor(node_id)

    def _remote_locality_level(self, task: Task, executor: Executor) -> str:
        """Rack-level classification of a non-node-local input task."""
        assert task.block is not None
        topology = self.cluster.topology
        rack = topology.rack_of(executor.node_id)
        holders = self.hdfs.namenode.serving_set(task.block.block_id)
        if any(topology.rack_of(h) == rack for h in holders):
            return "rack"
        return "any"

    def _shuffle_sources(self, task: Task) -> List[str]:
        """Source nodes for one shuffle fetch.

        Deterministic rotation over the nodes that ran the upstream stage,
        taking up to ``shuffle_fanout`` *distinct* nodes per fetch.  Fan-out
        1 (default) reproduces the single-aggregate-flow model; higher
        values approach the real all-to-all fetch at proportional event
        cost.
        """
        key = (task.job_id, task.stage_index - 1)
        upstream = self._stage_nodes.get(key)
        if not upstream:
            return []
        distinct = list(dict.fromkeys(upstream))  # first-seen order
        take = min(self.shuffle_fanout, len(distinct))
        idx = self._shuffle_rotation.get(key, 0)
        self._shuffle_rotation[key] = idx + take
        return [distinct[(idx + i) % len(distinct)] for i in range(take)]

    def _finish_attempt(self, attempt: _Attempt) -> None:
        task, executor = attempt.task, attempt.executor
        was_local, read_time = attempt.was_local, attempt.read_time
        now = self.sim.now
        executor.finish_task(task.task_id)
        if self.breakers is not None:
            self.breakers.breaker(executor.node_id).on_success(now)
        attempts = self._attempts.pop(task.task_id, [])
        if attempt in attempts:
            attempts.remove(attempt)
        for loser in attempts:
            if loser.hedge:
                self.hedges_lost += 1
                self._m_hedges_lost.inc()
            self._kill_attempt(loser)
        if attempt.hedge:
            self.hedges_won += 1
            self._m_hedges_won.inc()
        elif attempt.speculative:
            self.speculative_wins += 1
            self._m_speculative_wins.inc()
        # The winning attempt defines the task's recorded outcome.
        task.finished_at = now
        task.executor_id = executor.executor_id
        task.node_id = executor.node_id
        task.was_local = was_local
        task.read_time = read_time
        self.demand_epoch += 1
        if task.is_input and was_local is not None:
            task.locality_level = (
                "node" if was_local else self._remote_locality_level(task, executor)
            )
        self._trace_attempt(attempt, "success", read_time)
        job = self._jobs[task.job_id]
        if task.is_input and was_local is not None:
            # Feed the O(1) locality history the incremental demand index
            # reads (mirrors the fraction-property scans exactly).
            self.app.note_input_decided(job, was_local)
        key = (task.job_id, task.stage_index)
        self._stage_nodes[key].append(executor.node_id)
        self._stage_durations[key].append(now - attempt.started_at)
        self._stage_remaining[key] -= 1
        if self._stage_remaining[key] == 0:
            if task.stage_index == 0 and job.input_quorum < job.num_input_tasks:
                self._cancel_surplus_inputs(job)
            self._on_stage_done(job, task.stage_index)
        # The stage-done hook above may have triggered a reallocation that
        # already revoked (and even re-granted) this executor; only report
        # idleness while we still own it.
        if (
            not executor.running_tasks
            and executor.owner == self.app_id
            and self.manager is not None
        ):
            self.manager.on_executor_idle(self, executor)
        self._dispatch_or_defer()

    def _cancel_surplus_inputs(self, job: Job) -> None:
        """KMN: the quorum is met — cancel this job's surplus input tasks."""
        self.demand_epoch += 1
        for task in job.input_tasks:
            if task.finished_at is not None or task.cancelled:
                continue
            attempts = self._attempts.pop(task.task_id, None)
            if attempts:
                for attempt in list(attempts):
                    self._kill_attempt(attempt)
            elif task in self._runnable:
                self._runnable.remove(task)
            task.cancelled = True
            if self.tracer.narrating:
                self.tracer.narrate("task.cancel", task.task_id, app=self.app_id)

    def _on_stage_done(self, job: Job, stage_index: int) -> None:
        if stage_index + 1 < len(job.stages):
            self._enqueue_stage(job, stage_index + 1)
            return
        job.finished_at = self.sim.now
        self._m_job_completions.inc()
        # Every job reaching its last barrier came through submit_job.
        submitted = job.submitted_at
        assert submitted is not None
        self._m_jct.observe(self.sim.now - submitted)
        if self.tracer.enabled:
            self.tracer.emit(
                JobSpan(
                    submitted,
                    dur=self.sim.now - submitted,
                    track=self.app_id,
                    lane=job.job_id,
                    attrs={
                        "job": job.job_id,
                        "app": self.app_id,
                        "local_job": job.is_local_job,
                        "inputs": job.num_input_tasks,
                    },
                )
            )
        if self.manager is not None:
            self.manager.on_job_finished(self, job)

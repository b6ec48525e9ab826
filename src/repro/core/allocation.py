"""The two-level data-aware allocation procedure (Algorithms 1 + 2 combined).

:func:`two_level_allocate` is the heart of Custody.  Given every active
application's demand and the idle executor pool it produces an
:class:`~repro.core.demand.AllocationPlan`:

1. **Locality phase.**  While some application can still take a desired idle
   executor: pick the least-localized application (Algorithm 1, with
   locality percentages updated by the promises already made this round),
   and serve it in Algorithm 2's job-priority order — but hand control back
   to the inter-application level after *every single grant*, re-running
   MINLOCALITY (the ``ALLOCATEEXECUTOR`` early-return of Algorithm 2).
2. **Fill phase.**  Remaining idle executors are granted — still in
   min-locality order — to applications whose budget and outstanding task
   count warrant more slots (lines 17–20 of Algorithm 2), so tasks that
   cannot be local still find compute.

The procedure is deterministic and side-effect free; callers apply the plan
to live cluster state.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.demand import AllocationPlan, AppDemand, JobDemand, TaskDemand
from repro.core.interapp import pick_min_locality

__all__ = [
    "DataAwareAllocator",
    "two_level_allocate",
    "two_level_allocate_incremental",
]


@dataclass
class _JobRound:
    """Mutable per-job state during one allocation round."""

    demand: JobDemand
    pending: List[TaskDemand] = field(default_factory=list)
    promised: int = 0

    def __post_init__(self) -> None:
        self.pending = list(self.demand.tasks)

    @property
    def fully_promised(self) -> bool:
        """True when every unsatisfied task received a promise this round."""
        return not self.pending and self.demand.unsatisfied > 0


@dataclass
class _AppRound:
    """Mutable per-application state during one allocation round.

    ``jobs`` is materialised lazily: in the incremental engine's saturated
    steady state most apps are popped with no budget left (or nothing
    desired) and never touch their per-job state, and eagerly building a
    ``_JobRound`` per job per round was the dominant source of cyclic-GC
    pressure — full collections triggered mid-round were the entire
    32-tenant p99 spike in BENCH_alloc.json.  ``locality_key`` therefore
    reads straight from the (immutable) demand, which gives identical values
    because no job is ever removed from the list and unsatisfied counts are
    fixed for the round.
    """

    demand: AppDemand
    granted: int = 0
    promised_tasks: int = 0
    satisfied_jobs: int = 0
    _jobs: Optional[List[_JobRound]] = field(default=None, repr=False)

    @property
    def jobs(self) -> List[_JobRound]:
        """Per-job round state, built on first access."""
        if self._jobs is None:
            self._jobs = [_JobRound(j) for j in self.demand.jobs]
        return self._jobs

    @property
    def budget_left(self) -> int:
        """Executors the app may still take (σ_i − ζ_i − granted-this-round)."""
        return self.demand.budget - self.granted

    def locality_key(self) -> tuple:
        """(local-job %, local-task %, app id) including this round's promises."""
        d = self.demand
        job_den = d.decided_jobs + len(d.jobs)
        job_num = d.local_jobs + self.satisfied_jobs
        task_den = d.decided_tasks + sum(j.unsatisfied for j in d.jobs)
        task_num = d.local_tasks + self.promised_tasks
        job_frac = job_num / job_den if job_den else 0.0
        task_frac = task_num / task_den if task_den else 0.0
        return (job_frac, task_frac, d.app_id)

    def next_desired(self, available: Set[str], order: Dict[str, int]):
        """Next (job, task, executor) per Algorithm 2's priority order.

        Jobs are served fewest-pending-first; within a job the first pending
        task with an available candidate executor is chosen; the executor is
        the available candidate with the smallest cluster order.  Returns
        None when nothing desired is available.
        """
        for job in sorted(self.jobs, key=lambda j: (len(j.pending), j.demand.job_id)):
            for task in job.pending:
                usable = [c for c in task.candidates if c in available]
                if usable:
                    executor = min(usable, key=lambda ex: order[ex])
                    return job, task, executor
        return None


def _next_colocated(state: _AppRound, executor: str):
    """Next pending task (job-priority order) servable by ``executor``."""
    for job in sorted(state.jobs, key=lambda j: (len(j.pending), j.demand.job_id)):
        for task in job.pending:
            if executor in task.candidates:
                return job, task
    return None


def two_level_allocate(
    apps: Sequence[AppDemand],
    idle_executors: Sequence[str],
    *,
    fill: bool = True,
    fill_limits: Optional[Dict[str, int]] = None,
    executor_capacity: int = 1,
) -> AllocationPlan:
    """Run the full two-level procedure; see module docstring.

    Parameters
    ----------
    apps:
        Demands of all active applications.
    idle_executors:
        Idle executor ids in cluster order (the order is the deterministic
        tie-break for executor choice).
    fill:
        Enable the fill phase (grant leftover executors to apps with budget).
    fill_limits:
        Optional per-app cap on the *total* executors taken this round
        (locality grants count against it) — managers set this to the
        executor-equivalent of the app's outstanding tasks so apps do not
        hoard slots beyond their demand.
    executor_capacity:
        Task slots per executor.  The paper's analysis assumes one task per
        executor (§III-A); the deployed system runs multi-core executors, so
        a granted executor may absorb up to this many locality promises from
        its application before further grants consume budget.
    """
    if executor_capacity < 1:
        raise ValueError(f"executor_capacity must be >= 1, got {executor_capacity}")
    plan = AllocationPlan()
    rounds = {a.app_id: _AppRound(a) for a in apps}
    available: Set[str] = set(idle_executors)
    order = {ex: i for i, ex in enumerate(idle_executors)}

    # ------------------------------------------------------- locality phase
    def wants_locality(app_id: str) -> bool:
        state = rounds[app_id]
        if state.budget_left <= 0:
            return False
        return state.next_desired(available, order) is not None

    while available:
        keys = [state.locality_key() for state in rounds.values()]
        app_id = pick_min_locality(keys, eligible=wants_locality)
        if app_id is None:
            break
        state = rounds[app_id]
        # Serve this app until it stops being MINLOCALITY or runs dry
        # (the ALLOCATEEXECUTOR early return).
        while state.budget_left > 0 and available:
            step = state.next_desired(available, order)
            if step is None:
                break
            job, task, executor = step
            available.discard(executor)
            plan.grant(app_id, executor)
            plan.assign(task.task_id, executor)
            state.granted += 1
            state.promised_tasks += 1
            job.pending.remove(task)
            if job.fully_promised:
                state.satisfied_jobs += 1
            # Multi-slot executors absorb further co-located promises from
            # this app (same job-priority order) without consuming budget.
            for _ in range(executor_capacity - 1):
                extra = _next_colocated(state, executor)
                if extra is None:
                    break
                extra_job, extra_task = extra
                plan.assign(extra_task.task_id, executor)
                state.promised_tasks += 1
                extra_job.pending.remove(extra_task)
                if extra_job.fully_promised:
                    state.satisfied_jobs += 1
            keys = [s.locality_key() for s in rounds.values()]
            still_min = pick_min_locality(keys, eligible=wants_locality)
            if still_min is not None and still_min != app_id:
                break

    # ----------------------------------------------------------- fill phase
    if fill and available:
        # A fill limit caps the app's total take this round: executors
        # already granted for locality count against it, so an app that got
        # everything it needs locally receives no filler.
        limits = {
            app_id: max(0, cap - rounds[app_id].granted)
            for app_id, cap in (fill_limits or {}).items()
        }

        def wants_fill(app_id: str) -> bool:
            state = rounds[app_id]
            if state.budget_left <= 0:
                return False
            if app_id in limits and limits[app_id] <= 0:
                return False
            return True

        while available:
            keys = [state.locality_key() for state in rounds.values()]
            app_id = pick_min_locality(keys, eligible=wants_fill)
            if app_id is None:
                break
            state = rounds[app_id]
            executor = min(available, key=lambda ex: order[ex])
            available.discard(executor)
            plan.grant(app_id, executor)
            state.granted += 1
            if app_id in limits:
                limits[app_id] -= 1

    return plan


def two_level_allocate_incremental(
    apps: Sequence[AppDemand],
    idle_executors: Sequence[str],
    *,
    fill: bool = True,
    fill_limits: Optional[Dict[str, int]] = None,
    executor_capacity: int = 1,
) -> AllocationPlan:
    """Heap-based :func:`two_level_allocate` producing bitwise-identical plans.

    The reference procedure recomputes *every* application's
    ``locality_key()`` (an O(jobs) sum each) and re-runs MINLOCALITY after
    each single grant — O(apps × jobs) per executor handed out.  This engine
    exploits three invariants of the round:

    * an application's key changes **only** when that application itself is
      granted (promises/satisfied-jobs are per-app state), so a heap with
      exactly one live entry per app — pop, grant, push the new key — stays
      consistent without ever touching the other apps;
    * eligibility (budget left *and* a desired executor available) is
      monotone-decreasing as the round progresses (budgets and the idle pool
      only shrink, pending task lists only shrink), so an app popped while
      ineligible can be dropped for the rest of the phase — and the
      desired-step scan runs at most once per pop instead of once per
      eligibility probe inside every MINLOCALITY pass.

    The fill phase adds a third: keys do not depend on fill grants at all,
    so the min-locality order is computed once and the remaining executors
    are drained through a pre-built min-heap on cluster order.

    Together these turn a round from O(grants × apps × jobs) into
    O(grants × log(apps) + apps × jobs).  Same signature, same plan,
    different cost — the equivalence suite asserts plan identity.
    """
    if executor_capacity < 1:
        raise ValueError(f"executor_capacity must be >= 1, got {executor_capacity}")
    plan = AllocationPlan()
    rounds = {a.app_id: _AppRound(a) for a in apps}
    available: Set[str] = set(idle_executors)
    order = {ex: i for i, ex in enumerate(idle_executors)}

    # ------------------------------------------------------- locality phase
    # One live heap entry per app; keys are the (job %, task %, app id)
    # tuples MINLOCALITY sorts on, unique by construction.
    key_heap: List[Tuple[float, float, str]] = [
        state.locality_key() for state in rounds.values()
    ]
    heapq.heapify(key_heap)

    while available and key_heap:
        app_id = heapq.heappop(key_heap)[2]
        state = rounds[app_id]
        if state.budget_left <= 0:
            continue  # permanently ineligible — drop from the phase
        step = state.next_desired(available, order)
        if step is None:
            continue  # nothing desired is (or will become) available
        job, task, executor = step
        available.discard(executor)
        plan.grant(app_id, executor)
        plan.assign(task.task_id, executor)
        state.granted += 1
        state.promised_tasks += 1
        job.pending.remove(task)
        if job.fully_promised:
            state.satisfied_jobs += 1
        for _ in range(executor_capacity - 1):
            extra = _next_colocated(state, executor)
            if extra is None:
                break
            extra_job, extra_task = extra
            plan.assign(extra_task.task_id, executor)
            state.promised_tasks += 1
            extra_job.pending.remove(extra_task)
            if extra_job.fully_promised:
                state.satisfied_jobs += 1
        heapq.heappush(key_heap, state.locality_key())

    # ----------------------------------------------------------- fill phase
    if fill and available:
        limits = {
            app_id: max(0, cap - rounds[app_id].granted)
            for app_id, cap in (fill_limits or {}).items()
        }
        # Fill grants leave every locality key untouched, and fill
        # eligibility (budget, per-app limit) only ever decreases — so one
        # sorted pass, serving each app to exhaustion, reproduces the
        # reference's pick-min-per-grant loop exactly.
        exec_heap = [(order[ex], ex) for ex in available]
        heapq.heapify(exec_heap)
        for key in sorted(state.locality_key() for state in rounds.values()):
            if not exec_heap:
                break
            state = rounds[key[2]]
            while (
                exec_heap
                and state.budget_left > 0
                and limits.get(key[2], 1) > 0
            ):
                _, executor = heapq.heappop(exec_heap)
                available.discard(executor)
                plan.grant(key[2], executor)
                state.granted += 1
                if key[2] in limits:
                    limits[key[2]] -= 1

    return plan


class DataAwareAllocator:
    """Object façade over :func:`two_level_allocate_incremental` with stable
    settings.

    Keeps the fill policy in one place so the Custody manager and the
    ablation benches construct allocation rounds identically.  Its plans
    equal :func:`two_level_allocate`'s bit for bit.
    """

    def __init__(self, *, fill: bool = True, executor_capacity: int = 1):
        self.fill = fill
        self.executor_capacity = executor_capacity

    def allocate(
        self,
        apps: Sequence[AppDemand],
        idle_executors: Sequence[str],
        *,
        fill_limits: Optional[Dict[str, int]] = None,
    ) -> AllocationPlan:
        """Produce an allocation plan for one round."""
        return two_level_allocate_incremental(
            apps,
            idle_executors,
            fill=self.fill,
            fill_limits=fill_limits,
            executor_capacity=self.executor_capacity,
        )

"""Custody's core: the data-aware resource sharing problem and its solution.

The package is pure — no simulator state — so the allocation theory can be
tested and benchmarked in isolation.

Runtime modules (what a Custody run executes; re-exported here):

* :mod:`repro.core.demand` — the problem instance: applications, jobs and
  input tasks with their candidate (replica-holding) executors.
* :mod:`repro.core.interapp` — Algorithm 1: MINLOCALITY max-min fair
  ordering across applications.
* :mod:`repro.core.allocation` — the two-level procedure combining
  Algorithm 1 with Algorithm 2 (greedy priority allocation inside one
  application), producing an :class:`~repro.core.demand.AllocationPlan`.
* :mod:`repro.core.fairness` — max-min fairness predicates and indices.

Theory modules (the §IV bounds the greedy is measured against; no runtime
module imports them, so a run never loads scipy or networkx — import them
by full path):

* :mod:`repro.core.intraapp` — Algorithm 2 as a standalone greedy plus the
  optimal matching via min-cost flow for comparison.
* :mod:`repro.core.flownetwork` — the maximum-concurrent-flow formulation
  (Fig. 2): network construction, LP relaxation upper bound, and an exact
  brute-force solver for small instances.
* :mod:`repro.core.matching` — bipartite matching primitives shared by the
  two above.
"""

from repro.core.allocation import DataAwareAllocator, two_level_allocate
from repro.core.demand import (
    AllocationPlan,
    AppDemand,
    JobDemand,
    TaskDemand,
    validate_plan,
)
from repro.core.fairness import is_maxmin_fair_improvement, jains_index, lexmin_key
from repro.core.interapp import min_locality_order

__all__ = [
    "AllocationPlan",
    "AppDemand",
    "DataAwareAllocator",
    "JobDemand",
    "TaskDemand",
    "is_maxmin_fair_improvement",
    "jains_index",
    "lexmin_key",
    "min_locality_order",
    "two_level_allocate",
    "validate_plan",
]

"""In-application task scheduling.

Custody deliberately leaves the task scheduler untouched: every application
runs standard **delay scheduling** [22] on whatever executors the cluster
manager gave it (§V: "all the applications use the standard delay scheduling
of Spark to accept resource offers and schedule tasks").  The manager's job
is to raise the *upper bound* locality the task scheduler can reach.

* :class:`DelayScheduler` — wait up to a locality-wait budget for a local
  slot before accepting a non-local one.
* :class:`LocalityFirstScheduler` / :class:`FifoScheduler` — the two
  degenerate policies (infinite wait / zero wait) used in ablations.
* :class:`RunnableQueue` — a driver's runnable tasks, indexed per node, per
  rack and per locality wait so each policy answer is a FIFO-head lookup.
* :class:`ApplicationDriver` — the Spark-driver analogue: receives jobs,
  walks their stage DAGs, launches tasks into owned executors via the task
  scheduler, and reports executor idleness to the cluster manager.
"""

from repro.scheduling.policies import (
    DelayScheduler,
    FifoScheduler,
    HintedDelayScheduler,
    LocalityFirstScheduler,
    TaskScheduler,
)
from repro.scheduling.queue import RunnableQueue
from repro.scheduling.driver import ApplicationDriver

__all__ = [
    "ApplicationDriver",
    "DelayScheduler",
    "FifoScheduler",
    "HintedDelayScheduler",
    "LocalityFirstScheduler",
    "RunnableQueue",
    "TaskScheduler",
]

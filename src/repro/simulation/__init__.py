"""Deterministic discrete-event simulation engine.

A small, SimPy-flavoured core purpose-built for the Custody reproduction:

* :class:`Simulation` — event heap + virtual clock, callback timers.
* :class:`Process` / :class:`Signal` / :class:`Timeout` — generator-based
  cooperative processes for modelling drivers, executors and transfers.
* :class:`Store` and :class:`CountingResource` — queued hand-off and counted
  capacity primitives.
* :class:`Timeline` — an append-only trace of simulation events, fed as a
  sink of the run's tracer; used by the golden/determinism tests and for
  debugging.

Design goals: zero global state (everything hangs off one ``Simulation``),
strict determinism (ties broken by insertion sequence number), and clear
failure on misuse (scheduling in the past raises, running twice raises).
"""

from repro.simulation.engine import EventHandle, Simulation
from repro.simulation.process import AllOf, AnyOf, Interrupt, Process, Signal, Timeout
from repro.simulation.resources import CountingResource, Store
from repro.simulation.timeline import Timeline, TimelineRecord

__all__ = [
    "AllOf",
    "AnyOf",
    "CountingResource",
    "EventHandle",
    "Interrupt",
    "Process",
    "Signal",
    "Simulation",
    "Store",
    "Timeline",
    "TimelineRecord",
]

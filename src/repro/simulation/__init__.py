"""Deterministic discrete-event simulation engine.

A small, SimPy-flavoured core purpose-built for the Custody reproduction:

* :mod:`repro.simulation.engine` — :class:`~repro.simulation.engine.Simulation`,
  the event heap + virtual clock with callback timers.
* :mod:`repro.simulation.process` — generator-based cooperative processes
  (``Process`` / ``Signal`` / ``Timeout``) for modelling drivers, executors
  and transfers.
* :mod:`repro.simulation.timeline` — an append-only trace of simulation
  events, fed as a sink of the run's tracer; used by the golden/determinism
  tests and for debugging.

Design goals: zero global state (everything hangs off one ``Simulation``),
strict determinism (ties broken by insertion sequence number), and clear
failure on misuse (scheduling in the past raises, running twice raises).
"""

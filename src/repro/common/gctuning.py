"""Cyclic-GC hygiene for long-lived simulator worlds.

Profiling the 32-tenant allocation benchmark (BENCH_alloc.json) showed the
incremental engine's ~89 ms p99 — against a ~5 ms p50 — was not an
allocation phase at all: CPython's cyclic collector periodically runs full
collections that traverse the *entire* live object graph (tens of
thousands of static tasks, blocks, events and executors), and whichever
round a collection lands in eats the pause.  The :class:`PerfCounters
<repro.metrics.collector.PerfCounters>` ``alloc_gc_collections`` breakdown
field confirms the correlation.

Two complementary mitigations:

* the incremental allocation engine allocates almost nothing per round
  (lazy ``_AppRound`` job state), so rounds stop *triggering* collections;
  and
* :func:`freeze_world` moves the long-lived world into the permanently
  frozen generation after setup — the standard long-running-service
  technique (``gc.freeze``) — so the collections that still fire no longer
  traverse the static object graph.

Freezing is opt-in and bench/CLI-level: it never changes simulation
behaviour, only pause times.

For benchmark *timed sections* there is a third, stricter tool:
:func:`quiesced_gc` additionally pauses automatic collections for the
duration (the pyperf/timeit methodology).  The allocation bench drives
twin worlds in lockstep, so the reference engine's per-round rebuild
garbage would otherwise trigger collections inside the *incremental*
engine's timed rounds — a harness artifact, not allocator cost.  The
deferred work is done explicitly on exit, outside any timer.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["freeze_world", "frozen_world", "quiesced_gc"]


def freeze_world() -> int:
    """Collect garbage, then freeze every surviving object.

    Call once the long-lived state (cluster, HDFS blocks, workload) is
    fully built.  Returns the number of objects frozen.  Safe to call on
    interpreters without ``gc.freeze`` (a no-op returning 0).
    """
    gc.collect()
    if not hasattr(gc, "freeze"):  # pragma: no cover - py3.6 and older
        return 0
    before = gc.get_freeze_count()
    gc.freeze()
    return gc.get_freeze_count() - before


@contextmanager
def frozen_world() -> Iterator[None]:
    """Context manager: freeze on entry, unfreeze on exit.

    Unfreezing returns the objects to the oldest generation so a later
    full collection can still reclaim them — use this around each
    benchmark size so one size's world does not stay frozen into the
    next.
    """
    freeze_world()
    try:
        yield
    finally:
        if hasattr(gc, "unfreeze"):
            gc.unfreeze()


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
    freeze_world()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        if hasattr(gc, "unfreeze"):
            gc.unfreeze()
        gc.collect()

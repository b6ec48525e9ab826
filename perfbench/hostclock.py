"""Host-speed companion: a fixed pure-Python loop that shares a core with an experiment.

    python3 perfbench/hostclock.py --cpu N

On the 2-core reference host the speed of a core swings by ±30% within
seconds, and the two cores swing independently, so neither wall time nor
CPU time of an experiment repeats.  Two processes time-sharing one core,
however, see the same speed: the per-second costs of two copies of
:func:`chunk` pinned to one core correlated at 0.999, their ratio spreading
under 1%.  ``run.py`` therefore pins every experiment process to a core
beside one companion that runs :func:`chunk` in a loop, and scales the
experiment's CPU time by ``REF_CHUNK_S`` over the companion's mean chunk
cost in the same span (:meth:`Companion.scale`): seconds at the reference
speed, at which one chunk costs ``REF_CHUNK_S``.

The companion pins itself to ``--cpu``, lowers its priority to ``NICE``,
prints ``ready`` after its first chunk, and on SIGTERM prints one JSON list
of ``[end, cost]`` pairs, one per chunk: the ``perf_counter`` reading when
the chunk ended (a system-wide clock, comparable with the experiment's
readings) and the chunk's CPU time.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import signal
import statistics
import subprocess
import sys
from time import perf_counter, process_time

#: CPU seconds one :func:`chunk` takes at the reference speed (about its
#: cost on the reference host with the core to itself in a calm period).
#: Only the unit of the scaled times depends on it.
REF_CHUNK_S = 0.006

#: Niceness of the companion.  At 10 it takes about a tenth of the core;
#: at 0 it took half, and scaled times spread no less.
NICE = 10

#: Fewest chunks a span is scaled by; a shorter span borrows its neighbours'.
MIN_CHUNKS = 5


def chunk() -> None:
    """A fixed mix of dict, heap and sort work, a few milliseconds long."""
    table: dict = {}
    for i in range(20_000):
        table[i & 1023] = table.get(i & 511, 0) + i
    heap: list = []
    for i in range(3_000):
        heapq.heappush(heap, ((i * 7919) % 1000, i, (i, i + 1)))
    while heap:
        heapq.heappop(heap)
    sorted(((i * 31) % 97, str(i)) for i in range(2_000))


def pin(cpu) -> None:
    """Pin this process to ``cpu`` (no-op when ``cpu`` is None or not allowed)."""
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})
        except (AttributeError, OSError, ValueError):
            pass


class Companion:
    """A running companion process pinned to one core."""

    def __init__(self, cpu) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--cpu", str(cpu)],
            stdout=subprocess.PIPE, text=True,
        )
        self.proc.stdout.readline()
        self.chunks: list = []

    def stop(self) -> None:
        """End the companion, wait for it and keep its chunk record."""
        self.proc.terminate()
        out, _ = self.proc.communicate(timeout=60)
        self.chunks = json.loads(out) if out.strip() else []

    def scale(self, start: float, end: float) -> float:
        """``REF_CHUNK_S`` over the mean chunk cost in ``[start, end]``.

        Multiplying a CPU time spent in that span by it gives seconds at the
        reference speed.  Spans shorter than ``MIN_CHUNKS`` chunks use the
        chunks nearest to their middle.
        """
        costs = [cost for t, cost in self.chunks if start <= t <= end]
        if len(costs) < MIN_CHUNKS:
            middle = (start + end) / 2
            nearest = sorted(self.chunks, key=lambda tc: abs(tc[0] - middle))[:MIN_CHUNKS]
            costs = [cost for _, cost in nearest]
        if not costs:
            raise RuntimeError("host-speed companion recorded no chunks")
        return REF_CHUNK_S / statistics.fmean(costs)

    def chunk_ms(self, first: bool) -> float:
        """Median chunk cost (ms) over the first or last tenth of the record."""
        tenth = max(1, len(self.chunks) // 10)
        part = self.chunks[:tenth] if first else self.chunks[-tenth:]
        return statistics.median(cost for _, cost in part) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args(argv)
    pin(args.cpu)
    os.nice(NICE)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    parent = os.getppid()
    chunks = []
    while not stop and os.getppid() == parent:  # a killed run.py leaves no companion
        start = process_time()
        chunk()
        chunks.append((perf_counter(), process_time() - start))
        if len(chunks) == 1:
            print("ready", flush=True)
    print(json.dumps(chunks), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""RunnableQueue: one driver's runnable tasks, indexed for dispatch.

The driver asks its :class:`~repro.scheduling.policies.TaskScheduler` which
task a free slot on node *N* should take, once per free slot, many times per
simulated second.  Delay scheduling [22] answers with "the first task in
FIFO order that *N* can serve locally, else the first whose locality wait
ran out" — a scan of the whole queue per slot when the queue is a list.
This queue keeps the indexes Spark's ``TaskSetManager`` keeps (pending
tasks per host, per rack and with no preference) so each answer is a look
at the head of one FIFO:

* the FIFO itself: task → sequence number, insertion ordered, O(1) removal
  and membership; a requeued task goes to the tail with a fresh number;
* ``node → FIFO`` of the input tasks whose block the node serves (disk or
  cache copy), and the no-preference FIFO of shuffle tasks;
* per locality wait a policy asks about, a heap of input tasks by
  submission time that *releases* them, in FIFO order (and per rack, for
  the rack ladder), once ``now - submitted_at >= wait``, plus an expiry
  heap answering ``next_wakeup``.

Entries are deleted lazily: an index entry is live while its sequence
number is still in the queue, stale heads are popped on query, and a node
whose FIFO a query finds empty leaves the index.  The
derived indexes depend on block locations, which move at run time (cache
inserts and evictions, replica loss, re-replication, block reports), so
they are dropped whenever :attr:`NameNode.version
<repro.hdfs.namenode.NameNode.version>` differs from the version they were
built at and rebuilt on the next query.  They are also dropped once more
tasks have left the queue since the last build than ``COMPACT_RATIO`` ×
the live count + ``COMPACT_SLACK`` — the bound on stale entries.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import (
    Callable, Collection, Deque, Dict, Iterable, Iterator, List, Optional, Set, Tuple,
)

from repro.cluster.topology import Topology
from repro.hdfs.namenode import NameNode
from repro.workload.task import Task

__all__ = ["RunnableQueue"]

#: Indexes are rebuilt once departures since the last build exceed
#: ``COMPACT_RATIO * len(queue) + COMPACT_SLACK``.
COMPACT_RATIO = 2
COMPACT_SLACK = 32

Skip = Optional[Callable[[Task], bool]]


class RunnableQueue:
    """FIFO of runnable tasks with per-node, per-rack and wait indexes."""

    def __init__(self, namenode: NameNode) -> None:
        self.namenode = namenode
        #: seq → task; insertion order is FIFO order (seqs only grow)
        self._tasks: Dict[int, Task] = {}
        self._seq: Dict[str, int] = {}
        self._next_seq = 0
        self._fifo: Deque[int] = deque()
        self._shuffle: Deque[int] = deque()
        self._departed = 0
        # Locality-derived indexes, valid at NameNode version ``_version``.
        self._version = namenode.version
        self._serving: Dict[str, Set[str]] = {}
        #: node → FIFO of the input tasks it serves; a node leaves once a
        #: query finds its FIFO holding only stale entries
        self._by_node: Optional[Dict[str, Deque[int]]] = None
        self._rungs: Dict[Tuple[float, float], _WaitRung] = {}

    # ------------------------------------------------------------ container
    def __len__(self) -> int:
        return len(self._tasks)

    def __bool__(self) -> bool:
        return bool(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        """Queued tasks in FIFO order."""
        return iter(self._tasks.values())

    def __contains__(self, task: Task) -> bool:
        return task.task_id in self._seq

    def seq_of(self, task_id: str) -> Optional[int]:
        """FIFO position key of a queued task (smaller = earlier), or None."""
        return self._seq.get(task_id)

    def task_at(self, seq: int) -> Task:
        """The queued task holding sequence number ``seq``."""
        return self._tasks[seq]

    def push(self, task: Task) -> None:
        """Append ``task`` at the FIFO tail."""
        self.extend((task,))

    def extend(self, tasks: Iterable[Task]) -> None:
        """Append ``tasks``, in order, at the FIFO tail."""
        self._sync()
        indexed = self._by_node is not None
        rungs = self._rungs.values()
        for task in tasks:
            if task.task_id in self._seq:
                raise ValueError(f"{task.task_id} is already queued")
            seq = self._next_seq
            self._next_seq += 1
            self._tasks[seq] = task
            self._seq[task.task_id] = seq
            self._fifo.append(seq)
            if not task.is_input:
                self._shuffle.append(seq)
                continue
            if indexed:
                self._index_local(seq, task)
            for rung in rungs:
                rung._add(seq, task)

    def remove(self, task: Task) -> None:
        """Take ``task`` off the queue (its index entries go stale)."""
        seq = self._seq.pop(task.task_id, None)
        if seq is None:
            raise ValueError(f"{task.task_id} is not queued")
        del self._tasks[seq]
        self._departed += 1
        if self._departed > COMPACT_RATIO * len(self._tasks) + COMPACT_SLACK:
            self._compact()

    # -------------------------------------------------------------- queries
    def first(self) -> Optional[Task]:
        """The FIFO head."""
        return self._head(self._fifo, None)

    def first_shuffle(self, skip: Skip = None) -> Optional[Task]:
        """First queued shuffle task (no locality preference) not skipped."""
        return self._head(self._shuffle, skip)

    def first_local(self, node_id: str, skip: Skip = None) -> Optional[Task]:
        """First queued input task ``node_id`` serves locally, not skipped."""
        return self._local(node_id, skip)

    def first_eligible(
        self,
        node_id: str,
        now: float,
        wait: float,
        rack_wait: Optional[float] = None,
        topology: Optional[Topology] = None,
        skip: Skip = None,
    ) -> Optional[Task]:
        """The locality ladder's pick for a free slot on ``node_id``.

        In order: the first input task (FIFO order) that ``node_id`` serves
        locally; with ``rack_wait``, the first whose ``wait`` ran out and
        whose block is served from ``node_id``'s rack in ``topology``; else
        the earlier of the first shuffle task and the first input task whose
        last wait (``wait``, or ``wait + rack_wait``) ran out.  ``skip``
        hides tasks from the local and shuffle steps.  A wait runs out when
        ``now - submitted_at >= wait``.
        """
        local = self._local(node_id, skip)
        if local is not None:
            return local
        if rack_wait is None:
            expired = self._first_released(now, wait, 0.0)
        else:
            assert topology is not None
            near = self._first_released_in_rack(node_id, now, wait, topology)
            if near is not None:
                return near
            expired = self._first_released(now, wait, rack_wait)
        return self.earlier(expired, self._head(self._shuffle, skip))

    def placeable_nodes(
        self, now: float, wait: Optional[float] = None
    ) -> Optional[Collection[str]]:
        """Nodes :meth:`first_eligible` could place a task on right now.

        While no shuffle task is queued and no input task's ``wait`` ran out
        (``wait`` releases no later than ``wait + rack_wait``), that is a
        superset of the nodes serving a queued input task locally (a live
        view); otherwise None, meaning any node.
        """
        if self._head(self._shuffle, None) is not None:
            return None
        if wait is not None and self._first_released(now, wait, 0.0) is not None:
            return None
        return self._node_index().keys()

    def next_expiry(self, now: float, wait: float, extra: float = 0.0) -> Optional[float]:
        """Earliest ``submitted_at + wait + extra`` of a queued input task
        that is later than ``now``."""
        return self._rung(wait, extra)._next_expiry(now)

    def earlier(self, a: Optional[Task], b: Optional[Task]) -> Optional[Task]:
        """Whichever of two queued tasks (or None) comes first in FIFO order."""
        if a is None or b is None:
            return a if b is None else b
        return a if self._seq[a.task_id] < self._seq[b.task_id] else b

    # ------------------------------------------------------------ internals
    def _first_released(self, now: float, wait: float, extra: float) -> Optional[Task]:
        rung = self._rung(wait, extra)
        rung._advance(now)
        return rung._head(rung._released)

    def _first_released_in_rack(
        self, node_id: str, now: float, wait: float, topology: Topology
    ) -> Optional[Task]:
        rung = self._rung(wait, 0.0)
        rung._advance(now)
        by_rack = rung._rack_view(topology)
        heap = by_rack.get(topology.rack_of(node_id)) if by_rack else None
        return rung._head(heap) if heap else None

    def _local(self, node_id: str, skip: Skip) -> Optional[Task]:
        by_node = self._node_index()
        queue = by_node.get(node_id)
        if queue is None:
            return None
        task = self._head(queue, skip)
        if not queue:
            del by_node[node_id]
        return task

    def _head(self, queue: Deque[int], skip: Skip) -> Optional[Task]:
        tasks = self._tasks
        while queue and queue[0] not in tasks:
            queue.popleft()
        if not queue:
            return None
        if skip is None:
            return tasks[queue[0]]
        for seq in queue:
            task = tasks.get(seq)
            if task is not None and not skip(task):
                return task
        return None

    def _node_index(self) -> Dict[str, Deque[int]]:
        self._sync()
        if self._by_node is None:
            self._by_node = {}
            for seq, task in self._tasks.items():
                if task.is_input:
                    self._index_local(seq, task)
        return self._by_node

    def _index_local(self, seq: int, task: Task) -> None:
        by_node = self._by_node
        assert by_node is not None
        for node_id in self._serving_of(task):
            queue = by_node.get(node_id)
            if queue is None:
                queue = by_node[node_id] = deque()
            queue.append(seq)

    def _rung(self, wait: float, extra: float) -> "_WaitRung":
        """The wait index for ``wait + extra``, built on first use and kept
        up to date by :meth:`extend` afterwards."""
        self._sync()
        rung = self._rungs.get((wait, extra))
        if rung is None:
            rung = self._rungs[(wait, extra)] = _WaitRung(self, wait, extra)
        return rung

    def _serving_of(self, task: Task) -> Set[str]:
        """Nodes serving ``task``'s block at the current version (memoised)."""
        assert task.block is not None
        block_id = task.block.block_id
        nodes = self._serving.get(block_id)
        if nodes is None:
            nodes = self._serving[block_id] = self.namenode.serving_set(block_id)
        return nodes

    def _sync(self) -> None:
        """Drop the locality-derived indexes if block locations moved."""
        if self.namenode.version != self._version:
            self._version = self.namenode.version
            self._serving = {}
            self._by_node = None
            self._rungs = {}

    def _compact(self) -> None:
        """Shed stale entries: rebuild the FIFOs, drop the derived indexes
        and the serving-set memo (which would otherwise keep every block
        ever queued)."""
        self._departed = 0
        self._fifo = deque(self._tasks)
        self._shuffle = deque(s for s, t in self._tasks.items() if not t.is_input)
        self._serving = {}
        self._by_node = None
        self._rungs = {}


class _WaitRung:
    """A queue's input tasks split by one locality wait ``wait + extra``.

    A task is *released* once ``now - submitted_at >= wait + extra`` — the
    exact comparison the delay-scheduling ladder makes — and released
    sequence numbers come back out of ``_released`` in FIFO order.
    ``_next_expiry`` reports the earliest ``submitted_at + wait + extra``
    still in the future (the driver's wakeup time).  Both conditions are
    monotone in ``submitted_at``, so one heap each suffices; they are kept
    apart because the two float expressions can disagree by an ulp.  Time
    must not run backwards between queries; if it does (direct policy use),
    the rung rebuilds itself.
    """

    def __init__(self, queue: RunnableQueue, wait: float, extra: float) -> None:
        self.queue = queue
        self.wait = wait
        self.extra = extra
        self.threshold = wait + extra
        self._reset()

    def _reset(self) -> None:
        self.now = float("-inf")
        self._pending: List[Tuple[float, int]] = []
        self._expiry: List[Tuple[float, int]] = []
        self._released: List[int] = []
        #: rack → released seqs served from the rack (built on first ask)
        self._by_rack: Optional[Dict[str, List[int]]] = None
        self._topology: Optional[Topology] = None
        for seq, task in self.queue._tasks.items():
            if task.is_input and task.submitted_at is not None:
                self._pending.append((task.submitted_at, seq))
                self._expiry.append((task.submitted_at + self.wait + self.extra, seq))
        heapq.heapify(self._pending)
        heapq.heapify(self._expiry)

    def _add(self, seq: int, task: Task) -> None:
        s = task.submitted_at
        if s is not None:
            heapq.heappush(self._pending, (s, seq))
            heapq.heappush(self._expiry, (s + self.wait + self.extra, seq))

    def _advance(self, now: float) -> None:
        if now < self.now:
            self._reset()
        self.now = now
        tasks = self.queue._tasks
        pending = self._pending
        while pending:
            s, seq = pending[0]
            if seq in tasks:
                if not now - s >= self.threshold:
                    break
                heapq.heappush(self._released, seq)
                if self._by_rack is not None:
                    self._index_racks(seq)
            heapq.heappop(pending)

    def _rack_view(self, topology: Topology) -> Dict[str, List[int]]:
        if self._by_rack is None or self._topology is not topology:
            self._by_rack, self._topology = {}, topology
            for seq in self._released:
                if seq in self.queue._tasks:
                    self._index_racks(seq)
        return self._by_rack

    def _index_racks(self, seq: int) -> None:
        assert self._by_rack is not None and self._topology is not None
        rack_of = self._topology.rack_of
        for rack in {rack_of(n) for n in self.queue._serving_of(self.queue._tasks[seq])}:
            heapq.heappush(self._by_rack.setdefault(rack, []), seq)

    def _head(self, heap: List[int]) -> Optional[Task]:
        tasks = self.queue._tasks
        while heap and heap[0] not in tasks:
            heapq.heappop(heap)
        return tasks[heap[0]] if heap else None

    def _next_expiry(self, now: float) -> Optional[float]:
        if now < self.now:
            self._reset()
        self.now = now
        tasks = self.queue._tasks
        expiry = self._expiry
        while expiry and (expiry[0][0] <= now or expiry[0][1] not in tasks):
            heapq.heappop(expiry)
        return expiry[0][0] if expiry else None

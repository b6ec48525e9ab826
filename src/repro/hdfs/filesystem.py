"""HDFS facade: ingest files, place replicas, answer locality queries."""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.ids import IdFactory
from repro.common.units import BlockSpec
from repro.cluster.cluster import Cluster
from repro.hdfs.blocks import Block
from repro.hdfs.cache import DEFAULT_CACHE_BANDWIDTH, BlockCache
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import FileEntry, NameNode
from repro.hdfs.placement import PlacementPolicy, RandomPlacement

__all__ = ["HDFS"]


class HDFS:
    """The distributed file system serving the simulated cluster.

    One DataNode per worker node; a single NameNode.  ``ingest`` cuts a file
    into blocks, asks the placement policy for replica nodes, writes the
    replicas and registers everything with the NameNode.

    Parameters
    ----------
    cluster:
        Supplies node ids, storage capacity, and the rack topology.
    block_spec:
        Block size and default replication (defaults: 128 MB x3, §VI-A).
    placement:
        Replica placement policy (default: uniform random, the paper's model).
    rng:
        Random generator used exclusively for placement decisions.
    storage_per_node:
        DataNode capacity in bytes (defaults to the paper's 384 GB SSD).
    cache_per_node:
        In-memory block cache per node in bytes (0 disables caching).
    cache_bandwidth:
        Memory-read bandwidth of the caches in bytes/second.
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        block_spec: Optional[BlockSpec] = None,
        placement: Optional[PlacementPolicy] = None,
        rng: Optional[np.random.Generator] = None,
        storage_per_node: float = 384 * 2.0**30,
        cache_per_node: float = 0.0,
        cache_bandwidth: float = DEFAULT_CACHE_BANDWIDTH,
    ):
        self.cluster = cluster
        self.block_spec = block_spec or BlockSpec()
        self.placement = placement or RandomPlacement()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.namenode = NameNode()
        self.datanodes: Dict[str, DataNode] = {
            node_id: DataNode(node_id, capacity=storage_per_node)
            for node_id in cluster.node_ids
        }
        self.caches: Dict[str, BlockCache] = {
            node_id: BlockCache(node_id, cache_per_node, bandwidth=cache_bandwidth)
            for node_id in cluster.node_ids
        }
        self._ids = IdFactory(width=6)

    # ------------------------------------------------------------------ ingest
    def ingest(self, path: str, size: float, *, popularity: float = 1.0) -> FileEntry:
        """Store a new file of ``size`` bytes and return its metadata entry."""
        if size <= 0:
            raise ConfigurationError(f"file size must be positive, got {size}")
        blocks: List[Block] = []
        remaining = float(size)
        index = 0
        while remaining > 0:
            block_size = min(self.block_spec.size, remaining)
            blocks.append(
                Block(self._ids.next("block"), path=path, index=index, size=block_size)
            )
            remaining -= block_size
            index += 1
        entry = FileEntry(path=path, size=float(size), blocks=blocks, popularity=popularity)
        self.namenode.register_file(entry)
        node_ids = self.cluster.node_ids
        replicas = self.placement.replicas_for(self.block_spec.replication, popularity)
        for block in blocks:
            chosen = self.placement.choose_nodes(
                block, replicas, node_ids, self.cluster.topology, self.rng
            )
            for node_id in chosen:
                self.datanodes[node_id].store(block)
                self.namenode.add_replica(block.block_id, node_id)
        return entry

    # ----------------------------------------------------------------- queries
    def block_locations(self, path: str) -> Dict[Block, List[str]]:
        """Every block of ``path`` with its replica node ids."""
        return dict(self.namenode.locate_file(path))

    def is_local(self, block_id: str, node_id: str) -> bool:
        """True when ``node_id`` holds a disk replica of ``block_id``."""
        return node_id in self.namenode.locations(block_id)

    def can_serve_locally(self, block_id: str, node_id: str) -> bool:
        """True when ``node_id`` holds the block on disk *or* in cache —
        the paper's locality test (§III-A)."""
        return self.namenode.serves(block_id, node_id)

    # ----------------------------------------------------------------- caching
    @property
    def caching_enabled(self) -> bool:
        """True when nodes have non-zero cache capacity."""
        return any(c.capacity > 0 for c in self.caches.values())

    def cache_block(self, node_id: str, block: Block) -> bool:
        """Cache a block on ``node_id``, registering/deregistering with the
        NameNode.  Returns True when the block ended up cached."""
        cache = self.caches[node_id]
        evicted = cache.insert(block)
        for victim in evicted:
            self.namenode.remove_cached_replica(victim.block_id, node_id)
        if cache.holds(block.block_id):
            self.namenode.add_cached_replica(block.block_id, node_id)
            return True
        return False

    def local_read_time(self, block: Block, node_id: str) -> float:
        """Seconds to read ``block`` on ``node_id`` from its fastest local
        tier: cache (memory bandwidth) if cached, else SSD.

        Touches the cache's LRU state, so repeated hot reads stay resident.
        """
        cache = self.caches[node_id]
        if cache.touch(block.block_id):
            return cache.read_time(block.size)
        return self.cluster.node(node_id).local_read_time(block.size)

    def cache_stats(self) -> Dict[str, float]:
        """Aggregate cache effectiveness counters across the cluster."""
        hits = sum(c.hits for c in self.caches.values())
        misses = sum(c.misses for c in self.caches.values())
        total = hits + misses
        return {
            "hits": float(hits),
            "misses": float(misses),
            "hit_rate": hits / total if total else 0.0,
            "cached_blocks": float(sum(c.block_count for c in self.caches.values())),
            "evictions": float(sum(c.evictions for c in self.caches.values())),
        }

    def delete(self, path: str) -> None:
        """Remove a file: NameNode metadata and every DataNode replica."""
        entry = self.namenode.file(path)
        for block in entry.blocks:
            for node_id in self.namenode.locations(block.block_id):
                self.datanodes[node_id].evict(block.block_id)
        self.namenode.delete(path)

    def rebalance_reports(self) -> None:
        """Re-sync the NameNode from full DataNode block reports."""
        for node_id, datanode in self.datanodes.items():
            self.namenode.apply_block_report(node_id, datanode.block_report())

    def storage_utilization(self) -> Dict[str, float]:
        """Fraction of capacity used per node (load-balance diagnostics)."""
        return {
            node_id: dn.used / dn.capacity for node_id, dn in self.datanodes.items()
        }

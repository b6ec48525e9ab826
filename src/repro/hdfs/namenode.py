"""NameNode: directory tree, file → blocks, block → replica locations.

This is the component Custody queries at job submission: *"By inquiring the
NameNode, Custody acquires the list of relevant DataNodes that store the
input data blocks of jobs in an application"* (§IV-C).  The model keeps the
full directory tree so path semantics (create, exists, list, delete) behave
like a filesystem rather than a flat dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.hdfs.blocks import Block

__all__ = ["FileEntry", "NameNode"]


def _normalize(path: str) -> str:
    """Canonical absolute path: leading slash, no duplicate or trailing slashes."""
    if not path or not path.startswith("/"):
        raise ConfigurationError(f"paths must be absolute, got {path!r}")
    parts = [p for p in path.split("/") if p]
    return "/" + "/".join(parts)


@dataclass
class FileEntry:
    """NameNode metadata for one file."""

    path: str
    size: float
    blocks: List[Block] = field(default_factory=list)
    popularity: float = 1.0

    @property
    def block_count(self) -> int:
        """Blocks the file is split into."""
        return len(self.blocks)


class NameNode:
    """Central metadata service of the simulated HDFS."""

    def __init__(self) -> None:
        self._files: Dict[str, FileEntry] = {}
        self._dirs: Set[str] = {"/"}
        #: block id → set of node ids currently holding a disk replica
        self._replicas: Dict[str, Set[str]] = {}
        #: block id → set of node ids holding an in-memory cached copy
        self._cached: Dict[str, Set[str]] = {}
        self._block_owner: Dict[str, str] = {}  # block id → file path
        #: Metadata epoch: bumped on every mutation that can change any
        #: block's serving locations (replica add/loss, cache churn, file
        #: create/delete, block reports).  Memoised replica lookups — the
        #: manager's per-round NameNode cache — are valid exactly while this
        #: number is unchanged.
        self.version = 0

    # -------------------------------------------------------------- directories
    def mkdirs(self, path: str) -> None:
        """Create a directory and all ancestors (idempotent)."""
        path = _normalize(path)
        if path in self._files:
            raise ConfigurationError(f"{path!r} exists and is a file")
        parts = [p for p in path.split("/") if p]
        cur = ""
        for part in parts:
            cur += "/" + part
            if cur in self._files:
                raise ConfigurationError(f"{cur!r} exists and is a file")
            self._dirs.add(cur)

    def is_dir(self, path: str) -> bool:
        """True when ``path`` is an existing directory."""
        return _normalize(path) in self._dirs

    def exists(self, path: str) -> bool:
        """True when ``path`` is an existing file or directory."""
        path = _normalize(path)
        return path in self._files or path in self._dirs

    def listdir(self, path: str) -> List[str]:
        """Immediate children of directory ``path`` (sorted)."""
        path = _normalize(path)
        if path not in self._dirs:
            raise ConfigurationError(f"{path!r} is not a directory")
        prefix = path if path != "/" else ""
        children: Set[str] = set()
        for candidate in list(self._files) + list(self._dirs):
            if candidate == path or not candidate.startswith(prefix + "/"):
                continue
            rest = candidate[len(prefix) + 1 :]
            children.add(rest.split("/", 1)[0])
        return sorted(children)

    # -------------------------------------------------------------------- files
    def register_file(self, entry: FileEntry) -> None:
        """Record a new file's metadata (blocks must already be cut)."""
        path = _normalize(entry.path)
        if path in self._files or path in self._dirs:
            raise ConfigurationError(f"{path!r} already exists")
        parent = path.rsplit("/", 1)[0] or "/"
        self.mkdirs(parent)
        entry.path = path
        self._files[path] = entry
        for block in entry.blocks:
            if block.block_id in self._block_owner:
                raise ConfigurationError(f"duplicate block id {block.block_id!r}")
            self._block_owner[block.block_id] = path
            self._replicas.setdefault(block.block_id, set())
        self.version += 1

    def file(self, path: str) -> FileEntry:
        """Metadata of file ``path``."""
        path = _normalize(path)
        try:
            return self._files[path]
        except KeyError:
            raise ConfigurationError(f"no such file {path!r}") from None

    def files(self) -> List[FileEntry]:
        """All registered files (insertion order)."""
        return list(self._files.values())

    def delete(self, path: str) -> None:
        """Remove a file and its replica records."""
        path = _normalize(path)
        entry = self._files.pop(path, None)
        if entry is None:
            raise ConfigurationError(f"no such file {path!r}")
        for block in entry.blocks:
            self._replicas.pop(block.block_id, None)
            self._cached.pop(block.block_id, None)
            self._block_owner.pop(block.block_id, None)
        self.version += 1

    # ----------------------------------------------------------------- replicas
    def add_replica(self, block_id: str, node_id: str) -> None:
        """Record that ``node_id`` now holds a replica of ``block_id``."""
        if block_id not in self._block_owner:
            raise ConfigurationError(f"unknown block {block_id!r}")
        self._replicas[block_id].add(node_id)
        self.version += 1

    def remove_replica(self, block_id: str, node_id: str) -> None:
        """Record loss/eviction of one replica."""
        nodes = self._replicas.get(block_id)
        if nodes is not None:
            nodes.discard(node_id)
            self.version += 1

    def locations(self, block_id: str) -> List[str]:
        """Node ids holding a replica of ``block_id`` (sorted, deterministic)."""
        nodes = self._replicas.get(block_id)
        if nodes is None:
            raise ConfigurationError(f"unknown block {block_id!r}")
        return sorted(nodes)

    def add_cached_replica(self, block_id: str, node_id: str) -> None:
        """Record that ``node_id`` holds an in-memory cached copy."""
        if block_id not in self._block_owner:
            raise ConfigurationError(f"unknown block {block_id!r}")
        self._cached.setdefault(block_id, set()).add(node_id)
        self.version += 1

    def remove_cached_replica(self, block_id: str, node_id: str) -> None:
        """Record eviction of a cached copy (no-op if absent)."""
        nodes = self._cached.get(block_id)
        if nodes is not None:
            nodes.discard(node_id)
            self.version += 1

    def cached_locations(self, block_id: str) -> List[str]:
        """Node ids holding a cached copy of ``block_id`` (sorted)."""
        if block_id not in self._block_owner:
            raise ConfigurationError(f"unknown block {block_id!r}")
        return sorted(self._cached.get(block_id, ()))

    def serving_locations(self, block_id: str) -> List[str]:
        """All nodes that can serve ``block_id`` locally: disk ∪ cache.

        This is the paper's ``E_u = {D_x : stores or caches D_x}`` — what
        task schedulers and the Custody allocator consult for locality.
        """
        nodes = self._replicas.get(block_id)
        if nodes is None:
            raise ConfigurationError(f"unknown block {block_id!r}")
        return sorted(nodes | self._cached.get(block_id, set()))

    def serving_set(self, block_id: str) -> Set[str]:
        """:meth:`serving_locations` as a fresh unordered set (no sort)."""
        nodes = self._replicas.get(block_id)
        if nodes is None:
            raise ConfigurationError(f"unknown block {block_id!r}")
        cached = self._cached.get(block_id)
        return nodes | cached if cached else set(nodes)

    def serves(self, block_id: str, node_id: str) -> bool:
        """True when ``node_id`` can serve ``block_id`` locally (disk or cache).

        The membership test behind :meth:`serving_locations`, without
        building or sorting the union.
        """
        nodes = self._replicas.get(block_id)
        if nodes is None:
            raise ConfigurationError(f"unknown block {block_id!r}")
        if node_id in nodes:
            return True
        cached = self._cached.get(block_id)
        return cached is not None and node_id in cached

    def locate_file(self, path: str) -> List[Tuple[Block, List[str]]]:
        """The Custody query: every block of ``path`` with its replica nodes."""
        entry = self.file(path)
        return [(block, self.locations(block.block_id)) for block in entry.blocks]

    def replication_of(self, block_id: str) -> int:
        """Current replica count of ``block_id``."""
        return len(self.locations(block_id))

    # ------------------------------------------------------------------ reports
    def apply_block_report(self, node_id: str, block_ids: List[str]) -> None:
        """Reconcile a DataNode's full inventory (the HDFS block report)."""
        reported = set(block_ids)
        for block_id, nodes in self._replicas.items():
            if block_id in reported:
                nodes.add(node_id)
            else:
                nodes.discard(node_id)
        self.version += 1

    def stats(self) -> Dict[str, float]:
        """Aggregate metadata statistics (for reports and sanity tests)."""
        total_blocks = len(self._block_owner)
        total_replicas = sum(len(v) for v in self._replicas.values())
        return {
            "files": float(len(self._files)),
            "directories": float(len(self._dirs)),
            "blocks": float(total_blocks),
            "replicas": float(total_replicas),
            "cached_replicas": float(sum(len(v) for v in self._cached.values())),
            "mean_replication": (total_replicas / total_blocks) if total_blocks else 0.0,
        }

    def pick_source(self, block_id: str, reader_node: str, preferred: Optional[str] = None) -> str:
        """Choose the replica a remote reader fetches from.

        Prefers ``preferred`` when it holds a replica, else the
        lexicographically first holder that is not the reader itself (the
        reader-local case should be handled by the caller as a local read).
        Deterministic so experiment runs are reproducible.
        """
        holders = self.locations(block_id)
        if not holders:
            raise ConfigurationError(f"block {block_id!r} has no replicas")
        if preferred is not None and preferred in holders:
            return preferred
        for node in holders:
            if node != reader_node:
                return node
        return holders[0]

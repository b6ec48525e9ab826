"""A single in-flight network transfer."""

from __future__ import annotations

from typing import Optional

from repro.simulation.engine import EventHandle, Simulation
from repro.simulation.process import Signal

__all__ = ["Transfer"]


class Transfer:
    """Bytes moving from ``src`` to ``dst`` under a time-varying fair rate.

    The fabric owns the rate; the transfer tracks its own residual bytes with
    lazy progress accounting: ``remaining`` is only re-evaluated when the rate
    changes or completion is checked, using ``remaining -= rate * dt``.

    ``done`` is a :class:`Signal` waiters subscribe to; it triggers with the
    transfer itself at completion time, or fails with
    :class:`~repro.common.errors.TransferFailedError` if the transfer dies.
    A cancelled transfer's ``done`` never fires.
    """

    __slots__ = (
        "transfer_id",
        "src",
        "dst",
        "size",
        "started_at",
        "finished_at",
        "done",
        "_remaining",
        "_rate",
        "_last_update",
        "_completion",
    )

    def __init__(self, sim: Simulation, transfer_id: str, src: str, dst: str, size: float):
        if size <= 0:
            raise ValueError(f"transfer size must be positive, got {size}")
        self.transfer_id = transfer_id
        self.src = src
        self.dst = dst
        self.size = float(size)
        self.started_at = sim.now
        self.finished_at: Optional[float] = None
        self.done = Signal(sim, name=f"{transfer_id}.done")
        self._remaining = float(size)
        self._rate = 0.0
        self._last_update = sim.now
        self._completion: Optional[EventHandle] = None

    # ------------------------------------------------------------- accounting
    @property
    def rate(self) -> float:
        """Current allocated rate in bytes/second."""
        return self._rate

    def remaining(self, now: float) -> float:
        """Bytes still outstanding at virtual time ``now``."""
        dt = now - self._last_update
        if dt <= 0.0:
            # Also keeps an infinite (loopback) rate from producing inf*0=nan.
            return self._remaining
        return max(self._remaining - self._rate * dt, 0.0)

    def settle(self, now: float) -> None:
        """Fold elapsed progress into the residual byte count."""
        self._remaining = self.remaining(now)
        self._last_update = now

    def set_rate(self, now: float, rate: float) -> None:
        """Change the allocated rate (fabric-internal)."""
        self.settle(now)
        self._rate = rate

    def eta(self, now: float) -> float:
        """Seconds until completion at the current rate (inf when rate is 0)."""
        rem = self.remaining(now)
        if rem <= 0:
            return 0.0
        if self._rate <= 0:
            return float("inf")
        return rem / self._rate

    @property
    def duration(self) -> Optional[float]:
        """Total transfer time once finished, else None."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Transfer {self.transfer_id} {self.src}->{self.dst} "
            f"{self.size:.0f}B rate={self._rate:.3g}B/s>"
        )

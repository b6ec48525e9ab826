"""Flow-level network model.

Remote block reads are the mechanism behind every number in the paper: a
non-local input task must fetch its 128 MB block over the network, which is
slower than the local SSD and *contended*.  We model the cluster network at
flow granularity:

* each node has an uplink and a downlink capacity (the paper's Linode nodes:
  40 Gbps down / 2 Gbps up, §VI-A);
* every active transfer receives its **max-min fair share** across the two
  links it traverses (progressive filling / water-filling);
* rates are recomputed whenever a flow starts or finishes, and completion
  events are rescheduled from the bytes still outstanding;
* all flow changes of one simulated instant batch into a single recompute,
  and the fabric's :class:`~repro.network.rate_engine.RateEngine` re-rates
  only the affected connected component of the link-flow graph with the
  one progressive-filling kernel, ``maxmin_rates``.  The seed allocator
  that re-solves every flow is a test oracle in ``tests/reference_stack.py``.

This is the standard fluid approximation used by flow-level datacenter
simulators; it captures contention and elasticity without per-packet cost.
"""

from repro.network.bandwidth import LinkCapacities, maxmin_rates
from repro.network.fabric import NetworkFabric
from repro.network.rate_engine import RateEngine
from repro.network.transfer import Transfer

__all__ = ["LinkCapacities", "NetworkFabric", "RateEngine", "Transfer", "maxmin_rates"]

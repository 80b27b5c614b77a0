"""Crash-prone message passing and quorum-emulated atomic registers.

The paper's Discussion (§4) names message-passing systems as the key
extension of its shared-memory results.  This package supplies that
substrate in both directions of the classic equivalence:

* :class:`NetEngine` + :class:`Transport` — a deterministic message
  layer over the discrete-event engine: ``send``/``broadcast``/``recv``
  ops, per-link delivery bounds (the networked ``Δ``), and a
  :class:`NetFaultPlan` of crashes, losses, delay spikes and partitions
  mirroring :mod:`repro.sim.failures`;
* :class:`QuorumSystem` — ABD/Mostéfaoui-Raynal atomic registers
  emulated over that unreliable network (majority-ack writes,
  read-repair reads, crash-minority tolerance), behind a facade that
  runs the repo's register-only algorithms unchanged;
* :mod:`repro.net.resilience` — the bridge mapping ``Δ`` to the
  delivery bound so the paper's experiments re-run networked.

Random workloads over the quorum emulation, checked against the
linearizability spec under sampled fault plans, run as chaos campaigns
(``python -m repro.chaos run --substrate net``).
"""

from .engine import NetEngine
from .faults import DelaySpike, MessageLoss, NetFaultPlan, Partition
from .quorum import QuorumSystem
from .resilience import (
    bound_for_delta,
    convergence_start,
    default_costs,
    delta_net,
    emulated_op_bound,
)
from .transport import NetStats, Transport

__all__ = [
    # message layer
    "NetEngine",
    "Transport",
    "NetStats",
    # faults
    "NetFaultPlan",
    "MessageLoss",
    "DelaySpike",
    "Partition",
    # quorum emulation
    "QuorumSystem",
    # resilience bridge
    "default_costs",
    "emulated_op_bound",
    "delta_net",
    "bound_for_delta",
    "convergence_start",
]

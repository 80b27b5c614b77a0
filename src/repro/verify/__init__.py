"""Explicit-state model checking of the algorithms under full asynchrony.

Safety under arbitrary asynchrony *is* safety under timing failures —
this package machine-checks the paper's safety theorems on small
configurations and machine-finds Fischer's violation (experiments E6 and
E13).
"""

from .explorer import ExplorationResult, Violation, explore, replay_schedule
from .properties import (
    AgreementProperty,
    InvariantProperty,
    MutualExclusionProperty,
    SafetyProperty,
    ValidityProperty,
)
from .sandbox import ProgramFactory, Sandbox
from .stabilization import (
    SelfStabilizationProperty,
    StabilizationReport,
    dg_ring_property,
)

__all__ = [
    "Sandbox",
    "ProgramFactory",
    "explore",
    "replay_schedule",
    "ExplorationResult",
    "Violation",
    "SafetyProperty",
    "MutualExclusionProperty",
    "AgreementProperty",
    "ValidityProperty",
    "InvariantProperty",
    "SelfStabilizationProperty",
    "StabilizationReport",
    "dg_ring_property",
]

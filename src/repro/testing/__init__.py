"""Test-only machinery: fault arming, chaos schedules.

Nothing under ``repro.testing`` may be imported by production modules —
archcheck rule T001 enforces that, which is what makes the fault points
in :mod:`repro.core.faults` provably inert in serving processes.
"""

from repro.testing.faults import (
    FaultPhase,
    FaultSchedule,
    arm,
    armed_faults,
    disarm,
    disarm_all,
    file_corruptor,
    raising,
    sleeping,
)

__all__ = [
    "FaultPhase",
    "FaultSchedule",
    "arm",
    "armed_faults",
    "disarm",
    "disarm_all",
    "file_corruptor",
    "raising",
    "sleeping",
]

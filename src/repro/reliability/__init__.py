"""Verification and fault-tolerance subsystem.

Three cooperating pieces:

:mod:`repro.reliability.faults`
    Deterministic, seeded fault injection at named pipeline seams
    (``REPRO_FAULT_SEAMS`` / ``REPRO_FAULT_SEED``), so every degradation
    path in the pipeline is exercisable in CI.

:mod:`repro.reliability.verify`
    The per-group semantic verification gate: executes each fused kernel
    against its unfused constituents on the CudaLite interpreter with
    deterministically synthesized inputs and bit-compares the outputs.

:mod:`repro.reliability.degrade`
    The degradation ladder (complex fusion → simple fusion → no fusion)
    and the :class:`DemotionRecord` bookkeeping that surfaces every
    demotion, with its cause, in the stage report.
"""

from .degrade import DemotionRecord, fusion_waves
from .faults import (
    ENV_FAULT_SEAMS,
    ENV_FAULT_SEED,
    KNOWN_SEAMS,
    FaultPlan,
    active_plan,
    check,
    clear_plan,
    install_plan,
    plan_from_env,
)
from .verify import GroupVerdict, VerifyConfig, verify_group

__all__ = [
    "DemotionRecord",
    "fusion_waves",
    "ENV_FAULT_SEAMS",
    "ENV_FAULT_SEED",
    "KNOWN_SEAMS",
    "FaultPlan",
    "active_plan",
    "check",
    "clear_plan",
    "install_plan",
    "plan_from_env",
    "GroupVerdict",
    "VerifyConfig",
    "verify_group",
]

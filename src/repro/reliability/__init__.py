"""Verification and fault-tolerance subsystem.

Two cooperating pieces:

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
from .verify import GroupVerdict, VerifyConfig, verify_group

__all__ = [
    "DemotionRecord",
    "fusion_waves",
    "GroupVerdict",
    "VerifyConfig",
    "verify_group",
]

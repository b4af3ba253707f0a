"""End-to-end transformation pipeline: stages, framework, CLI."""

from ..reliability.degrade import DemotionRecord
from ..reliability.verify import GroupVerdict, VerifyConfig
from .apply import (
    GeneratedLaunch,
    TransformResult,
    materialize,
    project_baseline,
    project_transformed,
)
from ..config import STAGES
from .framework import Framework
from .stages import (
    PipelineState,
    stage_codegen,
    stage_graphs,
    stage_metadata,
    stage_search,
    stage_targets,
)

__all__ = [
    "Framework",
    "PipelineState", "STAGES",
    "stage_metadata", "stage_targets", "stage_graphs",
    "stage_search", "stage_codegen",
    "materialize", "TransformResult", "GeneratedLaunch",
    "project_baseline", "project_transformed",
    "DemotionRecord", "GroupVerdict", "VerifyConfig",
]

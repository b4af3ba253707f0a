"""repro: reproduction of "Automated GPU Kernel Transformations in
Large-Scale Production Stencil Applications" (Wahib & Maruyama, HPDC 2015).

Top-level convenience re-exports; see the subpackages for the full API:

- :mod:`repro.cudalite`  — the CUDA-C dialect (parser / AST / unparser)
- :mod:`repro.gpu`       — device models, occupancy, interpreter, profiler
- :mod:`repro.analysis`  — static analysis and metadata
- :mod:`repro.graphs`    — DDG / OEG
- :mod:`repro.search`    — the grouped genetic algorithm (lazy fission)
- :mod:`repro.transform` — fission / fusion code generation, tuning
- :mod:`repro.pipeline`  — the end-to-end framework and CLI
- :mod:`repro.apps`      — the six application generators
- :mod:`repro.store`     — the persistent cross-run artifact cache
- :mod:`repro.api`       — the stable entry point (transform / TransformConfig)
"""

__version__ = "4.0.0"

from .api import (
    JobHandle,
    TransformConfig,
    TransformResult,
    result,
    status,
    submit,
    transform,
)
from .cudalite import parse_program, unparse
from .errors import (
    ConfigError,
    PipelineError,
    ReproError,
    ServiceError,
    StoreError,
)
from .gpu.device import K20X, K40, query_device
from .pipeline import Framework, PipelineConfig, transform_program
from .store import ArtifactStore, default_store_root, open_store

__all__ = [
    # stable facade (repro.api)
    "transform",
    "TransformConfig",
    "TransformResult",
    # job-oriented core (repro.api)
    "JobHandle",
    "submit",
    "status",
    "result",
    # errors
    "ReproError",
    "ConfigError",
    "PipelineError",
    "ServiceError",
    "StoreError",
    # persistent store
    "ArtifactStore",
    "open_store",
    "default_store_root",
    # language + devices
    "parse_program",
    "unparse",
    "K20X",
    "K40",
    "query_device",
    # pipeline internals (pre-facade API, kept stable)
    "Framework",
    "PipelineConfig",
    "transform_program",
    "__version__",
]

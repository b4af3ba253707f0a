"""repro.store — the persistent, content-addressed cross-run cache.

Memoizes each pipeline stage's output across processes so that repeated
transformations of the same (or an incrementally edited) application
skip straight to the parts that actually changed:

* metadata / targets / graphs — reconstructed from versioned JSON;
* search — the exact GGA outcome is reused when every search input
  matches, and otherwise the previous run's population and fitness
  evaluations *warm-start* the new search;
* codegen — per-group and whole-program verification verdicts are
  remembered by content, so an unchanged group is never re-verified.

The store is purely advisory: corruption, unreadable roots, or poisoned
entries degrade a run to cold execution with a logged warning — never an
error.  See :class:`ArtifactStore` for the on-disk contract.
"""

from .artifact_store import (
    ArtifactStore,
    StoreStats,
    default_store_root,
    open_store,
    store_enabled_from_env,
)
from .keys import (
    device_fingerprint,
    digest,
    params_fingerprint,
    program_fingerprint,
    service_request_key,
)

__all__ = [
    "ArtifactStore",
    "StoreStats",
    "default_store_root",
    "device_fingerprint",
    "digest",
    "open_store",
    "params_fingerprint",
    "program_fingerprint",
    "service_request_key",
    "store_enabled_from_env",
]

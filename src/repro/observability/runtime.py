"""Global on/off switch for the observability layer.

Every recording primitive (metric increment, span, telemetry row) checks
one module-level boolean before doing any work, so a disabled pipeline
run pays a single attribute load and branch per call site — the
"near-zero-overhead no-op path" the pipeline promises under
``--no-telemetry``.

The switch starts enabled.  A transformation scopes it to its resolved
``TransformConfig.telemetry`` (``--no-telemetry`` / ``REPRO_TELEMETRY``,
read once by :meth:`repro.api.TransformConfig.resolved`) with
:func:`telemetry`; :func:`set_telemetry_enabled` flips it outright
(tests' overhead guard).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

_enabled: bool = True


def telemetry_enabled() -> bool:
    """Is the observability layer recording?"""
    return _enabled


def set_telemetry_enabled(enabled: bool) -> None:
    """Flip the global recording switch (tests)."""
    global _enabled
    _enabled = bool(enabled)


@contextmanager
def telemetry(enabled: bool) -> Iterator[None]:
    """Scoped override of the switch (restores the previous value)."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    try:
        yield
    finally:
        _enabled = previous

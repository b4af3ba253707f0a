"""Exception hierarchy for the repro framework.

Every error raised by the framework derives from :class:`ReproError` so that
callers embedding the transformation pipeline can catch a single base class.
The hierarchy mirrors the pipeline stages: language-processing errors
(lexing/parsing/semantics), analysis errors, graph errors, search errors and
code-generation errors.

Errors that surface from inside a pipeline stage carry the stage name on
their ``stage`` attribute (set by the framework when the stage raises), so
front ends can point at the failing stage without parsing messages.
Interpreter errors additionally carry structured location fields (kernel,
array, axis, block/thread coordinates) so verification-gate failures are
actionable.
"""

from __future__ import annotations

from typing import Optional, Tuple


class ReproError(Exception):
    """Base class for all errors raised by the repro framework."""

    #: pipeline stage that raised the error (filled in by the framework)
    stage: Optional[str] = None


class CudaLiteError(ReproError):
    """Base class for errors in the CudaLite language substrate."""


class LexError(CudaLiteError):
    """A character sequence could not be tokenized.

    Carries the 1-based source ``line`` and ``col`` of the offending
    character so tooling can point at the exact location.
    """

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.line = line
        self.col = col


class ParseError(CudaLiteError):
    """The token stream does not form a valid CudaLite program."""

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.line = line
        self.col = col


class SemanticError(CudaLiteError):
    """The program parses but violates CudaLite static semantics."""


class InterpreterError(ReproError):
    """Runtime failure while executing a CudaLite program on the simulator.

    ``kernel`` names the kernel being executed when the failure occurred
    (``None`` for host-side failures).
    """

    def __init__(self, message: str, *, kernel: Optional[str] = None) -> None:
        super().__init__(message)
        self.kernel = kernel


class OutOfBoundsError(InterpreterError):
    """An active thread accessed an array outside its bounds.

    Structured fields locate the failure: the offending ``array``, the
    ``axis`` and ``index`` of the bad access, and the ``block`` / ``thread``
    coordinates of the first offending thread (``None`` when the executing
    mode cannot attribute the access to a single thread).
    """

    def __init__(
        self,
        message: str,
        *,
        kernel: Optional[str] = None,
        array: Optional[str] = None,
        axis: Optional[int] = None,
        index: Optional[int] = None,
        block: Optional[Tuple[int, int, int]] = None,
        thread: Optional[Tuple[int, int, int]] = None,
    ) -> None:
        super().__init__(message, kernel=kernel)
        self.array = array
        self.axis = axis
        self.index = index
        self.block = block
        self.thread = thread


class AnalysisError(ReproError):
    """A static-analysis pass could not process a kernel."""


class GraphError(ReproError):
    """DDG/OEG construction or optimization failed."""


class SearchError(ReproError):
    """The optimization (GGA) stage failed or was misconfigured."""


class TransformError(ReproError):
    """Code generation (fission/fusion) failed."""


class VerificationError(ReproError):
    """A generated kernel failed the semantic verification gate: its output
    does not match the unfused constituents it replaces."""


class FaultInjectionError(ReproError):
    """The fault-injection harness itself was misconfigured (unknown seam,
    malformed spec) — distinct from the faults it injects."""


class PipelineError(ReproError):
    """End-to-end pipeline orchestration failure (bad stage order etc.)."""


class StoreError(ReproError):
    """The persistent artifact store could not service a request.

    The pipeline never lets this escape a run — store failures degrade to
    a cold (uncached) execution — but the store raises it for genuinely
    unusable configurations (e.g. a root path that is a regular file).
    """


class ConfigError(ReproError):
    """A :class:`repro.api.TransformConfig` (or config file) is invalid."""


class ServiceError(ReproError):
    """The transformation service could not serve a request.

    Raised for malformed ``repro.service/1`` wire payloads, for requests
    the serving policy rejects (client-supplied output paths), and when a
    job exhausts its worker-crash retry budget.
    """


class JobNotFound(ServiceError):
    """No job with the requested id is known to this process/server."""

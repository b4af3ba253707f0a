"""Outside-in tracing for the end-to-end bench: the patch-point registry.

The bench measures layers *from outside*: it wraps the public function
each layer is entered through, at the module attribute where the caller
looks it up (``from x import f`` binds ``f`` in the importing module, so
that is where the wrapper must go).  Every wrapped call records a span —
name, layer, start, end, parent span, op id — into an in-memory list;
:func:`reduce_spans` turns the list into self-time and count rows and
:func:`write_chrome_trace` dumps it for chrome://tracing / Perfetto.

The registry fails loudly.  A patch point whose module attribute is gone
raises at install time, and a point that is never hit on a workload that
is supposed to exercise it raises after the traced pass: a rename inside
``src/`` must break the bench, not silently zero a row.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

IN_PROCESS = frozenset({"cold-transform", "search-paper-budget", "warm-iterate"})
COLD_CODEGEN = frozenset({"cold-transform", "warm-iterate"})


class PatchPointError(RuntimeError):
    """A patch point is missing, or was never hit where it must be."""


@dataclass(frozen=True)
class PatchPoint:
    """One wrapped entry point: where it is looked up and what it means."""

    #: dotted module path, optionally ``module:Class`` for a method
    owner: str
    attr: str
    #: span name (shared by every lookup site of the same function)
    span: str
    layer: str
    #: workloads on which zero hits is a hard error
    expect: FrozenSet[str]


#: the one wrapper table — every layer row in the bench traces back here
PATCH_POINTS: Tuple[PatchPoint, ...] = (
    PatchPoint("repro.api", "parse_program", "parse_program", "cudalite", IN_PROCESS),
    # unparse is bound by from-import in three callers and looked up
    # lazily on its own module by repro.store.keys
    PatchPoint("repro.api", "unparse", "unparse", "cudalite", IN_PROCESS),
    PatchPoint("repro.pipeline.stages", "unparse", "unparse", "cudalite", COLD_CODEGEN),
    PatchPoint("repro.pipeline.apply", "unparse", "unparse", "cudalite", frozenset({"warm-iterate"})),
    PatchPoint("repro.cudalite.unparser", "unparse", "unparse", "cudalite", frozenset({"warm-iterate"})),
    PatchPoint("repro.pipeline.stages", "identify_targets", "identify_targets", "analysis", IN_PROCESS),
    PatchPoint("repro.pipeline.stages", "gather_metadata", "gather_metadata", "gpu", IN_PROCESS),
    PatchPoint("repro.pipeline.stages", "run_program", "run_program", "gpu", COLD_CODEGEN),
    PatchPoint("repro.reliability.verify", "launch_kernel", "launch_kernel", "gpu", COLD_CODEGEN),
    PatchPoint("repro.pipeline.stages", "optimize_ddg", "optimize_ddg", "graphs", IN_PROCESS),
    PatchPoint("repro.pipeline.stages", "validate_ddg", "validate_ddg", "graphs", IN_PROCESS),
    PatchPoint("repro.pipeline.stages", "build_oeg", "build_oeg", "graphs", IN_PROCESS),
    PatchPoint("repro.pipeline.stages", "validate_oeg", "validate_oeg", "graphs", IN_PROCESS),
    PatchPoint("repro.pipeline.stages", "build_problem", "build_problem", "search", IN_PROCESS),
    PatchPoint("repro.pipeline.stages", "run_search", "run_search", "search", IN_PROCESS),
    PatchPoint("repro.pipeline.stages", "materialize", "materialize", "pipeline", IN_PROCESS),
    PatchPoint("repro.pipeline.apply", "fuse_kernels", "fuse_kernels", "transform", IN_PROCESS),
    PatchPoint("repro.pipeline.apply", "tune_kernel_block", "tune_kernel_block", "transform", IN_PROCESS),
    PatchPoint("repro.pipeline.apply", "verify_group", "verify_group", "reliability", COLD_CODEGEN),
    PatchPoint("repro.pipeline.stages", "validate_model", "validate_model", "observability", frozenset({"cold-transform"})),
    PatchPoint("repro.api", "write_run_outputs", "write_run_outputs", "observability", IN_PROCESS),
    PatchPoint("repro.api", "_ledger_append", "ledger_append", "observability", IN_PROCESS),
    PatchPoint("repro.store.artifact_store:ArtifactStore", "get", "store.get", "store", frozenset({"warm-iterate"})),
    PatchPoint("repro.store.artifact_store:ArtifactStore", "put", "store.put", "store", frozenset({"warm-iterate"})),
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    op: Optional[str] = None
    thread: int = 0
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def measured(self) -> bool:
        """Inside a measured op (not set-up, not outside any root span)."""
        return self.op is not None and self.op != "setup"


def _annotate(span: Span, call_args: tuple, kwargs: dict, result: Any) -> None:
    """Counts recorded at the boundary, beside the time (guide §4)."""
    name = span.name
    if name == "run_program":
        span.args["counted"] = bool(kwargs.get("collect_counters", False))
        span.args["block_order"] = kwargs.get("block_order", "forward")
        if result is not None:
            span.args["launches"] = len(result.launches)
    elif name == "launch_kernel":
        span.args["launches"] = 1
    elif name == "store.get":
        span.args["namespace"] = call_args[1]
        span.args["hit"] = result is not None
    elif name == "store.put":
        span.args["namespace"] = call_args[1]
    elif name in ("parse_program", "unparse"):
        text = call_args[0] if name == "parse_program" else result
        if isinstance(text, str):
            span.args["bytes"] = len(text)
    elif name == "verify_group" and result is not None:
        span.args["status"] = result.status


class BenchTracer:
    """In-memory span recorder plus installer of the patch points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.hits: Dict[PatchPoint, int] = {p: 0 for p in PATCH_POINTS}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str, op: Optional[str] = None) -> int:
        """Open a span under this thread's innermost open span.

        A root span names its operation (``op``); every span opened
        beneath it inherits that id.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        span = Span(
            name=name,
            layer=layer,
            start=perf_counter(),
            parent=parent,
            op=op,
            thread=threading.get_ident(),
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = perf_counter()
        self._stack().pop()
        return span

    def _wrap(self, point: PatchPoint, original: Callable) -> Callable:
        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            self.hits[point] += 1
            index = self.begin(point.span, point.layer)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                _annotate(self.end(index), args, kwargs, result)

        return traced

    # ----------------------------------------------------------- patching

    @staticmethod
    def _resolve_owner(owner: str) -> Any:
        module_name, _, class_name = owner.partition(":")
        try:
            module = importlib.import_module(module_name)
            return getattr(module, class_name) if class_name else module
        except (ImportError, AttributeError) as exc:
            raise PatchPointError(f"patch point owner {owner} is gone: {exc}") from exc

    def install(self) -> None:
        """Wrap every patch point; a missing attribute is a hard error."""
        for point in PATCH_POINTS:
            owner = self._resolve_owner(point.owner)
            if point.attr not in vars(owner):
                raise PatchPointError(
                    f"patch point {point.owner}.{point.attr} is gone — "
                    f"update benchmarks/e2e/trace.py:PATCH_POINTS"
                )
            original = vars(owner)[point.attr]
            setattr(owner, point.attr, self._wrap(point, original))
            self._installed.append((owner, point.attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def check_hits(self, workload: str) -> None:
        """Every point expected on ``workload`` must have been entered."""
        silent = [
            f"{p.owner}.{p.attr}"
            for p in PATCH_POINTS
            if workload in p.expect and self.hits[p] == 0
        ]
        if silent:
            raise PatchPointError(
                f"patch point(s) never hit on {workload}: {', '.join(silent)}"
            )


# ------------------------------------------------------------------ reduce


def self_times(spans: List[Span]) -> List[float]:
    """Self time per span: duration minus the time its children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - covered[i] for i, span in enumerate(spans)]


def reduce_spans(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name, over measured ops only: calls, self and inclusive time."""
    own = self_times(spans)
    rows: Dict[str, Dict[str, float]] = {}
    for span, self_s in zip(spans, own):
        if not span.measured:
            continue
        row = rows.setdefault(span.name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        row["calls"] += 1
        row["self_s"] += self_s
        row["incl_s"] += span.duration
    return rows


def layer_self_times(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per measured op, self time per layer: a partition of the op's wall
    time, with the op's root span carrying the ``api`` remainder."""
    out: Dict[str, Dict[str, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        if not span.measured:
            continue
        layers = out.setdefault(span.op, {})
        layers[span.layer] = layers.get(span.layer, 0.0) + self_s
    return out


def write_chrome_trace(spans: List[Span], path: str, workload: str) -> None:
    """Chrome trace-event JSON: one complete ('X') event per span."""
    if not spans:
        epoch = 0.0
    else:
        epoch = min(s.start for s in spans)
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": f"e2e:{workload}"}}
    ]
    for index, span in enumerate(spans):
        events.append(
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "pid": 1,
                "tid": span.thread % 100000,
                "ts": (span.start - epoch) * 1e6,
                "dur": span.duration * 1e6,
                "args": {"span": index, "parent": span.parent, "op": span.op, **span.args},
            }
        )
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)

"""Execution of CudaLite programs on the simulator substrate.

This module plays the role of the GPU in the reproduction: it executes
CudaLite programs *bit-faithfully* so that — exactly as in the paper's
methodology — the output of every transformed program can be verified
against the output of the original program.

Two execution strategies are used:

``vectorized`` (default for kernels without ``__shared__``)
    Thread-varying values are represented as numpy arrays broadcast over the
    full thread lattice; each statement executes for all threads before the
    next starts.  This matches CUDA semantics for data-parallel stencil
    kernels (no inter-thread communication).

``per-block`` (kernels that declare ``__shared__`` tiles)
    Blocks execute with a real per-block shared-memory array.  This
    faithfully reproduces the *scope* of shared memory: a tile only sees
    the values its own block staged, so generated code with insufficient
    halo layers produces wrong answers here just as it would on hardware.
    Two interchangeable implementations exist:

    ``loop``
        A Python loop over the launch grid; one block at a time.

    ``batched`` (default where applicable)
        All blocks execute together, each statement evaluated across the
        whole launch as numpy arrays with a leading *block axis*.  Shared
        arrays gain the same leading axis, so per-block scoping is
        preserved bit-exactly while the Python-level interpretation cost
        is paid once per statement instead of once per block.  Kernels
        whose loop bounds, while conditions or shared extents are not
        block-invariant fall back to ``loop`` automatically, as does race
        detection.  Blocks interact only through global memory, so under
        ``auto`` every global array the kernel writes
        carries a per-element block record for the launch; the first
        element two different blocks touch with a store among the touches
        aborts the pass, restores the launch's entry state and replays it
        on ``loop`` (DESIGN.md, "Per-element batchability").  Select
        explicitly via the ``block_exec`` argument of :func:`run_program`
        / :class:`HostInterpreter` (``auto`` | ``loop`` | ``batched``).

Every strategy is the same tree-walker over a different lattice.

Statements act as implicit barriers in both modes (a vectorized statement
completes for every thread before the next begins).  ``__syncthreads()``
placement is additionally validated statically by the transformation tests.

**Affine accesses.**  Every array reference can run through the *funnel*
— evaluate the subscripts to index arrays, validate and clip them per
axis, gather or scatter (:meth:`_KernelExec._finish_load` /
:meth:`_KernelExec._finish_store`).  On the vectorized and batched
lattices a stencil's references do not need it: an ``int`` local
whose value is ``arange + base`` along one full lattice axis is tagged
when it is declared, each mask's active-lane count and per-axis hull are
computed once per mask object, and an access whose subscripts are tagged
locals ``± const`` (distinct axes, in lattice order) or thread-invariant
ints runs as basic slices once ``hull + shift`` is proved inside the
extent (:meth:`_KernelExec._slice_index`).  Whatever does not qualify —
and every access under ``block_exec="loop"``, ``detect_races`` or a
hazard replay — takes the funnel unchanged; the
equivalence argument and the fallback list are in DESIGN.md §7 ("Affine
accesses"), the split is reported as
:attr:`InterpreterStats.accesses_by_path`.

**Lifted loops.**  On the same two lattices a ``for`` whose iterations
carry no dependence (``lifts`` of the kernel's
:func:`~repro.analysis.accesses.collect_accesses` summary) runs its body
once, the iterations one more trailing lattice axis and the loop
variable an ``arange`` along it, tagged affine like any lattice
coordinate.  ``__shared__`` tiles the body touches get
that axis too, each iteration its own copy, and a per-cell "written this
iteration" record: reading a cell the iteration has not written, any
:class:`InterpreterError` or block hazard in the body, or a store whose
threads all hit one element per iteration abandons the pass, restores
the launch's entry state and re-runs it with every loop sequential
(:meth:`_KernelExec._run_lattice`).  Counters count per iteration, so
they equal the sequential loop's; ``block_exec="loop"``,
``detect_races`` and the per-block loop never lift (DESIGN.md §7,
"Lifted loops"; :attr:`InterpreterStats.statements_by_path`).
"""

from __future__ import annotations

import copy
import difflib
import math
import struct
import threading
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    NamedTuple,
    NoReturn,
    Optional,
    Set,
    Tuple,
    Union,
)

import numpy as np

from ..analysis.accesses import ParallelLoop, collect_accesses
from ..cudalite import ast_nodes as ast
from ..errors import InterpreterError, OutOfBoundsError
from ..observability.hwcounters import KernelCounters
from ..observability.metrics import get_registry
from ..observability.tracing import span

Scalar = Union[int, float, bool]
Value = Union[Scalar, np.ndarray]

BLOCK_EXEC_MODES = ("auto", "loop", "batched")

#: the strategy used when a caller passes ``block_exec=None``; the test
#: harness's ``--block-exec`` option rebinds it to run the interpreter
#: suites under every mode
DEFAULT_BLOCK_EXEC = "auto"


@dataclass(frozen=True)
class Dim3:
    """A launch-configuration triple."""

    x: int = 1
    y: int = 1
    z: int = 1

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.x, self.y, self.z)

    @property
    def count(self) -> int:
        return self.x * self.y * self.z


@dataclass
class DeviceArray:
    """A device-resident array: numpy storage plus its logical shape."""

    name: str
    data: np.ndarray

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape


@dataclass
class LaunchRecord:
    """Trace entry for one kernel launch (consumed by the profiler)."""

    kernel: str
    grid: Dim3
    block: Dim3
    array_args: Tuple[str, ...]
    scalar_args: Tuple[Scalar, ...] = ()
    #: hardware-ish event counters, populated when the interpreter runs
    #: with ``collect_counters=True`` (None otherwise)
    counters: Optional[KernelCounters] = None
    #: what executed the launch: ``vectorized`` | ``batched`` | ``loop``
    #: (None for dry-run traces)
    executor: Optional[str] = None
    #: ``"<array>:<RAW|WAR|WAW|ERR>"`` when the batched pass was aborted
    #: and the launch replayed on the per-block loop, else None
    hazard_replay: Optional[str] = None
    #: whether ``block_order`` could have changed what the launch computed
    #: (see :attr:`_KernelExec.order_sensitive`)
    order_sensitive: bool = False


@dataclass
class RunResult:
    """Outcome of executing a program's host code."""

    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    launches: List[LaunchRecord] = field(default_factory=list)
    #: the reference program's run, when this one was paired with it
    #: (:meth:`HostInterpreter.run_paired`); the two may hold the very
    #: same array objects
    reference: Optional["RunResult"] = None
    #: a paired run's own failure, once its reference ran to completion
    #: (``arrays`` is then empty)
    error: Optional[InterpreterError] = None
    #: launches a paired run executed once for both programs
    shared_launches: int = 0
    #: ``{"original": kernels, "transformed": kernels, "arrays": names}``
    #: of the first stretch the two programs ran on their own after which
    #: arrays they wrote differed byte for byte; None when none did, or
    #: when every array of the two ended byte-equal
    first_divergence: Optional[Dict[str, List[str]]] = None

    def array(self, name: str) -> np.ndarray:
        return self.arrays[name]


_MATH_FUNCS = {
    "sqrt": np.sqrt,
    "fabs": np.abs,
    "abs": np.abs,
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "floor": np.floor,
    "ceil": np.ceil,
}

_MATH_FUNCS2 = {
    "pow": np.power,
    "min": np.minimum,
    "max": np.maximum,
    "fmin": np.minimum,
    "fmax": np.maximum,
}


def _is_int(value: Value) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, np.integer)):
        return True
    return isinstance(value, np.ndarray) and np.issubdtype(value.dtype, np.integer)


def _c_div(lhs: Value, rhs: Value) -> Value:
    """C division: integer operands truncate toward zero, else float divide."""
    if _is_int(lhs) and _is_int(rhs):
        quotient = np.trunc(np.asarray(lhs, dtype=np.float64) / np.asarray(rhs))
        result = quotient.astype(np.int64)
        if np.ndim(result) == 0 and not isinstance(lhs, np.ndarray) and not isinstance(rhs, np.ndarray):
            return int(result)
        return result
    return lhs / rhs


def _c_mod(lhs: Value, rhs: Value) -> Value:
    if _is_int(lhs) and _is_int(rhs):
        return lhs - _c_div(lhs, rhs) * rhs
    return np.fmod(lhs, rhs)


def _restrict(value: np.ndarray, region: Tuple[slice, ...]) -> np.ndarray:
    """The lanes ``region`` of a lattice-broadcastable array (a view)."""
    return value[
        tuple(
            [
                lanes if extent != 1 else slice(None)
                for lanes, extent in zip(region, value.shape)
            ]
        )
    ]


def _as_int(value: Value) -> Value:
    """C-style truncating conversion of a declared ``int`` initializer."""
    if isinstance(value, np.ndarray):
        if not np.issubdtype(value.dtype, np.integer):
            return np.trunc(value).astype(np.int64)
        return value
    return int(value)


def _as_float(value: Value) -> Value:
    """Widening conversion of a declared ``double``/``float`` initializer."""
    if isinstance(value, np.ndarray):
        if not np.issubdtype(value.dtype, np.floating):
            return value.astype(np.float64)
        return value
    return float(value)


_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _c_div,
    "%": _c_mod,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "&&": lambda a, b: np.logical_and(a, b),
    "||": lambda a, b: np.logical_or(a, b),
}


@dataclass
class InterpreterStats:
    """Which executor ran the launches since :func:`reset_stats`.

    ``repro.api`` resets these when a transform starts, so the
    ``interpreter`` section of ``run.json`` / the ledger is per run: it
    names every launch that still paid the per-block loop and why.
    """

    #: executor -> launches (``vectorized`` | ``batched`` | ``loop``)
    launches_by_executor: Dict[str, int] = field(default_factory=dict)
    #: kernel -> launches that ran on the per-block loop
    loop_launches: Dict[str, int] = field(default_factory=dict)
    #: kernel -> first hazard that forced a replay (``"<array>:<kind>"``)
    hazard_replays: Dict[str, str] = field(default_factory=dict)
    #: executed array references that ran as basic slices / through the
    #: gather-scatter funnel (DESIGN.md, "Affine accesses")
    accesses_by_path: Dict[str, int] = field(
        default_factory=lambda: {"slice": 0, "funnel": 0}
    )
    #: statement executions on the sequential path, and the sequential
    #: executions lifted loop bodies stood in for (DESIGN.md, "Lifted loops")
    statements_by_path: Dict[str, int] = field(
        default_factory=lambda: {"lifted": 0, "sequential": 0}
    )
    #: kernel -> launches whose lifted pass was abandoned and re-run with
    #: every loop sequential
    lift_replays: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "launches_by_executor": dict(sorted(self.launches_by_executor.items())),
            "loop_launches": dict(sorted(self.loop_launches.items())),
            "hazard_replays": dict(sorted(self.hazard_replays.items())),
            "accesses_by_path": dict(self.accesses_by_path),
            "statements_by_path": dict(self.statements_by_path),
            "lift_replays": dict(sorted(self.lift_replays.items())),
        }


_STATS_LOCK = threading.Lock()
_STATS = InterpreterStats()


def stats() -> InterpreterStats:
    """Snapshot of the executor tallies since the last :func:`reset_stats`."""
    with _STATS_LOCK:
        return copy.deepcopy(_STATS)


def reset_stats() -> None:
    global _STATS
    with _STATS_LOCK:
        _STATS = InterpreterStats()


def _note_launch(
    kernel: str,
    executor: str,
    hazard: Optional[str],
    accesses: Dict[str, int],
    statements: Dict[str, int],
    lift_replayed: bool,
) -> None:
    with _STATS_LOCK:
        by = _STATS.launches_by_executor
        by[executor] = by.get(executor, 0) + 1
        if executor == "loop":
            loops = _STATS.loop_launches
            loops[kernel] = loops.get(kernel, 0) + 1
        if hazard is not None:
            _STATS.hazard_replays.setdefault(kernel, hazard)
        for path, count in accesses.items():
            _STATS.accesses_by_path[path] += count
        for path, count in statements.items():
            _STATS.statements_by_path[path] += count
        if lift_replayed:
            replays = _STATS.lift_replays
            replays[kernel] = replays.get(kernel, 0) + 1
    registry = get_registry()
    registry.inc("gpu_launches_total", executor=executor)
    if hazard is not None:
        registry.inc("gpu_hazard_replays_total")
    if lift_replayed:
        registry.inc("gpu_lift_replays_total")
    for path, count in accesses.items():
        registry.inc("gpu_accesses_total", count, path=path)
    for path, count in statements.items():
        registry.inc("gpu_statements_total", count, path=path)


class _BlockHazard(Exception):
    """Two blocks touched one element of a written global array."""

    def __init__(self, array: str, kind: str) -> None:
        super().__init__(f"{array}:{kind}")
        self.array = array
        self.kind = kind


class _LiftHazard(_BlockHazard):
    """A lifted loop body could not stand in for its sequential loop."""


#: the implicit leading subscript of a batched shared tile: the block axis
_BLOCK_AXIS = "<block>"
#: the implicit trailing subscript of a tile a lifted loop privatised
_LIFT_AXIS = "<lift>"


class _Lift(NamedTuple):
    """The loop running as the trailing lattice axis."""

    trip: int
    #: ``0 .. trip - 1`` along that axis: a privatised tile's last subscript
    lane: np.ndarray
    #: privatised tile -> per-cell "written this iteration" record
    written: Dict[str, np.ndarray]


class _Entry(NamedTuple):
    """What a pass over a launch may change, as the pass found it."""

    env: Dict[str, Value]
    #: (written global array, its copy)
    arrays: List[Tuple[np.ndarray, np.ndarray]]
    counters: Optional[Dict[str, Any]]


class _MaskFacts(NamedTuple):
    """What one mask keeps active on the current lattice."""

    #: active lanes over the full lattice
    count: int
    #: per-axis ``(lo, hi)`` of the active lanes; None when not slicing, for
    #: an empty mask and for a mask of another rank than the lattice
    hull: Optional[Tuple[Tuple[int, int], ...]]
    #: the mask is its whole hull (every lane of the box is active)
    boxed: bool
    #: iterations of the lifted loop with an active lane (1 outside one)
    slices: int


class _KernelExec:
    """Executes one kernel launch."""

    def __init__(
        self,
        kernel: ast.KernelDef,
        grid: Dim3,
        block: Dim3,
        args: List[Value],
        detect_races: bool = False,
        block_order: str = "forward",
        block_exec: str = "auto",
        counters: Optional[KernelCounters] = None,
    ) -> None:
        self.kernel = kernel
        self.grid = grid
        self.block = block
        self.detect_races = detect_races
        self.block_order = block_order
        self.block_exec = block_exec
        #: hardware-ish event counters; None disables counting entirely
        #: (the hot paths then pay one `is not None` check per event site)
        self.counters = counters
        #: thread blocks covered by one statement execution in the current
        #: mode (grid for vectorized, batch size for batched, 1 for loop)
        self._blocks_covered = 1
        self.env: Dict[str, Value] = {}
        self.shared: Dict[str, np.ndarray] = {}
        #: in batched mode, the positional block index (nb, 1, 1, 1) used to
        #: address the leading axis of batched shared arrays; None otherwise
        self._block_axis: Optional[np.ndarray] = None
        #: id(global array) -> per-element block record, while a batched
        #: pass is being checked against the block loop (None otherwise)
        self._watch: Optional[Dict[int, np.ndarray]] = None
        #: whether array references may run as basic slices: on the
        #: vectorized / batched lattices only — the per-block loop is the
        #: oracle and the race checks need the element lists
        self._slicing = False
        #: int local -> (lattice axis, base): its value is ``arange + base``
        #: along that one full axis (module docstring, "Affine accesses")
        self._affine: Dict[str, Tuple[int, int]] = {}
        #: id(mask) -> (mask, facts); holding the mask keeps its id its own
        self._hulls: Dict[int, Tuple[np.ndarray, _MaskFacts]] = {}
        #: facts of the scalar all-true mask on the current lattice
        self._all_lanes = _MaskFacts(1, (), True, 1)
        #: array references executed, by path (flushed by :func:`_note_launch`)
        self._accesses = {"slice": 0, "funnel": 0}
        #: whether this pass lifts the loops that qualify (:meth:`_run_lattice`)
        self._lifting = False
        #: the loop running as the trailing lattice axis, if any
        self._lift: Optional[_Lift] = None
        #: statement executions, by path (flushed by :func:`_note_launch`)
        self._statements = {"lifted": 0, "sequential": 0}
        #: a lifted pass was abandoned and the launch re-run sequentially
        self.lift_replayed = False
        self._summary = collect_accesses(kernel)
        #: what ran (or is running) the launch, for :class:`LaunchRecord`
        self.executor = "loop"
        self.hazard_replay: Optional[str] = None
        #: True once the launch ran several blocks in ``block_order``
        #: with nothing proving the order irrelevant: on the per-block
        #: loop, or on the unwatched forced-``batched`` lattice.  The
        #: vectorized lattice never consults the order and a watched
        #: lattice that passed equals every order (:meth:`_run_watched`),
        #: so a run with no such launch is bit-identical when reversed.
        self.order_sensitive = False
        params = kernel.params
        if len(args) != len(params):
            raise InterpreterError(
                f"kernel {kernel.name!r}: expected {len(params)} args, got {len(args)}"
            )
        for param, arg in zip(params, args):
            self.env[param.name] = arg
        # geometry placeholders, filled per execution mode
        self.tidx: Dict[str, Value] = {}
        self.bidx: Dict[str, Value] = {}
        self.bdim = {"x": block.x, "y": block.y, "z": block.z}
        self.gdim = {"x": grid.x, "y": grid.y, "z": grid.z}
        self.lattice_shape: Tuple[int, ...] = ()

    # ----------------------------------------------------------------- running

    def run(self) -> None:
        mode = self.block_exec
        if mode not in BLOCK_EXEC_MODES:
            raise InterpreterError(f"unknown block_exec mode {mode!r}")
        try:
            self._dispatch(mode)
        finally:
            _note_launch(
                self.kernel.name,
                self.executor,
                self.hazard_replay,
                self._accesses,
                self._statements,
                self.lift_replayed,
            )

    def _dispatch(self, mode: str) -> None:
        summary = self._summary
        if not summary.uses_shared:
            self._setup_vectorized()
            self._run_lattice("vectorized")
        elif self.detect_races or mode == "loop":
            # the scatter race checks reason about one block at a time;
            # cross-block writes in the same statement would be flagged as
            # intra-block races under batching
            self._run_per_block()
        elif mode == "batched":
            self.order_sensitive = self.grid.count > 1
            self._setup_batched()
            self._run_lattice("batched")
        elif summary.uniform_bounds:
            self._run_watched()
        else:
            self._run_per_block()

    def _run_lattice(self, lattice: str, entry: Optional[_Entry] = None) -> None:
        """Run the body over the lattice the caller set up.

        Loops that qualify are lifted (module docstring, "Lifted loops").
        A lifted body that cannot stand in for its sequential loop raises
        :class:`_LiftHazard`; the launch is then restored to ``entry`` —
        taken here unless the caller took it — and re-run on the same
        lattice with every loop sequential, so the executor, any block
        hazard and any error are the ones that run finds.
        """
        self.executor = lattice
        self._slicing = not self.detect_races and self.block_exec != "loop"
        self._lifting = self._slicing and bool(self._summary.lifts)
        # scalar True: all threads active
        mask = np.ones((), dtype=bool)
        if self._lifting:
            if entry is None:
                entry = self._entry_state()
            affine = dict(self._affine)
            try:
                self._exec_block(self.kernel.body, mask)
                return
            except _LiftHazard:
                self.lift_replayed = True
            self._restore(entry)
            self._affine = affine
            for state in (self._watch or {}).values():
                state[...] = 0
            self._statements = {"lifted": 0, "sequential": 0}
            self._lifting = False
        self._exec_block(self.kernel.body, mask)

    def _run_watched(self) -> None:
        """Batched execution that proves itself equal to the block loop.

        Blocks interact only through global memory.  Every global array
        the kernel writes gets a per-element record of the block that
        touched it (:meth:`_watch_access`); if no element is touched by
        two different blocks with a store among the touches, every
        block's values are independent of all others and the lockstep
        lattice equals every sequential block order.  The first such
        element aborts the pass: the written arrays and the counters are
        restored from the entry snapshot and the launch replays on the
        per-block loop in the requested ``block_order`` — which therefore
        keeps its power to expose races.  An error raised on the lattice
        while some array is both read and written is replayed the same
        way: a stale cross-block read may have caused it before the store
        that reveals the hazard ran, so the loop decides whether the
        launch fails.
        """
        entry = self._entry_state()
        watched = {id(arr) for arr, _ in entry.arrays}
        self._watch = {
            id(arr): np.zeros(arr.size, dtype=np.int32) for arr, _ in entry.arrays
        } or None
        self._setup_batched()
        try:
            self._run_lattice("batched", entry)
            return
        except _BlockHazard as hazard:
            self.hazard_replay = f"{hazard.array}:{hazard.kind}"
        except InterpreterError as exc:
            reads = self._summary.reads
            if not any(id(entry.env.get(name)) in watched for name in reads):
                raise
            self.hazard_replay = f"{getattr(exc, 'array', None) or '?'}:ERR"
        finally:
            self._watch = None
        self._restore(entry)
        self._block_axis = None
        self._run_per_block()

    def _entry_state(self) -> _Entry:
        """What a pass may change: the environment, the counters and every
        global array the kernel writes (one copy per distinct array)."""
        written = {
            id(arr): arr
            for name in self._summary.writes
            if isinstance(arr := self.env.get(name), np.ndarray)
        }
        return _Entry(
            dict(self.env),
            [(arr, arr.copy()) for arr in written.values()],
            dict(vars(self.counters)) if self.counters is not None else None,
        )

    def _restore(self, entry: _Entry) -> None:
        """Undo a pass: arrays, counters and environment as at ``entry``."""
        for arr, saved in entry.arrays:
            arr[...] = saved
        if entry.counters is not None:
            vars(self.counters).update(entry.counters)
        self.env = dict(entry.env)
        self.shared = {}

    def _watch_access(
        self, name: str, arr: np.ndarray, idxs: List[Value], mask: Value, store: bool
    ) -> None:
        """Record which block touches which element of a watched array.

        Per element: 0 untouched, ``2c`` read only by the block with code
        ``c`` (``c = 1 + position on the block axis``; ``2 * (nb + 1)``
        once several blocks have read it), ``2c + 1`` written by block
        ``c`` (which may also have read it).  Raises :class:`_BlockHazard`
        on the first element two different blocks touch with a store
        among the touches — including two blocks in this one statement.
        """
        state = self._watch.get(id(arr))  # type: ignore[union-attr]
        if state is None:
            return
        lin: Value = 0
        for idx, extent in zip(idxs, arr.shape):
            lin = lin * extent + np.asarray(idx)
        block = self._block_axis + 1
        masked = isinstance(mask, np.ndarray) and mask.ndim > 0
        shape = np.broadcast_shapes(
            np.shape(lin), block.shape, mask.shape if masked else ()
        )
        lin = np.broadcast_to(lin, shape)
        block = np.broadcast_to(block, shape)
        if masked:
            active = np.broadcast_to(mask, shape)
            lin, block = lin[active], block[active]
        else:
            lin, block = lin.ravel(), block.ravel()
        seen = state[lin]
        reader = block * 2
        writer = reader + 1
        if store:
            foreign = (seen != 0) & (seen != reader) & (seen != writer)
            if foreign.any():
                first = int(seen[np.argmax(foreign)])
                raise _BlockHazard(name, "WAW" if first & 1 else "WAR")
            state[lin] = writer
            if (state[lin] != writer).any():
                raise _BlockHazard(name, "WAW")
            return
        if (((seen & 1) == 1) & (seen != writer)).any():
            raise _BlockHazard(name, "RAW")
        many = 2 * (self.lattice_shape[0] + 1)
        now = np.where((seen == 0) | (seen == reader), reader, many)
        now = np.where(seen == writer, writer, now)
        changed = now != seen
        if changed.any():
            lin, now = lin[changed], now[changed]
            state[lin] = now
            # two blocks reading one fresh element in this statement
            clash = state[lin] != now
            if clash.any():
                state[lin[clash]] = many

    def _visit_order(self) -> List[Tuple[int, int, int]]:
        blocks = [
            (gx, gy, gz)
            for gz in range(self.grid.z)
            for gy in range(self.grid.y)
            for gx in range(self.grid.x)
        ]
        if self.block_order == "reverse":
            blocks.reverse()
        return blocks

    def _setup_vectorized(self) -> None:
        gx, gy, gz = self.grid.as_tuple()
        bx, by, bz = self.block.as_tuple()
        nx, ny, nz = gx * bx, gy * by, gz * bz
        self._set_lattice((nx, ny, nz), self.grid.count)
        ax = np.arange(nx).reshape(nx, 1, 1)
        ay = np.arange(ny).reshape(1, ny, 1)
        az = np.arange(nz).reshape(1, 1, nz)
        self.tidx = {"x": ax % bx, "y": ay % by, "z": az % bz}
        self.bidx = {"x": ax // bx, "y": ay // by, "z": az // bz}

    def _run_per_block(self) -> None:
        self.executor = "loop"
        self._slicing = self._lifting = False
        self.order_sensitive = self.grid.count > 1
        bx, by, bz = self.block.as_tuple()
        self._set_lattice((bx, by, bz), 1)
        self.tidx = {
            "x": np.arange(bx).reshape(bx, 1, 1),
            "y": np.arange(by).reshape(1, by, 1),
            "z": np.arange(bz).reshape(1, 1, bz),
        }
        base_env = dict(self.env)
        for gx, gy, gz in self._visit_order():
            self.bidx = {"x": gx, "y": gy, "z": gz}
            self.env = dict(base_env)
            self.shared = {}
            mask = np.ones((), dtype=bool)
            self._exec_block(self.kernel.body, mask)

    def _setup_batched(self) -> None:
        """Prepare the batched lattice: per-block semantics, one extra
        numpy axis instead of a loop.

        The lattice is ``(nb, bx, by, bz)``: axis 0 enumerates the blocks
        of the launch grid *in visit order* (so numpy's last-wins scatter
        resolution of duplicate indices reproduces the sequential loop's
        block ordering, forward or reverse), and the remaining axes are
        the intra-block thread coordinates.  Shared arrays carry the same
        leading block axis, keeping tiles scoped to their own block.
        """
        blocks = self._visit_order()
        nb = len(blocks)
        bx, by, bz = self.block.as_tuple()
        self._set_lattice((nb, bx, by, bz), nb)
        self._affine[_BLOCK_AXIS] = (0, 0)
        self.tidx = {
            "x": np.arange(bx).reshape(1, bx, 1, 1),
            "y": np.arange(by).reshape(1, 1, by, 1),
            "z": np.arange(bz).reshape(1, 1, 1, bz),
        }
        self.bidx = {
            "x": np.array([b[0] for b in blocks]).reshape(nb, 1, 1, 1),
            "y": np.array([b[1] for b in blocks]).reshape(nb, 1, 1, 1),
            "z": np.array([b[2] for b in blocks]).reshape(nb, 1, 1, 1),
        }
        self._block_axis = np.arange(nb).reshape(nb, 1, 1, 1)

    def _set_lattice(self, shape: Tuple[int, ...], blocks_covered: int) -> None:
        self.lattice_shape = shape
        self._blocks_covered = blocks_covered
        self._all_lanes = _MaskFacts(
            math.prod(shape), tuple((0, extent) for extent in shape), True, 1
        )
        self._affine = {}
        self._hulls = {}

    # ------------------------------------------------------ masks and counters

    def _mask_facts(self, mask: Value) -> _MaskFacts:
        """Active lanes of ``mask`` and, when slicing, their hull — computed
        once per mask object (masks are never written in place)."""
        if not (isinstance(mask, np.ndarray) and mask.ndim > 0):
            return self._all_lanes
        entry = self._hulls.get(id(mask))
        if entry is None:
            entry = self._hulls[id(mask)] = (mask, self._measure_mask(mask))
        return entry[1]

    def _measure_mask(self, mask: np.ndarray) -> _MaskFacts:
        shape = self.lattice_shape
        # a mask is broadcast over the lattice axes it does not span
        count = int(np.count_nonzero(mask)) * (self._all_lanes.count // mask.size)
        # a mask that does not span the lift axis is alike in every iteration
        slices = self._all_lanes.slices
        if not self._slicing or count == 0 or mask.ndim != len(shape):
            return _MaskFacts(count, None, False, slices)
        hull = []
        cells = 1
        for axis, extent in enumerate(shape):
            lo, hi = 0, extent
            if mask.shape[axis] != 1:
                others = tuple(a for a in range(mask.ndim) if a != axis)
                on = np.flatnonzero(mask.any(axis=others))
                lo, hi = int(on[0]), int(on[-1]) + 1
                if self._lift is not None and axis == len(shape) - 1:
                    slices = len(on)
            hull.append((lo, hi))
            cells *= hi - lo
        return _MaskFacts(count, tuple(hull), cells == count, slices)

    def _active_threads(self, mask: Value) -> int:
        """Threads the current mask keeps active over the full lattice."""
        return self._mask_facts(mask).count

    def _diverging(self, on: np.ndarray, off: np.ndarray) -> int:
        """Divergent branches: 1 when active threads take both sides, and in
        a lifted body one per iteration in which they do."""
        if self._lift is None:
            return int(bool(np.any(on)) and bool(np.any(off)))
        both = np.logical_and(
            *(m.any(axis=tuple(range(m.ndim - 1))) for m in (on, off))
        )
        return int(np.count_nonzero(np.broadcast_to(both, (self._lift.trip,))))

    # -------------------------------------------------------------- statements

    def _exec_block(self, block: ast.Block, mask: Value) -> None:
        if self._lift is None:
            self._statements["sequential"] += len(block.stmts)
        else:
            # the statements each active iteration would have executed
            self._statements["lifted"] += (
                len(block.stmts) * self._mask_facts(mask).slices
            )
        for stmt in block.stmts:
            self._exec_stmt(stmt, mask)

    def _exec_stmt(self, stmt: ast.Stmt, mask: Value) -> None:
        if isinstance(stmt, ast.VarDecl):
            self._exec_decl(stmt, mask)
        elif isinstance(stmt, ast.Assign):
            self._exec_assign(stmt, mask)
        elif isinstance(stmt, ast.If):
            cond = self._eval(stmt.cond, mask)
            if isinstance(cond, np.ndarray) and cond.ndim > 0:
                then_mask = np.logical_and(mask, cond)
                if self.counters is not None:
                    # active threads disagree on a thread-varying condition
                    off_mask = np.logical_and(mask, np.logical_not(cond))
                    self.counters.branch_divergence += self._diverging(
                        then_mask, off_mask
                    )
                if np.any(then_mask):
                    self._exec_block(stmt.then, then_mask)
                    # a branch mask dies with its branch: a long loop must
                    # not retain one hull per iteration
                    self._hulls.pop(id(then_mask), None)
                if stmt.els is not None:
                    else_mask = np.logical_and(mask, np.logical_not(cond))
                    if np.any(else_mask):
                        self._exec_block(stmt.els, else_mask)
                        self._hulls.pop(id(else_mask), None)
            else:
                if bool(cond):
                    self._exec_block(stmt.then, mask)
                elif stmt.els is not None:
                    self._exec_block(stmt.els, mask)
        elif isinstance(stmt, ast.For):
            self._exec_for(stmt, mask)
        elif isinstance(stmt, ast.While):
            self._exec_while(stmt, mask)
        elif isinstance(stmt, ast.SyncThreads):
            # statements already act as barriers in vectorized execution;
            # the counter still records one barrier per covered block (and
            # per active iteration of a lifted loop)
            if self.counters is not None:
                iterations = 1 if self._lift is None else self._mask_facts(mask).slices
                self.counters.syncthreads += self._blocks_covered * iterations
        elif isinstance(stmt, ast.ExprStmt):
            self._eval(stmt.expr, mask)
        elif isinstance(stmt, ast.Return):
            raise _ReturnSignal()
        elif isinstance(stmt, ast.Block):
            self._exec_block(stmt, mask)
        else:
            raise InterpreterError(f"unsupported statement {type(stmt).__name__}")

    def _exec_decl(self, decl: ast.VarDecl, mask: Value) -> None:
        if decl.is_shared:
            dims = [
                int(self._eval_scalar(dim, "shared array dimension"))
                for dim in decl.array_dims
            ]
            if self._block_axis is not None:
                # one tile per block, stacked along the batch axis
                dims = [self.lattice_shape[0]] + dims
            if self._lift is not None:
                # one tile per iteration, its reads checked against its writes
                dims.append(self._lift.trip)
                self._lift.written[decl.name] = np.zeros(tuple(dims), dtype=bool)
            dtype = np.float64 if decl.type.base in ("double", "float") else np.int64
            self.shared[decl.name] = np.zeros(tuple(dims), dtype=dtype)
            return
        if decl.array_dims:
            raise InterpreterError(
                f"local array {decl.name!r} without __shared__ is unsupported"
            )
        if decl.init is None:
            value: Value = 0 if decl.type.base == "int" else 0.0
        else:
            value = self._eval(decl.init, mask)
            if decl.type.base == "int":
                value = _as_int(value)
            elif decl.type.base in ("double", "float"):
                value = _as_float(value)
        self.env[decl.name] = value
        self._affine.pop(decl.name, None)
        if self._slicing and decl.type.base == "int":
            self._tag_affine(decl.name, value)

    def _tag_affine(self, name: str, value: Value) -> None:
        """Remember that ``name`` holds ``arange + base`` along exactly one
        full lattice axis — ``blockIdx.x * blockDim.x + threadIdx.x`` on the
        vectorized lattice, ``threadIdx.x + lx0 * 16`` on the batched one."""
        lattice = self.lattice_shape
        if not (isinstance(value, np.ndarray) and value.ndim == len(lattice)):
            return
        spanned = [axis for axis, extent in enumerate(value.shape) if extent != 1]
        if len(spanned) != 1:
            return
        (axis,) = spanned
        extent = lattice[axis]
        base = int(value.flat[0])
        if value.size == extent and np.array_equal(
            value.ravel(), np.arange(base, base + extent)
        ):
            self._affine[name] = (axis, base)

    def _exec_assign(self, stmt: ast.Assign, mask: Value) -> None:
        value = self._eval(stmt.value, mask)
        if stmt.op != "=":
            current = self._eval(stmt.target, mask)
            binop = stmt.op[0]
            value = _BINOPS[binop](current, value)
        target = stmt.target
        if isinstance(target, ast.Ident):
            self._store_scalar(target.name, value, mask)
        elif isinstance(target, ast.Index):
            self._store_array(target, value, mask)
        else:
            raise InterpreterError("invalid assignment target")

    def _store_scalar(self, name: str, value: Value, mask: Value) -> None:
        self._affine.pop(name, None)
        fully_active = not (isinstance(mask, np.ndarray) and mask.ndim > 0)
        if fully_active:
            self.env[name] = value
            return
        old = self.env.get(name)
        if old is None:
            old = 0
        self.env[name] = np.where(mask, value, old)

    def _lookup_array(self, name: str) -> np.ndarray:
        if name in self.shared:
            return self.shared[name]
        value = self.env.get(name)
        if isinstance(value, np.ndarray):
            return value
        raise InterpreterError(f"{name!r} is not an array")

    def _resolve_access(
        self, name: Optional[str], nidx: int
    ) -> Tuple[np.ndarray, List[np.ndarray], List[np.ndarray]]:
        """Resolve an array access to (array, prefix, suffix).

        ``prefix`` is the implicit leading block-axis index of a batched
        shared tile and ``suffix`` the implicit trailing iteration index of
        a tile a lifted loop privatised (both empty otherwise); the
        user-visible dimensionality is checked against the declared shape
        without them.
        """
        if name is None:
            raise InterpreterError("array base must be a name")
        arr = self._lookup_array(name)
        prefix: List[np.ndarray] = []
        suffix: List[np.ndarray] = []
        if name in self.shared:
            if self._block_axis is not None:
                prefix = [self._block_axis]
            if self._lift is not None and name in self._lift.written:
                suffix = [self._lift.lane]
        ndim = arr.ndim - len(prefix) - len(suffix)
        if nidx != ndim:
            raise InterpreterError(
                f"array {name!r} has {ndim} dims, indexed with {nidx}"
            )
        return arr, prefix, suffix

    def _check_staged(self, name: str, seen: np.ndarray, active: Value) -> None:
        """A privatised tile cell read before its iteration wrote it would
        have held an earlier iteration's value: abandon the lifted pass."""
        if np.any(np.logical_and(active, np.logical_not(seen))):
            raise _LiftHazard(name, "RAW")

    def _slice_index(
        self,
        node: ast.Index,
        arr: np.ndarray,
        prefixed: bool,
        suffixed: bool,
        mask: Value,
        store: bool,
    ) -> Optional[Tuple[Tuple[Any, ...], Tuple[slice, ...], List[int]]]:
        """The basic index that runs this access as slices, or None for
        the funnel (DESIGN.md, "Affine accesses").

        Each subscript must be a thread-invariant in-range int or
        ``lane + shift`` along its own lattice axis, the axes in lattice
        order, with ``hull + shift`` inside the extent: the subscript is
        monotone in its lane, so that proves every active lane in bounds.
        Returns ``(index, region, shape)``: ``arr[index]`` holds the
        elements of the lattice lanes ``region``, with a unit axis per
        lattice axis no subscript addresses (``shape`` is the lattice's
        with those axes collapsed).  A store covers the hull and needs
        every axis the hull spans addressed (else several lanes share an
        element); a load covers every in-range lane.
        """
        terms = self._summary.subscripts.get(id(node))
        if terms is None or (self._watch is not None and id(arr) in self._watch):
            return None
        hull = self._mask_facts(mask).hull
        if hull is None:
            return None
        if prefixed:
            terms = ((_BLOCK_AXIS, 0),) + terms
        if suffixed:
            terms = terms + ((_LIFT_AXIS, 0),)
        lattice = self.lattice_shape
        index: List[Any] = []
        region = [slice(lo, hi) if store else slice(None) for lo, hi in hull]
        shape = [1] * len(hull)
        free = 0  # first lattice axis no earlier subscript addresses
        for (base, offset), extent in zip(terms, arr.shape):
            tag = self._affine.get(base)  # type: ignore[arg-type]
            if tag is None:
                at: Value = offset
                if base is not None:
                    at = self.env.get(base)  # type: ignore[assignment]
                    if not _is_int(at) or isinstance(at, np.ndarray):
                        return None
                    at = int(at) + offset
                if not 0 <= at < extent:
                    return None
                index.append(at)
                continue
            axis, lane0 = tag
            shift = lane0 + offset
            lo, hi = hull[axis]
            if axis < free or lo + shift < 0 or hi + shift > extent:
                return None
            if not store:
                lo, hi = max(0, -shift), min(lattice[axis], extent - shift)
                region[axis] = slice(lo, hi)
            index += [None] * (axis - free)
            index.append(slice(lo + shift, hi + shift))
            shape[axis] = lattice[axis]
            free = axis + 1
        if free == 0:
            return None
        # a collapsed axis the hull spans: several lanes, one element
        if store and any(
            hi - lo > 1 for (lo, hi), lanes in zip(hull, shape) if lanes == 1
        ):
            return None
        index += [None] * (len(hull) - free)
        return tuple(index), tuple(region), shape

    def _validate_indices(
        self,
        name: str,
        arr: np.ndarray,
        idxs: List[Value],
        mask: Value,
        offset: int = 0,
    ) -> List[Value]:
        """Check active-thread indices are in bounds; clip inactive ones.

        ``offset`` skips leading storage axes that carry no user index
        (the block axis of a batched shared array).
        """
        masked = isinstance(mask, np.ndarray) and mask.ndim > 0
        safe: List[Value] = []
        for axis, idx in enumerate(idxs):
            extent = arr.shape[axis + offset]
            if isinstance(idx, np.ndarray) and idx.ndim > 0:
                bad = (idx < 0) | (idx >= extent)
                if masked:
                    bad = np.logical_and(bad, mask)
                if np.any(bad):
                    self._raise_oob(name, arr, idxs, mask, offset)
                safe.append(np.clip(idx, 0, extent - 1))
            else:
                value = int(idx)
                if value < 0 or value >= extent:
                    self._raise_oob(name, arr, idxs, mask, offset)
                safe.append(value)
        return safe

    def _raise_oob(
        self,
        name: str,
        arr: np.ndarray,
        idxs: List[Value],
        mask: Value,
        offset: int,
    ) -> NoReturn:
        """Raise the out-of-bounds error the per-block loop raises, under
        every executor (:meth:`_first_offender`).  A subscript with one
        value over every thread of the offending block (thread-invariant,
        or depending on ``blockIdx`` alone) names its block but no
        thread.  Only a failing access pays for the location."""
        if self._lift is not None:
            # the launch re-runs sequentially (_run_lifted) and raises there
            raise OutOfBoundsError(
                f"array {name!r} out of bounds in a lifted loop",
                kernel=self.kernel.name,
                array=name,
            )
        axis, block, thread, lane = self._first_offender(
            [
                np.logical_and((np.asarray(idx) < 0) | (np.asarray(idx) >= extent), mask)
                for idx, extent in zip(idxs, arr.shape[offset:])
            ]
        )
        values = np.broadcast_to(idxs[axis], self.lattice_shape)
        value = int(values.flat[lane])
        keys = self._loop_keys()
        threads = self.block.count
        own = values[keys // threads == keys.flat[lane] // threads]
        if np.any(own != value):
            what, where = f"active thread index {value}", f" thread {thread}"
        else:
            thread = None
            what, where = f"index {value}", ""
        raise OutOfBoundsError(
            f"array {name!r} axis {axis}: {what} out of "
            f"[0, {arr.shape[axis + offset]}) during kernel "
            f"{self.kernel.name!r} at block {block}{where}",
            kernel=self.kernel.name,
            array=name,
            axis=axis,
            index=value,
            block=block,
            thread=thread,
        )

    def _first_offender(
        self, bad: List[np.ndarray]
    ) -> Tuple[int, Tuple[int, int, int], Tuple[int, int, int], int]:
        """``(axis, block, thread, lane)`` of the offence the per-block loop
        meets first, given each axis's offending active lanes: the first
        block of :meth:`_visit_order` with one, the first axis offending
        there, and that axis's first offending thread in ``(x, y, z)``
        order; ``lane`` is its flat lattice index."""
        shape = self.lattice_shape
        keys = self._loop_keys()
        threads = self.block.count
        hits = [keys[np.broadcast_to(offending, shape)] for offending in bad]
        first = min(int(h.min()) for h in hits if h.size) // threads
        for axis, h in enumerate(hits):
            h = h[h // threads == first]
            if h.size:
                key = int(h.min())
                break
        if self.executor == "loop":
            block = tuple(int(self.bidx[a]) for a in "xyz")  # type: ignore[arg-type]
        else:
            block = self._visit_order()[first]
        thread = tuple(
            int(c) for c in np.unravel_index(key % threads, self.block.as_tuple())
        )
        return axis, block, thread, int(np.argmax(keys == key))  # type: ignore[return-value]

    def _loop_keys(self) -> np.ndarray:
        """Each lattice lane's position in the per-block loop's visit
        order: blocks in :meth:`_visit_order`, then threads in ``(x, y, z)``
        order.  The loop's lattice is one block and the batched lattice's
        axis 0 holds the blocks in visit order, so both are in C order."""
        shape = self.lattice_shape
        if self.executor != "vectorized":
            return np.arange(math.prod(shape)).reshape(shape)
        (bx, by, bz), (gx, gy, _) = self.block.as_tuple(), self.grid.as_tuple()
        cx, cy, cz = np.ix_(*(np.arange(n) for n in shape))
        rank = cx // bx + gx * (cy // by + gy * (cz // bz))
        if self.block_order == "reverse":
            rank = self.grid.count - 1 - rank
        return ((rank * bx + cx % bx) * by + cy % by) * bz + cz % bz

    def _store_array(self, target: ast.Index, value: Value, mask: Value) -> None:
        name = target.array_name
        arr, prefix, suffix = self._resolve_access(name, len(target.indices))
        if self._slicing and np.ndim(value) in (0, len(self.lattice_shape)):
            plan = self._slice_index(
                target, arr, bool(prefix), bool(suffix), mask, store=True
            )
            if plan is not None:
                index, region, _ = plan
                if self.counters is not None:
                    self.counters.count_store(
                        name in self.shared,
                        self._active_threads(mask),
                        arr.dtype.itemsize,
                    )
                self._accesses["slice"] += 1
                if np.ndim(value):
                    value = _restrict(value, region)
                written = self._lift.written[name][index] if suffix else None
                if self._mask_facts(mask).boxed:
                    arr[index] = value
                    if written is not None:
                        written[...] = True
                else:
                    active = _restrict(mask, region)
                    np.copyto(arr[index], value, casting="unsafe", where=active)
                    if written is not None:
                        np.copyto(written, True, where=active)
                return
        idxs = [self._eval(e, mask) for e in target.indices]
        self._finish_store(name, arr, prefix, suffix, idxs, value, mask)

    def _finish_store(
        self,
        name: str,
        arr: np.ndarray,
        prefix: List[np.ndarray],
        suffix: List[np.ndarray],
        idxs: List[Value],
        value: Value,
        mask: Value,
    ) -> None:
        self._accesses["funnel"] += 1
        idxs = self._validate_indices(name, arr, idxs, mask, offset=len(prefix))
        if self._lift is not None and not any(
            isinstance(i, np.ndarray) and i.ndim and i.size > i.shape[-1]
            for i in idxs
        ):
            # every thread of an iteration stores to one element: the
            # first-active / last-block rules below pick per iteration
            raise _LiftHazard(name, "ONE")
        if self._watch is not None:
            self._watch_access(name, arr, idxs, mask, store=True)
        if self.counters is not None:
            self.counters.count_store(
                name in self.shared, self._active_threads(mask), arr.dtype.itemsize
            )
        vector_axes = [
            i for i, idx in enumerate(idxs) if isinstance(idx, np.ndarray) and idx.ndim
        ]
        masked = isinstance(mask, np.ndarray) and mask.ndim > 0
        if not vector_axes and not prefix:
            # thread-invariant store: every active thread hits one location
            if masked and not np.any(mask):
                return
            if self.detect_races and isinstance(value, np.ndarray) and value.ndim:
                if masked:
                    shape = np.broadcast_shapes(value.shape, mask.shape)
                    active_vals = np.broadcast_to(value, shape)[
                        np.broadcast_to(mask, shape)
                    ]
                else:
                    active_vals = np.asarray(value).ravel()
                if active_vals.size > 1 and not np.all(
                    active_vals == active_vals.flat[0]
                ):
                    raise InterpreterError(
                        f"write-write race on array {name!r} in kernel "
                        f"{self.kernel.name!r}"
                    )
            arr[tuple(int(i) for i in idxs)] = self._scalarize(value, mask)
            return
        if not vector_axes:
            # batched shared array, thread-invariant user indices: each
            # block independently stores its first active thread's value
            # into its own tile slot (the per-block scalar-store rule)
            self._store_shared_scalar(arr, idxs, value, mask)
            return
        all_idxs = list(prefix) + list(idxs) + list(suffix)
        # the broadcast lattice must also cover value/mask variance that the
        # indices alone do not span (e.g. a block-axis prefix of (nb,1,1,1)
        # stored with thread-varying values of shape (1,bx,1,1))
        shapes = [np.asarray(i).shape for i in all_idxs]
        if isinstance(value, np.ndarray):
            shapes.append(value.shape)
        if masked:
            shapes.append(np.asarray(mask).shape)
        shape = np.broadcast_shapes(*shapes)
        full_idxs = [np.broadcast_to(np.asarray(i), shape) for i in all_idxs]
        value_arr = np.broadcast_to(np.asarray(value), shape)
        if masked:
            mask_arr = np.broadcast_to(mask, shape)
            sel = tuple(ix[mask_arr] for ix in full_idxs)
            if self.detect_races:
                self._check_race(name, arr, sel, value_arr[mask_arr])
            arr[sel] = value_arr[mask_arr]
        else:
            sel = tuple(full_idxs)
            if self.detect_races:
                flat = tuple(ix.ravel() for ix in full_idxs)
                self._check_race(name, arr, flat, value_arr.ravel())
            arr[sel] = value_arr
        if suffix:
            self._lift.written[name][sel] = True  # type: ignore[union-attr]

    def _store_shared_scalar(
        self, arr: np.ndarray, idxs: List[Value], value: Value, mask: Value
    ) -> None:
        """Batched equivalent of the loop-mode scalar store to shared memory:
        block ``b`` writes the value its first active thread holds, blocks
        with no active thread leave their slot untouched."""
        nb = self.lattice_shape[0]
        masked = isinstance(mask, np.ndarray) and mask.ndim > 0
        if masked and not np.any(mask):
            return
        shape = self.lattice_shape
        v = np.broadcast_to(np.asarray(value), shape).reshape(nb, -1)
        m = (
            np.broadcast_to(mask, shape).reshape(nb, -1)
            if masked
            else np.ones((nb, 1), dtype=bool)
        )
        active = m.any(axis=1)
        first = m.argmax(axis=1)
        picked = v[np.arange(nb), np.minimum(first, v.shape[1] - 1)]
        cell = tuple(int(i) for i in idxs)
        arr[(np.arange(nb)[active],) + cell] = picked[active]

    def _check_race(
        self, name: str, arr: np.ndarray, sel: Tuple[np.ndarray, ...], values: np.ndarray
    ) -> None:
        """Detect two active threads writing different values to one cell."""
        linear = np.ravel_multi_index(sel, arr.shape)
        order = np.argsort(linear, kind="stable")
        sorted_lin = linear[order]
        sorted_val = np.asarray(values).ravel()[order]
        dup = sorted_lin[1:] == sorted_lin[:-1]
        if np.any(dup & (sorted_val[1:] != sorted_val[:-1])):
            raise InterpreterError(
                f"write-write race on array {name!r} in kernel "
                f"{self.kernel.name!r}"
            )

    def _scalarize(self, value: Value, mask: Value) -> Scalar:
        if isinstance(value, np.ndarray) and value.ndim > 0:
            masked = isinstance(mask, np.ndarray) and mask.ndim > 0
            shape = (
                np.broadcast_shapes(value.shape, mask.shape)
                if masked
                else value.shape
            )
            if self._block_axis is not None and len(shape) == 4 and shape[0] > 1:
                # batched: the sequential loop would have every active block
                # write in turn, so the surviving value belongs to the LAST
                # active block (first active thread within it)
                v = np.broadcast_to(value, shape).reshape(shape[0], -1)
                m = (
                    np.broadcast_to(mask, shape).reshape(shape[0], -1)
                    if masked
                    else np.ones((shape[0], 1), dtype=bool)
                )
                active = np.nonzero(m.any(axis=1))[0]
                if active.size == 0:
                    return 0
                last = int(active[-1])
                return v[last, int(np.minimum(m[last].argmax(), v.shape[1] - 1))]
            if masked:
                picked = np.broadcast_to(value, shape)[np.broadcast_to(mask, shape)]
            else:
                picked = value.ravel()
            if picked.size == 0:
                return 0
            return picked.flat[0]
        return value

    def _exec_for(self, stmt: ast.For, mask: Value) -> None:
        start = self._eval_scalar(stmt.start, "loop start")
        bound = self._eval_scalar(stmt.bound, "loop bound")
        step = self._eval_scalar(stmt.step, "loop step")
        if step <= 0:
            raise InterpreterError("loop step must be positive")
        end = bound + 1 if stmt.cmp == "<=" else bound
        self._affine.pop(stmt.var, None)
        lift = self._summary.lifts.get(id(stmt)) if self._lifting else None
        if (
            lift is not None
            and self._lift is None
            and self._run_lifted(lift, mask, start, end, step)
        ):
            return
        saved = self.env.get(stmt.var, _MISSING)
        value = start
        while value < end:
            self.env[stmt.var] = int(value)
            self._exec_block(stmt.body, mask)
            value += step
        if saved is _MISSING:
            self.env.pop(stmt.var, None)
        else:
            self.env[stmt.var] = saved

    def _run_lifted(
        self, lift: ParallelLoop, mask: Value, start: Scalar, end: Scalar, step: Scalar
    ) -> bool:
        """Run ``lift``'s loop as one pass, its iterations a trailing
        lattice axis (module docstring, "Lifted loops"); False, having
        changed nothing, when the loop is better run sequentially."""
        if not all(type(v) is int for v in (start, end, step)):
            return False
        trip = len(range(start, end, step))  # type: ignore[arg-type]
        if trip < 2:
            return False
        pointers = [p.name for p in self.kernel.params if p.type.is_pointer]
        bound = [id(self.env.get(name)) for name in pointers]
        # a written array bound to two parameters: the slice argument is
        # per name, so it says nothing about the other name's accesses
        if any(bound.count(id(self.env.get(name))) > 1 for name in lift.writes):
            return False
        rank = len(self.lattice_shape)
        values = [
            v for name, v in self.env.items() if name not in pointers
        ] + list(self.tidx.values()) + list(self.bidx.values())
        if any(isinstance(v, np.ndarray) and v.ndim not in (0, rank) for v in values):
            return False

        def grow(value: Value) -> Value:
            if isinstance(value, np.ndarray) and value.ndim:
                return value[..., None]
            return value

        saved = (
            self.env, self.tidx, self.bidx, self._block_axis, self.shared,
            self.lattice_shape, self._all_lanes, self._affine, self._hulls,
        )
        lane = np.arange(trip).reshape((1,) * rank + (trip,))
        shape = self.lattice_shape + (trip,)
        self.lattice_shape = shape
        self._all_lanes = _MaskFacts(
            math.prod(shape), tuple((0, extent) for extent in shape), True, trip
        )
        self._hulls = {}
        self._affine = dict(self._affine)
        self._affine[_LIFT_AXIS] = (rank, 0)
        self.env = {
            name: value if name in pointers else grow(value)
            for name, value in self.env.items()
        }
        var = lift.loop.var
        self.env[var] = np.arange(start, end, step, dtype=np.int64).reshape(lane.shape)
        self._tag_affine(var, self.env[var])
        self.tidx = {axis: grow(v) for axis, v in self.tidx.items()}
        self.bidx = {axis: grow(v) for axis, v in self.bidx.items()}
        if self._block_axis is not None:
            self._block_axis = grow(self._block_axis)
        self.shared = dict(self.shared)
        written: Dict[str, np.ndarray] = {}
        for name in lift.tiles & self.shared.keys():
            tile_shape = self.shared[name].shape + (trip,)
            self.shared[name] = np.zeros(tile_shape, dtype=self.shared[name].dtype)
            written[name] = np.zeros(tile_shape, dtype=bool)
        self._lift = _Lift(trip, lane, written)
        try:
            self._exec_block(lift.loop.body, grow(mask))
        except _LiftHazard:
            raise
        except _BlockHazard as hazard:
            raise _LiftHazard(hazard.array, hazard.kind) from hazard
        except InterpreterError as exc:
            raise _LiftHazard(getattr(exc, "array", None) or "?", "ERR") from exc
        finally:
            self._lift = None
            (
                self.env, self.tidx, self.bidx, self._block_axis, self.shared,
                self.lattice_shape, self._all_lanes, self._affine, self._hulls,
            ) = saved
        return True

    def _exec_while(self, stmt: ast.While, mask: Value) -> None:
        iterations = 0
        while True:
            cond = self._eval(stmt.cond, mask)
            if isinstance(cond, np.ndarray) and cond.ndim > 0:
                raise InterpreterError("thread-dependent while condition unsupported")
            if not bool(cond):
                return
            self._exec_block(stmt.body, mask)
            iterations += 1
            if iterations > 10_000_000:
                raise InterpreterError("while loop exceeded iteration limit")

    def _eval_scalar(self, expr: ast.Expr, what: str) -> Scalar:
        value = self._eval(expr, np.ones((), dtype=bool))
        if isinstance(value, np.ndarray) and value.ndim > 0:
            raise InterpreterError(f"{what} must be thread-invariant")
        if isinstance(value, np.ndarray):
            return value.item()
        return value

    # ------------------------------------------------------------- expressions

    def _eval(self, expr: ast.Expr, mask: Value) -> Value:
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.FloatLit):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.Ident):
            try:
                return self.env[expr.name]
            except KeyError:
                raise InterpreterError(
                    f"undefined name {expr.name!r} in kernel {self.kernel.name!r}"
                ) from None
        if isinstance(expr, ast.Member):
            return self._eval_member(expr)
        if isinstance(expr, ast.Index):
            return self._eval_index(expr, mask)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, mask)
        if isinstance(expr, ast.Unary):
            operand = self._eval(expr.operand, mask)
            if expr.op == "-":
                return -operand
            if expr.op == "!":
                return np.logical_not(operand)
            return operand
        if isinstance(expr, ast.Binary):
            lhs = self._eval(expr.lhs, mask)
            rhs = self._eval(expr.rhs, mask)
            return _BINOPS[expr.op](lhs, rhs)
        if isinstance(expr, ast.Ternary):
            cond = self._eval(expr.cond, mask)
            then = self._eval(expr.then, mask)
            els = self._eval(expr.els, mask)
            if isinstance(cond, np.ndarray) and cond.ndim > 0:
                return np.where(cond, then, els)
            return then if bool(cond) else els
        raise InterpreterError(f"unsupported expression {type(expr).__name__}")

    def _eval_member(self, expr: ast.Member) -> Value:
        if not isinstance(expr.obj, ast.Ident):
            raise InterpreterError("unsupported member access")
        table = {
            "threadIdx": self.tidx,
            "blockIdx": self.bidx,
            "blockDim": self.bdim,
            "gridDim": self.gdim,
        }.get(expr.obj.name)
        if table is None:
            raise InterpreterError(f"unknown builtin {expr.obj.name!r}")
        return table[expr.field_name]

    def _eval_index(self, expr: ast.Index, mask: Value) -> Value:
        name = expr.array_name
        arr, prefix, suffix = self._resolve_access(name, len(expr.indices))
        if self._slicing:
            plan = self._slice_index(
                expr, arr, bool(prefix), bool(suffix), mask, store=False
            )
            if plan is not None:
                index, region, shape = plan
                if suffix:
                    active = _restrict(mask, region) if np.ndim(mask) else mask
                    self._check_staged(
                        name, self._lift.written[name][index], active  # type: ignore[union-attr]
                    )
                if self.counters is not None:
                    self.counters.count_load(
                        name in self.shared,
                        self._active_threads(mask),
                        arr.dtype.itemsize,
                    )
                self._accesses["slice"] += 1
                # a copy, never a view of device memory; lanes whose index
                # is out of range (all inactive) read 0
                out = np.zeros(shape, dtype=arr.dtype)
                out[region] = arr[index]
                return out
        idxs = [self._eval(e, mask) for e in expr.indices]
        return self._finish_load(name, arr, prefix, suffix, idxs, mask)

    def _finish_load(
        self,
        name: str,
        arr: np.ndarray,
        prefix: List[np.ndarray],
        suffix: List[np.ndarray],
        idxs: List[Value],
        mask: Value,
    ) -> Value:
        self._accesses["funnel"] += 1
        idxs = self._validate_indices(name, arr, idxs, mask, offset=len(prefix))
        if self._watch is not None:
            self._watch_access(name, arr, idxs, mask, store=False)
        if self.counters is not None:
            self.counters.count_load(
                name in self.shared, self._active_threads(mask), arr.dtype.itemsize
            )
        full = list(prefix) + list(idxs) + list(suffix)
        if all(not (isinstance(i, np.ndarray) and i.ndim) for i in full):
            return arr[tuple(int(i) for i in full)]
        index = tuple(np.asarray(i) for i in full)
        if suffix:
            self._check_staged(name, self._lift.written[name][index], mask)  # type: ignore[union-attr]
        return arr[index]

    def _eval_call(self, expr: ast.Call, mask: Value) -> Value:
        args = [self._eval(a, mask) for a in expr.args]
        if expr.func in _MATH_FUNCS:
            if len(args) != 1:
                raise InterpreterError(f"{expr.func} expects 1 argument")
            return _MATH_FUNCS[expr.func](args[0])
        if expr.func in _MATH_FUNCS2:
            if len(args) != 2:
                raise InterpreterError(f"{expr.func} expects 2 arguments")
            return _MATH_FUNCS2[expr.func](args[0], args[1])
        raise InterpreterError(f"unknown kernel function {expr.func!r}")


class _ReturnSignal(Exception):
    pass


_MISSING = object()


# ------------------------------------------------------------------ host code
#
# Host code never reads device data — the host ``_eval`` has no ``Index``
# case — so ``main`` first runs dry into a *tape*: allocations,
# ``deviceRandom`` / ``deviceFill`` writes, launches with their bound
# arguments, and the exception that ended the dry run, if one did.  The
# tape is then replayed over device memory.  A paired run replays two
# tapes over two memories that share every array the programs hold equal,
# so a launch both programs make on the same arrays executes once
# (:meth:`HostInterpreter.run_paired`; DESIGN.md §5, "The paired run").


@dataclass(frozen=True, eq=False)
class _ArrayRef:
    """A device array in host code: the allocation that made it."""

    slot: int
    name: str


class _Alloc(NamedTuple):
    slot: int
    name: str
    shape: Tuple[int, ...]
    dtype: type


class _Fill(NamedTuple):
    """``deviceRandom(array, seed)`` (``random``) or ``deviceFill(array, value)``."""

    slot: int
    random: bool
    value: Any


class _Launch(NamedTuple):
    kernel: ast.KernelDef
    grid: Dim3
    block: Dim3
    #: an :class:`_ArrayRef` per array argument, else the scalar
    args: Tuple[Any, ...]


class _HostError(NamedTuple):
    """What ended the dry run; raised where the replay reaches it."""

    error: Exception


_Event = Union[_Alloc, _Fill, _Launch, _HostError]


class _HostRecorder:
    """Dry-runs ``main`` into a tape of :data:`_Event`."""

    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.env: Dict[str, Any] = {}
        self.tape: List[_Event] = []
        self._slots = 0

    def record(self) -> List[_Event]:
        main = self.program.main()
        try:
            self._exec_stmts(main.body.stmts)
        except _ReturnSignal:
            pass
        except Exception as exc:  # noqa: BLE001 - raised again in program order
            self.tape.append(_HostError(exc))
        return self.tape

    def _exec_stmts(self, stmts: Tuple[ast.Stmt, ...]) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt)

    def _exec_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            self._exec_decl(stmt)
        elif isinstance(stmt, ast.Assign):
            if not isinstance(stmt.target, ast.Ident):
                raise InterpreterError("host assignments must target scalars")
            value = self._eval(stmt.value)
            if stmt.op != "=":
                value = _BINOPS[stmt.op[0]](self.env[stmt.target.name], value)
            self.env[stmt.target.name] = value
        elif isinstance(stmt, ast.ExprStmt):
            self._eval(stmt.expr, statement=True)
        elif isinstance(stmt, ast.Launch):
            self.tape.append(
                _Launch(
                    self.program.kernel(stmt.kernel),
                    self._eval_dim3(stmt.grid),
                    self._eval_dim3(stmt.block),
                    tuple(self._eval(a) for a in stmt.args),
                )
            )
        elif isinstance(stmt, ast.If):
            if bool(self._eval(stmt.cond)):
                self._exec_stmts(stmt.then.stmts)
            elif stmt.els is not None:
                self._exec_stmts(stmt.els.stmts)
        elif isinstance(stmt, ast.For):
            start = int(self._eval(stmt.start))
            bound = int(self._eval(stmt.bound))
            step = int(self._eval(stmt.step))
            end = bound + 1 if stmt.cmp == "<=" else bound
            for value in range(start, end, step):
                self.env[stmt.var] = value
                self._exec_stmts(stmt.body.stmts)
        elif isinstance(stmt, ast.Return):
            raise _ReturnSignal()
        elif isinstance(stmt, ast.Block):
            self._exec_stmts(stmt.stmts)
        else:
            raise InterpreterError(
                f"unsupported host statement {type(stmt).__name__}"
            )

    def _exec_decl(self, decl: ast.VarDecl) -> None:
        init = decl.init
        if decl.type.base == "dim3":
            if not isinstance(init, ast.Call) or init.func != "dim3":
                raise InterpreterError(f"dim3 {decl.name} needs a dim3(...) initializer")
            dims = [int(self._eval(a)) for a in init.args]
            while len(dims) < 3:
                dims.append(1)
            self.env[decl.name] = Dim3(*dims[:3])
            return
        if decl.type.is_pointer:
            if not isinstance(init, ast.Call) or not init.func.startswith("cudaMalloc"):
                raise InterpreterError(
                    f"pointer {decl.name} must be initialized with cudaMallocND"
                )
            shape = tuple(int(self._eval(a)) for a in init.args)
            expected = {"cudaMalloc1D": 1, "cudaMalloc2D": 2, "cudaMalloc3D": 3}[
                init.func
            ]
            if len(shape) != expected:
                raise InterpreterError(
                    f"{init.func} expects {expected} extent args, got {len(shape)}"
                )
            dtype = np.float64 if decl.type.base in ("double", "float") else np.int64
            self.tape.append(_Alloc(self._slots, decl.name, shape, dtype))
            self.env[decl.name] = _ArrayRef(self._slots, decl.name)
            self._slots += 1
            return
        value = self._eval(init) if init is not None else 0
        if decl.type.base == "int":
            value = int(value)
        self.env[decl.name] = value

    def _eval_dim3(self, expr: ast.Expr) -> Dim3:
        value = self._eval(expr)
        if isinstance(value, Dim3):
            return value
        if isinstance(value, (int, np.integer)):
            return Dim3(int(value), 1, 1)
        raise InterpreterError("launch configuration must be dim3 or int")

    def _eval(self, expr: ast.Expr, statement: bool = False) -> Any:
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.FloatLit):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.Ident):
            try:
                return self.env[expr.name]
            except KeyError:
                raise InterpreterError(f"undefined host name {expr.name!r}") from None
        if isinstance(expr, ast.Binary):
            return _BINOPS[expr.op](self._operand(expr.lhs), self._operand(expr.rhs))
        if isinstance(expr, ast.Unary):
            value = self._operand(expr.operand)
            return -value if expr.op == "-" else np.logical_not(value)
        if isinstance(expr, ast.Call):
            return self._eval_host_call(expr, statement)
        raise InterpreterError(
            f"unsupported host expression {type(expr).__name__}"
        )

    def _operand(self, expr: ast.Expr) -> Any:
        value = self._eval(expr)
        if isinstance(value, _ArrayRef):
            raise InterpreterError("host code cannot compute with a device array")
        return value

    def _eval_host_call(self, expr: ast.Call, statement: bool) -> Any:
        func = expr.func
        if func == "dim3":
            dims = [int(self._eval(a)) for a in expr.args]
            while len(dims) < 3:
                dims.append(1)
            return Dim3(*dims[:3])
        if func in ("cudaDeviceSynchronize",):
            return 0
        if func == "cudaFree":
            return 0
        if func in ("cudaMemcpyToHost", "cudaMemcpyToDevice"):
            # logical no-op in the simulator: device arrays already live in
            # host-visible numpy storage
            return 0
        if func == "deviceRandom":
            if len(expr.args) != 2:
                raise InterpreterError("deviceRandom(array, seed)")
            arr = self._eval(expr.args[0])
            seed = int(self._eval(expr.args[1]))
            if not isinstance(arr, _ArrayRef):
                raise InterpreterError("deviceRandom target must be a device array")
            self.tape.append(_Fill(arr.slot, True, seed))
            return 0
        if func == "deviceFill":
            arr = self._eval(expr.args[0])
            value = self._eval(expr.args[1])
            if not isinstance(arr, _ArrayRef):
                raise InterpreterError("deviceFill target must be a device array")
            self.tape.append(_Fill(arr.slot, False, value))
            return 0
        if func in ("sqrt", "fabs", "exp"):
            return _MATH_FUNCS[func](self._eval(expr.args[0]))
        if func in ("min", "max"):
            return _MATH_FUNCS2[func](
                self._eval(expr.args[0]), self._eval(expr.args[1])
            )
        raise InterpreterError(f"unknown host function {func!r}")


def _fill(array: np.ndarray, event: _Fill) -> None:
    if event.random:
        array[...] = np.random.default_rng(event.value).random(array.shape)
    else:
        array[...] = event.value


def _written_slots(event: _Launch) -> List[int]:
    """The allocations ``event``'s kernel may store to (a superset)."""
    writes = collect_accesses(event.kernel).may_write
    return [
        arg.slot
        for param, arg in zip(event.kernel.params, event.args)
        if isinstance(arg, _ArrayRef) and param.name in writes
    ]


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and bool(np.array_equal(a.view(np.uint8), b.view(np.uint8)))
    )


def _scalar_key(value: Any) -> Any:
    """Equal only for scalars no kernel can tell apart: same type, same bits."""
    if isinstance(value, float):
        return (type(value), struct.pack("<d", value))
    return (type(value), value)


def _event_keys(tape: List[_Event], kernel_key: Dict[int, Any]) -> List[Any]:
    """One hashable key per event, equal across two tapes where the events
    are the same host action: allocations by (name, how many of that name
    came before), kernels by ``kernel_key`` (``id`` → key), scalars by
    :func:`_scalar_key`.  A :class:`_HostError` never equals anything."""
    seen: Dict[str, int] = {}
    labels: Dict[int, Tuple[str, int]] = {}
    keys: List[Any] = []
    for event in tape:
        if isinstance(event, _Alloc):
            label = labels[event.slot] = (event.name, seen.get(event.name, 0))
            seen[event.name] = label[1] + 1
            keys.append(("alloc", label, event.shape, event.dtype))
        elif isinstance(event, _Fill):
            keys.append(
                ("fill", labels[event.slot], event.random, _scalar_key(event.value))
            )
        elif isinstance(event, _Launch):
            args = tuple(
                labels[a.slot] if isinstance(a, _ArrayRef) else _scalar_key(a)
                for a in event.args
            )
            keys.append(
                ("launch", kernel_key[id(event.kernel)], event.grid, event.block, args)
            )
        else:
            keys.append(("error", id(event)))
    return keys


class _Memory:
    """One program's device memory while its tape replays: an array per
    allocation, possibly the very array its partner in a paired run holds
    for the allocation paired with it."""

    def __init__(self, tape: List[_Event], counted: bool) -> None:
        self.tape = tape
        self.counted = counted
        self.names = {e.slot: e.name for e in tape if isinstance(e, _Alloc)}
        self.slots: Dict[int, np.ndarray] = {}
        self.launches: List[LaunchRecord] = []
        self.partner: Optional[_Memory] = None
        #: slot -> the partner's slot, for the allocations the two programs
        #: made in one aligned step
        self.pairs: Dict[int, int] = {}
        #: paired slots this program wrote on its own since the last
        #: reconciliation, and the kernels it launched on its own
        self.dirty: Set[int] = set()
        self.solo: List[str] = []
        self.error: Optional[InterpreterError] = None

    def own(self, slot: int) -> None:
        """Make ``slot``'s array this program's alone: it is about to be written."""
        partner = self.partner
        if partner is None or slot not in self.pairs:
            return
        if partner.slots.get(self.pairs[slot]) is self.slots[slot]:
            self.slots[slot] = self.slots[slot].copy()
        self.dirty.add(slot)

    def bind(self, event: _Launch) -> List[Value]:
        return [
            self.slots[a.slot] if isinstance(a, _ArrayRef) else a for a in event.args
        ]

    def result(self) -> RunResult:
        arrays: Dict[str, np.ndarray] = {}
        for event in self.tape:
            if isinstance(event, _Alloc) and event.slot in self.slots:
                arrays[event.name] = self.slots[event.slot]
        return RunResult(arrays=arrays, launches=self.launches)


class HostInterpreter:
    """Executes the host side of a CudaLite program (``main``).

    Parameters
    ----------
    program:
        The program to execute.
    detect_races:
        If True, kernel scatters check for write-write races (slower).
    """

    def __init__(
        self,
        program: ast.Program,
        detect_races: bool = False,
        execute_kernels: bool = True,
        block_order: str = "forward",
        block_exec: Optional[str] = None,
        collect_counters: bool = False,
    ) -> None:
        """``block_order`` ('forward' | 'reverse') sets the sequential order
        in which per-block kernel execution visits thread blocks; running a
        program under both orders and comparing outputs exposes inter-block
        races that a single deterministic order would mask.

        ``block_exec`` (one of :data:`BLOCK_EXEC_MODES`) selects the
        execution strategy; ``None`` means :data:`DEFAULT_BLOCK_EXEC`."""
        self.program = program
        self.detect_races = detect_races
        self.execute_kernels = execute_kernels
        self.block_order = block_order
        self.block_exec = DEFAULT_BLOCK_EXEC if block_exec is None else block_exec
        self.collect_counters = collect_counters

    # -------------------------------------------------------------------- run

    def run(self) -> RunResult:
        memory = _Memory(_HostRecorder(self.program).record(), self.collect_counters)
        for event in memory.tape:
            self._step(memory, event)
        return memory.result()

    def run_paired(self, reference: ast.Program) -> RunResult:
        """Interpret ``reference`` and this program together.

        Both tapes are aligned (:class:`difflib.SequenceMatcher` on
        :func:`_event_keys`).  An aligned allocation is one zero array in
        both memories; an aligned launch whose every array argument is the
        same array in both executes once, its one run giving both records.
        Everything else runs in each memory on its own, and a program
        copies a shared array before it writes it.  Where the tapes come
        back into step, every array either program wrote on its own is
        compared by raw bytes, and equal ones are shared again.

        A launch is a deterministic function of its kernel, configuration,
        scalars, argument bytes, ``block_exec`` and ``block_order``, so
        both programs' arrays and this program's records are bitwise what
        two separate runs give; the alignment decides only how much work
        is shared.  Counters are collected for this program only.

        Returns this program's :class:`RunResult` with the reference's as
        ``.reference``.  A failure of the reference — including in a
        shared launch — raises, as ``run_program(reference)`` would.  This
        program's own :class:`InterpreterError` is returned in ``.error``
        (its ``arrays`` then empty) once the reference ran to completion.
        """
        ref = _Memory(_HostRecorder(reference).record(), False)
        new = _Memory(_HostRecorder(self.program).record(), self.collect_counters)
        ref.partner, new.partner = new, ref
        kernels = {e.kernel.name: e.kernel for e in ref.tape if isinstance(e, _Launch)}
        key = {id(k): k.name for k in kernels.values()}
        for event in new.tape:
            if isinstance(event, _Launch) and id(event.kernel) not in key:
                same = kernels.get(event.kernel.name)
                key[id(event.kernel)] = (
                    event.kernel.name if same == event.kernel else ("new", id(event.kernel))
                )
        pair = _PairedReplay(self, ref, new)
        matcher = difflib.SequenceMatcher(
            None, _event_keys(ref.tape, key), _event_keys(new.tape, key), autojunk=False
        )
        for tag, i1, i2, j1, j2 in matcher.get_opcodes():
            if tag == "equal":
                for a, b in zip(ref.tape[i1:i2], new.tape[j1:j2]):
                    pair.step(a, b)
            else:
                for event in ref.tape[i1:i2]:
                    self._step(ref, event)
                for event in new.tape[j1:j2]:
                    pair.step_candidate(event)
            pair.reconcile()
        result = (
            new.result()
            if new.error is None
            else RunResult(launches=new.launches, error=new.error)
        )
        result.reference = ref.result()
        result.shared_launches = pair.shared
        # a reordered launch makes a stretch differ only until the other
        # program catches up: no divergence if every array ended shared
        ended_equal = len(ref.slots) == len(new.slots) and all(
            t in new.pairs and ref.slots[new.pairs[t]] is array
            for t, array in new.slots.items()
        )
        result.first_divergence = None if ended_equal else pair.divergence
        return result

    def _step(self, memory: _Memory, event: _Event) -> None:
        """Replay one event in ``memory`` alone."""
        if isinstance(event, _Alloc):
            memory.slots[event.slot] = np.zeros(event.shape, dtype=event.dtype)
        elif isinstance(event, _Fill):
            memory.own(event.slot)
            _fill(memory.slots[event.slot], event)
        elif isinstance(event, _Launch):
            record = self._record(memory, event)
            if self.execute_kernels:
                for slot in _written_slots(event):
                    memory.own(slot)
                memory.solo.append(event.kernel.name)
                self._execute(event, memory.bind(event), (record,))
        else:
            raise event.error

    def _record(self, memory: _Memory, event: _Launch) -> LaunchRecord:
        name = event.kernel.name
        record = LaunchRecord(
            name,
            event.grid,
            event.block,
            tuple(a.name for a in event.args if isinstance(a, _ArrayRef)),
            tuple(a for a in event.args if not isinstance(a, _ArrayRef)),
            counters=(
                KernelCounters(kernel=name)
                if memory.counted and self.execute_kernels
                else None
            ),
        )
        memory.launches.append(record)
        return record

    def _execute(
        self, event: _Launch, args: List[Value], records: Tuple[LaunchRecord, ...]
    ) -> None:
        """Run one launch; every record in ``records`` gets its outcome,
        the last one also its counters."""
        executor = _KernelExec(
            event.kernel, event.grid, event.block, args, self.detect_races,
            self.block_order, self.block_exec, counters=records[-1].counters,
        )
        try:
            with span(f"interp:{event.kernel.name}", grid=event.grid.count):
                executor.run()
        except _ReturnSignal:
            pass
        finally:
            for record in records:
                record.executor = executor.executor
                record.hazard_replay = executor.hazard_replay
                record.order_sensitive = executor.order_sensitive


class _PairedReplay:
    """The state of :meth:`HostInterpreter.run_paired` between events."""

    def __init__(self, host: HostInterpreter, ref: _Memory, new: _Memory) -> None:
        self.host = host
        self.ref = ref
        self.new = new
        #: launches executed once for both programs
        self.shared = 0
        #: the first reconciliation that found arrays differing
        self.divergence: Optional[Dict[str, List[str]]] = None

    def step(self, a: _Event, b: _Event) -> None:
        """Replay two aligned events."""
        ref, new = self.ref, self.new
        if new.error is not None:
            self.host._step(ref, a)
            return
        self.reconcile()
        if isinstance(a, _Alloc):
            ref.slots[a.slot] = new.slots[b.slot] = np.zeros(a.shape, dtype=a.dtype)
            ref.pairs[a.slot], new.pairs[b.slot] = b.slot, a.slot
        elif isinstance(a, _Fill) and ref.slots[a.slot] is new.slots[b.slot]:
            _fill(ref.slots[a.slot], a)
        elif (
            isinstance(a, _Launch)
            and self.host.execute_kernels
            and all(
                ref.slots[x.slot] is new.slots[y.slot]
                for x, y in zip(a.args, b.args)
                if isinstance(x, _ArrayRef)
            )
        ):
            records = (self.host._record(ref, a), self.host._record(new, b))
            self.host._execute(a, ref.bind(a), records)
            self.shared += 1
        else:
            self.host._step(ref, a)
            self.step_candidate(b)

    def step_candidate(self, event: _Event) -> None:
        """Replay one event of the candidate alone; its failure ends its
        replay, not the reference's."""
        new = self.new
        if new.error is not None:
            return
        try:
            self.host._step(new, event)
        except InterpreterError as exc:
            new.error = exc
            self.ref.partner = new.partner = None

    def reconcile(self) -> None:
        """Share again the arrays the programs wrote on their own and hold
        byte-equal; the first time some differ, remember where."""
        ref, new = self.ref, self.new
        pairs = sorted(
            {(s, ref.pairs[s]) for s in ref.dirty}
            | {(new.pairs[t], t) for t in new.dirty}
        )
        differ = []
        if ref.partner is not None:
            for r, n in pairs:
                a, b = ref.slots[r], new.slots[n]
                if a is b:
                    continue
                if _same_bytes(a, b):
                    new.slots[n] = a
                else:
                    differ.append(ref.names[r])
        if differ and self.divergence is None:
            self.divergence = {
                "original": ref.solo, "transformed": new.solo, "arrays": differ,
            }
        ref.dirty.clear()
        new.dirty.clear()
        ref.solo, new.solo = [], []


def launch_kernel(
    kernel: ast.KernelDef,
    grid: Dim3,
    block: Dim3,
    args: List[Value],
    *,
    detect_races: bool = False,
    block_order: str = "forward",
    block_exec: Optional[str] = None,
    counters: Optional[KernelCounters] = None,
) -> None:
    """Execute a single kernel launch against caller-provided arguments.

    Device arrays are passed (and mutated) in place as numpy arrays in
    ``args``, in kernel-parameter order.  This is the entry point for the
    per-group verification gate, which replays individual kernels outside
    any host program.  Pass a :class:`KernelCounters` to have the launch's
    memory/sync/divergence events tallied into it.  ``block_exec`` is as
    for :class:`HostInterpreter`.
    """
    executor = _KernelExec(
        kernel,
        grid,
        block,
        list(args),
        detect_races,
        block_order,
        DEFAULT_BLOCK_EXEC if block_exec is None else block_exec,
        counters=counters,
    )
    try:
        executor.run()
    except _ReturnSignal:
        pass


def run_program(
    program: ast.Program,
    detect_races: bool = False,
    block_order: str = "forward",
    block_exec: Optional[str] = None,
    collect_counters: bool = False,
    reference: Optional[ast.Program] = None,
) -> RunResult:
    """Execute ``program`` on the simulator and return final device arrays.

    With a ``reference`` the two programs are interpreted together and
    the launches they share execute once (:meth:`HostInterpreter.run_paired`):
    the result is ``program``'s, with ``reference``'s as ``.reference``."""
    host = HostInterpreter(
        program,
        detect_races=detect_races,
        block_order=block_order,
        block_exec=block_exec,
        collect_counters=collect_counters,
    )
    return host.run() if reference is None else host.run_paired(reference)


def trace_launches(program: ast.Program) -> RunResult:
    """Dry-run the host code: record launches without executing kernels.

    Used by the metadata gatherer, which needs launch configurations and
    actual argument bindings but not the numerical results.
    """
    return HostInterpreter(program, execute_kernels=False).run()


def differing_cells(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per cell, whether two arrays of one shape and dtype hold different
    bits.  The cells are compared as unsigned integers of their width
    (views, nothing is copied), so NaN equals NaN only with the same bits
    and ``-0.0`` differs from ``0.0`` (DESIGN.md §5, "What equal means")."""
    unsigned = f"u{a.dtype.itemsize}"
    return a.view(unsigned) != b.view(unsigned)


def outputs_equal(a: RunResult, b: RunResult) -> bool:
    """Whether two runs left equal device arrays (the paper's verification
    step): the same names, shapes and dtypes, and no
    :func:`differing_cells`."""
    if set(a.arrays) != set(b.arrays):
        return False
    for name, x in a.arrays.items():
        y = b.arrays[name]
        if x is y:
            continue
        if x.shape != y.shape or x.dtype != y.dtype or differing_cells(x, y).any():
            return False
    return True

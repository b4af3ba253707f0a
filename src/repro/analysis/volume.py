"""Data-volume and FLOP estimation for kernel launches.

Bridges static analysis and the performance model: given a kernel's access
summary and one concrete launch (grid/block plus actual scalar arguments),
estimate

* the active iteration domain (thread guards × sequential loop trips),
* unique elements touched per array (→ off-chip traffic), and
* total floating-point operations.

Guards of the canonical stencil form (``i >= 1 && i < nx - 1``) are
evaluated against the launch's scalar environment; anything unrecognized
falls back conservatively to the full thread lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..cudalite import ast_nodes as ast
from ..errors import AnalysisError
from .accesses import KernelAccesses, collect_accesses

Number = float


def eval_scalar_expr(expr: ast.Expr, env: Mapping[str, Number]) -> Optional[Number]:
    """Evaluate an expression over scalar parameters; None if not constant."""
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.FloatLit):
        return expr.value
    if isinstance(expr, ast.Ident):
        value = env.get(expr.name)
        return value if isinstance(value, (int, float)) else None
    if isinstance(expr, ast.Unary) and expr.op == "-":
        value = eval_scalar_expr(expr.operand, env)
        return None if value is None else -value
    if isinstance(expr, ast.Binary):
        lhs = eval_scalar_expr(expr.lhs, env)
        rhs = eval_scalar_expr(expr.rhs, env)
        if lhs is None or rhs is None:
            return None
        try:
            if expr.op == "+":
                return lhs + rhs
            if expr.op == "-":
                return lhs - rhs
            if expr.op == "*":
                return lhs * rhs
            if expr.op == "/":
                if rhs == 0:
                    return None
                if isinstance(lhs, int) and isinstance(rhs, int):
                    return int(lhs / rhs)
                return lhs / rhs
        except (TypeError, ZeroDivisionError):  # pragma: no cover - defensive
            return None
    return None


@dataclass
class AxisBounds:
    """Half-open active range of one thread-mapped index variable."""

    lo: int
    hi: int

    @property
    def extent(self) -> int:
        return max(0, self.hi - self.lo)


def _decompose_conjunction(expr: ast.Expr) -> List[ast.Expr]:
    if isinstance(expr, ast.Binary) and expr.op == "&&":
        return _decompose_conjunction(expr.lhs) + _decompose_conjunction(expr.rhs)
    return [expr]


def extract_guard_bounds(
    kernel: ast.KernelDef,
    index_vars: Mapping[str, str],
    env: Mapping[str, Number],
    lattice: Mapping[str, int],
) -> Dict[str, AxisBounds]:
    """Derive per-index-variable active ranges from the kernel's top guards.

    Walks conditions of ``if`` statements that dominate the kernel body
    (i.e. ifs at statement level, not inside loops) and intersects the
    recognized comparisons.  ``lattice`` maps each axis variable to its full
    thread extent.
    """
    bounds = {var: AxisBounds(0, lattice.get(var, 1)) for var in index_vars}

    def apply(cond: ast.Expr) -> None:
        for atom in _decompose_conjunction(cond):
            if not isinstance(atom, ast.Binary):
                continue
            lhs, rhs, op = atom.lhs, atom.rhs, atom.op
            var: Optional[str] = None
            value: Optional[Number] = None
            flipped = False
            if isinstance(lhs, ast.Ident) and lhs.name in bounds:
                var = lhs.name
                value = eval_scalar_expr(rhs, env)
            elif isinstance(rhs, ast.Ident) and rhs.name in bounds:
                var = rhs.name
                value = eval_scalar_expr(lhs, env)
                flipped = True
            if var is None or value is None:
                continue
            value = int(value)
            b = bounds[var]
            effective = {
                ("<", False): ("hi", value),
                ("<=", False): ("hi", value + 1),
                (">", False): ("lo", value + 1),
                (">=", False): ("lo", value),
                ("<", True): ("lo", value + 1),
                ("<=", True): ("lo", value),
                (">", True): ("hi", value),
                (">=", True): ("hi", value + 1),
                ("==", False): ("eq", value),
                ("==", True): ("eq", value),
            }.get((op, flipped))
            if effective is None:
                continue
            kind, v = effective
            if kind == "hi":
                b.hi = min(b.hi, v)
            elif kind == "lo":
                b.lo = max(b.lo, v)
            else:  # equality pins the axis to one plane
                b.lo = max(b.lo, v)
                b.hi = min(b.hi, v + 1)

    def visit(stmts: Iterable[ast.Stmt]) -> None:
        items = list(stmts)
        # A guard dominating the whole body: single if wrapping everything.
        non_decl = [s for s in items if not isinstance(s, ast.VarDecl)]
        if len(non_decl) == 1 and isinstance(non_decl[0], ast.If) and non_decl[0].els is None:
            guard = non_decl[0]
            apply(guard.cond)
            visit(guard.then.stmts)

    visit(kernel.body.stmts)
    return bounds


@dataclass
class LaunchVolume:
    """Estimated data volume and work of one kernel launch."""

    kernel_name: str
    #: Active threads (product of guarded axis extents).
    active_threads: int
    #: Total threads launched.
    launched_threads: int
    #: Unique grid points touched per array (incl. sequential loops).
    points_per_array: Dict[str, int] = field(default_factory=dict)
    #: Arrays read / written (global-memory footprint).
    arrays_read: Set[str] = field(default_factory=set)
    arrays_written: Set[str] = field(default_factory=set)
    #: Total floating-point operations.
    flops: float = 0.0
    #: Elementsize in bytes (double precision throughout the evaluation).
    itemsize: int = 8

    def bytes_read(self, redundancy: Mapping[str, float] = ()) -> float:
        factors = dict(redundancy) if redundancy else {}
        return sum(
            self.points_per_array.get(a, 0) * self.itemsize * factors.get(a, 1.0)
            for a in self.arrays_read
        )

    def bytes_written(self) -> float:
        return sum(
            self.points_per_array.get(a, 0) * self.itemsize
            for a in self.arrays_written
        )


def _loop_trip(
    loop_var: str,
    acc: KernelAccesses,
    env: Mapping[str, Number],
) -> int:
    for loop in acc.loops:
        if loop.var != loop_var:
            continue
        start = eval_scalar_expr(loop.start, env)
        bound = eval_scalar_expr(loop.bound, env)
        step = eval_scalar_expr(loop.step, env)
        if start is None or bound is None or not step:
            return 1
        end = bound + 1 if loop.cmp == "<=" else bound
        return max(0, -(-(int(end) - int(start)) // int(step)))
    return 1


def estimate_volume(
    kernel: ast.KernelDef,
    grid: Tuple[int, int, int],
    block: Tuple[int, int, int],
    scalar_env: Mapping[str, Number],
    accesses: Optional[KernelAccesses] = None,
) -> LaunchVolume:
    """Estimate the launch's active domain, per-array footprint and FLOPs."""
    acc = accesses if accesses is not None else collect_accesses(kernel)
    extents = {
        "x": grid[0] * block[0],
        "y": grid[1] * block[1],
        "z": grid[2] * block[2],
    }
    lattice = {var: extents[axis] for var, axis in acc.index_vars.items()}
    bounds = extract_guard_bounds(kernel, acc.index_vars, scalar_env, lattice)

    # Collapse aliases: several variables can map to one axis; the axis is
    # constrained by the intersection of its variables' bounds.
    axis_extent: Dict[str, int] = dict(extents)
    for var, axis in acc.index_vars.items():
        axis_extent[axis] = min(axis_extent[axis], bounds[var].extent)
    active_threads = max(
        0, axis_extent.get("x", 1) * axis_extent.get("y", 1) * axis_extent.get("z", 1)
    )
    launched = extents["x"] * extents["y"] * extents["z"]

    points_per_array: Dict[str, int] = {}
    flops = 0.0
    for stmt in acc.statements:
        trips = 1
        for loop_var in stmt.loop_context:
            trips *= _loop_trip(loop_var, acc, scalar_env)
        stmt_points = active_threads * trips
        flops += stmt.flops * stmt_points
        for name in stmt.arrays_read | stmt.arrays_written:
            points_per_array[name] = max(points_per_array.get(name, 0), stmt_points)

    arrays_read = acc.arrays_read
    arrays_written = acc.arrays_written
    # Restrict to global arrays (pointer params); shared tiles are excluded
    pointer_params = {p.name for p in kernel.pointer_params()}
    return LaunchVolume(
        kernel_name=kernel.name,
        active_threads=active_threads,
        launched_threads=launched,
        points_per_array={
            k: v for k, v in points_per_array.items() if k in pointer_params
        },
        arrays_read=arrays_read & pointer_params,
        arrays_written=arrays_written & pointer_params,
        flops=flops,
    )


def bind_scalars(
    kernel: ast.KernelDef, scalar_args: Tuple
) -> Dict[str, Number]:
    """Map the kernel's scalar parameter names to actual launch values."""
    names = [p.name for p in kernel.scalar_params()]
    if len(names) != len(scalar_args):
        raise AnalysisError(
            f"kernel {kernel.name!r}: {len(names)} scalar params but "
            f"{len(scalar_args)} scalar args recorded"
        )
    return dict(zip(names, scalar_args))

"""Array-access analysis for CudaLite kernels.

This is the static-analysis half of the paper's metadata-gathering stage:
it recovers, for each kernel,

* the *global index variables* (e.g. ``int i = blockIdx.x*blockDim.x +
  threadIdx.x``) and which CUDA axis each maps to,
* the sequential loop variables and their bounds,
* for every device array: the set of read and written offsets relative to
  the index variables (the stencil's footprint),
* per-statement read/write sets (consumed by the fission dependency
  analysis),
* floating-point operation counts per statement and per array, and
* what the interpreter dispatches on: the ``var ± const`` terms of every
  subscript, the ``__shared__`` declarations, whether every bound is
  thread-invariant, and the loops whose iterations may run in any order.

:func:`collect_accesses` builds this summary once per kernel object; every
consumer of a kernel's text reads it instead of walking the kernel again.

Accesses whose subscripts are not of the affine ``var ± const`` form are
flagged *irregular*; the paper's Limitations section excludes such kernels
from transformation and so do we (they pass through as no-fusion kernels).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..cudalite import ast_nodes as ast
from ..observability.metrics import get_registry
from ..observability.tracing import span

#: An index term: (base variable name or None for constant, constant offset).
IndexTerm = Tuple[Optional[str], int]

#: Sentinel base for subscripts that are not affine in a single variable.
IRREGULAR = "<irregular>"


def _match_global_index(expr: ast.Expr) -> Optional[str]:
    """Return the CUDA axis if ``expr`` is ``blockIdx.a*blockDim.a + threadIdx.a``.

    All commutative arrangements are recognized, as is a bare
    ``threadIdx.a`` (single-block kernels).
    """

    def axis_of(node: ast.Expr, names: Tuple[str, ...]) -> Optional[str]:
        if (
            isinstance(node, ast.Member)
            and isinstance(node.obj, ast.Ident)
            and node.obj.name in names
        ):
            return node.field_name
        return None

    if isinstance(expr, ast.Member):
        return axis_of(expr, ("threadIdx",))
    if not (isinstance(expr, ast.Binary) and expr.op == "+"):
        return None
    sides = (expr.lhs, expr.rhs)
    for tid_side, prod_side in (sides, sides[::-1]):
        tid_axis = axis_of(tid_side, ("threadIdx",))
        if tid_axis is None:
            continue
        if not (isinstance(prod_side, ast.Binary) and prod_side.op == "*"):
            continue
        factors = (prod_side.lhs, prod_side.rhs)
        for a, b in (factors, factors[::-1]):
            bid = axis_of(a, ("blockIdx",))
            bdim = axis_of(b, ("blockDim",))
            if bid is not None and bdim is not None and bid == bdim == tid_axis:
                return tid_axis
    return None


def _statements(stmt: ast.Stmt) -> Iterator[ast.Stmt]:
    """``stmt`` and every statement nested in it, in preorder.

    Expressions are not entered (no statement lives inside one), which
    is most of a kernel body's nodes.
    """
    yield stmt
    for child in stmt.children():
        if isinstance(child, ast.Stmt):
            yield from _statements(child)


def find_global_index_vars(kernel: ast.KernelDef) -> Dict[str, str]:
    """Map local variable names to the CUDA axis they index (``x``/``y``/``z``).

    Handles one level of aliasing (``int i = tx;`` where ``tx`` is itself a
    global index variable).
    """
    result: Dict[str, str] = {}
    for node in _statements(kernel.body):
        if isinstance(node, ast.VarDecl) and node.init is not None:
            axis = _match_global_index(node.init)
            if axis is not None:
                result[node.name] = axis
            elif isinstance(node.init, ast.Ident) and node.init.name in result:
                result[node.name] = result[node.init.name]
    return result


@dataclass(frozen=True)
class LoopInfo:
    """A sequential loop inside a kernel."""

    var: str
    start: ast.Expr
    cmp: str
    bound: ast.Expr
    step: ast.Expr
    depth: int


def find_loops(kernel: ast.KernelDef) -> List[LoopInfo]:
    """All counted loops in the kernel body with their nesting depth."""
    loops: List[LoopInfo] = []

    def visit(stmt: ast.Stmt, depth: int) -> None:
        if isinstance(stmt, ast.For):
            loops.append(
                LoopInfo(stmt.var, stmt.start, stmt.cmp, stmt.bound, stmt.step, depth)
            )
            for inner in stmt.body.stmts:
                visit(inner, depth + 1)
        elif isinstance(stmt, ast.If):
            for inner in stmt.then.stmts:
                visit(inner, depth)
            if stmt.els is not None:
                for inner in stmt.els.stmts:
                    visit(inner, depth)
        elif isinstance(stmt, ast.Block):
            for inner in stmt.stmts:
                visit(inner, depth)

    for stmt in kernel.body.stmts:
        visit(stmt, 0)
    return loops


def max_loop_depth(kernel: ast.KernelDef) -> int:
    """Deepest loop nesting in the kernel (0 = no loops)."""
    loops = find_loops(kernel)
    return max((l.depth + 1 for l in loops), default=0)


def linear_index_term(expr: ast.Expr) -> IndexTerm:
    """Decompose a subscript into ``(base_var, offset)``.

    Recognized forms: ``c``, ``v``, ``v + c``, ``v - c``, ``c + v``.
    Anything else returns ``(IRREGULAR, 0)``.
    """
    if isinstance(expr, ast.IntLit):
        return (None, expr.value)
    if isinstance(expr, ast.Ident):
        return (expr.name, 0)
    if isinstance(expr, ast.Binary) and expr.op in ("+", "-"):
        lhs, rhs = expr.lhs, expr.rhs
        if isinstance(lhs, ast.Ident) and isinstance(rhs, ast.IntLit):
            sign = 1 if expr.op == "+" else -1
            return (lhs.name, sign * rhs.value)
        if expr.op == "+" and isinstance(lhs, ast.IntLit) and isinstance(rhs, ast.Ident):
            return (rhs.name, lhs.value)
    return (IRREGULAR, 0)


@dataclass(frozen=True)
class ArrayAccessInfo:
    """Read/write footprint of one array inside one kernel."""

    name: str
    #: Each access is a tuple of per-dimension IndexTerms.
    reads: FrozenSet[Tuple[IndexTerm, ...]] = frozenset()
    writes: FrozenSet[Tuple[IndexTerm, ...]] = frozenset()
    irregular: bool = False

    @property
    def is_read(self) -> bool:
        return bool(self.reads)

    @property
    def is_written(self) -> bool:
        return bool(self.writes)

    def read_offsets(self, axis_vars: Sequence[str]) -> Set[Tuple[int, ...]]:
        """Constant offsets of reads along the given index variables.

        Accesses whose base variable along a dimension is not in
        ``axis_vars`` contribute offset 0 along that dimension.
        """
        offsets: Set[Tuple[int, ...]] = set()
        for access in self.reads:
            offsets.add(
                tuple(
                    term[1] if term[0] in axis_vars or term[0] is None else 0
                    for term in access
                )
            )
        return offsets

    def halo_radius(self, axis_vars: Sequence[str]) -> int:
        """Maximum absolute read offset along thread-mapped dimensions."""
        radius = 0
        for access in self.reads:
            for term in access:
                if term[0] in axis_vars:
                    radius = max(radius, abs(term[1]))
        return radius


@dataclass(frozen=True)
class StatementAccess:
    """Read/write sets of one executable statement (assignments and
    initialized declarations)."""

    index: int
    stmt: ast.Stmt
    arrays_read: FrozenSet[str]
    arrays_written: FrozenSet[str]
    scalars_read: FrozenSet[str]
    scalars_written: FrozenSet[str]
    flops: int
    #: Loop variables of enclosing loops (innermost last).
    loop_context: Tuple[str, ...]
    #: Guard depth (number of enclosing ifs).
    guard_depth: int


@dataclass(frozen=True)
class KernelAccesses:
    """Complete access summary for a kernel: the search, fission, fusion,
    the DDG, the profiler and the interpreter's dispatch all read it.

    Read-only: :func:`collect_accesses` hands the same object to every
    caller for as long as the kernel lives.
    """

    kernel_name: str
    index_vars: Mapping[str, str]
    arrays: Mapping[str, ArrayAccessInfo]
    statements: Tuple[StatementAccess, ...]
    loops: Tuple[LoopInfo, ...]
    uses_shared: bool
    has_irregular: bool
    #: the ``__shared__`` declarations, in body order
    shared_decls: Tuple[ast.VarDecl, ...]
    #: every construct the batched lattice must scalarize — loop bounds,
    #: while conditions, shared extents — is statically block-invariant
    #: (literals, scalar parameters, blockDim/gridDim)
    uniform_bounds: bool
    #: pointer parameters some subscript reads / stores through, whatever
    #: a ``__shared__`` tile of the same name shadows (a superset of
    #: :attr:`arrays_read` / :attr:`arrays_written`)
    reads: FrozenSet[str]
    writes: FrozenSet[str]
    #: parameters a launch may store through: the ones stores name, or
    #: every parameter when a store names a local that may alias one
    may_write: FrozenSet[str]
    #: id(Index node) -> its subscripts as ``var ± const`` terms, for every
    #: node (tiles and locals included) where each subscript has that
    #: form; the nodes live as long as the kernel, so the ids are stable
    subscripts: Mapping[int, Tuple[IndexTerm, ...]]
    #: id(For node) -> its :class:`ParallelLoop`, for every loop whose
    #: iterations may run in any order
    lifts: Mapping[int, ParallelLoop]

    @property
    def arrays_read(self) -> Set[str]:
        return {a.name for a in self.arrays.values() if a.is_read}

    @property
    def arrays_written(self) -> Set[str]:
        return {a.name for a in self.arrays.values() if a.is_written}

    @property
    def total_flops_per_point(self) -> int:
        return sum(s.flops for s in self.statements)

    def per_array_flops(self) -> Dict[str, int]:
        """FLOPs of the statements touching each array (ops metadata field)."""
        result: Dict[str, int] = {name: 0 for name in self.arrays}
        for stmt in self.statements:
            touched = stmt.arrays_read | stmt.arrays_written
            for name in touched:
                if name in result:
                    result[name] += stmt.flops
        return result


#: floating-point operations of one call of each math intrinsic
#: (transcendentals are several hardware ops); any other call costs 2
_INTRINSIC_FLOPS = {
    "sqrt": 4,
    "exp": 8,
    "log": 8,
    "sin": 8,
    "cos": 8,
    "tan": 10,
    "pow": 10,
    "fabs": 1,
    "abs": 1,
    "min": 1,
    "max": 1,
    "fmin": 1,
    "fmax": 1,
    "floor": 1,
    "ceil": 1,
}


def _expr_names(expr: ast.Expr) -> Tuple[Set[str], Set[str]]:
    """Return (array names indexed, scalar names referenced) in an expression."""
    arrays: Set[str] = set()
    scalars: Set[str] = set()

    def visit(node: ast.Expr) -> None:
        kind = type(node)
        if kind is ast.Ident:
            scalars.add(node.name)
        elif kind is ast.Binary:
            visit(node.lhs)
            visit(node.rhs)
        elif kind is ast.Index:
            if node.array_name is not None:
                arrays.add(node.array_name)
            for sub in node.indices:
                visit(sub)
        elif kind is ast.Unary:
            visit(node.operand)
        elif kind is ast.Call:
            for arg in node.args:
                visit(arg)
        elif kind is ast.Ternary:
            visit(node.cond)
            visit(node.then)
            visit(node.els)
        # a Member is thread geometry, not data

    visit(expr)
    return arrays, scalars


#: id(KernelDef) -> its summary; entries leave with their kernel
#: (KernelDef hashes by content, which would cost the walk this memo
#: avoids)
_SUMMARIES: Dict[int, KernelAccesses] = {}


def collect_accesses(kernel: ast.KernelDef) -> KernelAccesses:
    """The access summary of ``kernel``, built once per kernel object
    (each build is one ``analysis:summarize`` span)."""
    summary = _SUMMARIES.get(id(kernel))
    if summary is None:
        with span("analysis:summarize", kernel=kernel.name):
            summary = _SUMMARIES[id(kernel)] = _summarize(kernel)
        get_registry().inc("kernel_summaries_total")
        weakref.finalize(kernel, _SUMMARIES.pop, id(kernel), None)
    return summary


def _summarize(kernel: ast.KernelDef) -> KernelAccesses:
    index_vars = find_global_index_vars(kernel)
    params = set(kernel.param_names())
    pointer_params = {p.name for p in kernel.pointer_params()}
    scalar_params = params - pointer_params
    shared_names: Set[str] = set()
    shared_decls: List[ast.VarDecl] = []
    #: name -> (reads, writes), in first-access order
    footprints: Dict[str, Tuple[Set[Tuple[IndexTerm, ...]], ...]] = {}
    irregular_arrays: Set[str] = set()
    statements: List[StatementAccess] = []
    loops = find_loops(kernel)
    subscripts: Dict[int, Tuple[IndexTerm, ...]] = {}
    reads: Set[str] = set()
    #: the names every store subscripts (None: not a plain name)
    stored: Set[Optional[str]] = set()
    uniform_bounds = True
    counter = 0
    #: a summary lives as long as its kernel and a frozenset is 216 B:
    #: keep one per distinct name set (the empty one, mostly)
    interned: Dict[FrozenSet[str], FrozenSet[str]] = {}

    def names(values: Set[str]) -> FrozenSet[str]:
        key = frozenset(values)
        return interned.setdefault(key, key)

    def uniform(*exprs: ast.Expr) -> bool:
        return all(thread_invariant(e, scalar_params) for e in exprs)

    def record_access(node: ast.Index, is_write: bool) -> None:
        terms = tuple(linear_index_term(i) for i in node.indices)
        regular = all(base != IRREGULAR for base, _ in terms)
        if regular:
            subscripts[id(node)] = terms
        name = node.array_name
        if is_write:
            stored.add(name)
        elif name in pointer_params:
            reads.add(name)
        if name not in pointer_params or name in shared_names:
            return  # shared tiles are staging, not global footprint
        if not regular:
            irregular_arrays.add(name)
        read_terms, write_terms = footprints.setdefault(name, (set(), set()))
        (write_terms if is_write else read_terms).add(terms)

    def scan_expr(expr: ast.Expr, is_store: bool = False) -> int:
        """Record the accesses in ``expr``; return its floating-point
        operations (arithmetic operators count 1, intrinsics their
        :data:`_INTRINSIC_FLOPS`)."""
        kind = type(expr)
        if kind is ast.Binary:
            flops = expr.op in ("+", "-", "*", "/")
            return flops + scan_expr(expr.lhs) + scan_expr(expr.rhs)
        if kind is ast.Index:
            record_access(expr, is_store)
            flops = scan_expr(expr.base)
            for sub in expr.indices:
                flops += scan_expr(sub)
            return flops
        if kind is ast.Call:
            flops = _INTRINSIC_FLOPS.get(expr.func, 2)
            for arg in expr.args:
                flops += scan_expr(arg)
            return flops
        if kind is ast.Member:
            return scan_expr(expr.obj)
        if kind is ast.Unary:
            return (expr.op == "-") + scan_expr(expr.operand)
        if kind is ast.Ternary:
            return (
                1 + scan_expr(expr.cond) + scan_expr(expr.then) + scan_expr(expr.els)
            )
        return 0

    def visit(stmt: ast.Stmt, loop_ctx: Tuple[str, ...], guard_depth: int) -> None:
        nonlocal counter, uniform_bounds
        if isinstance(stmt, ast.VarDecl):
            if stmt.is_shared:
                shared_names.add(stmt.name)
                shared_decls.append(stmt)
                uniform_bounds &= uniform(*stmt.array_dims)
            for dim in stmt.array_dims:
                scan_expr(dim)
            if stmt.init is not None:
                init_flops = scan_expr(stmt.init)
                # an initialized scalar declaration is a defining statement:
                # its dataflow (array -> scalar -> array) must be visible to
                # the fission separability analysis
                init_arrays, init_scalars = _expr_names(stmt.init)
                global_arrays = pointer_params | shared_names
                statements.append(
                    StatementAccess(
                        index=counter,
                        stmt=stmt,
                        arrays_read=names(init_arrays & global_arrays),
                        arrays_written=names(set()),
                        scalars_read=names(init_scalars - global_arrays),
                        scalars_written=names({stmt.name}),
                        # integer index math (pure-scalar inits) is
                        # address arithmetic, not floating-point work
                        flops=init_flops if init_arrays else 0,
                        loop_context=loop_ctx,
                        guard_depth=guard_depth,
                    )
                )
                counter += 1
        elif isinstance(stmt, ast.Assign):
            scan_expr(stmt.target, is_store=True)
            if stmt.op != "=":
                # compound assignment also reads the target
                scan_expr(stmt.target, is_store=False)
            flops = scan_expr(stmt.value)
            arrays_r, scalars_r = _expr_names(stmt.value)
            arrays_w: Set[str] = set()
            scalars_w: Set[str] = set()
            if isinstance(stmt.target, ast.Index):
                if stmt.target.array_name is not None:
                    arrays_w.add(stmt.target.array_name)
                # subscript expressions are reads
                for sub in stmt.target.indices:
                    a, s = _expr_names(sub)
                    arrays_r |= a
                    scalars_r |= s
            elif isinstance(stmt.target, ast.Ident):
                scalars_w.add(stmt.target.name)
            if stmt.op != "=":
                # compound assignment also reads the written location
                arrays_r |= arrays_w
                scalars_r |= scalars_w
            global_arrays = pointer_params | shared_names
            statements.append(
                StatementAccess(
                    index=counter,
                    stmt=stmt,
                    arrays_read=names(arrays_r & global_arrays),
                    arrays_written=names(arrays_w & global_arrays),
                    scalars_read=names(scalars_r - global_arrays),
                    scalars_written=names(scalars_w - global_arrays),
                    flops=flops,
                    loop_context=loop_ctx,
                    guard_depth=guard_depth,
                )
            )
            counter += 1
        elif isinstance(stmt, ast.If):
            scan_expr(stmt.cond)
            for inner in stmt.then.stmts:
                visit(inner, loop_ctx, guard_depth + 1)
            if stmt.els is not None:
                for inner in stmt.els.stmts:
                    visit(inner, loop_ctx, guard_depth + 1)
        elif isinstance(stmt, ast.For):
            uniform_bounds &= uniform(stmt.start, stmt.bound, stmt.step)
            scan_expr(stmt.start)
            scan_expr(stmt.bound)
            scan_expr(stmt.step)
            for inner in stmt.body.stmts:
                visit(inner, loop_ctx + (stmt.var,), guard_depth)
        elif isinstance(stmt, ast.While):
            uniform_bounds &= uniform(stmt.cond)
            scan_expr(stmt.cond)
            for inner in stmt.body.stmts:
                visit(inner, loop_ctx, guard_depth)
        elif isinstance(stmt, ast.Block):
            for inner in stmt.stmts:
                visit(inner, loop_ctx, guard_depth)
        elif isinstance(stmt, ast.ExprStmt):
            scan_expr(stmt.expr)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            scan_expr(stmt.value)

    for stmt in kernel.body.stmts:
        visit(stmt, (), 0)

    arrays = {
        name: ArrayAccessInfo(
            name,
            frozenset(read_terms),
            frozenset(write_terms),
            name in irregular_arrays,
        )
        for name, (read_terms, write_terms) in footprints.items()
    }
    tiles = {decl.name for decl in shared_decls}
    return KernelAccesses(
        kernel_name=kernel.name,
        index_vars=MappingProxyType(index_vars),
        arrays=MappingProxyType(arrays),
        statements=tuple(statements),
        loops=tuple(loops),
        uses_shared=bool(shared_decls),
        has_irregular=bool(irregular_arrays),
        shared_decls=tuple(shared_decls),
        uniform_bounds=uniform_bounds,
        reads=frozenset(reads),
        writes=frozenset(stored & pointer_params),
        may_write=frozenset(params if stored - params - tiles else stored & params),
        subscripts=MappingProxyType(subscripts),
        lifts=MappingProxyType(
            {id(lift.loop): lift for lift in parallel_loops(kernel, subscripts)}
        ),
    )


def shared_arrays_between(a: KernelAccesses, b: KernelAccesses) -> Set[str]:
    """Arrays touched by both kernels (the locality targets of fusion)."""
    return (a.arrays_read | a.arrays_written) & (b.arrays_read | b.arrays_written)


# ------------------------------------------------------------ parallel loops


def thread_invariant(expr: ast.Expr, scalar_params: Set[str]) -> bool:
    """``expr`` is statically the same for every thread of a launch:
    literals, scalar parameters and ``blockDim`` / ``gridDim``."""
    if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.BoolLit)):
        return True
    if isinstance(expr, ast.Ident):
        return expr.name in scalar_params
    if isinstance(expr, ast.Member):
        return isinstance(expr.obj, ast.Ident) and expr.obj.name in (
            "blockDim",
            "gridDim",
        )
    if isinstance(expr, (ast.Unary, ast.Binary, ast.Ternary, ast.Call)):
        return all(thread_invariant(e, scalar_params) for e in expr.children())
    return False


@dataclass(frozen=True)
class ParallelLoop:
    """A counted loop whose iterations carry no dependence.

    Iteration ``v`` touches only slice ``v`` of every global array the
    body writes and assigns only scalars the body declares.  One fact the
    text cannot show is left to whoever reorders the iterations to check:
    that each iteration reads a ``__shared__`` tile only where it staged
    it (DESIGN.md §7, "Lifted loops").
    """

    loop: ast.For
    #: pointer parameters the body writes
    writes: FrozenSet[str]
    #: ``__shared__`` tiles declared before the loop and touched only in
    #: its body: each iteration needs its own copy
    tiles: FrozenSet[str]


class _Use(NamedTuple):
    """One occurrence of a scalar name."""

    name: str
    assigned: bool
    #: ids of the ``for`` nodes around the occurrence
    loops: Tuple[int, ...]
    #: ids of the ``for`` nodes around the declaration it resolves to by
    #: C scoping (None: it resolves to none)
    bound_in: Optional[Tuple[int, ...]]


class _ArrayUse(NamedTuple):
    name: Optional[str]
    written: bool
    loops: Tuple[int, ...]
    terms: Tuple[IndexTerm, ...]


def parallel_loops(
    kernel: ast.KernelDef, subscripts: Mapping[int, Tuple[IndexTerm, ...]]
) -> Tuple[ParallelLoop, ...]:
    """Every ``for`` of ``kernel`` whose iterations may run in any order.

    ``subscripts`` holds the terms of the kernel's regular accesses
    (:attr:`KernelAccesses.subscripts`); the others are derived here.

    A loop qualifies when
    * its start, bound and step are thread-invariant;
    * its body has no ``while`` or ``return``, and no inner loop's
      start, bound or step reads the loop variable;
    * every global array the body writes is subscripted, in every access
      of the body, by the loop variable at offset 0 on one common axis —
      so no other offset of it is read;
    * every scalar the body assigns is declared in the body, and every
      use of a body-declared name resolves to a declaration in the body
      (no value flows from one iteration to the next);
    * no body declaration shadows a name visible at the loop, and every
      use after the loop of a body-declared name resolves to a
      declaration of its own — the interpreter's environment is flat, so
      either would otherwise observe the last iteration's value;
    * every ``__shared__`` tile the body touches is touched nowhere else,
      and is declared either before the loop or in the body, not both.
    """
    pointer = {p.name for p in kernel.params if p.type.is_pointer}
    scalars = {p.name for p in kernel.params if not p.type.is_pointer}
    uses: List[_Use] = []
    arrays: List[_ArrayUse] = []
    #: (name, loops around the declaration) of every declaration
    decls: List[Tuple[str, Tuple[int, ...]]] = []
    #: tile name -> loops around each of its declarations
    shared: Dict[str, List[Tuple[int, ...]]] = {}
    #: id(For) -> (node, names visible where it starts)
    fors: Dict[int, Tuple[ast.For, FrozenSet[str]]] = {}
    rejected: Set[int] = set()
    scopes: List[Dict[str, Tuple[int, ...]]] = [
        {name: () for name in pointer | scalars}
    ]

    def lookup(name: str) -> Optional[Tuple[int, ...]]:
        for scope in reversed(scopes):
            if name in scope:
                return scope[name]
        return None

    def read(expr: ast.Expr, loops: Tuple[int, ...]) -> None:
        """Record every name and every access in ``expr`` (an indexed
        array's name is a use of that name too)."""
        kind = type(expr)
        if kind is ast.Ident:
            uses.append(_Use(expr.name, False, loops, lookup(expr.name)))
        elif kind is ast.Binary:
            read(expr.lhs, loops)
            read(expr.rhs, loops)
        elif kind is ast.Index:
            access(expr, False, loops)
            read(expr.base, loops)
            for sub in expr.indices:
                read(sub, loops)
        elif kind is ast.Call:
            for arg in expr.args:
                read(arg, loops)
        elif kind is ast.Member:
            read(expr.obj, loops)
        elif kind is ast.Unary:
            read(expr.operand, loops)
        elif kind is ast.Ternary:
            read(expr.cond, loops)
            read(expr.then, loops)
            read(expr.els, loops)

    def access(node: ast.Index, written: bool, loops: Tuple[int, ...]) -> None:
        terms = subscripts.get(id(node))
        if terms is None:
            terms = tuple(linear_index_term(e) for e in node.indices)
        arrays.append(_ArrayUse(node.array_name, written, loops, terms))

    def declare(name: str, loops: Tuple[int, ...]) -> None:
        scopes[-1][name] = loops
        decls.append((name, loops))

    def block(stmts: Sequence[ast.Stmt], loops: Tuple[int, ...]) -> None:
        scopes.append({})
        for stmt in stmts:
            visit(stmt, loops)
        scopes.pop()

    def visit(stmt: ast.Stmt, loops: Tuple[int, ...]) -> None:
        if isinstance(stmt, ast.VarDecl):
            for dim in stmt.array_dims:
                read(dim, loops)
            if stmt.init is not None:
                read(stmt.init, loops)
            if stmt.is_shared:
                shared.setdefault(stmt.name, []).append(loops)
            declare(stmt.name, loops)
        elif isinstance(stmt, ast.Assign):
            target = stmt.target
            if isinstance(target, ast.Index):
                access(target, True, loops)
                if stmt.op != "=":
                    access(target, False, loops)
                for sub in target.indices:
                    read(sub, loops)
            elif isinstance(target, ast.Ident):
                uses.append(_Use(target.name, True, loops, lookup(target.name)))
            read(stmt.value, loops)
        elif isinstance(stmt, ast.If):
            read(stmt.cond, loops)
            block(stmt.then.stmts, loops)
            if stmt.els is not None:
                block(stmt.els.stmts, loops)
        elif isinstance(stmt, ast.For):
            for expr in (stmt.start, stmt.bound, stmt.step):
                first = len(uses)
                read(expr, loops)
                names = {use.name for use in uses[first:]}
                rejected.update(key for key in loops if fors[key][0].var in names)
            if id(stmt) in fors:  # one node object in two places
                rejected.add(id(stmt))
            fors[id(stmt)] = (
                stmt,
                frozenset(name for scope in scopes for name in scope),
            )
            scopes.append({})
            declare(stmt.var, loops)
            block(stmt.body.stmts, loops + (id(stmt),))
            scopes.pop()
        elif isinstance(stmt, (ast.While, ast.Return)):
            rejected.update(loops)
            for child in stmt.children():
                if isinstance(child, ast.Expr):
                    read(child, loops)
            if isinstance(stmt, ast.While):
                block(stmt.body.stmts, loops)
        elif isinstance(stmt, ast.ExprStmt):
            read(stmt.expr, loops)
        elif isinstance(stmt, ast.Block):
            block(stmt.stmts, loops)

    block(kernel.body.stmts, ())

    found: List[ParallelLoop] = []
    for key, (loop, visible) in fors.items():
        if key in rejected or not all(
            thread_invariant(e, scalars) for e in (loop.start, loop.bound, loop.step)
        ):
            continue
        declared = {name for name, around in decls if key in around}
        if loop.var in declared or declared & visible:
            continue
        if not all(_use_allowed(use, key, declared) for use in uses):
            continue
        inside = [a for a in arrays if key in a.loops]
        tiles = {a.name for a in inside if a.name in shared}
        writes = {a.name for a in inside if a.written} - tiles
        if not writes <= pointer or tiles & pointer:
            continue
        if not all(_one_slice(inside, name, loop.var) for name in writes):
            continue
        if any(key not in a.loops for a in arrays if a.name in tiles):
            continue
        in_body = {key in around for name in tiles for around in shared[name]}
        if len(in_body) > 1:
            continue
        outer_tiles = frozenset() if in_body == {True} else frozenset(tiles)
        found.append(ParallelLoop(loop, frozenset(writes), outer_tiles))
    return tuple(found)


def _use_allowed(use: _Use, key: int, declared: Set[str]) -> bool:
    """Whether one occurrence of a scalar lets the loop ``key``, whose body
    declares ``declared``, run its iterations in any order."""
    if key not in use.loops:
        return use.name not in declared or use.bound_in is not None
    if use.name in declared:
        return use.bound_in is not None and key in use.bound_in
    return not use.assigned


def _one_slice(inside: List[_ArrayUse], name: str, var: str) -> bool:
    """Every access of ``name`` among ``inside`` has ``var`` (offset 0) as
    its subscript on one common axis."""
    axes: Optional[Set[int]] = None
    for a in inside:
        if a.name == name:
            here = {d for d, term in enumerate(a.terms) if term == (var, 0)}
            axes = here if axes is None else axes & here
    return bool(axes)

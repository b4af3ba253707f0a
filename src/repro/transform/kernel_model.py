"""Canonical stencil-kernel model (the code generator's working form).

The paper's code generator supports the canonical GPU-stencil pattern
(horizontal thread mapping, optional sequential vertical loop — §7 "Data
access"):

.. code-block:: c

    __global__ void K(...) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;   // index decls
        int j = blockIdx.y * blockDim.y + threadIdx.y;
        double c = 0.5;                                   // scalar pre-stmts
        if (i >= 1 && i < nx - 1 && ...) {                // optional guard
            for (int k = 0; k < nz; k++) {                // optional k-loop
                <assignments / simple ifs / nested fors>
            }
        }
    }

:func:`extract_model` recognizes this shape and produces a
:class:`CanonicalKernel`; kernels that do not match are transformed with the
*no-fusion* strategy (copied verbatim), mirroring the paper's restrictions.

The module also provides the identifier-substitution rewriter used by every
code-generating transformation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..cudalite import ast_nodes as ast
from ..analysis.accesses import find_global_index_vars

# ------------------------------------------------------------------ renaming


def rename_expr(expr: ast.Expr, mapping: Mapping[str, str]) -> ast.Expr:
    """Return ``expr`` with identifiers renamed according to ``mapping``."""
    if isinstance(expr, ast.Ident):
        new = mapping.get(expr.name)
        return ast.Ident(new) if new is not None else expr
    if isinstance(expr, ast.Member):
        return ast.Member(rename_expr(expr.obj, mapping), expr.field_name)
    if isinstance(expr, ast.Index):
        return ast.Index(
            rename_expr(expr.base, mapping),
            tuple(rename_expr(i, mapping) for i in expr.indices),
        )
    if isinstance(expr, ast.Call):
        return ast.Call(expr.func, tuple(rename_expr(a, mapping) for a in expr.args))
    if isinstance(expr, ast.Unary):
        return ast.Unary(expr.op, rename_expr(expr.operand, mapping))
    if isinstance(expr, ast.Binary):
        return ast.Binary(
            expr.op, rename_expr(expr.lhs, mapping), rename_expr(expr.rhs, mapping)
        )
    if isinstance(expr, ast.Ternary):
        return ast.Ternary(
            rename_expr(expr.cond, mapping),
            rename_expr(expr.then, mapping),
            rename_expr(expr.els, mapping),
        )
    return expr


def rename_stmt(stmt: ast.Stmt, mapping: Mapping[str, str]) -> ast.Stmt:
    """Return ``stmt`` with identifiers renamed (declarations included)."""
    if isinstance(stmt, ast.VarDecl):
        return ast.VarDecl(
            stmt.type,
            mapping.get(stmt.name, stmt.name),
            rename_expr(stmt.init, mapping) if stmt.init is not None else None,
            tuple(rename_expr(d, mapping) for d in stmt.array_dims),
            stmt.is_shared,
        )
    if isinstance(stmt, ast.Assign):
        return ast.Assign(
            rename_expr(stmt.target, mapping),
            stmt.op,
            rename_expr(stmt.value, mapping),
        )
    if isinstance(stmt, ast.ExprStmt):
        return ast.ExprStmt(rename_expr(stmt.expr, mapping))
    if isinstance(stmt, ast.SyncThreads):
        return stmt
    if isinstance(stmt, ast.If):
        return ast.If(
            rename_expr(stmt.cond, mapping),
            rename_block(stmt.then, mapping),
            rename_block(stmt.els, mapping) if stmt.els is not None else None,
        )
    if isinstance(stmt, ast.For):
        return ast.For(
            mapping.get(stmt.var, stmt.var),
            rename_expr(stmt.start, mapping),
            stmt.cmp,
            rename_expr(stmt.bound, mapping),
            rename_expr(stmt.step, mapping),
            rename_block(stmt.body, mapping),
        )
    if isinstance(stmt, ast.While):
        return ast.While(rename_expr(stmt.cond, mapping), rename_block(stmt.body, mapping))
    if isinstance(stmt, ast.Return):
        return ast.Return(
            rename_expr(stmt.value, mapping) if stmt.value is not None else None
        )
    if isinstance(stmt, ast.Block):
        return rename_block(stmt, mapping)
    return stmt


def rename_block(block: ast.Block, mapping: Mapping[str, str]) -> ast.Block:
    return ast.Block(tuple(rename_stmt(s, mapping) for s in block.stmts))


def substitute_expr(
    expr: ast.Expr, replacements: Mapping[str, ast.Expr]
) -> ast.Expr:
    """Replace identifier *uses* by arbitrary expressions."""
    if isinstance(expr, ast.Ident):
        return replacements.get(expr.name, expr)
    if isinstance(expr, ast.Member):
        return expr
    if isinstance(expr, ast.Index):
        return ast.Index(
            substitute_expr(expr.base, replacements),
            tuple(substitute_expr(i, replacements) for i in expr.indices),
        )
    if isinstance(expr, ast.Call):
        return ast.Call(
            expr.func, tuple(substitute_expr(a, replacements) for a in expr.args)
        )
    if isinstance(expr, ast.Unary):
        return ast.Unary(expr.op, substitute_expr(expr.operand, replacements))
    if isinstance(expr, ast.Binary):
        return ast.Binary(
            expr.op,
            substitute_expr(expr.lhs, replacements),
            substitute_expr(expr.rhs, replacements),
        )
    if isinstance(expr, ast.Ternary):
        return ast.Ternary(
            substitute_expr(expr.cond, replacements),
            substitute_expr(expr.then, replacements),
            substitute_expr(expr.els, replacements),
        )
    return expr


# ------------------------------------------------------------ canonical model


@dataclass
class CanonicalKernel:
    """The canonical stencil form the fusion generator understands."""

    name: str
    kernel: ast.KernelDef
    #: axis -> index variable name (e.g. {'x': 'i', 'y': 'j'}).
    index_vars: Dict[str, str]
    #: Index declarations in source order.
    index_decls: List[ast.VarDecl] = field(default_factory=list)
    #: Other pre-guard scalar declarations (coefficients etc.).
    pre_stmts: List[ast.Stmt] = field(default_factory=list)
    #: The guard condition (None when the kernel body is unguarded).
    guard: Optional[ast.Expr] = None
    #: The single outer sequential loop, if present.
    k_loop: Optional[ast.For] = None
    #: Statements in the innermost canonical region.
    body: List[ast.Stmt] = field(default_factory=list)
    #: True when ``body`` still contains nested loops (deep nests, §6.2.2).
    has_deep_loops: bool = False

    @property
    def axis_of(self) -> Dict[str, str]:
        """index variable name -> axis."""
        return {v: a for a, v in self.index_vars.items()}


def extract_model(kernel: ast.KernelDef) -> Optional[CanonicalKernel]:
    """Extract the canonical form, or None if the kernel doesn't match."""
    index_vars_by_name = find_global_index_vars(kernel)
    # invert: one variable per axis (first declaration wins)
    index_vars: Dict[str, str] = {}
    for var, axis in index_vars_by_name.items():
        index_vars.setdefault(axis, var)

    stmts = list(kernel.body.stmts)
    index_decls: List[ast.VarDecl] = []
    pre_stmts: List[ast.Stmt] = []
    pos = 0
    chosen = set(index_vars.values())
    while pos < len(stmts) and isinstance(stmts[pos], ast.VarDecl):
        decl = stmts[pos]
        if decl.name in index_vars_by_name and decl.name in chosen:
            index_decls.append(decl)
        elif decl.is_shared or decl.array_dims:
            return None  # pre-existing shared tiles: not canonical for fusion
        else:
            pre_stmts.append(decl)
        pos += 1
    rest = stmts[pos:]
    if not rest:
        return None

    guard: Optional[ast.Expr] = None
    region: Sequence[ast.Stmt] = rest
    if len(rest) == 1 and isinstance(rest[0], ast.If) and rest[0].els is None:
        guard = rest[0].cond
        region = rest[0].then.stmts

    k_loop: Optional[ast.For] = None
    body: Sequence[ast.Stmt]
    if len(region) == 1 and isinstance(region[0], ast.For):
        k_loop = region[0]
        body = k_loop.body.stmts
    else:
        body = region

    # canonical bodies contain assignments, simple guarded assignments and
    # (deep) nested loops; anything else bails out
    deep = False
    for stmt in _walk_region(body):
        if isinstance(stmt, ast.For):
            deep = True
        elif isinstance(stmt, (ast.Assign, ast.If, ast.VarDecl, ast.Block)):
            continue
        elif isinstance(stmt, (ast.SyncThreads, ast.While, ast.Return, ast.ExprStmt, ast.Launch)):
            return None
    return CanonicalKernel(
        name=kernel.name,
        kernel=kernel,
        index_vars=index_vars,
        index_decls=index_decls,
        pre_stmts=pre_stmts,
        guard=guard,
        k_loop=k_loop,
        body=list(body),
        has_deep_loops=deep,
    )


def _walk_region(stmts: Sequence[ast.Stmt]):
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, ast.If):
            yield from _walk_region(stmt.then.stmts)
            if stmt.els is not None:
                yield from _walk_region(stmt.els.stmts)
        elif isinstance(stmt, ast.For):
            yield from _walk_region(stmt.body.stmts)
        elif isinstance(stmt, ast.Block):
            yield from _walk_region(stmt.stmts)


def local_names(kernel: ast.KernelDef) -> List[str]:
    """All names declared inside the kernel body (including loop vars)."""
    names: List[str] = []
    for node in kernel.body.walk():
        if isinstance(node, ast.VarDecl):
            names.append(node.name)
        elif isinstance(node, ast.For):
            names.append(node.var)
    return names

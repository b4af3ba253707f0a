"""Shared-memory tile staging for generated (fused) kernels (§5.5.2–§5.5.3).

Fused kernels exploit the exposed inter-kernel locality by staging each
*locality-target* array into a ``__shared__`` tile once and serving all
constituent kernels' reads from the tile.  For complex fusion (internal
producer→consumer precedence) the tile additionally holds values computed
*in this kernel* over an extended (halo) region — the temporal-blocking
technique the paper adopts for the shared-memory coherence problem.

Tiles follow the canonical horizontal mapping: the x/y thread axes are
tiled (with halo), the sequential k loop re-stages per iteration.

Emitted staging pattern (cooperative, works for any halo radius)::

    for (int ly0 = 0; ly0 < CY; ly0++) {
        for (int lx0 = 0; lx0 < CX; lx0++) {
            int yy = ty + ly0 * BY;
            int xx = tx + lx0 * BX;
            if (xx < TX && yy < TY) {
                int gx = bx0 + xx - R;
                int gy = by0 + yy - R;
                if (gx >= 0 && gx < NX && gy >= 0 && gy < NY) {
                    s_A[xx][yy] = A[gx][gy][k];
                }
            }
        }
    }
    __syncthreads();

All loop bounds are compile-time literals (block shape and radius are known
at generation time), keeping the emitted CUDA readable and the loops
canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cudalite import ast_nodes as ast
from ..cudalite import builders as b
from ..errors import TransformError
from .kernel_model import substitute_expr

#: Names used by generated staging code.
TX, TY = "tx", "ty"
BX0, BY0 = "bx0", "by0"
HALO_X, HALO_Y = "hx", "hy"
GLOBAL_X, GLOBAL_Y = "gx_h", "gy_h"


@dataclass(frozen=True)
class TileSpec:
    """One shared-memory tile for one staged array."""

    array: str            #: host array name (== fused-kernel parameter name)
    tile_name: str        #: e.g. ``s_A``
    radius: int           #: halo radius R
    block: Tuple[int, int]  #: (BX, BY) thread-block extents along x/y
    array_shape: Tuple[int, ...]  #: full logical array shape
    #: dims of the array mapped to (x, y); remaining dim (if any) is the
    #: sequential loop dim, indexed directly during staging.
    tiled_dims: int = 2

    @property
    def tile_extent_x(self) -> int:
        return self.block[0] + 2 * self.radius

    @property
    def tile_extent_y(self) -> int:
        return self.block[1] + 2 * self.radius if self.tiled_dims >= 2 else 1

    @property
    def smem_bytes(self) -> int:
        return self.tile_extent_x * max(1, self.tile_extent_y) * 8

    def declaration(self) -> ast.VarDecl:
        dims: List[int] = [self.tile_extent_x]
        if self.tiled_dims >= 2:
            dims.append(self.tile_extent_y)
        return b.decl("double", self.tile_name, shared=True, dims=dims)


def geometry_decls(need_2d: bool) -> List[ast.Stmt]:
    """``tx/ty`` and block-origin declarations shared by all tiles."""
    stmts: List[ast.Stmt] = [
        b.decl("int", TX, b.thread_idx("x")),
        b.decl("int", BX0, b.binop("*", b.block_idx("x"), b.block_dim("x"))),
    ]
    if need_2d:
        stmts.insert(1, b.decl("int", TY, b.thread_idx("y")))
        stmts.append(b.decl("int", BY0, b.binop("*", b.block_idx("y"), b.block_dim("y"))))
    return stmts


def _ceil_div(a: int, d: int) -> int:
    return -(-a // d)


def staging_stmts(
    tile: TileSpec,
    loop_var: Optional[str],
    overwritten: Optional[ast.Expr] = None,
) -> List[ast.Stmt]:
    """Emit the cooperative load of ``tile`` from global memory.

    ``loop_var`` is the unified sequential loop variable indexing the
    array's last dimension (None for arrays without a loop dim).

    ``overwritten`` is the condition, over the cell's global position
    (``gx_h`` / ``gy_h``), under which a temporally blocked producer's
    extended compute assigns the cell before anything reads it.  Those
    cells are not loaded: the value would be dead, and the load would
    race with the neighbouring block that stores the same global cell in
    this launch.  An always-true condition leaves nothing to load.
    """
    if isinstance(overwritten, ast.BoolLit) and overwritten.value:
        return []
    bx, by = tile.block
    r = tile.radius
    shape = tile.array_shape
    nx = shape[0]
    read_idx: List[ast.Expr]
    kept: List[ast.Expr] = (
        [] if overwritten is None else [ast.Unary("!", overwritten)]
    )

    if tile.tiled_dims == 1:
        cx = _ceil_div(tile.tile_extent_x, bx)
        xx = b.ident(HALO_X)
        gx = b.ident(GLOBAL_X)
        read_idx = [gx]
        if loop_var is not None and len(shape) >= 2:
            read_idx.append(b.ident(loop_var))
        store = b.assign(b.idx(tile.tile_name, xx), ast.Index(b.ident(tile.array), tuple(read_idx)))
        guarded = b.if_(
            b.logical_and(b.ge(gx, 0), b.lt(gx, nx), *kept),
            [store],
        )
        body = [
            b.decl("int", HALO_X, b.add(b.ident(TX), b.mul(b.ident("lx0"), bx))),
        ]
        body.append(
            b.if_(
                b.lt(b.ident(HALO_X), tile.tile_extent_x),
                [
                    b.decl("int", GLOBAL_X, b.sub(b.add(b.ident(BX0), b.ident(HALO_X)), r)),
                    guarded,
                ],
            )
        )
        load_loop: ast.Stmt = b.for_("lx0", 0, cx, body)
        return [load_loop, b.sync()]

    ny = shape[1]
    cx = _ceil_div(tile.tile_extent_x, bx)
    cy = _ceil_div(tile.tile_extent_y, by)
    gx = b.ident(GLOBAL_X)
    gy = b.ident(GLOBAL_Y)
    read_idx = [gx, gy]
    if loop_var is not None and len(shape) >= 3:
        read_idx.append(b.ident(loop_var))
    store = b.assign(
        b.idx(tile.tile_name, b.ident(HALO_X), b.ident(HALO_Y)),
        ast.Index(b.ident(tile.array), tuple(read_idx)),
    )
    bounds_guard = b.if_(
        b.logical_and(b.ge(gx, 0), b.lt(gx, nx), b.ge(gy, 0), b.lt(gy, ny), *kept),
        [store],
    )
    inner_body: List[ast.Stmt] = [
        b.decl("int", HALO_X, b.add(b.ident(TX), b.mul(b.ident("lx0"), bx))),
        b.if_(
            b.lt(b.ident(HALO_X), tile.tile_extent_x),
            [
                b.decl("int", GLOBAL_X, b.sub(b.add(b.ident(BX0), b.ident(HALO_X)), r)),
                bounds_guard,
            ],
        ),
    ]
    x_loop = b.for_("lx0", 0, cx, inner_body)
    outer_body: List[ast.Stmt] = [
        b.decl("int", HALO_Y, b.add(b.ident(TY), b.mul(b.ident("ly0"), by))),
        b.if_(
            b.lt(b.ident(HALO_Y), tile.tile_extent_y),
            [
                b.decl(
                    "int", GLOBAL_Y, b.sub(b.add(b.ident(BY0), b.ident(HALO_Y)), r)
                ),
                x_loop,
            ],
        ),
    ]
    y_loop = b.for_("ly0", 0, cy, outer_body)
    return [y_loop, b.sync()]


def rewrite_reads_to_tile(
    expr: ast.Expr,
    tile: TileSpec,
    index_vars: Sequence[str],
    loop_var: Optional[str],
) -> ast.Expr:
    """Rewrite global reads ``A[i+dx][j+dy][k]`` into tile reads.

    ``index_vars`` are the unified thread index variable names in dimension
    order (x, y).  Reads whose subscripts do not match the tiled pattern
    (wrong base variable, z offset, irregular) are left untouched.
    """
    if isinstance(expr, ast.Index) and isinstance(expr.base, ast.Ident):
        if expr.base.name == tile.array:
            rewritten = _try_tile_read(expr, tile, index_vars, loop_var)
            if rewritten is not None:
                return rewritten
        return ast.Index(
            expr.base,
            tuple(
                rewrite_reads_to_tile(i, tile, index_vars, loop_var)
                for i in expr.indices
            ),
        )
    if isinstance(expr, ast.Binary):
        return ast.Binary(
            expr.op,
            rewrite_reads_to_tile(expr.lhs, tile, index_vars, loop_var),
            rewrite_reads_to_tile(expr.rhs, tile, index_vars, loop_var),
        )
    if isinstance(expr, ast.Unary):
        return ast.Unary(
            expr.op, rewrite_reads_to_tile(expr.operand, tile, index_vars, loop_var)
        )
    if isinstance(expr, ast.Call):
        return ast.Call(
            expr.func,
            tuple(
                rewrite_reads_to_tile(a, tile, index_vars, loop_var)
                for a in expr.args
            ),
        )
    if isinstance(expr, ast.Ternary):
        return ast.Ternary(
            rewrite_reads_to_tile(expr.cond, tile, index_vars, loop_var),
            rewrite_reads_to_tile(expr.then, tile, index_vars, loop_var),
            rewrite_reads_to_tile(expr.els, tile, index_vars, loop_var),
        )
    return expr


def _axis_offset(expr: ast.Expr, var: str) -> Optional[int]:
    """Offset c when ``expr`` is ``var``, ``var + c`` or ``var - c``."""
    if isinstance(expr, ast.Ident) and expr.name == var:
        return 0
    if isinstance(expr, ast.Binary) and expr.op in ("+", "-"):
        if (
            isinstance(expr.lhs, ast.Ident)
            and expr.lhs.name == var
            and isinstance(expr.rhs, ast.IntLit)
        ):
            return expr.rhs.value if expr.op == "+" else -expr.rhs.value
        if (
            expr.op == "+"
            and isinstance(expr.rhs, ast.Ident)
            and expr.rhs.name == var
            and isinstance(expr.lhs, ast.IntLit)
        ):
            return expr.lhs.value
    return None


def _try_tile_read(
    access: ast.Index,
    tile: TileSpec,
    index_vars: Sequence[str],
    loop_var: Optional[str],
) -> Optional[ast.Expr]:
    indices = access.indices
    ndim = len(tile.array_shape)
    if len(indices) != ndim:
        return None
    # last dim must be exactly the loop variable (offset 0) when present
    if ndim > tile.tiled_dims:
        if loop_var is None:
            return None
        k_off = _axis_offset(indices[-1], loop_var)
        if k_off != 0:
            return None
    dx = _axis_offset(indices[0], index_vars[0])
    if dx is None or abs(dx) > tile.radius:
        return None
    tile_idx: List[ast.Expr] = [b.add(b.ident(TX), tile.radius + dx)]
    if tile.tiled_dims >= 2:
        if len(index_vars) < 2 or len(indices) < 2:
            return None
        dy = _axis_offset(indices[1], index_vars[1])
        if dy is None or abs(dy) > tile.radius:
            return None
        tile_idx.append(b.add(b.ident(TY), tile.radius + dy))
    return ast.Index(b.ident(tile.tile_name), tuple(tile_idx))


def extended_compute_stmts(
    tile: TileSpec,
    producer_guard: Optional[ast.Expr],
    rhs_builder,
    loop_var: Optional[str],
) -> List[ast.Stmt]:
    """Emit the temporal-blocking extended compute for a producer array.

    Every tile cell (own site *and* halo) whose global position satisfies
    the producer's guard recomputes the producer's RHS with the thread
    indices substituted by the cell's global position.  ``rhs_builder`` is
    called with (gx_expr, gy_expr_or_None) and must return the list of
    statements storing into ``tile.tile_name[hx][hy]``.
    """
    bx, by = tile.block
    r = tile.radius
    shape = tile.array_shape
    gx = b.ident(GLOBAL_X)
    gy = b.ident(GLOBAL_Y) if tile.tiled_dims >= 2 else None

    bounds = [b.ge(gx, 0), b.lt(gx, shape[0])]
    if gy is not None:
        bounds += [b.ge(gy, 0), b.lt(gy, shape[1])]
    cond = b.logical_and(*bounds)
    if producer_guard is not None:
        cond = b.logical_and(cond, producer_guard)
    body_store = rhs_builder(gx, gy)
    guarded = b.if_(cond, body_store)

    if tile.tiled_dims == 1:
        cx = _ceil_div(tile.tile_extent_x, bx)
        inner = [
            b.decl("int", HALO_X, b.add(b.ident(TX), b.mul(b.ident("lx0"), bx))),
            b.if_(
                b.lt(b.ident(HALO_X), tile.tile_extent_x),
                [
                    b.decl("int", GLOBAL_X, b.sub(b.add(b.ident(BX0), b.ident(HALO_X)), r)),
                    guarded,
                ],
            ),
        ]
        return [b.for_("lx0", 0, cx, inner), b.sync()]

    cx = _ceil_div(tile.tile_extent_x, bx)
    cy = _ceil_div(tile.tile_extent_y, by)
    x_body = [
        b.decl("int", HALO_X, b.add(b.ident(TX), b.mul(b.ident("lx0"), bx))),
        b.if_(
            b.lt(b.ident(HALO_X), tile.tile_extent_x),
            [
                b.decl("int", GLOBAL_X, b.sub(b.add(b.ident(BX0), b.ident(HALO_X)), r)),
                guarded,
            ],
        ),
    ]
    x_loop = b.for_("lx0", 0, cx, x_body)
    y_body = [
        b.decl("int", HALO_Y, b.add(b.ident(TY), b.mul(b.ident("ly0"), by))),
        b.if_(
            b.lt(b.ident(HALO_Y), tile.tile_extent_y),
            [
                b.decl("int", GLOBAL_Y, b.sub(b.add(b.ident(BY0), b.ident(HALO_Y)), r)),
                x_loop,
            ],
        ),
    ]
    return [b.for_("ly0", 0, cy, y_body), b.sync()]

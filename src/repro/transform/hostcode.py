"""Host-side code rewriting (§5.5.4).

The code generator replaces the invocations of the original kernels with
those of the new kernels: the first original launch is replaced by the new
launch sequence (in the order dictated by the new OEG), all other original
launches are removed, and every other host statement (allocations,
initialization, synchronization) is preserved.  Thread-block sizes come
from the tuning step and are emitted as inline ``dim3(...)`` literals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..cudalite import ast_nodes as ast
from ..errors import TransformError


@dataclass(frozen=True)
class NewLaunch:
    """One launch of a generated (or copied) kernel."""

    kernel: str
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]
    args: Tuple[ast.Expr, ...]

    def to_stmt(self) -> ast.Launch:
        return ast.Launch(
            self.kernel,
            ast.Call("dim3", tuple(ast.IntLit(v) for v in self.grid)),
            ast.Call("dim3", tuple(ast.IntLit(v) for v in self.block)),
            self.args,
        )


def rewrite_host(
    main: ast.HostFunc, new_launches: Sequence[NewLaunch]
) -> ast.HostFunc:
    """Replace the original launch sequence by ``new_launches``.

    The new launches are inserted at the position of the first original
    launch; every original launch statement is removed.  Host statements
    between launches (e.g. ``cudaDeviceSynchronize()``) are preserved in
    place.
    """
    inserted = False

    def rewrite_block(block: ast.Block) -> ast.Block:
        nonlocal inserted
        stmts: List[ast.Stmt] = []
        for stmt in block.stmts:
            if isinstance(stmt, ast.Launch):
                if not inserted:
                    stmts.extend(launch.to_stmt() for launch in new_launches)
                    inserted = True
                continue
            if isinstance(stmt, ast.If):
                stmts.append(
                    ast.If(
                        stmt.cond,
                        rewrite_block(stmt.then),
                        rewrite_block(stmt.els) if stmt.els is not None else None,
                    )
                )
            elif isinstance(stmt, ast.For):
                stmts.append(
                    ast.For(
                        stmt.var,
                        stmt.start,
                        stmt.cmp,
                        stmt.bound,
                        stmt.step,
                        rewrite_block(stmt.body),
                    )
                )
            elif isinstance(stmt, ast.Block):
                stmts.append(rewrite_block(stmt))
            else:
                stmts.append(stmt)
        return ast.Block(tuple(stmts))

    body = rewrite_block(main.body)
    if not inserted:
        raise TransformError("host function contains no kernel launches")
    return ast.HostFunc(main.name, main.ret_type, main.params, body)


def assemble_program(
    original: ast.Program,
    new_kernels: Sequence[ast.KernelDef],
    new_launches: Sequence[NewLaunch],
) -> ast.Program:
    """Build the transformed program: new kernels + rewritten host code."""
    launched = {l.kernel for l in new_launches}
    missing = launched - {k.name for k in new_kernels}
    if missing:
        raise TransformError(f"launches reference undefined kernels: {sorted(missing)}")
    new_main = rewrite_host(original.main(), new_launches)
    items: List[ast.Node] = list(new_kernels)
    for item in original.items:
        if isinstance(item, ast.HostFunc):
            items.append(new_main if item.name == "main" else item)
    return ast.Program(tuple(items))

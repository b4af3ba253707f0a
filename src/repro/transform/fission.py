"""Kernel fission (§4.1, Algorithm 2).

Splits a kernel into fragments such that each data array — and *all*
statements operating on it — lives in exactly one fragment.  The fragments
are the connected components of the statement-level array-dependency graph
(:mod:`repro.analysis.deps`); code generation filters the original body
per component, preserving guards and loops, and prunes scalar code each
fragment does not need.

The fission invariants (tested):

* fragments are pairwise disjoint and complete — every executable statement
  of the original kernel appears in exactly one fragment;
* each separable array appears in exactly one fragment;
* running the fragments in sequence is semantically identical to running
  the original kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from ..analysis.accesses import KernelAccesses, collect_accesses
from ..analysis.deps import separable_components
from ..cudalite import ast_nodes as ast
from ..errors import TransformError


@dataclass
class FissionFragment:
    """One kernel produced by fissioning an original kernel."""

    kernel: ast.KernelDef
    #: The separable arrays this fragment owns.
    component: FrozenSet[str]
    #: For each fragment parameter, the index of the corresponding parameter
    #: in the *original* kernel's parameter list (host-code arg slicing).
    param_indices: Tuple[int, ...]


def _scalar_needs(
    accesses: KernelAccesses, kept: Set[int]
) -> Set[str]:
    """Scalars (transitively) needed by the kept statements."""
    needed: Set[str] = set()
    for stmt in accesses.statements:
        if stmt.index in kept:
            needed |= stmt.scalars_read
    # fixed point over scalar-defining statements
    for _ in range(len(accesses.statements) + 1):
        grew = False
        for stmt in accesses.statements:
            if stmt.scalars_written & needed:
                before = len(needed)
                needed |= stmt.scalars_read
                grew = grew or len(needed) > before
        if not grew:
            break
    return needed


def _filter_block(
    block: ast.Block,
    keep: Set[int],
    needed_scalars: Set[str],
    accesses: KernelAccesses,
    counter: List[int],
) -> ast.Block:
    """Rebuild a block keeping only selected statements (structure-preserving)."""
    kept_stmts: List[ast.Stmt] = []
    for stmt in block.stmts:
        if isinstance(stmt, ast.Assign):
            index = counter[0]
            counter[0] += 1
            record = accesses.statements[index]
            if record.arrays_written:
                if index in keep:
                    kept_stmts.append(stmt)
            else:
                # pure scalar statement: keep when its results are needed
                if record.scalars_written & needed_scalars:
                    kept_stmts.append(stmt)
        elif isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                counter[0] += 1  # initialized decls occupy a statement slot
            if stmt.is_shared or stmt.array_dims or stmt.name in needed_scalars:
                kept_stmts.append(stmt)
        elif isinstance(stmt, ast.If):
            then = _filter_block(stmt.then, keep, needed_scalars, accesses, counter)
            els = (
                _filter_block(stmt.els, keep, needed_scalars, accesses, counter)
                if stmt.els is not None
                else None
            )
            if then.stmts or (els is not None and els.stmts):
                kept_stmts.append(
                    ast.If(stmt.cond, then, els if els and els.stmts else None)
                )
        elif isinstance(stmt, ast.For):
            body = _filter_block(stmt.body, keep, needed_scalars, accesses, counter)
            if body.stmts:
                kept_stmts.append(
                    ast.For(stmt.var, stmt.start, stmt.cmp, stmt.bound, stmt.step, body)
                )
        elif isinstance(stmt, ast.While):
            body = _filter_block(stmt.body, keep, needed_scalars, accesses, counter)
            if body.stmts:
                kept_stmts.append(ast.While(stmt.cond, body))
        elif isinstance(stmt, ast.Block):
            inner = _filter_block(stmt, keep, needed_scalars, accesses, counter)
            if inner.stmts:
                kept_stmts.append(inner)
        else:
            kept_stmts.append(stmt)
    return ast.Block(tuple(kept_stmts))


def _used_names(block: ast.Block) -> Set[str]:
    names: Set[str] = set()
    for node in block.walk():
        if isinstance(node, ast.Ident):
            names.add(node.name)
        elif isinstance(node, ast.Index) and isinstance(node.base, ast.Ident):
            names.add(node.base.name)
    return names


def fission_kernel(
    kernel: ast.KernelDef,
    components: Optional[Sequence[FrozenSet[str]]] = None,
    seed: int = 0,
    name_format: str = "{name}_f{index}",
) -> List[FissionFragment]:
    """Fission ``kernel`` into per-component fragments.

    ``components`` defaults to the separable components found by Algorithm 2;
    passing them explicitly lets the search engine fission along a chosen
    partition.  Returns a single fragment (the kernel itself, renamed only
    if requested) when the kernel is not separable.
    """
    accesses = collect_accesses(kernel)
    if components is None:
        components = separable_components(kernel, accesses, seed=seed)
    written = accesses.arrays_written
    productive = [c for c in components if c & written]
    if len(productive) < 2:
        all_params = tuple(range(len(kernel.params)))
        return [
            FissionFragment(
                kernel=kernel,
                component=frozenset(a.name for a in accesses.arrays.values()),
                param_indices=all_params,
            )
        ]

    # fold unproductive (read-only, statement-less) components into the first
    leftovers = [c for c in components if not (c & written)]
    if leftovers:
        merged = frozenset(set(productive[0]) | set().union(*leftovers))
        productive = [merged] + productive[1:]

    fragments: List[FissionFragment] = []
    for index, component in enumerate(productive):
        keep = {
            s.index
            for s in accesses.statements
            if s.arrays_written and s.arrays_written <= component
        }
        # statements writing arrays across components would contradict
        # separability; guard against analysis drift
        for s in accesses.statements:
            if s.arrays_written and not (
                s.arrays_written <= component or not (s.arrays_written & component)
            ):
                raise TransformError(
                    f"kernel {kernel.name!r}: statement writes arrays in "
                    "multiple fission components"
                )
        needed_scalars = _scalar_needs(accesses, keep)
        # index variables are always needed
        needed_scalars |= set(accesses.index_vars)
        counter = [0]
        body = _filter_block(kernel.body, keep, needed_scalars, accesses, counter)
        used = _used_names(body)
        param_indices = tuple(
            i
            for i, p in enumerate(kernel.params)
            if (p.type.is_pointer and p.name in used)
            or (not p.type.is_pointer and p.name in used)
        )
        params = tuple(kernel.params[i] for i in param_indices)
        fragment_kernel = ast.KernelDef(
            name=name_format.format(name=kernel.name, index=index),
            params=params,
            body=body,
        )
        fragments.append(
            FissionFragment(
                kernel=fragment_kernel,
                component=component,
                param_indices=param_indices,
            )
        )
    return fragments


def iterative_fission(
    kernel: ast.KernelDef, max_rounds: int = 8
) -> List[FissionFragment]:
    """Apply fission repeatedly until no fragment is separable (§5.5).

    With component-based fission a single round is already maximal, but the
    iteration guards against partial component choices.
    """
    fragments = fission_kernel(kernel)
    for _ in range(max_rounds):
        expanded: List[FissionFragment] = []
        changed = False
        for frag in fragments:
            sub = fission_kernel(
                frag.kernel, name_format="{name}x{index}"
            )
            if len(sub) > 1:
                changed = True
                for piece in sub:
                    # compose param index mappings
                    composed = tuple(frag.param_indices[i] for i in piece.param_indices)
                    expanded.append(
                        FissionFragment(piece.kernel, piece.component, composed)
                    )
            else:
                expanded.append(frag)
        fragments = expanded
        if not changed:
            break
    return fragments


def fission_program(
    program: ast.Program, kernel_name: str, seed: int = 0
) -> Tuple[ast.Program, List[FissionFragment]]:
    """Replace ``kernel_name`` in the program by its fission fragments.

    Every launch of the kernel becomes a sequence of fragment launches with
    correspondingly sliced argument lists.  Returns the new program and the
    fragments (unchanged program if the kernel is not separable).
    """
    kernel = program.kernel(kernel_name)
    fragments = fission_kernel(kernel, seed=seed)
    if len(fragments) == 1:
        return program, fragments

    new_kernels: List[ast.KernelDef] = []
    for item in program.kernels:
        if item.name == kernel_name:
            new_kernels.extend(f.kernel for f in fragments)
        else:
            new_kernels.append(item)

    def rewrite_block(block: ast.Block) -> ast.Block:
        stmts: List[ast.Stmt] = []
        for stmt in block.stmts:
            if isinstance(stmt, ast.Launch) and stmt.kernel == kernel_name:
                for frag in fragments:
                    stmts.append(
                        ast.Launch(
                            frag.kernel.name,
                            stmt.grid,
                            stmt.block,
                            tuple(stmt.args[i] for i in frag.param_indices),
                        )
                    )
            elif isinstance(stmt, ast.If):
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
                        stmt.var, stmt.start, stmt.cmp, stmt.bound, stmt.step,
                        rewrite_block(stmt.body),
                    )
                )
            else:
                stmts.append(stmt)
        return ast.Block(tuple(stmts))

    new_items: List[ast.Node] = []
    kernel_emitted = False
    for item in program.items:
        if isinstance(item, ast.KernelDef):
            if item.name == kernel_name:
                if not kernel_emitted:
                    new_items.extend(f.kernel for f in fragments)
                    kernel_emitted = True
            else:
                new_items.append(item)
        elif isinstance(item, ast.HostFunc):
            new_items.append(
                ast.HostFunc(item.name, item.ret_type, item.params, rewrite_block(item.body))
            )
        else:
            new_items.append(item)
    return ast.Program(tuple(new_items)), fragments

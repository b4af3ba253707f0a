"""Stencil-feature detection (operations metadata, §3.2.1).

Classifies each kernel's data-access pattern: stencil shape (point / star /
box), neighborhood radius, dimensionality, access stride and loop sizes.
These features feed the operations-metadata file and the performance
projection model (halo sizes for shared-memory tiles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from ..cudalite import ast_nodes as ast
from .accesses import IRREGULAR, KernelAccesses, collect_accesses


@dataclass(frozen=True)
class StencilShape:
    """Classified stencil footprint of one array in one kernel."""

    #: 'point' (offset 0 only), 'star' (offsets on axes), 'box' (diagonals),
    #: or 'irregular'.
    kind: str
    #: Neighborhood radius (max |offset| along any dimension).
    radius: int
    #: Number of distinct offsets (e.g. 5 for the classic 2-D star).
    points: int
    #: Number of array dimensions indexed by thread/loop variables.
    dims: int

    @property
    def label(self) -> str:
        """Human-readable label, e.g. ``star-5pt-r1``."""
        if self.kind == "point":
            return "point"
        if self.kind == "irregular":
            return "irregular"
        return f"{self.kind}-{self.points}pt-r{self.radius}"


def classify_offsets(offsets: Set[Tuple[int, ...]]) -> StencilShape:
    """Classify a set of constant offset vectors into a stencil shape."""
    if not offsets:
        return StencilShape("point", 0, 0, 0)
    dims = max(len(o) for o in offsets)
    normalized = {tuple(o) + (0,) * (dims - len(o)) for o in offsets}
    radius = max((max(abs(c) for c in o) if o else 0) for o in normalized)
    if radius == 0:
        return StencilShape("point", 0, len(normalized), dims)
    has_diagonal = any(sum(1 for c in o if c != 0) > 1 for o in normalized)
    kind = "box" if has_diagonal else "star"
    return StencilShape(kind, radius, len(normalized), dims)


@dataclass(frozen=True)
class ArrayStencil:
    """Stencil features of one array access pattern."""

    array: str
    shape: StencilShape
    #: Unit-stride flag: subscripts use the thread-mapped variables directly.
    unit_stride: bool


@dataclass(frozen=True)
class KernelStencilInfo:
    """Operations metadata for one kernel."""

    kernel_name: str
    #: Per-array stencil classification (read footprints).
    stencils: Tuple[ArrayStencil, ...]
    #: Max loop nest depth.
    loop_depth: int
    #: Static loop sizes where constant (loop var -> trip count), else None.
    loop_sizes: Dict[str, Optional[int]]
    #: Largest halo radius over all arrays (drives shared-memory tile size).
    max_radius: int
    #: True if any access was non-affine.
    irregular: bool

    @property
    def is_stencil(self) -> bool:
        """True if at least one array is read with a non-point footprint."""
        return any(s.shape.radius > 0 for s in self.stencils)


def _const_trip_count(loop) -> Optional[int]:
    start = loop.start
    bound = loop.bound
    step = loop.step
    if (
        isinstance(start, ast.IntLit)
        and isinstance(bound, ast.IntLit)
        and isinstance(step, ast.IntLit)
        and step.value > 0
    ):
        end = bound.value + 1 if loop.cmp == "<=" else bound.value
        return max(0, -(-(end - start.value) // step.value))
    return None


def analyze_stencil(
    kernel: ast.KernelDef, accesses: Optional[KernelAccesses] = None
) -> KernelStencilInfo:
    """Classify the stencil features of ``kernel``."""
    acc = accesses if accesses is not None else collect_accesses(kernel)
    axis_vars = set(acc.index_vars) | {l.var for l in acc.loops}
    stencils = []
    max_radius = 0
    for name in sorted(acc.arrays):
        info = acc.arrays[name]
        offsets = info.read_offsets(tuple(axis_vars))
        shape = (
            StencilShape("irregular", 0, 0, 0)
            if info.irregular
            else classify_offsets(offsets)
        )
        unit_stride = all(
            all(term[0] != IRREGULAR for term in access)
            for access in info.reads | info.writes
        )
        stencils.append(ArrayStencil(name, shape, unit_stride))
        max_radius = max(max_radius, shape.radius)
    loop_sizes = {l.var: _const_trip_count(l) for l in acc.loops}
    depth = max((l.depth + 1 for l in acc.loops), default=0)
    return KernelStencilInfo(
        kernel_name=kernel.name,
        stencils=tuple(stencils),
        loop_depth=depth,
        loop_sizes=loop_sizes,
        max_radius=max_radius,
        irregular=acc.has_irregular,
    )

"""Kernel fusion code generation (§5.5).

Three cases, exactly as the paper structures them:

* **No fusion** — the kernel is copied verbatim.
* **Simple fusion** — constituents have no precedence among them.  Bodies
  are aggregated into one kernel; locality-target arrays are staged into
  shared-memory tiles; code segments are aligned to common loop bounds with
  conditional statements inserted for constituents with smaller iteration
  spaces.
* **Complex fusion** — at least one producer→consumer precedence exists
  inside the group.  Barriers order the waves, and the shared-memory
  coherence problem at block boundaries is solved with temporal blocking:
  the tile stages the array's *old* values (halo included), the producer
  recomputes the array over the extended tile region, and consumers read
  the tile after a barrier.

The generator reproduces the paper's known automated-codegen inefficiencies
as explicit, switchable behaviours (see :class:`FusionOptions`):
``merge_deep_loops=False`` emits deep-loop constituents as separate
sequential segments (lost reuse, §6.2.2/SCALE-LES), and
``one_sided_guards=False`` uses plain two-sided guards (extra divergence,
§6.2.2/HOMME).  The manual / programmer-guided modes flip these switches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..analysis.accesses import KernelAccesses, collect_accesses
from ..analysis.volume import LaunchVolume, estimate_volume, eval_scalar_expr
from ..cudalite import ast_nodes as ast
from ..cudalite import builders as b
from ..cudalite.unparser import unparse_expr
from ..errors import TransformError
from ..gpu.perfmodel import CodegenTraits, estimate_registers, tile_halo_factor
from .kernel_model import (
    CanonicalKernel,
    extract_model,
    local_names,
    rename_block,
    rename_expr,
    rename_stmt,
    substitute_expr,
)
from .shared_memory import (
    BX0,
    BY0,
    GLOBAL_X,
    GLOBAL_Y,
    TX,
    TY,
    TileSpec,
    extended_compute_stmts,
    geometry_decls,
    rewrite_reads_to_tile,
    staging_stmts,
)

UNIFIED_INDEX = {"x": "i", "y": "j", "z": "gz"}
UNIFIED_LOOP = "k"


@dataclass
class Constituent:
    """One original kernel invocation entering a fusion."""

    model: CanonicalKernel
    #: formal pointer parameter -> host array name
    array_binding: Dict[str, str]
    #: formal scalar parameter -> host-side argument expression
    scalar_binding: Dict[str, ast.Expr]
    #: formal scalar parameter -> actual value at the profiled launch
    scalar_values: Dict[str, float]
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]
    accesses: Optional[KernelAccesses] = None

    def __post_init__(self) -> None:
        if self.accesses is None:
            self.accesses = collect_accesses(self.model.kernel)

    @property
    def name(self) -> str:
        return self.model.name

    @property
    def extents(self) -> Tuple[int, int, int]:
        return (
            self.grid[0] * self.block[0],
            self.grid[1] * self.block[1],
            self.grid[2] * self.block[2],
        )

    def host_arrays_read(self) -> Set[str]:
        return {self.array_binding[a] for a in self.accesses.arrays_read}

    def host_arrays_written(self) -> Set[str]:
        return {self.array_binding[a] for a in self.accesses.arrays_written}


@dataclass
class FusionOptions:
    """Code-generation strategy switches."""

    #: Stage locality-target arrays into shared-memory tiles.
    stage_shared: bool = True
    #: Merge constituents with deep nested loops into the unified loop
    #: (False = the automated inefficiency; True = manual/guided quality).
    merge_deep_loops: bool = False
    #: Accumulate divergent iterations one-sided (manual strategy) instead
    #: of emitting two-sided guards.
    one_sided_guards: bool = False
    #: Apply temporal blocking for complex fusions.
    temporal_blocking: bool = True
    #: Maximum producer/consumer wave depth inside one fused kernel.
    max_waves: int = 2
    #: Shared-memory budget for tiles (bytes); None = unchecked here.
    smem_limit: Optional[int] = None
    #: Divergence penalty per extra distinct guard (two-sided vs one-sided).
    two_sided_cost: float = 0.03
    one_sided_cost: float = 0.015


@dataclass
class FusedKernel:
    """A generated kernel plus everything the host rewrite needs."""

    kernel: ast.KernelDef
    #: host array name per pointer parameter, in parameter order
    pointer_args: Tuple[str, ...]
    #: host expression per scalar parameter, in parameter order
    scalar_args: Tuple[ast.Expr, ...]
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]
    traits: CodegenTraits
    volume: LaunchVolume
    constituents: Tuple[str, ...]
    is_complex: bool
    tiles: Tuple[TileSpec, ...] = ()
    #: scalar argument *values* per scalar parameter, in parameter order
    #: (lets the verification gate launch the kernel without host context)
    scalar_values: Tuple[float, ...] = ()


# --------------------------------------------------------------------- helpers


def _loop_signature(
    c: Constituent,
) -> Optional[Tuple[int, int, int]]:
    """(start, exclusive bound, step) of the constituent's k-loop, evaluated."""
    loop = c.model.k_loop
    if loop is None:
        return None
    start = eval_scalar_expr(loop.start, c.scalar_values)
    bound = eval_scalar_expr(loop.bound, c.scalar_values)
    step = eval_scalar_expr(loop.step, c.scalar_values)
    if start is None or bound is None or not step:
        raise TransformError(
            f"kernel {c.name!r}: loop bounds are not metadata-evaluable"
        )
    end = int(bound) + 1 if loop.cmp == "<=" else int(bound)
    return (int(start), end, int(step))


def _guard_with_extents(
    c: Constituent,
    mapping: Mapping[str, str],
    fused_extents: Tuple[int, int, int],
) -> Optional[ast.Expr]:
    """Constituent guard, renamed, plus extent clamps for the fused lattice."""
    conds: List[ast.Expr] = []
    if c.model.guard is not None:
        conds.append(rename_expr(c.model.guard, mapping))
    axis_order = ("x", "y", "z")
    for axis_idx, axis in enumerate(axis_order):
        var = c.model.index_vars.get(axis)
        if var is None:
            continue
        if fused_extents[axis_idx] > c.extents[axis_idx]:
            conds.append(b.lt(UNIFIED_INDEX[axis], c.extents[axis_idx]))
    if not conds:
        return None
    return b.logical_and(*conds)


def _wave_depths(
    count: int, edges: Sequence[Tuple[int, int, str]]
) -> List[int]:
    """Longest-path wave index per constituent under internal precedence."""
    depth = [0] * count
    for _ in range(count):
        changed = False
        for producer, consumer, _ in edges:
            if depth[consumer] < depth[producer] + 1:
                depth[consumer] = depth[producer] + 1
                changed = True
        if not changed:
            break
    return depth


def _check_wave_monotonicity(
    constituents: Sequence[Constituent], waves: Sequence[int]
) -> None:
    """Every dependence pair (a before b) must satisfy wave(a) <= wave(b).

    Within one wave, members are emitted in original order, so equal waves
    are always safe; a *decreasing* wave across a dependence would reorder
    the operations and change program semantics.
    """
    last_writer: Dict[str, int] = {}
    readers: Dict[str, List[int]] = {}
    for ci, c in enumerate(constituents):
        for array in sorted(c.host_arrays_read()):
            writer = last_writer.get(array)
            if writer is not None and waves[writer] > waves[ci]:
                raise TransformError(
                    f"wave ordering would hoist {c.name!r} above its "
                    f"producer on {array!r}: fusion infeasible"
                )
            readers.setdefault(array, []).append(ci)
        for array in sorted(c.host_arrays_written()):
            for reader in readers.get(array, []):
                if reader != ci and waves[reader] > waves[ci]:
                    raise TransformError(
                        f"wave ordering would move the write of {array!r} by "
                        f"{c.name!r} above one of its readers: fusion "
                        "infeasible"
                    )
            writer = last_writer.get(array)
            if writer is not None and waves[writer] > waves[ci]:
                raise TransformError(
                    f"wave ordering breaks the write-after-write order on "
                    f"{array!r}: fusion infeasible"
                )
            last_writer[array] = ci


def _read_radius(
    c: Constituent, host_array: str
) -> int:
    """Max |offset| with which the constituent reads ``host_array``."""
    axis_vars = tuple(c.model.index_vars.values())
    radius = 0
    for formal, host in c.array_binding.items():
        if host != host_array:
            continue
        info = c.accesses.arrays.get(formal)
        if info is None:
            continue
        radius = max(radius, info.halo_radius(axis_vars))
    return radius


def _k_read_offsets(c: Constituent, host_array: str) -> Set[int]:
    """z/loop-dimension read offsets of a (3-D) array."""
    loop_vars = {l.var for l in c.accesses.loops}
    offsets: Set[int] = set()
    for formal, host in c.array_binding.items():
        if host != host_array:
            continue
        info = c.accesses.arrays.get(formal)
        if info is None:
            continue
        for access in info.reads:
            if len(access) >= 3:
                base, off = access[2]
                if base in loop_vars:
                    offsets.add(off)
    return offsets


# ----------------------------------------------------------------------- fuse


def fuse_kernels(
    name: str,
    constituents: Sequence[Constituent],
    block: Tuple[int, int, int],
    array_shapes: Mapping[str, Tuple[int, ...]],
    precedence: Sequence[Tuple[int, int, str]] = (),
    options: Optional[FusionOptions] = None,
) -> FusedKernel:
    """Fuse ``constituents`` into one kernel named ``name``.

    Parameters
    ----------
    block:
        Thread-block shape of the generated kernel (tile extents are baked
        in, so the host must launch with exactly this shape).
    array_shapes:
        Logical shapes of the host arrays (staging bounds).
    precedence:
        Internal OEG edges as (producer index, consumer index, host array).
    """
    options = options or FusionOptions()
    if not constituents:
        raise TransformError("cannot fuse an empty group")
    for c in constituents:
        if c.model is None:
            raise TransformError("non-canonical constituent")

    fused_extents = (
        max(c.extents[0] for c in constituents),
        max(c.extents[1] for c in constituents),
        max(c.extents[2] for c in constituents),
    )

    # ---------------------------------------------------------- parameter plan
    pointer_written: Set[str] = set()
    pointer_all: Set[str] = set()
    for c in constituents:
        pointer_all |= set(c.array_binding.values())
        pointer_written |= c.host_arrays_written()
    pointer_args = tuple(sorted(pointer_all))

    scalar_names: Dict[str, str] = {}  # host-expr text -> fused param name
    scalar_params: List[ast.Param] = []
    scalar_args: List[ast.Expr] = []
    fused_scalar_values: Dict[str, float] = {}
    used_names: Set[str] = set(pointer_args) | set(UNIFIED_INDEX.values()) | {
        UNIFIED_LOOP, TX, TY, BX0, BY0,
    }
    per_const_mapping: List[Dict[str, str]] = []
    for ci, c in enumerate(constituents):
        mapping: Dict[str, str] = dict(c.array_binding)
        for param in c.model.kernel.scalar_params():
            host_expr = c.scalar_binding[param.name]
            # share a fused parameter only for same-named params bound to
            # the same host value (readability: nx stays nx even when the
            # launch happens to pass nx == ny)
            key = (param.name, unparse_expr(host_expr))
            if key not in scalar_names:
                candidate = param.name
                if candidate in used_names and scalar_names.get(key) != candidate:
                    candidate = f"{param.name}_{ci}"
                while candidate in used_names:
                    candidate += "_"
                scalar_names[key] = candidate
                used_names.add(candidate)
                scalar_params.append(ast.Param(param.type, candidate))
                scalar_args.append(host_expr)
                fused_scalar_values[candidate] = c.scalar_values[param.name]
            mapping[param.name] = scalar_names[key]
        for axis, var in c.model.index_vars.items():
            mapping[var] = UNIFIED_INDEX[axis]
        for local in local_names(c.model.kernel):
            if local not in mapping:
                mapping[local] = f"{local}_k{ci}"
        per_const_mapping.append(mapping)

    # ------------------------------------------------------------ segmentation
    sigs: List[Optional[Tuple[int, int, int]]] = []
    mergeable: List[bool] = []
    for c in constituents:
        try:
            sig = _loop_signature(c)
            ok = not c.model.has_deep_loops or options.merge_deep_loops
        except TransformError:
            sig = None
            ok = False  # un-evaluable loop bounds: emit as a solo segment
        sigs.append(sig)
        if sig is not None and sig[2] != 1:
            ok = False  # non-unit steps are not merged
        mergeable.append(ok)

    loop_members = [i for i, c in enumerate(constituents) if mergeable[i] and sigs[i]]
    flat_members = [
        i
        for i, c in enumerate(constituents)
        if mergeable[i] and not sigs[i] and c.model.k_loop is None
    ]
    solo_members = [i for i in range(len(constituents)) if not mergeable[i]]

    segments: List[Tuple[str, List[int]]] = []
    if flat_members:
        segments.append(("flat", flat_members))
    if loop_members:
        segments.append(("loop", loop_members))
    for i in solo_members:
        segments.append(("solo", [i]))
    # keep deterministic execution order: sort segments by first member index
    segments.sort(key=lambda s: min(s[1]))

    member_segment: Dict[int, int] = {}
    for seg_idx, (_, members) in enumerate(segments):
        for m in members:
            member_segment[m] = seg_idx

    # write-after-read with a halo is unrealizable inside one kernel: a
    # faster block could overwrite neighbours before this block reads them
    first_writer: Dict[str, int] = {}
    for ci, c in enumerate(constituents):
        for host in c.host_arrays_written():
            first_writer.setdefault(host, ci)
    for ci, c in enumerate(constituents):
        for host in c.host_arrays_read():
            radius = _read_radius(c, host)
            writer = first_writer.get(host)
            if radius > 0 and writer is not None and writer > ci:
                raise TransformError(
                    f"{c.name!r} reads {host!r} with halo radius {radius} "
                    f"before {constituents[writer].name!r} overwrites it: "
                    "fusion infeasible (inter-block WAR hazard)"
                )

    # precedence: radius-0 consumers flow through global memory (the same
    # thread wrote the value — no tile, no barrier); radius > 0 consumers
    # need temporal blocking
    raw_arrays: Dict[str, Tuple[int, List[int]]] = {}
    halo_edges: List[Tuple[int, int, str]] = []
    passthrough: Set[str] = set()
    for producer, consumer, array in precedence:
        radius = _read_radius(constituents[consumer], array)
        same_segment = member_segment[producer] == member_segment[consumer]
        if radius == 0:
            passthrough.add(array)
            continue
        if not same_segment:
            raise TransformError(
                f"cross-segment producer/consumer on {array!r} with "
                f"halo radius {radius}: fusion infeasible"
            )
        if not options.temporal_blocking:
            raise TransformError(
                "complex fusion with halo requires temporal blocking"
            )
        k_offs = _k_read_offsets(constituents[consumer], array)
        if any(off != 0 for off in k_offs):
            raise TransformError(
                f"consumer reads {array!r} at a vertical offset: "
                "temporal blocking tile holds the current plane only"
            )
        entry = raw_arrays.setdefault(array, (producer, []))
        if entry[0] != producer:
            raise TransformError(
                f"array {array!r} produced by two constituents in one fusion"
            )
        # the tile stages the array's pre-kernel values once per iteration;
        # any other in-group writer (even one the producer fully overwrites
        # inside its guard) leaves the tile stale at guard-boundary cells,
        # where the sequential program keeps that writer's value
        other_writers = sorted(
            other.name
            for ci, other in enumerate(constituents)
            if ci != producer and array in other.host_arrays_written()
        )
        if other_writers:
            raise TransformError(
                f"temporal-blocked array {array!r} is also written by "
                f"{other_writers} inside the fusion: the staged tile cannot "
                "observe those writes: infeasible"
            )
        raw_arrays[array][1].append(consumer)
        halo_edges.append((producer, consumer, array))
        # the producer's extended compute re-evaluates its statements at
        # *halo* sites, so every array it reads is effectively read with a
        # halo: none of them may be written by any member of this group
        # (before: the halo cells would be stale across blocks; after: an
        # inter-block WAR hazard)
        producer_reads = constituents[producer].host_arrays_read()
        for ci, other in enumerate(constituents):
            if ci == producer:
                continue
            clobbered = producer_reads & other.host_arrays_written()
            if clobbered:
                raise TransformError(
                    f"temporal-blocking producer {constituents[producer].name!r} "
                    f"reads {sorted(clobbered)} which {other.name!r} writes "
                    "inside the fusion: infeasible"
                )

    waves = _wave_depths(len(constituents), halo_edges)
    if max(waves, default=0) + 1 > options.max_waves:
        raise TransformError(
            f"internal precedence depth {max(waves) + 1} exceeds "
            f"max_waves={options.max_waves}"
        )
    # wave assignment reorders emission; it must stay consistent with EVERY
    # dependence among the members (a halo consumer demoted to a later wave
    # must not jump over a member it has a WAW/WAR/RAW relation with)
    _check_wave_monotonicity(constituents, waves)
    is_complex = bool(halo_edges)

    # ------------------------------------------------------------- tile plan
    # locality targets: arrays read by >= 2 constituents of a merged segment,
    # plus all internal-RAW arrays.
    tiles_by_segment: Dict[int, Dict[str, TileSpec]] = {}
    segment_readers: Dict[Tuple[int, str], List[int]] = {}
    for seg_idx, (seg_kind, members) in enumerate(segments):
        if seg_kind == "solo" or not options.stage_shared:
            continue
        readers: Dict[str, List[int]] = {}
        seg_writes: Set[str] = set()
        for m in members:
            for host in constituents[m].host_arrays_read():
                readers.setdefault(host, []).append(m)
            seg_writes |= constituents[m].host_arrays_written()
        tiles: Dict[str, TileSpec] = {}
        for host, member_list in sorted(readers.items()):
            is_raw = host in raw_arrays and member_segment[raw_arrays[host][0]] == seg_idx
            if len(member_list) < 2 and not is_raw:
                continue
            if host in seg_writes and not is_raw:
                # written inside the segment without temporal blocking: a
                # plain tile would go stale — reads stay in global memory
                continue
            shape = array_shapes.get(host)
            if shape is None or len(shape) > 3:
                continue
            if len(shape) == 3 and seg_kind != "loop":
                continue  # cannot tile the vertical dim without a unified loop
            # every matching consumer contributes its radius
            radius = max(_read_radius(constituents[m], host) for m in member_list)
            k_offs: Set[int] = set()
            for m in member_list:
                k_offs |= _k_read_offsets(constituents[m], host)
            if any(off != 0 for off in k_offs):
                continue  # vertical-offset reads: leave in global memory
            tiled_dims = 1 if len(shape) == 1 else 2
            tiles[host] = TileSpec(
                array=host,
                tile_name=f"s_{host}",
                radius=radius,
                block=(block[0], block[1]),
                array_shape=tuple(shape),
                tiled_dims=tiled_dims,
            )
            segment_readers[(seg_idx, host)] = member_list
        tiles_by_segment[seg_idx] = tiles

    smem_total = sum(
        t.smem_bytes for tiles in tiles_by_segment.values() for t in tiles.values()
    )
    if options.smem_limit is not None and smem_total > options.smem_limit:
        raise TransformError(
            f"tiles need {smem_total} B shared memory "
            f"(limit {options.smem_limit} B)"
        )

    # --------------------------------------------------------------- code gen
    need_geometry = any(tiles_by_segment.get(s) for s in range(len(segments)))
    body: List[ast.Stmt] = []
    axis_used = {"x": False, "y": False, "z": False}
    for c in constituents:
        for axis in c.model.index_vars:
            axis_used[axis] = True
    for axis in ("x", "y", "z"):
        if axis_used[axis]:
            body.append(b.decl("int", UNIFIED_INDEX[axis], b.global_index(axis)))
    if need_geometry:
        body.extend(geometry_decls(need_2d=axis_used["y"]))
    # constituent pre-statements (coefficients etc.)
    for ci, c in enumerate(constituents):
        for stmt in c.model.pre_stmts:
            body.append(rename_stmt(stmt, per_const_mapping[ci]))
    # tile declarations
    all_tiles: List[TileSpec] = []
    for seg_idx in range(len(segments)):
        for tile in tiles_by_segment.get(seg_idx, {}).values():
            body.append(tile.declaration())
            all_tiles.append(tile)

    for seg_idx, (seg_kind, members) in enumerate(segments):
        tiles = tiles_by_segment.get(seg_idx, {})
        if seg_kind == "solo":
            body.extend(
                _emit_solo(constituents[members[0]], per_const_mapping[members[0]],
                           fused_extents)
            )
            continue
        body.extend(
            _emit_merged_segment(
                seg_kind,
                members,
                constituents,
                per_const_mapping,
                sigs,
                tiles,
                raw_arrays,
                waves,
                fused_extents,
                member_segment,
                seg_idx,
            )
        )

    pointer_params = tuple(
        ast.Param(
            ast.TypeSpec("double", is_pointer=True, is_const=host not in pointer_written),
            host,
        )
        for host in pointer_args
    )
    kernel = ast.KernelDef(
        name=name,
        params=pointer_params + tuple(scalar_params),
        body=ast.Block(tuple(body)),
    )

    grid = tuple(
        max(1, -(-fused_extents[axis] // max(1, block[axis]))) for axis in range(3)
    )

    traits, volume = _traits_and_volume(
        name,
        constituents,
        segments,
        tiles_by_segment,
        raw_arrays,
        block,
        grid,
        options,
        smem_total,
        passthrough,
        first_writer,
    )
    return FusedKernel(
        kernel=kernel,
        pointer_args=pointer_args,
        scalar_args=tuple(scalar_args),
        grid=grid,  # type: ignore[arg-type]
        block=block,
        traits=traits,
        volume=volume,
        constituents=tuple(c.name for c in constituents),
        is_complex=is_complex,
        tiles=tuple(all_tiles),
        scalar_values=tuple(
            fused_scalar_values[p.name] for p in scalar_params
        ),
    )


# ----------------------------------------------------------- segment emission


def _emit_solo(
    c: Constituent, mapping: Mapping[str, str], fused_extents
) -> List[ast.Stmt]:
    """A constituent emitted as its own sequential segment (no tiles)."""
    inner: List[ast.Stmt] = [rename_stmt(s, mapping) for s in c.model.body]
    if c.model.k_loop is not None:
        loop = c.model.k_loop
        inner = [
            ast.For(
                mapping.get(loop.var, loop.var),
                rename_expr(loop.start, mapping),
                loop.cmp,
                rename_expr(loop.bound, mapping),
                rename_expr(loop.step, mapping),
                ast.Block(tuple(inner)),
            )
        ]
    guard = _guard_with_extents(c, mapping, fused_extents)
    if guard is not None:
        return [b.if_(guard, inner)]
    return inner


def _emit_merged_segment(
    seg_kind: str,
    members: List[int],
    constituents: Sequence[Constituent],
    per_const_mapping: List[Dict[str, str]],
    sigs: List[Optional[Tuple[int, int, int]]],
    tiles: Dict[str, TileSpec],
    raw_arrays: Dict[str, Tuple[int, List[int]]],
    waves: List[int],
    fused_extents,
    member_segment: Dict[int, int],
    seg_idx: int,
) -> List[ast.Stmt]:
    """Emit a merged segment: staging + extended computes + guarded waves."""
    loop_var = UNIFIED_LOOP if seg_kind == "loop" else None

    # extended computes for internal-RAW arrays produced in this segment
    seg_raw = {
        host: (producer, consumers)
        for host, (producer, consumers) in raw_arrays.items()
        if member_segment.get(producer) == seg_idx and host in tiles
    }
    extended: List[ast.Stmt] = []
    overwritten: Dict[str, ast.Expr] = {}
    writeback: Dict[int, List[ast.Stmt]] = {}
    suppressed: Dict[int, Set[str]] = {}
    for host in sorted(seg_raw):
        producer, _ = seg_raw[host]
        tile = tiles[host]
        stmts, wb, assigned = _producer_extended_compute(
            constituents[producer],
            per_const_mapping[producer],
            host,
            tile,
            loop_var,
            fused_extents,
        )
        extended.extend(stmts)
        if assigned is not None:
            overwritten[host] = assigned
        writeback.setdefault(producer, []).extend(wb)
        suppressed.setdefault(producer, set()).add(host)

    # per-iteration statements: staging (minus the cells an extended
    # compute assigns anyway), then the extended computes
    iteration: List[ast.Stmt] = []
    for host in sorted(tiles):
        iteration.extend(
            staging_stmts(tiles[host], loop_var, overwritten.get(host))
        )
    iteration.extend(extended)

    # constituents ordered by wave then original order
    ordered = sorted(members, key=lambda m: (waves[m], m))
    previous_wave = waves[ordered[0]] if ordered else 0
    for m in ordered:
        c = constituents[m]
        mapping = per_const_mapping[m]
        if waves[m] != previous_wave:
            iteration.append(b.sync())
            previous_wave = waves[m]
        stmts = _constituent_iteration_stmts(
            c, mapping, tiles, suppressed.get(m, set()), loop_var
        )
        stmts = writeback.pop(m, []) + stmts
        guard = _guard_with_extents(c, mapping, fused_extents)
        if seg_kind == "loop":
            sig = sigs[m]
            assert sig is not None
            unified_start = min(s[0] for i in members if (s := sigs[i]) is not None)
            unified_end = max(s[1] for i in members if (s := sigs[i]) is not None)
            conds: List[ast.Expr] = []
            if sig[0] > unified_start:
                conds.append(b.ge(UNIFIED_LOOP, sig[0]))
            if sig[1] < unified_end:
                conds.append(b.lt(UNIFIED_LOOP, sig[1]))
            if conds:
                guard = b.logical_and(*( [guard] if guard is not None else [] ), *conds)
        if guard is not None:
            iteration.append(b.if_(guard, stmts))
        else:
            iteration.extend(stmts)

    if tiles:
        iteration.append(b.sync())  # WAR barrier before the next staging

    if seg_kind == "loop":
        unified_start = min(s[0] for i in members if (s := sigs[i]) is not None)
        unified_end = max(s[1] for i in members if (s := sigs[i]) is not None)
        return [b.for_(UNIFIED_LOOP, unified_start, unified_end, iteration)]
    return iteration


def _constituent_iteration_stmts(
    c: Constituent,
    mapping: Mapping[str, str],
    tiles: Dict[str, TileSpec],
    suppressed_arrays: Set[str],
    loop_var: Optional[str],
) -> List[ast.Stmt]:
    """The constituent's body, renamed, loop-var unified, tile-rewritten.

    Statements writing a temporal-blocked array are dropped (the extended
    compute already produced the values; the caller prepends the global
    writeback).
    """
    loop_mapping = dict(mapping)
    if c.model.k_loop is not None and loop_var is not None:
        loop_mapping[c.model.k_loop.var] = loop_var
    index_vars = [UNIFIED_INDEX["x"], UNIFIED_INDEX["y"]]

    def rewrite(expr: ast.Expr) -> ast.Expr:
        out = rename_expr(expr, loop_mapping)
        for tile in tiles.values():
            out = rewrite_reads_to_tile(out, tile, index_vars, loop_var)
        return out

    def emit(stmt: ast.Stmt) -> Optional[ast.Stmt]:
        if isinstance(stmt, ast.Assign):
            target = rename_expr(stmt.target, loop_mapping)
            if (
                isinstance(target, ast.Index)
                and isinstance(target.base, ast.Ident)
                and target.base.name in suppressed_arrays
            ):
                return None
            new_target: ast.Expr = target
            if isinstance(target, ast.Index):
                new_target = ast.Index(
                    target.base,
                    tuple(rewrite_index(ix) for ix in target.indices),
                )
            return ast.Assign(new_target, stmt.op, rewrite(stmt.value))
        if isinstance(stmt, ast.VarDecl):
            return ast.VarDecl(
                stmt.type,
                loop_mapping.get(stmt.name, stmt.name),
                rewrite(stmt.init) if stmt.init is not None else None,
                tuple(rename_expr(d, loop_mapping) for d in stmt.array_dims),
                stmt.is_shared,
            )
        if isinstance(stmt, ast.If):
            then = [s2 for s in stmt.then.stmts if (s2 := emit(s)) is not None]
            els = None
            if stmt.els is not None:
                els_list = [s2 for s in stmt.els.stmts if (s2 := emit(s)) is not None]
                els = ast.Block(tuple(els_list)) if els_list else None
            if not then and els is None:
                return None
            return ast.If(rewrite(stmt.cond), ast.Block(tuple(then)), els)
        if isinstance(stmt, ast.For):
            inner = [s2 for s in stmt.body.stmts if (s2 := emit(s)) is not None]
            if not inner:
                return None
            return ast.For(
                loop_mapping.get(stmt.var, stmt.var),
                rewrite(stmt.start),
                stmt.cmp,
                rewrite(stmt.bound),
                rewrite(stmt.step),
                ast.Block(tuple(inner)),
            )
        if isinstance(stmt, ast.Block):
            inner = [s2 for s in stmt.stmts if (s2 := emit(s)) is not None]
            return ast.Block(tuple(inner)) if inner else None
        return rename_stmt(stmt, loop_mapping)

    def rewrite_index(ix: ast.Expr) -> ast.Expr:
        # subscripts of the *written* array are plain index math (no tiles)
        return ix

    result: List[ast.Stmt] = []
    for stmt in c.model.body:
        emitted = emit(stmt)
        if emitted is not None:
            result.append(emitted)
    return result


def _producer_extended_compute(
    producer: Constituent,
    mapping: Mapping[str, str],
    host_array: str,
    tile: TileSpec,
    loop_var: Optional[str],
    fused_extents,
) -> Tuple[List[ast.Stmt], List[ast.Stmt], Optional[ast.Expr]]:
    """Temporal blocking: recompute ``host_array`` over the extended tile.

    Returns (statements for the cooperative extended compute, global
    write-back statements to prepend to the producer's guarded body, the
    condition under which the extended compute *assigns* a tile cell).
    The condition is None when the producer's first statement is a
    compound assignment: it reads what the staging pre-loaded, so the
    pre-load must stay complete.
    """
    loop_mapping = dict(mapping)
    if producer.model.k_loop is not None and loop_var is not None:
        loop_mapping[producer.model.k_loop.var] = loop_var

    # producer statements that write the array, in renamed form
    producing: List[ast.Assign] = []
    scalar_stmts: List[ast.Stmt] = []
    for stmt in producer.model.body:
        if isinstance(stmt, ast.VarDecl) and not stmt.is_shared:
            scalar_stmts.append(rename_stmt(stmt, loop_mapping))
        elif isinstance(stmt, ast.Assign):
            renamed = rename_stmt(stmt, loop_mapping)
            assert isinstance(renamed, ast.Assign)
            target = renamed.target
            if (
                isinstance(target, ast.Index)
                and isinstance(target.base, ast.Ident)
                and target.base.name == host_array
            ):
                producing.append(renamed)
            elif isinstance(renamed.target, ast.Ident):
                scalar_stmts.append(renamed)
    if not producing:
        raise TransformError(
            f"no producing statement found for {host_array!r} in "
            f"{producer.name!r}"
        )

    guard = producer.model.guard
    renamed_guard = rename_expr(guard, loop_mapping) if guard is not None else None

    ix, jy = UNIFIED_INDEX["x"], UNIFIED_INDEX["y"]

    def rhs_builder(gx: ast.Expr, gy: Optional[ast.Expr]) -> List[ast.Stmt]:
        subs: Dict[str, ast.Expr] = {ix: gx}
        if gy is not None:
            subs[jy] = gy
        stmts: List[ast.Stmt] = []
        halo_rename: Dict[str, str] = {}
        for stmt in scalar_stmts:
            if isinstance(stmt, ast.VarDecl):
                halo_rename[stmt.name] = stmt.name + "_h"
                init = stmt.init
                if init is not None:
                    init = substitute_expr(rename_expr(init, halo_rename), subs)
                stmts.append(
                    ast.VarDecl(stmt.type, stmt.name + "_h", init, (), False)
                )
            elif isinstance(stmt, ast.Assign) and isinstance(stmt.target, ast.Ident):
                halo_rename[stmt.target.name] = stmt.target.name + "_h"
                stmts.append(
                    ast.Assign(
                        ast.Ident(stmt.target.name + "_h"),
                        stmt.op,
                        substitute_expr(
                            rename_expr(stmt.value, halo_rename), subs
                        ),
                    )
                )
        for assign in producing:
            value = substitute_expr(rename_expr(assign.value, halo_rename), subs)
            tile_target_idx: List[ast.Expr] = [b.ident("hx")]
            if tile.tiled_dims >= 2:
                tile_target_idx.append(b.ident("hy"))
            stmts.append(
                ast.Assign(
                    ast.Index(b.ident(tile.tile_name), tuple(tile_target_idx)),
                    assign.op,
                    value,
                )
            )
        return stmts

    halo_guard = None
    if renamed_guard is not None:
        subs = {ix: b.ident(GLOBAL_X)}
        if tile.tiled_dims >= 2:
            subs[jy] = b.ident(GLOBAL_Y)
        halo_guard = substitute_expr(renamed_guard, subs)

    extended = extended_compute_stmts(tile, halo_guard, rhs_builder, loop_var)
    assigned: Optional[ast.Expr] = None
    if producing[0].op == "=":
        assigned = halo_guard if halo_guard is not None else ast.BoolLit(True)

    # global write-back of the thread's own site
    last_target = producing[-1].target
    tile_read_idx: List[ast.Expr] = [b.add(b.ident(TX), tile.radius)]
    if tile.tiled_dims >= 2:
        tile_read_idx.append(b.add(b.ident(TY), tile.radius))
    writeback = [
        ast.Assign(
            last_target,
            "=",
            ast.Index(b.ident(tile.tile_name), tuple(tile_read_idx)),
        )
    ]
    return extended, writeback, assigned


# ------------------------------------------------------------ traits & volume


def _traits_and_volume(
    name: str,
    constituents: Sequence[Constituent],
    segments: List[Tuple[str, List[int]]],
    tiles_by_segment: Dict[int, Dict[str, TileSpec]],
    raw_arrays: Dict[str, Tuple[int, List[int]]],
    block: Tuple[int, int, int],
    grid: Tuple[int, ...],
    options: FusionOptions,
    smem_total: int,
    passthrough: Set[str] = frozenset(),
    first_writer: Optional[Dict[str, int]] = None,
) -> Tuple[CodegenTraits, LaunchVolume]:
    # intermediate values consumed at the producing thread's own site are
    # served by the cache hierarchy: charge the write, not the re-reads
    on_chip: Set[str] = set()
    first_writer = first_writer or {}
    for host in passthrough:
        writer = first_writer.get(host)
        if writer is None:
            continue
        reads_before = any(
            host in constituents[ci].host_arrays_read() for ci in range(writer)
        )
        if not reads_before:
            on_chip.add(host)
    staged: Set[str] = set()
    radius: Dict[str, int] = {}
    for tiles in tiles_by_segment.values():
        for host, tile in tiles.items():
            staged.add(host)
            radius[host] = max(radius.get(host, 0), tile.radius)

    # Per-array reread counts.  A staged array is loaded once per *segment*
    # (the tile serves every constituent of the segment); an unstaged array
    # is re-fetched by every constituent reading it — on Kepler, global
    # loads bypass L1, so fusion without explicit staging does not merge
    # the constituents' reads.
    segment_reads: Dict[str, int] = {}
    for _, members in segments:
        seg_arrays: Set[str] = set()
        for m in members:
            seg_arrays |= constituents[m].host_arrays_read()
        for host in seg_arrays:
            segment_reads[host] = segment_reads.get(host, 0) + 1
    constituent_reads: Dict[str, int] = {}
    for c in constituents:
        for host in c.host_arrays_read():
            constituent_reads[host] = constituent_reads.get(host, 0) + 1
    rereads = {}
    for host, per_member in constituent_reads.items():
        count = segment_reads.get(host, 1) if host in staged else per_member
        if count > 1:
            rereads[host] = count

    # cache radii for non-staged arrays
    for c in constituents:
        for formal, host in c.array_binding.items():
            info = c.accesses.arrays.get(formal)
            if info is None:
                continue
            r = info.halo_radius(tuple(c.model.index_vars.values()))
            radius[host] = max(radius.get(host, 0), r)

    distinct_guards = len(
        {unparse_expr(c.model.guard) if c.model.guard is not None else "<none>"
         for c in constituents}
    )
    cost = options.one_sided_cost if options.one_sided_guards else options.two_sided_cost
    divergence = min(1.25, 1.0 + cost * max(0, distinct_guards - 1))

    # volumes
    arrays_read: Set[str] = set()
    arrays_written: Set[str] = set()
    points: Dict[str, int] = {}
    flops = 0.0
    active = 0
    flops_pp = 0.0
    for c in constituents:
        vol = estimate_volume(
            c.model.kernel, c.grid, c.block, c.scalar_values, c.accesses
        )
        binding = c.array_binding
        arrays_read |= {binding[a] for a in vol.arrays_read}
        arrays_written |= {binding[a] for a in vol.arrays_written}
        for formal, p in vol.points_per_array.items():
            host = binding.get(formal, formal)
            points[host] = max(points.get(host, 0), p)
        flops += vol.flops
        active = max(active, vol.active_threads)
        flops_pp += c.accesses.total_flops_per_point

    # intermediate values consumed on-chip: reads of RAW arrays whose halo
    # staging already accounts for one read — nothing extra to subtract, the
    # consumers simply do not touch global memory again (rereads unaffected).

    halo_factor = 1.0
    raw_hosts = [h for h in raw_arrays if h in staged]
    if raw_hosts and flops > 0:
        producer_flops = 0.0
        extension = 0.0
        for host in raw_hosts:
            producer_idx, _ = raw_arrays[host]
            producer_flops += constituents[producer_idx].accesses.total_flops_per_point
            extension = max(
                extension, tile_halo_factor((block[0], block[1], block[2]), radius.get(host, 0))
            )
        share = min(1.0, producer_flops / max(flops_pp, 1e-9))
        halo_factor = 1.0 + share * (extension - 1.0)

    traits = CodegenTraits(
        staged=staged,
        on_chip=on_chip - staged,
        rereads=rereads,
        radius=radius,
        divergence_factor=divergence,
        smem_per_block=smem_total,
        regs_per_thread=estimate_registers(
            len(arrays_read | arrays_written), flops_pp
        ),
        halo_compute_factor=halo_factor,
    )
    launched = 1
    for axis in range(3):
        launched *= grid[axis] * block[axis]
    volume = LaunchVolume(
        kernel_name=name,
        active_threads=active,
        launched_threads=launched,
        points_per_array=points,
        arrays_read=arrays_read,
        arrays_written=arrays_written,
        flops=flops,
    )
    return traits, volume


# ------------------------------------------------------------- no-fusion copy


def copy_kernel(kernel: ast.KernelDef, new_name: Optional[str] = None) -> ast.KernelDef:
    """The *no fusion* case: the new kernel is a copy of the original."""
    return ast.KernelDef(new_name or kernel.name, kernel.params, kernel.body)


def make_constituent(
    kernel: ast.KernelDef,
    array_args: Sequence[str],
    scalar_args: Sequence[ast.Expr],
    scalar_values: Sequence[float],
    grid: Tuple[int, int, int],
    block: Tuple[int, int, int],
) -> Constituent:
    """Build a :class:`Constituent` from a kernel and its launch binding."""
    model = extract_model(kernel)
    if model is None:
        raise TransformError(f"kernel {kernel.name!r} is not canonical")
    pointer_names = [p.name for p in kernel.pointer_params()]
    scalar_names = [p.name for p in kernel.scalar_params()]
    if len(pointer_names) != len(array_args):
        raise TransformError(f"kernel {kernel.name!r}: pointer arg mismatch")
    if len(scalar_names) != len(scalar_args) or len(scalar_names) != len(scalar_values):
        raise TransformError(f"kernel {kernel.name!r}: scalar arg mismatch")
    return Constituent(
        model=model,
        array_binding=dict(zip(pointer_names, array_args)),
        scalar_binding=dict(zip(scalar_names, scalar_args)),
        scalar_values=dict(zip(scalar_names, scalar_values)),
        grid=grid,
        block=block,
    )

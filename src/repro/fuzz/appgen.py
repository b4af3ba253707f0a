"""Seeded random stencil-application generator.

Every generated program is assembled through the same
:class:`~repro.apps.base.AppBuilder` the six paper apps use, so it enters
the pipeline through the production front door: kernels with the standard
``nx/ny/nz`` scalar tail, a host ``main`` with ``cudaMalloc*`` +
``deviceRandom`` initialization and ``<<<grid, block>>>`` launches.

Generation is a pure function of ``(seed, spec)``: the same pair yields a
byte-identical program in any process (see the ``zlib.crc32`` note in
:class:`~repro.apps.base.AppBuilder`), which is what makes corpus replay
and cross-run triage possible.

Knobs live on :class:`FuzzSpec`; each kernel is drawn from the weighted
``ARCHETYPES`` mix:

``stencil`` / ``pointwise`` / ``fused`` / ``deep_loop`` / ``boundary`` /
``compute`` / ``latency``
    The paper-app structural vocabulary (3D arrays, vertical ``k`` loops).
``shared``
    Tile staged through ``__shared__`` memory (2D, exact-fit domain);
    batchable, so ``auto`` runs it on the batched lattice.
``race``
    In-place update through a shared tile: one array read and written,
    but each element only by its own thread — the per-element watch must
    admit it to the batched lattice (no fallback, no hazard replay).
``unlowerable``
    Maybe-defined scalar read with no bounds guard (2D, exact-fit
    domain): the member shape behind the ``fused execution failed``
    demotions (ROADMAP item 5).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..apps.base import AppBuilder, AppSpec, GeneratedApp

__all__ = ["ARCHETYPES", "FuzzSpec", "default_spec", "generate_app"]

#: every kernel archetype the generator can emit
ARCHETYPES = (
    "stencil",
    "pointwise",
    "fused",
    "deep_loop",
    "boundary",
    "compute",
    "latency",
    "shared",
    "race",
    "unlowerable",
)

#: default archetype mix: mostly paper-shaped kernels, with a steady
#: trickle of the interpreter's edge cases
_DEFAULT_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("stencil", 4.0),
    ("pointwise", 2.0),
    ("fused", 1.5),
    ("deep_loop", 1.0),
    ("boundary", 1.0),
    ("compute", 1.0),
    ("latency", 0.5),
    ("shared", 1.5),
    ("race", 0.75),
    ("unlowerable", 0.75),
)

#: exact-fit (domain, block) geometries — nx/ny are multiples of the
#: block so the unguarded shared-tile archetypes never read out of range
_GEOMETRIES: Tuple[Tuple[Tuple[int, int, int], Tuple[int, int, int]], ...] = (
    ((16, 16, 3), (8, 8, 1)),
    ((32, 16, 2), (8, 8, 1)),
    ((24, 24, 4), (8, 8, 1)),
    ((32, 32, 2), (16, 8, 1)),
)


@dataclass(frozen=True)
class FuzzSpec:
    """Generation parameters (all bounds inclusive)."""

    min_kernels: int = 2
    max_kernels: int = 6
    #: cap on distinct arrays per dimensionality pool
    max_arrays: int = 6
    #: star-stencil radius drawn from [0, max_radius]
    max_radius: int = 2
    #: max input arrays combined by one stencil/fused component
    max_stencil_inputs: int = 3
    #: probability a kernel input reuses an already-written array
    #: (producer->consumer chains) instead of an untouched one
    sharing_density: float = 0.6
    #: archetype -> relative draw weight; zero removes an archetype
    weights: Tuple[Tuple[str, float], ...] = _DEFAULT_WEIGHTS
    #: candidate exact-fit (domain, block) geometries
    geometries: Tuple[
        Tuple[Tuple[int, int, int], Tuple[int, int, int]], ...
    ] = _GEOMETRIES
    #: inner trip count for deep_loop kernels
    deep_loop_trips: int = 3
    #: transcendental chain length for compute kernels
    compute_intensity: int = 6

    def __post_init__(self) -> None:
        if not 1 <= self.min_kernels <= self.max_kernels:
            raise ValueError("need 1 <= min_kernels <= max_kernels")
        unknown = {name for name, _ in self.weights} - set(ARCHETYPES)
        if unknown:
            raise ValueError(f"unknown archetype(s): {sorted(unknown)}")
        if not any(w > 0 for _, w in self.weights):
            raise ValueError("at least one archetype weight must be positive")
        if not self.geometries:
            raise ValueError("need at least one geometry")
        for (nx, ny, _), (bx, by, bz) in self.geometries:
            if nx % bx or ny % by or bz != 1:
                raise ValueError(
                    f"geometry ({nx},{ny})/({bx},{by},{bz}) is not exact-fit"
                )


def default_spec() -> FuzzSpec:
    return FuzzSpec()


@dataclass
class _Gen:
    """One generation run's mutable state."""

    spec: FuzzSpec
    rng: random.Random
    builder: AppBuilder
    #: 3D working arrays (prefix ``a``) and 2D tile arrays (prefix ``s``)
    pool3: List[str] = field(default_factory=list)
    pool2: List[str] = field(default_factory=list)
    written: Dict[str, bool] = field(default_factory=dict)

    def array(self, dims: int = 3) -> str:
        pool = self.pool3 if dims == 3 else self.pool2
        if len(pool) < 2 or (
            len(pool) < self.spec.max_arrays
            and self.rng.random() >= self.spec.sharing_density
        ):
            name = self.builder.new_array("a" if dims == 3 else "s", dims=dims)
            pool.append(name)
            return name
        written = [a for a in pool if self.written.get(a)]
        if written and self.rng.random() < self.spec.sharing_density:
            return self.rng.choice(written)
        return self.rng.choice(pool)

    def distinct(self, count: int, dims: int = 3) -> List[str]:
        names: List[str] = []
        for _ in range(count * 4):
            name = self.array(dims)
            if name not in names:
                names.append(name)
            if len(names) == count:
                break
        # random picks can collide in a small pool — top up with fresh
        # arrays (past the soft cap) so callers always get their arity
        pool = self.pool3 if dims == 3 else self.pool2
        while len(names) < count:
            name = self.builder.new_array("a" if dims == 3 else "s", dims=dims)
            pool.append(name)
            names.append(name)
        return names


def _emit(gen: _Gen, archetype: str, name: str) -> None:
    spec, rng, bld = gen.spec, gen.rng, gen.builder
    radius = lambda: rng.randint(0, spec.max_radius)  # noqa: E731
    if archetype == "stencil":
        ins = gen.distinct(rng.randint(1, spec.max_stencil_inputs))
        out = gen.array()
        bld.stencil_kernel(name, out, [(a, radius()) for a in ins])
    elif archetype == "pointwise":
        ins = gen.distinct(rng.randint(1, spec.max_stencil_inputs))
        out = gen.array()
        bld.pointwise_kernel(name, out, ins)
    elif archetype == "fused":
        components = []
        for out in gen.distinct(2):
            ins = [a for a in gen.distinct(rng.randint(1, 2)) if a != out]
            if not ins:
                ins = [gen.array()]
            components.append((out, [(a, radius()) for a in ins]))
        bld.fused_like_kernel(name, components)
    elif archetype == "deep_loop":
        ins = gen.distinct(rng.randint(1, 2))
        out = gen.array()
        bld.deep_loop_kernel(
            name, out, [(a, radius()) for a in ins], inner_trips=spec.deep_loop_trips
        )
    elif archetype == "boundary":
        src, out = gen.array(), gen.array()
        bld.boundary_kernel(name, out, src)
        gen.written[out] = True
        return
    elif archetype == "compute":
        src, out = gen.array(), gen.array()
        bld.compute_bound_kernel(name, out, src, intensity=spec.compute_intensity)
        gen.written[out] = True
        return
    elif archetype == "latency":
        src, out = gen.array(), gen.array()
        bld.latency_kernel(name, out, src)
        gen.written[out] = True
        return
    elif archetype == "shared":
        src, out = gen.distinct(2, dims=2)
        bld.shared_tile_kernel(name, out, src, radius=max(1, radius()))
        gen.written[out] = True
        return
    elif archetype == "race":
        arr = gen.array(dims=2)
        bld.inplace_shared_kernel(name, arr)
        gen.written[arr] = True
        return
    elif archetype == "unlowerable":
        src, out = gen.distinct(2, dims=2)
        bld.maybe_defined_kernel(name, out, src)
        gen.written[out] = True
        return
    else:  # pragma: no cover - FuzzSpec validates archetype names
        raise ValueError(f"unknown archetype {archetype!r}")
    # the stencil-family branches fall through to mark their outputs
    if archetype in ("stencil", "pointwise", "deep_loop"):
        gen.written[out] = True
    elif archetype == "fused":
        for out, _ in components:
            gen.written[out] = True


def generate_app(seed: int, spec: Optional[FuzzSpec] = None) -> GeneratedApp:
    """Generate application ``fuzz{seed:06d}`` — a pure function of inputs."""
    spec = spec or default_spec()
    rng = random.Random(seed)
    domain, block = spec.geometries[rng.randrange(len(spec.geometries))]
    app_spec = AppSpec(
        name=f"fuzz{seed:06d}",
        domain=domain,
        block=block,
        paper_kernels=0,
        paper_arrays=0,
        paper_targets=0,
        paper_new_kernels=0,
        paper_speedup=(1.0, 1.0),
    )
    builder = AppBuilder(app_spec, seed=seed)
    gen = _Gen(spec=spec, rng=rng, builder=builder)
    names = [name for name, weight in spec.weights if weight > 0]
    weights = [weight for _, weight in spec.weights if weight > 0]
    count = rng.randint(spec.min_kernels, spec.max_kernels)
    for index in range(count):
        archetype = rng.choices(names, weights=weights, k=1)[0]
        _emit(gen, archetype, f"{archetype}_{index}")
    return builder.build()

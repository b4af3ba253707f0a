"""Per-group semantic verification of generated fused kernels.

The whole-program verification stage (§5 of the paper) checks the final
transformed program; this gate checks each *fused group* the moment it is
generated, by executing the fused kernel and its unfused constituents on
the CudaLite interpreter over deterministically synthesized inputs and
comparing outputs bit-for-bit.  A group that fails here is demoted down
the fusion ladder instead of poisoning the final program.

Determinism: inputs are drawn from a per-array ``numpy`` generator seeded
by ``sha256(seed, array_name)``, so a verdict depends only on the kernels
and the configured seed — never on worker count, scheduling or host
state.

The gate is configured by a :class:`VerifyConfig` the caller passes
(``TransformConfig.verify_groups`` / ``verify_seed`` on a pipeline
run); nothing here reads ambient process state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError
from ..gpu.interpreter import Dim3, differing_cells, launch_kernel


@dataclass(frozen=True)
class VerifyConfig:
    """Gate configuration."""

    enabled: bool = True
    #: input-synthesis seed
    seed: int = 0


#: every ``GroupVerdict.status`` a gate reaches (``materialize`` records a
#: group whose gate is off as ``"skipped"``)
GROUP_STATUSES = ("pass", "fail", "inconclusive")


@dataclass(frozen=True)
class GroupVerdict:
    """Outcome of verifying one fused group.

    ``status`` is ``"pass"``, ``"fail"`` or ``"inconclusive"`` (the
    baseline itself could not run, or inputs could not be synthesized —
    the fusion is kept, since there is no evidence against it), or
    ``"skipped"`` for a group ``materialize`` fused with the gate off.
    """

    kernel: str
    members: Tuple[str, ...]
    status: str
    cause: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _array_seed(base: int, name: str) -> int:
    digest = hashlib.sha256(f"{base}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _array_dtypes(constituents: Sequence[object]) -> Dict[str, np.dtype]:
    """Host array name → dtype, from the constituent kernels' signatures."""
    dtypes: Dict[str, np.dtype] = {}
    for binding in constituents:
        pointer_params = [
            p for p in binding.kernel.params if p.type.is_pointer
        ]
        for param, host in zip(pointer_params, binding.array_args):
            dtype = np.int64 if param.type.base == "int" else np.float64
            dtypes.setdefault(host, np.dtype(dtype))
    return dtypes


def synthesize_inputs(
    names: Sequence[str],
    array_shapes: Mapping[str, Tuple[int, ...]],
    dtypes: Mapping[str, np.dtype],
    seed: int,
) -> Dict[str, np.ndarray]:
    """Deterministic per-array inputs, independent of iteration order."""
    arrays: Dict[str, np.ndarray] = {}
    for name in names:
        shape = array_shapes[name]
        rng = np.random.default_rng(_array_seed(seed, name))
        dtype = dtypes.get(name, np.dtype(np.float64))
        if np.issubdtype(dtype, np.integer):
            arrays[name] = rng.integers(0, 5, size=shape, dtype=np.int64)
        else:
            arrays[name] = rng.random(shape)
    return arrays


def _kernel_args(
    kernel,
    array_args: Sequence[str],
    scalar_values: Sequence[float],
    arrays: Mapping[str, np.ndarray],
) -> List[object]:
    """Interleave arrays and scalars back into kernel-parameter order."""
    args: List[object] = []
    arr_it = iter(array_args)
    scalar_it = iter(scalar_values)
    for param in kernel.params:
        if param.type.is_pointer:
            args.append(arrays[next(arr_it)])
        else:
            value = next(scalar_it)
            args.append(int(value) if param.type.base == "int" else float(value))
    return args


def _launch(
    binding, arrays: Mapping[str, np.ndarray], block_exec: Optional[str]
) -> None:
    launch_kernel(
        binding.kernel,
        Dim3(*binding.grid),
        Dim3(*binding.block),
        _kernel_args(binding.kernel, binding.array_args, binding.scalar_values, arrays),
        block_exec=block_exec,
    )


def verify_group(
    fused,
    constituents: Sequence[object],
    array_shapes: Mapping[str, Tuple[int, ...]],
    compare_arrays: Optional[Sequence[str]] = None,
    config: Optional[VerifyConfig] = None,
    *,
    block_exec: Optional[str] = None,
) -> GroupVerdict:
    """Execute ``fused`` against its unfused ``constituents`` and compare.

    ``fused`` needs ``kernel``/``pointer_args``/``scalar_values``/
    ``grid``/``block`` (a :class:`~repro.transform.fusion.FusedKernel`);
    each constituent needs ``kernel``/``array_args``/``scalar_values``/
    ``grid``/``block`` (a
    :class:`~repro.search.problem_builder.CodegenBinding`).
    ``compare_arrays`` restricts the comparison (defaults to every array
    either side touches).  ``block_exec`` is handed to every
    :func:`~repro.gpu.interpreter.launch_kernel` call.
    """
    config = config or VerifyConfig()
    members = tuple(getattr(fused, "constituents", ()))
    if not config.enabled:
        return GroupVerdict(fused.kernel.name, members, "pass", "gate disabled")

    needed: List[str] = []
    for binding in constituents:
        for name in binding.array_args:
            if name not in needed:
                needed.append(name)
    for name in fused.pointer_args:
        if name not in needed:
            needed.append(name)
    missing = [n for n in needed if n not in array_shapes]
    if missing:
        return GroupVerdict(
            fused.kernel.name,
            members,
            "inconclusive",
            f"no shape known for array(s) {', '.join(sorted(missing))}",
        )

    dtypes = _array_dtypes(constituents)
    inputs = synthesize_inputs(needed, array_shapes, dtypes, config.seed)

    # --- baseline: the unfused constituents, launched in order
    baseline = {name: arr.copy() for name, arr in inputs.items()}
    try:
        for binding in constituents:
            _launch(binding, baseline, block_exec)
    except ReproError as exc:
        return GroupVerdict(
            fused.kernel.name,
            members,
            "inconclusive",
            f"baseline execution failed: {exc}",
        )

    # --- candidate: the fused kernel over the same inputs
    candidate = {name: arr.copy() for name, arr in inputs.items()}
    try:
        launch_kernel(
            fused.kernel,
            Dim3(*fused.grid),
            Dim3(*fused.block),
            _kernel_args(
                fused.kernel, fused.pointer_args, fused.scalar_values, candidate
            ),
            block_exec=block_exec,
        )
    except ReproError as exc:
        return GroupVerdict(
            fused.kernel.name, members, "fail", f"fused execution failed: {exc}"
        )

    compare = list(compare_arrays) if compare_arrays else needed
    for name in compare:
        if name not in baseline:
            continue
        a, b = baseline[name], candidate[name]
        differ = differing_cells(a, b)
        if differ.any():
            diff = np.abs(a[differ].astype(np.float64) - b[differ].astype(np.float64))
            return GroupVerdict(
                fused.kernel.name,
                members,
                "fail",
                f"output mismatch on array {name!r} "
                f"({int(differ.sum())} cells differ, max |diff| {np.max(diff):.3e})",
            )
    return GroupVerdict(fused.kernel.name, members, "pass")

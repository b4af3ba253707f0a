"""The three metadata files of the transformation (§3.2.1).

Stage one of the pipeline emits *performance*, *operations* and *device*
metadata as plain text files that the programmer can inspect and amend
before passing them to later stages — exactly the intervention surface the
paper describes.  This module defines the in-memory containers and the
text round-trip.

File format: a simple sectioned key/value layout (``[kernel <name>]`` /
``key = value``) chosen for hand-editability.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from typing import TYPE_CHECKING

from ..errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (gpu -> analysis)
    from ..gpu.device import DeviceSpec


@dataclass
class KernelPerformance:
    """Performance metadata for one kernel (profiling-run output)."""

    kernel: str
    invocations: int
    runtime_s: float
    gflops: float
    effective_bandwidth_gbs: float
    shared_mem_per_block: int
    regs_per_thread: int
    active_threads: int
    active_blocks_per_sm: int
    occupancy: float
    flops: float
    bytes_moved: float
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]


@dataclass
class KernelOperations:
    """Operations metadata for one kernel (static-analysis output)."""

    kernel: str
    #: Stencil shape label per array, e.g. ``{"B": "star-5pt-r1"}``.
    stencil_shapes: Dict[str, str] = field(default_factory=dict)
    #: Per-array halo radius.
    radius: Dict[str, int] = field(default_factory=dict)
    #: Arrays read / written (actual host array names).
    arrays_read: List[str] = field(default_factory=list)
    arrays_written: List[str] = field(default_factory=list)
    #: Arrays also touched by at least one other kernel.
    shared_arrays: List[str] = field(default_factory=list)
    #: FLOPs attributable to each array's statements.
    flops_per_array: Dict[str, float] = field(default_factory=dict)
    #: Loop sizes (trip counts; -1 when not statically constant).
    loop_sizes: Dict[str, int] = field(default_factory=dict)
    loop_depth: int = 0
    #: Unit access stride along the thread-mapped dimension.
    unit_stride: bool = True
    irregular: bool = False
    uses_shared_memory: bool = False
    #: Fraction of launched threads that are active (boundary kernels are
    #: characterized by a small fraction / pinned axes).
    active_fraction: float = 1.0
    #: Whether the kernel has separable data arrays (fission candidates).
    fissionable: bool = False
    #: FLOPs per active point (operational-intensity numerator density).
    flops_per_point: float = 0.0


@dataclass
class ProgramMetadata:
    """Aggregate of the three metadata files plus the launch trace."""

    device: "DeviceSpec"
    performance: Dict[str, KernelPerformance] = field(default_factory=dict)
    operations: Dict[str, KernelOperations] = field(default_factory=dict)
    #: Launch order: (kernel, host array args in param order, grid, block,
    #: scalar argument values in param order).
    launch_order: List[
        Tuple[
            str,
            Tuple[str, ...],
            Tuple[int, int, int],
            Tuple[int, int, int],
            Tuple[float, ...],
        ]
    ] = field(default_factory=list)
    #: Host array shapes.
    array_shapes: Dict[str, Tuple[int, ...]] = field(default_factory=dict)

    # ------------------------------------------------------------------ queries

    def kernels(self) -> List[str]:
        return sorted(self.performance)

    def total_runtime_s(self) -> float:
        return sum(
            p.runtime_s * p.invocations for p in self.performance.values()
        )

    def arrays(self) -> Set[str]:
        return set(self.array_shapes)

    def copy(self) -> "ProgramMetadata":
        """An independent copy: amending it leaves this one as it was."""
        return ProgramMetadata(
            device=self.device,
            performance={k: copy.copy(v) for k, v in self.performance.items()},
            operations={k: _copy_record(v) for k, v in self.operations.items()},
            launch_order=list(self.launch_order),
            array_shapes=dict(self.array_shapes),
        )

    # ---------------------------------------------------------------- file IO

    def write(self, directory: str | Path) -> None:
        """Write the three metadata files into ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "performance.meta").write_text(self._perf_text())
        (directory / "operations.meta").write_text(self._ops_text())
        (directory / "device.meta").write_text(self._device_text())

    def _perf_text(self) -> str:
        lines = ["# performance metadata (one section per kernel)"]
        for name in sorted(self.performance):
            p = self.performance[name]
            lines.append(f"[kernel {name}]")
            lines.append(f"invocations = {p.invocations}")
            lines.append(f"runtime_s = {p.runtime_s!r}")
            lines.append(f"gflops = {p.gflops!r}")
            lines.append(f"effective_bandwidth_gbs = {p.effective_bandwidth_gbs!r}")
            lines.append(f"shared_mem_per_block = {p.shared_mem_per_block}")
            lines.append(f"regs_per_thread = {p.regs_per_thread}")
            lines.append(f"active_threads = {p.active_threads}")
            lines.append(f"active_blocks_per_sm = {p.active_blocks_per_sm}")
            lines.append(f"occupancy = {p.occupancy!r}")
            lines.append(f"flops = {p.flops!r}")
            lines.append(f"bytes_moved = {p.bytes_moved!r}")
            lines.append(f"grid = {p.grid[0]} {p.grid[1]} {p.grid[2]}")
            lines.append(f"block = {p.block[0]} {p.block[1]} {p.block[2]}")
            lines.append("")
        return "\n".join(lines) + "\n"

    def _ops_text(self) -> str:
        lines = ["# operations metadata (one section per kernel)"]
        for name in sorted(self.operations):
            o = self.operations[name]
            lines.append(f"[kernel {name}]")
            lines.append(f"stencil_shapes = {json.dumps(o.stencil_shapes)}")
            lines.append(f"radius = {json.dumps(o.radius)}")
            lines.append(f"arrays_read = {json.dumps(o.arrays_read)}")
            lines.append(f"arrays_written = {json.dumps(o.arrays_written)}")
            lines.append(f"shared_arrays = {json.dumps(o.shared_arrays)}")
            lines.append(f"flops_per_array = {json.dumps(o.flops_per_array)}")
            lines.append(f"loop_sizes = {json.dumps(o.loop_sizes)}")
            lines.append(f"loop_depth = {o.loop_depth}")
            lines.append(f"unit_stride = {o.unit_stride}")
            lines.append(f"irregular = {o.irregular}")
            lines.append(f"uses_shared_memory = {o.uses_shared_memory}")
            lines.append(f"active_fraction = {o.active_fraction!r}")
            lines.append(f"fissionable = {o.fissionable}")
            lines.append(f"flops_per_point = {o.flops_per_point!r}")
            lines.append("")
        lines.append("[launch_order]")
        for kernel, args, grid, block, scalars in self.launch_order:
            lines.append(
                "launch = "
                + json.dumps([kernel, list(args), list(grid), list(block), list(scalars)])
            )
        lines.append("")
        lines.append("[arrays]")
        for name in sorted(self.array_shapes):
            lines.append(f"{name} = {json.dumps(list(self.array_shapes[name]))}")
        return "\n".join(lines) + "\n"

    def _device_text(self) -> str:
        payload = asdict(self.device)
        lines = ["# device metadata (deviceQuery output)", "[device]"]
        for key, value in payload.items():
            lines.append(f"{key} = {value!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def read(cls, directory: str | Path) -> "ProgramMetadata":
        """Parse the three metadata files back (after possible hand edits)."""
        directory = Path(directory)
        device = _parse_device((directory / "device.meta").read_text())
        meta = cls(device=device)
        _parse_perf((directory / "performance.meta").read_text(), meta)
        _parse_ops((directory / "operations.meta").read_text(), meta)
        return meta


def _copy_record(record):
    """A copy of a flat record whose dict / list fields are copied too."""
    dup = copy.copy(record)
    for name, value in vars(record).items():
        if isinstance(value, (dict, list)):
            setattr(dup, name, type(value)(value))
    return dup


def _sections(text: str) -> List[Tuple[str, Dict[str, str]]]:
    sections: List[Tuple[str, Dict[str, str]]] = []
    current: Optional[Dict[str, str]] = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = {}
            sections.append((line[1:-1], current))
            continue
        if current is None or "=" not in line:
            raise AnalysisError(f"malformed metadata line: {raw!r}")
        key, _, value = line.partition("=")
        existing = current.get(key.strip())
        if existing is not None and key.strip() == "launch":
            current[key.strip()] = existing + "\x00" + value.strip()
        else:
            current[key.strip()] = value.strip()
    return sections


def _parse_device(text: str) -> "DeviceSpec":
    for header, kv in _sections(text):
        if header == "device":
            from ..gpu.device import DeviceSpec

            fields = {}
            for key, value in kv.items():
                fields[key] = eval(value, {"__builtins__": {}})  # literals only
            return DeviceSpec(**fields)
    raise AnalysisError("device.meta has no [device] section")


def _parse_perf(text: str, meta: ProgramMetadata) -> None:
    for header, kv in _sections(text):
        if not header.startswith("kernel "):
            continue
        name = header[len("kernel ") :]
        grid = tuple(int(v) for v in kv["grid"].split())
        block = tuple(int(v) for v in kv["block"].split())
        meta.performance[name] = KernelPerformance(
            kernel=name,
            invocations=int(kv["invocations"]),
            runtime_s=float(kv["runtime_s"]),
            gflops=float(kv["gflops"]),
            effective_bandwidth_gbs=float(kv["effective_bandwidth_gbs"]),
            shared_mem_per_block=int(kv["shared_mem_per_block"]),
            regs_per_thread=int(kv["regs_per_thread"]),
            active_threads=int(kv["active_threads"]),
            active_blocks_per_sm=int(kv["active_blocks_per_sm"]),
            occupancy=float(kv["occupancy"]),
            flops=float(kv["flops"]),
            bytes_moved=float(kv["bytes_moved"]),
            grid=grid,  # type: ignore[arg-type]
            block=block,  # type: ignore[arg-type]
        )


def _parse_bool(value: str) -> bool:
    return value.strip() in ("True", "true", "1")


def _parse_ops(text: str, meta: ProgramMetadata) -> None:
    for header, kv in _sections(text):
        if header.startswith("kernel "):
            name = header[len("kernel ") :]
            meta.operations[name] = KernelOperations(
                kernel=name,
                stencil_shapes=json.loads(kv["stencil_shapes"]),
                radius={k: int(v) for k, v in json.loads(kv["radius"]).items()},
                arrays_read=json.loads(kv["arrays_read"]),
                arrays_written=json.loads(kv["arrays_written"]),
                shared_arrays=json.loads(kv["shared_arrays"]),
                flops_per_array=json.loads(kv["flops_per_array"]),
                loop_sizes={k: int(v) for k, v in json.loads(kv["loop_sizes"]).items()},
                loop_depth=int(kv["loop_depth"]),
                unit_stride=_parse_bool(kv["unit_stride"]),
                irregular=_parse_bool(kv["irregular"]),
                uses_shared_memory=_parse_bool(kv["uses_shared_memory"]),
                active_fraction=float(kv["active_fraction"]),
                fissionable=_parse_bool(kv["fissionable"]),
                flops_per_point=float(kv["flops_per_point"]),
            )
        elif header == "launch_order":
            launches = kv.get("launch", "")
            for chunk in launches.split("\x00"):
                if not chunk:
                    continue
                entry = json.loads(chunk)
                kernel, args, grid, block = entry[:4]
                scalars = entry[4] if len(entry) > 4 else []
                meta.launch_order.append(
                    (kernel, tuple(args), tuple(grid), tuple(block), tuple(scalars))
                )
        elif header == "arrays":
            for name, value in kv.items():
                meta.array_shapes[name] = tuple(json.loads(value))

"""Target identification: which kernels enter the fusion search (§3.2.2, §5.2).

The framework automatically excludes two kinds of kernels from the search
space (they stay in the DDG/OEG for precedence but are tagged ineligible):

* **compute-bound kernels** — identified by mapping operational intensity
  onto the Roofline model; fusing them cannot help and they bloat the
  search space;
* **boundary kernels** — memory-bound kernels operating on a small subset
  of the arrays (e.g. boundary-condition updates on a few 2-D planes),
  identified by a small active-iteration fraction.

Kernels with irregular (non-affine) accesses are also excluded, per the
paper's supported-stencil restrictions.

The paper's Fluam case study shows the automated filter's known blind spot:
latency-bound kernels whose metadata *looks* memory-bound pass the filter
and slow GGA convergence; only manual filtering removes them.  The
``manual_exclusions`` parameter models that intervention.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Set

from ..analysis.metadata import ProgramMetadata
from ..gpu.device import DeviceSpec
from .roofline import classify

#: Kernels whose active fraction is below this are treated as boundary
#: kernels (they touch a few planes of the domain only).
BOUNDARY_ACTIVE_FRACTION = 0.30


@dataclass
class FilterDecision:
    """Why a kernel was kept or excluded."""

    kernel: str
    eligible: bool
    reason: str
    operational_intensity: float = 0.0
    active_fraction: float = 1.0


@dataclass
class TargetReport:
    """Output of the target-identification stage."""

    decisions: Dict[str, FilterDecision] = field(default_factory=dict)

    def copy(self) -> "TargetReport":
        """An independent copy: amending it leaves this one as it was."""
        return TargetReport({k: replace(d) for k, d in self.decisions.items()})

    @property
    def targets(self) -> List[str]:
        return sorted(k for k, d in self.decisions.items() if d.eligible)

    @property
    def excluded(self) -> List[str]:
        return sorted(k for k, d in self.decisions.items() if not d.eligible)

    def reason(self, kernel: str) -> str:
        return self.decisions[kernel].reason

    def summary(self) -> str:
        lines = [f"targets: {len(self.targets)} / {len(self.decisions)} kernels"]
        for kernel in sorted(self.decisions):
            d = self.decisions[kernel]
            mark = "+" if d.eligible else "-"
            lines.append(f"  {mark} {kernel}: {d.reason}")
        return "\n".join(lines)


def identify_targets(
    metadata: ProgramMetadata,
    device: Optional[DeviceSpec] = None,
    boundary_fraction: float = BOUNDARY_ACTIVE_FRACTION,
    manual_exclusions: Iterable[str] = (),
    disable_filtering: bool = False,
) -> TargetReport:
    """Decide the fusion targets from the gathered metadata.

    Parameters
    ----------
    metadata:
        Output of the metadata-gathering stage.
    device:
        Defaults to the device recorded in the metadata.
    boundary_fraction:
        Active-iteration-fraction threshold below which a memory-bound
        kernel is classified as a boundary kernel.
    manual_exclusions:
        Kernel names the programmer excludes by hand (the Fluam-style
        intervention).  Applied on top of the automatic rules.
    disable_filtering:
        Keep every kernel as a target (used to measure how much the filter
        helps GGA convergence — the paper reports 2.5x slower without it).
    """
    device = device or metadata.device
    manual = set(manual_exclusions)
    report = TargetReport()
    for name in metadata.kernels():
        perf = metadata.performance[name]
        ops = metadata.operations.get(name)
        if disable_filtering:
            report.decisions[name] = FilterDecision(
                name, True, "filtering disabled", 0.0,
                ops.active_fraction if ops else 1.0,
            )
            continue
        if name in manual:
            report.decisions[name] = FilterDecision(
                name, False, "excluded manually (programmer intervention)"
            )
            continue
        point = classify(name, perf.flops, perf.bytes_moved, device)
        active_fraction = ops.active_fraction if ops else 1.0
        if ops is not None and ops.irregular:
            report.decisions[name] = FilterDecision(
                name,
                False,
                "irregular access pattern (unsupported stencil)",
                point.operational_intensity,
                active_fraction,
            )
            continue
        if point.is_compute_bound:
            report.decisions[name] = FilterDecision(
                name,
                False,
                f"compute-bound (OI {point.operational_intensity:.1f} >= "
                f"ridge {point.ridge_point:.1f})",
                point.operational_intensity,
                active_fraction,
            )
            continue
        if active_fraction < boundary_fraction:
            report.decisions[name] = FilterDecision(
                name,
                False,
                f"boundary kernel (active fraction {active_fraction:.2f} < "
                f"{boundary_fraction:.2f})",
                point.operational_intensity,
                active_fraction,
            )
            continue
        report.decisions[name] = FilterDecision(
            name,
            True,
            f"memory-bound target (OI {point.operational_intensity:.2f})",
            point.operational_intensity,
            active_fraction,
        )
    return report


def tag_eligibility(ddg, oeg, report: TargetReport) -> None:
    """Mark DDG/OEG invocation nodes with the filter decision.

    Ineligible kernels stay in the graphs (they still impose precedence,
    §5.2) but are never placed into fusion groups.
    """
    for graph in (ddg, oeg):
        for node, data in graph.nodes(data=True):
            kernel = data.get("kernel")
            if kernel is None:
                continue
            decision = report.decisions.get(kernel)
            data["eligible"] = bool(decision and decision.eligible)

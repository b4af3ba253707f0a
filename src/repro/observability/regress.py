"""The regression sentinel: compare runs, fail CI when the pipeline slows.

:func:`compare_ledger_records` compares the current run with a ledger
baseline and returns plain :class:`Finding` rows the CLI renders and
gates on: per-stage and total wall time may not exceed ``baseline *
threshold`` (with an absolute ``min_seconds`` floor so microsecond
stages cannot trip the ratio), and the projected speedup may not
collapse below ``baseline / threshold``.

Thresholds are deliberately ratio-based: CI runners are noisy, so the
sentinel is tuned to catch collapses (a stage going 2x slower), not
jitter.  Performance across commits is the end-to-end bench's job
(``benchmarks/e2e``), not this module's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Finding",
    "compare_ledger_records",
    "render_findings",
]


@dataclass
class Finding:
    """One compared metric and its verdict."""

    metric: str
    baseline: Optional[float]
    current: Optional[float]
    #: ratio current/baseline (inverted for lower-is-better metrics so
    #: > 1 always means "worse")
    ratio: Optional[float]
    threshold: float
    regressed: bool
    note: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "ratio": None if self.ratio is None else round(self.ratio, 4),
            "threshold": self.threshold,
            "regressed": self.regressed,
            "note": self.note,
        }


def _ratio(worse: float, better: float) -> Optional[float]:
    return None if better <= 0 else worse / better


def compare_ledger_records(
    baseline: Dict[str, object],
    current: Dict[str, object],
    *,
    threshold: float = 1.5,
    min_seconds: float = 0.05,
) -> List[Finding]:
    """Wall-time and speedup findings for two ``repro.run/2`` records."""
    findings: List[Finding] = []
    b_times: Dict[str, float] = baseline["stage_wall_time_s"]
    c_times: Dict[str, float] = current["stage_wall_time_s"]
    for stage in sorted(set(b_times) & set(c_times)):
        b, c = float(b_times[stage]), float(c_times[stage])
        regressed = c > b * threshold and (c - b) > min_seconds
        findings.append(
            Finding(
                metric=f"stage_wall_time_s.{stage}",
                baseline=b,
                current=c,
                ratio=_ratio(c, b),
                threshold=threshold,
                regressed=regressed,
            )
        )
    b_total = float(baseline["total_wall_time_s"])
    c_total = float(current["total_wall_time_s"])
    findings.append(
        Finding(
            metric="total_wall_time_s",
            baseline=b_total,
            current=c_total,
            ratio=_ratio(c_total, b_total),
            threshold=threshold,
            regressed=c_total > b_total * threshold
            and (c_total - b_total) > min_seconds,
        )
    )
    b_speed = baseline["outcome"]["speedup"]
    c_speed = current["outcome"]["speedup"]
    if isinstance(b_speed, (int, float)) and isinstance(c_speed, (int, float)):
        findings.append(
            Finding(
                metric="speedup",
                baseline=float(b_speed),
                current=float(c_speed),
                ratio=_ratio(float(b_speed), float(c_speed)),
                threshold=threshold,
                regressed=float(c_speed) * threshold < float(b_speed),
                note="projected transformation speedup",
            )
        )
    b_store = baseline["store"].get("stats") or {}
    c_store = current["store"].get("stats") or {}
    if "hit_rate" in b_store and "hit_rate" in c_store:
        findings.append(
            Finding(
                metric="store.hit_rate",
                baseline=float(b_store["hit_rate"]),
                current=float(c_store["hit_rate"]),
                ratio=None,
                threshold=threshold,
                regressed=False,
                note="informational",
            )
        )
    return findings


def render_findings(findings: List[Finding]) -> str:
    """Fixed-width table of findings (worst first)."""
    if not findings:
        return "(nothing to compare)"
    rows: List[Tuple[str, str, str, str, str]] = []
    ordered = sorted(
        findings, key=lambda f: (not f.regressed, -(f.ratio or 0.0))
    )
    for f in ordered:
        rows.append(
            (
                "REGRESSED" if f.regressed else "ok",
                f.metric,
                "-" if f.baseline is None else f"{f.baseline:.4g}",
                "-" if f.current is None else f"{f.current:.4g}",
                "-" if f.ratio is None else f"{f.ratio:.2f}x",
            )
        )
    widths = [
        max(len(header), *(len(r[i]) for r in rows))
        for i, header in enumerate(("verdict", "metric", "baseline",
                                    "current", "ratio"))
    ]
    header = ("verdict", "metric", "baseline", "current", "ratio")
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)

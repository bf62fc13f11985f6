"""Cell-by-cell comparison of two stored matrices.

``repro warehouse diff STORE BASE CURRENT`` loads the latest record
per cell for each commit and reports, per cell: status transitions,
engine changes, security deltas (key-recovery rate, query bills, outcome-fingerprint
movement) and timing deltas.  Security outcomes are deterministic
functions of the configuration seed, so a security delta between
commits is a real behavioural change of the code — the exact signal
the warehouse exists to surface — while timing deltas are labelled
informational.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

#: Fractional timing movement reported as a perf change.
DEFAULT_TIMING_THRESHOLD = 0.20


@dataclass
class MatrixDiff:
    """Outcome of comparing two commits' matrices."""

    lines: List[str]
    security_changes: int
    perf_changes: int
    cells: int

    @property
    def changed(self) -> bool:
        """Whether any security-relevant difference was found."""
        return self.security_changes > 0


def _security_delta(cell: str, base: Dict[str, object],
                    current: Dict[str, object]) -> List[str]:
    lines: List[str] = []
    fields = (
        ("recovery_rate", "recovery rate", "{:.2f}"),
        ("queries_total", "total queries", "{:d}"),
    )
    for field, label, fmt in fields:
        old, new = base.get(field), current.get(field)
        if old != new:
            lines.append(
                f"    {label}: {fmt.format(old)} -> "
                f"{fmt.format(new)}")
    if base.get("outcome_fingerprint") != \
            current.get("outcome_fingerprint"):
        lines.append(
            f"    outcome fingerprint: "
            f"{str(base.get('outcome_fingerprint'))[:12]} -> "
            f"{str(current.get('outcome_fingerprint'))[:12]}")
    return lines


def diff_matrices(base: Dict[str, Dict[str, object]],
                  current: Dict[str, Dict[str, object]],
                  timing_threshold: float = DEFAULT_TIMING_THRESHOLD
                  ) -> MatrixDiff:
    """Compare two ``cell -> record`` matrices.

    Returns printable lines plus counters; cells present on only one
    side are reported as added/removed coverage.
    """
    lines: List[str] = []
    security_changes = 0
    perf_changes = 0
    names = sorted(set(base) | set(current))
    for cell in names:
        old, new = base.get(cell), current.get(cell)
        if old is None:
            lines.append(f"  ADDED     {cell} "
                         f"(status {new['status']})")
            continue
        if new is None:
            lines.append(f"  REMOVED   {cell} "
                         f"(was status {old['status']})")
            continue
        if old["status"] != new["status"]:
            security_changes += 1
            lines.append(f"  STATUS    {cell}: {old['status']} -> "
                         f"{new['status']}")
            continue
        if old["status"] != "ok":
            continue
        if old.get("engine") != new.get("engine"):
            lines.append(f"  ENGINE    {cell}: {old.get('engine')} -> "
                         f"{new.get('engine')}")
        deltas = _security_delta(cell, old["security"],
                                 new["security"])
        if deltas:
            security_changes += 1
            lines.append(f"  SECURITY  {cell}:")
            lines.extend(deltas)
        old_mean = float(old["perf"]["attack_seconds"])
        new_mean = float(new["perf"]["attack_seconds"])
        if old_mean > 0:
            ratio = new_mean / old_mean
            if abs(ratio - 1.0) > timing_threshold:
                perf_changes += 1
                label = ("slower" if ratio > 1 else "faster")
                lines.append(
                    f"  PERF      {cell}: {old_mean:.3f}s -> "
                    f"{new_mean:.3f}s "
                    f"({(ratio - 1.0) * 100.0:+.0f}%, {label})")
    return MatrixDiff(lines, security_changes, perf_changes,
                      len(names))

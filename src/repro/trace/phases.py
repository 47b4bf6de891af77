"""Per-phase trace statistics (the totals printed under Figure 1).

For each phase of a trace, Figure 1 reports, separately for writes,
reads, and code: the number of distinct bytes touched (line-aggregated)
and the raw number of references.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .buffer import TraceBuffer
from .record import RefKind, span_units


@dataclass(frozen=True)
class KindTotals:
    """Distinct bytes (line-aggregated) and raw reference count."""

    bytes: int
    refs: int


@dataclass(frozen=True)
class PhaseStats:
    """Figure-1-style totals for one trace phase."""

    label: str
    write: KindTotals
    read: KindTotals
    code: KindTotals

    def format(self) -> str:
        """Render in the layout the paper prints under each column."""
        return (
            f"{self.label}:\n"
            f"  Write: {self.write.bytes} bytes {self.write.refs} refs\n"
            f"  Read: {self.read.bytes} bytes {self.read.refs} refs\n"
            f"  Code: {self.code.bytes} bytes {self.code.refs} refs"
        )


def _totals(trace: TraceBuffer, sl: slice, kind: RefKind, line_size: int) -> KindTotals:
    mask = trace.kind[sl] == kind.code
    lines, _ = span_units(trace.addr[sl][mask], trace.size[sl][mask], line_size)
    return KindTotals(bytes=np.unique(lines).size * line_size, refs=int(mask.sum()))


def phase_stats(trace: TraceBuffer, line_size: int = 32) -> list[PhaseStats]:
    """Compute Figure-1-style per-phase totals for every phase of a trace."""
    result = []
    for label, sl in trace.phase_slices():
        result.append(
            PhaseStats(
                label=label,
                write=_totals(trace, sl, RefKind.WRITE, line_size),
                read=_totals(trace, sl, RefKind.READ, line_size),
                code=_totals(trace, sl, RefKind.CODE, line_size),
            )
        )
    return result

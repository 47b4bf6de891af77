"""Memory-reference records — the atoms of a trace.

The paper's tracing apparatus (Section 2.2) simulates Alpha instructions
and logs every memory reference to a trace buffer.  A trace stores its
references as int columns (see :class:`~repro.trace.buffer.TraceBuffer`);
:class:`MemRef` is the row view of one of them: what kind of access,
where, how wide, and which function was executing (used for layer
classification, Table 1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import TraceError


class RefKind(enum.Enum):
    """The kind of memory reference."""

    #: Instruction fetch.
    CODE = "C"
    #: Data load.
    READ = "R"
    #: Data store.
    WRITE = "W"

    @classmethod
    def from_letter(cls, letter: str) -> "RefKind":
        """Parse the single-letter encoding used by the trace file format."""
        for kind in cls:
            if kind.value == letter:
                return kind
        raise TraceError(f"unknown reference kind {letter!r}")

    @property
    def code(self) -> int:
        """This kind's value in a trace's ``kind`` column."""
        return KINDS.index(self)


#: Reference kinds in ``kind``-column order.
KINDS = tuple(RefKind)


@dataclass(frozen=True, slots=True)
class MemRef:
    """One memory reference (a row of a trace).

    Attributes
    ----------
    kind:
        Instruction fetch, data read, or data write.
    addr:
        Byte address of the first byte referenced.
    size:
        Number of bytes referenced (4 for an Alpha instruction fetch;
        1..8 for typical data accesses; larger for modelled block moves).
    fn:
        Name of the function executing when the reference occurred, or
        ``None`` when unknown.  Data references are attributed to layers
        through this field (first-touch attribution, Table 1).
    """

    kind: RefKind
    addr: int
    size: int = 4
    fn: str | None = None

    @property
    def end(self) -> int:
        """One past the last byte referenced."""
        return self.addr + self.size

    def is_code(self) -> bool:
        return self.kind is RefKind.CODE

    def is_write(self) -> bool:
        return self.kind is RefKind.WRITE


def span_units(
    addr: np.ndarray, size: np.ndarray, unit: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(units, ref)``: every ``unit``-byte block the references touch, in
    trace order (ascending within a reference), and each one's reference."""
    first = addr // unit
    count = (addr + size - 1) // unit - first + 1
    ref = np.repeat(np.arange(addr.size), count)
    # Unit i is first[ref[i]] plus i minus the index of that reference's
    # first unit; built in place, so one expanded temporary is live.
    first -= np.cumsum(count) - count
    units = first[ref]
    del first
    units += np.arange(ref.size)
    return units, ref

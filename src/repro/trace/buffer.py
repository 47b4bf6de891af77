"""The trace buffer: an append-only log of references plus annotations.

Mirrors the kernel trace buffer of Section 2.2: the instruction
simulator appends references as they happen; phase markers and
call/return events are interleaved so the analysis tools can segment the
trace (Table 2 / Figure 1 phases) and recover the procedure call graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import TraceError
from .record import KINDS, MemRef, RefKind

#: Columns: name, dtype, and the range of values each admits.
_COLUMNS = (
    ("kind", np.int8, 0, len(KINDS) - 1),
    ("address", np.int64, 0, np.iinfo(np.int64).max),
    ("size", np.int32, 1, np.iinfo(np.int32).max),
    ("fn id", np.int32, -1, np.iinfo(np.int32).max),
)


def _block(*columns) -> tuple[np.ndarray, ...]:
    """``(kind, addr, size, fn)`` as checked, owned columns, one value per
    address; a single kind, size or fn is repeated for every address."""
    n = np.size(columns[1])
    block = []
    for values, (name, dtype, low, high) in zip(columns, _COLUMNS):
        values = np.asarray(values)  # range checked before the cast
        if values.size and not (low <= values.min() and values.max() <= high):
            bad = values.min() if values.min() < low else values.max()
            raise TraceError(f"reference {name} must be in [{low}, {high}], got {bad}")
        block.append(values.astype(dtype) if values.ndim else np.full(n, values, dtype))
    return tuple(block)


@dataclass(frozen=True, slots=True)
class PhaseMark:
    """Marks the start of a named trace phase at a reference index."""

    index: int
    label: str


@dataclass(frozen=True, slots=True)
class CallEvent:
    """A procedure call (``enter=True``) or return at a reference index."""

    index: int
    fn: str
    enter: bool


class TraceBuffer:
    """An in-memory trace: reference columns, phase marks, and call events.

    References are four parallel int columns: ``kind`` (an index into
    :data:`~repro.trace.record.KINDS`), ``addr``, ``size`` and ``fn``
    (an index into ``fn_names``, -1 when unknown).  They are appended one
    block at a time and concatenated on first read.  :meth:`rows` is the
    row view: one :class:`MemRef` per reference, built on each call.

    Annotation indices are monotone: they refer to positions in the
    reference stream as it is appended.
    """

    def __init__(self) -> None:
        self.fn_names: list[str] = []
        self._fn_ids: dict[str, int] = {}
        self._blocks: list[tuple[np.ndarray, ...]] = []
        self._len = 0
        self.phase_marks: list[PhaseMark] = []
        self.call_events: list[CallEvent] = []
        self._fn_stack: list[str] = []

    @classmethod
    def from_columns(
        cls,
        columns: Sequence[np.ndarray],
        fn_names: Sequence[str],
        phase_marks: Iterable[PhaseMark] = (),
        call_events: Iterable[CallEvent] = (),
    ) -> "TraceBuffer":
        """A trace over ``(kind, addr, size, fn)`` columns; ``fn`` indexes ``fn_names``."""
        trace = cls()
        for name in fn_names:
            trace._fn_id(name)
        trace._blocks = [_block(*columns)]
        trace._len = trace._blocks[0][1].size
        trace.phase_marks = list(phase_marks)
        trace.call_events = list(call_events)
        return trace

    @classmethod
    def from_rows(
        cls,
        refs: Iterable[MemRef],
        phase_marks: Iterable[PhaseMark] = (),
        call_events: Iterable[CallEvent] = (),
    ) -> "TraceBuffer":
        """A trace holding ``refs`` in order."""
        rows = list(refs)
        names = list(dict.fromkeys(ref.fn for ref in rows if ref.fn is not None))
        ids = {name: index for index, name in enumerate(names)}
        columns = (
            [ref.kind.code for ref in rows],
            [ref.addr for ref in rows],
            [ref.size for ref in rows],
            [ids.get(ref.fn, -1) for ref in rows],
        )
        return cls.from_columns(columns, names, phase_marks, call_events)

    def __len__(self) -> int:
        return self._len

    def _fn_id(self, fn: str | None) -> int:
        if fn is None:
            return -1
        if fn not in self._fn_ids:
            self._fn_ids[fn] = len(self.fn_names)
            self.fn_names.append(fn)
        return self._fn_ids[fn]

    def _columns(self) -> tuple[np.ndarray, ...]:
        if len(self._blocks) != 1:
            empty = tuple(np.empty(0, dtype) for _, dtype, _, _ in _COLUMNS)
            self._blocks = [tuple(map(np.concatenate, zip(empty, *self._blocks)))]
        return self._blocks[0]

    kind = property(lambda self: self._columns()[0])
    addr = property(lambda self: self._columns()[1])
    size = property(lambda self: self._columns()[2])
    fn = property(lambda self: self._columns()[3])

    def rows(self) -> list[MemRef]:
        """The row view: a fresh list of one :class:`MemRef` per reference.

        It is a copy, built on each call: appending to it does not change
        the trace, and a loop should call it once, not per reference.
        """
        names = [*self.fn_names, None]  # fn id -1 indexes the None
        return [
            MemRef(KINDS[kind], addr, size, names[fn])
            for kind, addr, size, fn in zip(*(c.tolist() for c in self._columns()))
        ]

    def append(
        self, kind: RefKind, addr: int | np.ndarray, size: int = 4, fn: str | None = None
    ) -> None:
        """Append references of one kind and size: one per address in ``addr``.

        Without an explicit ``fn``, the function on top of the call stack
        is attached (the tracer knows who is executing).
        """
        addr = np.atleast_1d(addr)
        if not addr.size:
            return
        if fn is None and self._fn_stack:
            fn = self._fn_stack[-1]
        self._blocks.append(_block(kind.code, addr, size, self._fn_id(fn)))
        self._len += addr.size

    def select(self, mask: np.ndarray) -> "TraceBuffer":
        """The references where ``mask`` is true, without annotations."""
        return TraceBuffer.from_columns(
            [column[mask] for column in self._columns()], self.fn_names
        )

    def mark_phase(self, label: str) -> None:
        """Start a new phase at the current position."""
        if self.phase_marks and self.phase_marks[-1].index == self._len:
            raise TraceError(
                f"phase {self.phase_marks[-1].label!r} would be empty; "
                f"refusing to mark {label!r} at the same position"
            )
        self.phase_marks.append(PhaseMark(self._len, label))

    def enter(self, fn: str) -> None:
        """Record entry into function ``fn``."""
        self.call_events.append(CallEvent(self._len, fn, enter=True))
        self._fn_stack.append(fn)

    def leave(self) -> None:
        """Record return from the current function."""
        if not self._fn_stack:
            raise TraceError("return with empty call stack")
        fn = self._fn_stack.pop()
        self.call_events.append(CallEvent(self._len, fn, enter=False))

    def phase_slices(self) -> list[tuple[str, slice]]:
        """Return (label, slice) pairs covering the reference stream.

        References before the first mark belong to an implicit
        ``"prelude"`` phase, which is omitted when empty.
        """
        starts = [(mark.label, mark.index) for mark in self.phase_marks]
        if (starts[0][1] if starts else self._len) > 0:
            starts.insert(0, ("prelude", 0))
        ends = [index for _, index in starts[1:]] + [self._len]
        return [(label, slice(start, end)) for (label, start), end in zip(starts, ends)]

    def phase_slice(self, label: str) -> slice:
        """The reference positions of the named phase (first occurrence)."""
        for name, sl in self.phase_slices():
            if name == label:
                return sl
        raise TraceError(f"no phase named {label!r} in trace")

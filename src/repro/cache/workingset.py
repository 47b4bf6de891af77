"""Working-set analysis of memory traces (Tables 1 and 3).

Definitions follow Section 2 of the paper:

* The *working set* is the set of distinct cache lines referenced during
  a trace, split into **code**, **read-only data** (touched but never
  written during the trace) and **mutable data** (written at least once).
* The unit of memory is a cache line: "a reference to any element in the
  cache line makes the whole cache line part of the working set".
* Code is classified into layers by function; data by the layer of the
  function executing at *first touch*.

The analyzer records references at a fine *atom* granularity (4 bytes,
one Alpha instruction) so the same trace can be re-aggregated at any
line size — that re-aggregation is exactly the paper's Table 3.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..trace.buffer import TraceBuffer
from ..trace.classify import LayerClassifier
from ..trace.record import MemRef, RefKind, span_units
from .line import check_power_of_two


#: References :meth:`WorkingSetAnalyzer.consume` expands at a time.  Each
#: slice is deduplicated on its own and the slices are merged once, so
#: peak memory follows the slice, not the trace: expanding a whole
#: receive-path trace (56k references) at once put the benchmark's
#: receive-path peak RSS at 63.4 MB, against 61.1 MB in slices (CPython
#: 3.11, NumPy 2.4).
_SLICE_REFS = 8192


def _first_touch(units: np.ndarray, owners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct unit once, sorted, with the owner of its first touch
    (np.unique's ``return_index`` is the first occurrence)."""
    units, first = np.unique(units, return_index=True)
    return units, owners[first]


class Category(enum.Enum):
    """Working-set categories used by Table 1."""

    CODE = "code"
    READONLY = "read-only data"
    MUTABLE = "mutable data"


@dataclass(frozen=True)
class CategoryCount:
    """Working-set size of one category: line-aggregated bytes and lines."""

    bytes: int
    lines: int

    def __add__(self, other: "CategoryCount") -> "CategoryCount":
        return CategoryCount(self.bytes + other.bytes, self.lines + other.lines)


ZERO_COUNT = CategoryCount(0, 0)


@dataclass
class WorkingSetReport:
    """Per-layer working-set breakdown at one line size (Table 1 shape)."""

    line_size: int
    per_layer: dict[str, dict[Category, CategoryCount]]

    def layer(self, name: str, category: Category) -> CategoryCount:
        return self.per_layer.get(name, {}).get(category, ZERO_COUNT)

    def total(self, category: Category) -> CategoryCount:
        result = ZERO_COUNT
        for counts in self.per_layer.values():
            result = result + counts.get(category, ZERO_COUNT)
        return result

    def grand_total_bytes(self) -> int:
        return sum(self.total(category).bytes for category in Category)


class WorkingSetAnalyzer:
    """Accumulates references and produces working-set reports.

    Parameters
    ----------
    classifier:
        Function→layer map used for Table-1-style per-layer breakdowns.
        When omitted, everything lands in the ``unclassified`` layer.
    atom_size:
        Granularity at which touches are recorded; must divide every
        line size later queried.  4 bytes (one instruction) by default.
    classification_chunk:
        Granularity of first-touch data attribution (32 bytes, matching
        the paper's classification unit); a multiple of ``atom_size``.
    """

    def __init__(
        self,
        classifier: LayerClassifier | None = None,
        atom_size: int = 4,
        classification_chunk: int = 32,
    ) -> None:
        check_power_of_two(atom_size, "atom size")
        if classification_chunk % atom_size:  # each atom lies in one chunk
            raise ConfigurationError(
                f"classification chunk {classification_chunk} not a multiple of {atom_size}"
            )
        self.atom_size = atom_size
        self.classification_chunk = classification_chunk
        self.classifier = classifier or LayerClassifier()
        self._layers: dict[str, int] = {}  # layer name -> owner id
        # First-touch (units, owner ids) of code atoms and data chunks,
        # and the data and written atoms; all sorted and unique.
        self._code_atoms = self._data_chunks = (np.empty(0, np.int64), np.empty(0, np.int32))
        self._data_atoms = self._written_atoms = np.empty(0, np.int64)

    def consume(self, refs: TraceBuffer | Iterable[MemRef]) -> None:
        """Feed references (a trace, or rows converted to one) into the analysis."""
        trace = refs if isinstance(refs, TraceBuffer) else TraceBuffer.from_rows(refs)
        layers = [self.classifier.layer_of_fn(fn) for fn in [*trace.fn_names, None]]
        fn_layer = np.array(  # fn id -1 indexes the None's layer
            [self._layers.setdefault(name, len(self._layers)) for name in layers], np.int32
        )
        code, chunks = [self._code_atoms], [self._data_chunks]
        data, written = [self._data_atoms], [self._written_atoms]
        for start in range(0, len(trace), _SLICE_REFS):
            sl = slice(start, start + _SLICE_REFS)
            kind, addr, size = trace.kind[sl], trace.addr[sl], trace.size[sl]
            layer = fn_layer[trace.fn[sl]]
            is_code = kind == RefKind.CODE.code
            units, ref = span_units(addr[is_code], size[is_code], self.atom_size)
            code.append(_first_touch(units, layer[is_code][ref]))
            kind, addr, size, layer = (c[~is_code] for c in (kind, addr, size, layer))
            units, ref = span_units(addr, size, self.classification_chunk)
            chunks.append(_first_touch(units, layer[ref]))
            units, ref = span_units(addr, size, self.atom_size)
            data.append(np.unique(units))
            written.append(np.unique(units[kind[ref] == RefKind.WRITE.code]))
        # Earlier slices come first, so first touch carries across them.
        self._code_atoms = _first_touch(*map(np.concatenate, zip(*code)))
        self._data_chunks = _first_touch(*map(np.concatenate, zip(*chunks)))
        self._data_atoms = np.unique(np.concatenate(data))
        self._written_atoms = np.unique(np.concatenate(written))

    def _check_line_size(self, line_size: int) -> int:
        check_power_of_two(line_size, "line size")
        if line_size < self.atom_size:
            raise ConfigurationError(
                f"line size {line_size} below atom size {self.atom_size}"
            )
        return line_size // self.atom_size

    def report(self, line_size: int = 32) -> WorkingSetReport:
        """Produce a per-layer working-set breakdown at ``line_size``."""
        atoms_per_line = self._check_line_size(line_size)
        names = list(self._layers)
        per_layer: dict[str, dict[Category, CategoryCount]] = {}

        def bump(owners: np.ndarray, category: Category) -> None:
            counts = np.bincount(owners, minlength=len(names))
            for owner in np.flatnonzero(counts).tolist():
                lines = int(counts[owner])
                per_layer.setdefault(names[owner], {})[category] = CategoryCount(
                    lines * line_size, lines
                )

        # Code lines: owner = layer of the lowest-addressed touched atom.
        units, owners = self._code_atoms
        _, first = np.unique(units // atoms_per_line, return_index=True)
        bump(owners[first], Category.CODE)

        # Data lines: mutable if any atom in the line was written; owner
        # = first-touch layer of the lowest-addressed touched chunk.
        atoms = self._data_atoms
        _, first = np.unique(atoms // atoms_per_line, return_index=True)
        written = np.isin(atoms, self._written_atoms)
        mutable = (
            np.logical_or.reduceat(written, first) if first.size else written
        )
        chunks, owners = self._data_chunks
        owners = owners[np.searchsorted(
            chunks, atoms[first] * self.atom_size // self.classification_chunk
        )]
        bump(owners[~mutable], Category.READONLY)
        bump(owners[mutable], Category.MUTABLE)
        return WorkingSetReport(line_size=line_size, per_layer=per_layer)

    def totals_at(self, line_size: int) -> dict[Category, CategoryCount]:
        """Total working-set sizes per category at ``line_size``."""
        report = self.report(line_size)
        return {category: report.total(category) for category in Category}

    def line_size_table(
        self,
        line_sizes: Sequence[int] = (4, 8, 16, 32, 64),
        baseline: int = 32,
    ) -> "LineSizeTable":
        """Reproduce Table 3: working-set deltas versus a baseline line size."""
        base = self.totals_at(baseline)
        rows = []
        for size in line_sizes:
            feasible = size >= 8  # Alpha word size: data lines below 8 B are N/A
            totals = self.totals_at(max(size, self.atom_size))
            deltas = {}
            for category in Category:
                if category is not Category.CODE and not feasible:
                    deltas[category] = None
                    continue
                base_count = base[category]
                count = totals[category]
                deltas[category] = LineSizeDelta(
                    bytes_pct=_pct_change(base_count.bytes, count.bytes),
                    lines_pct=_pct_change(base_count.lines, count.lines),
                )
            rows.append(LineSizeRow(line_size=size, deltas=deltas))
        return LineSizeTable(baseline=baseline, rows=rows)


def _pct_change(base: int, value: int) -> float:
    if base == 0:
        return 0.0
    return 100.0 * (value - base) / base


@dataclass(frozen=True)
class LineSizeDelta:
    """Percentage change of bytes and lines versus the baseline line size."""

    bytes_pct: float
    lines_pct: float

    def format(self) -> str:
        return f"{self.bytes_pct:+.0f}% {self.lines_pct:+.0f}%"


@dataclass(frozen=True)
class LineSizeRow:
    line_size: int
    deltas: dict[Category, "LineSizeDelta | None"]


@dataclass(frozen=True)
class LineSizeTable:
    """Table-3-shaped result: one row per line size."""

    baseline: int
    rows: list[LineSizeRow]

    def row(self, line_size: int) -> LineSizeRow:
        for row in self.rows:
            if row.line_size == line_size:
                return row
        raise ConfigurationError(f"no row for line size {line_size}")

"""Cord-style code layout compaction (Section 5.4).

Mosberger et al. "compact the working set of protocol code by moving
rarely executed basic blocks to the end of functions to avoid diluting
the cache with instructions that do not get executed"; the paper
concludes from Table 3 that "about 25% of instructions fetched into the
cache are not executed, and therefore that a perfectly dense cache
layout would reduce the number of cache lines in the working set by
about 25%".

This module measures that *cache dilution* on a receive-path trace and
applies the ideal transformation: per function, executed words are
repacked contiguously from the function's base (untaken branches and
error paths move to the end), producing a new trace whose working set
is what a Cord/Mosberger-optimized kernel would show.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cache.workingset import Category, WorkingSetAnalyzer
from ..trace.buffer import TraceBuffer
from ..trace.record import RefKind
from .receive_path import LINE, WORD, ReceivePathModel


@dataclass(frozen=True)
class DilutionReport:
    """Cache-dilution measurement for the code working set.

    Attributes
    ----------
    executed_bytes:
        Bytes of instructions actually executed (word granularity).
    fetched_bytes:
        Bytes fetched into the cache (line granularity x line size).
    lines_before / lines_after:
        Working-set lines with the real layout versus the perfectly
        dense layout.
    """

    executed_bytes: int
    fetched_bytes: int
    lines_before: int
    lines_after: int

    @property
    def dilution(self) -> float:
        """Fraction of fetched instruction bytes never executed."""
        if not self.fetched_bytes:
            return 0.0
        return 1.0 - self.executed_bytes / self.fetched_bytes


def measure_dilution(analyzer: WorkingSetAnalyzer, line_size: int = 32) -> DilutionReport:
    """Measure code dilution from an existing working-set analysis."""
    at_word = analyzer.totals_at(analyzer.atom_size)[Category.CODE]
    at_line = analyzer.totals_at(line_size)[Category.CODE]
    dense_lines = -(-at_word.bytes // line_size)
    return DilutionReport(
        executed_bytes=at_word.bytes,
        fetched_bytes=at_line.bytes,
        lines_before=at_line.lines,
        lines_after=dense_lines,
    )


def compact_trace(model: ReceivePathModel, trace: TraceBuffer) -> TraceBuffer:
    """Rewrite a trace as a dense per-function layout would produce it.

    For every function, executed words are renumbered 0, 1, 2, ... in
    first-execution order and placed from the function's base address;
    data references and trace structure are untouched.  The result is
    analyzable by the same pipeline as the original.
    """
    kind, addr, size, fn = trace.kind, trace.addr, trace.size, trace.fn
    base = np.array(
        [model._functions[name].base if name in model._functions else -1
         for name in trace.fn_names] + [-1]  # fn id -1 indexes the -1
    )[fn]
    moved = (kind == RefKind.CODE.code) & (base >= 0)
    # Offset of each distinct (function, word) pair: its rank among the
    # function's words by first execution.
    pairs, first, inverse = np.unique(
        (fn[moved].astype(np.int64) << 32) | (addr[moved] // WORD),
        return_index=True,
        return_inverse=True,
    )
    owner = pairs >> 32
    order = np.lexsort((first, owner))
    start = np.searchsorted(owner[order], owner[order])
    offset = np.empty(pairs.size, np.int64)
    offset[order] = np.arange(pairs.size) - start
    new_addr = addr.copy()
    new_addr[moved] = base[moved] + offset[inverse] * WORD
    return TraceBuffer.from_columns(
        (kind, new_addr, size, fn), trace.fn_names, trace.phase_marks, trace.call_events
    )


@dataclass(frozen=True)
class CordResult:
    """Before/after working sets for the compaction experiment."""

    before: DilutionReport
    lines_measured_after: int

    def render(self) -> str:
        report = self.before
        return (
            "Cord-style layout compaction (Section 5.4)\n"
            "==========================================\n"
            f"executed instruction bytes: {report.executed_bytes}\n"
            f"fetched (line-granular) bytes: {report.fetched_bytes}\n"
            f"cache dilution: {report.dilution:.1%} "
            f"(paper: ~25% of fetched instructions not executed)\n"
            f"working-set lines: {report.lines_before} -> "
            f"{self.lines_measured_after} measured after compaction "
            f"({report.lines_after} ideal dense), "
            f"saving {1 - self.lines_measured_after / report.lines_before:.1%}"
        )


def run_cord_experiment(seed: int = 0) -> CordResult:
    """Measure dilution and verify it by actually compacting the trace."""
    model = ReceivePathModel(seed=seed)
    trace = model.build_trace()
    analyzer = model.analyze(trace)
    before = measure_dilution(analyzer)

    compacted = compact_trace(model, trace)
    after = model.analyze(compacted).totals_at(LINE)[Category.CODE]
    return CordResult(before=before, lines_measured_after=after.lines)

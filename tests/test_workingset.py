"""Tests for repro.cache.workingset (Table 1 / Table 3 machinery)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import Category, WorkingSetAnalyzer
from repro.errors import ConfigurationError
from repro.trace import LayerClassifier, MemRef, RefKind

CODE, READ, WRITE = RefKind.CODE, RefKind.READ, RefKind.WRITE


def make_analyzer():
    classifier = LayerClassifier({"tcp_input": "TCP", "ipintr": "IP"})
    return WorkingSetAnalyzer(classifier)


class TestBasicAccounting:
    def test_single_code_ref_counts_one_line(self):
        ws = make_analyzer()
        ws.consume([MemRef(CODE, 0, 4, "tcp_input")])
        report = ws.report(32)
        assert report.layer("TCP", Category.CODE).lines == 1
        assert report.layer("TCP", Category.CODE).bytes == 32

    def test_refs_in_same_line_count_once(self):
        ws = make_analyzer()
        ws.consume([MemRef(CODE, 0, 4, "tcp_input"), MemRef(CODE, 28, 4, "tcp_input")])
        assert ws.report(32).layer("TCP", Category.CODE).lines == 1

    def test_refs_straddling_lines(self):
        ws = make_analyzer()
        ws.consume([MemRef(CODE, 30, 4, "tcp_input")])
        assert ws.report(32).layer("TCP", Category.CODE).lines == 2

    def test_read_only_vs_mutable(self):
        ws = make_analyzer()
        ws.consume([MemRef(READ, 1000, 4, "tcp_input"), MemRef(WRITE, 2000, 4, "tcp_input")])
        report = ws.report(32)
        assert report.layer("TCP", Category.READONLY).lines == 1
        assert report.layer("TCP", Category.MUTABLE).lines == 1

    def test_read_then_write_makes_mutable(self):
        # "Data is considered read-only if it was not modified during
        # the trace" — a read followed by a write is mutable.
        ws = make_analyzer()
        ws.consume([MemRef(READ, 1000, 4, "tcp_input")])
        ws.consume([MemRef(WRITE, 1000, 4, "ipintr")])
        report = ws.report(32)
        assert report.layer("TCP", Category.READONLY).lines == 0
        assert report.layer("TCP", Category.MUTABLE).lines == 1

    def test_first_touch_data_attribution(self):
        # Data touched first by TCP then by IP belongs to TCP.
        ws = make_analyzer()
        ws.consume([MemRef(READ, 512, 4, "tcp_input"), MemRef(READ, 516, 4, "ipintr")])
        report = ws.report(32)
        assert report.layer("TCP", Category.READONLY).lines == 1
        assert report.layer("IP", Category.READONLY).lines == 0

    def test_unknown_function_is_unclassified(self):
        ws = make_analyzer()
        ws.consume([MemRef(CODE, 0, 4, "mystery_fn")])
        assert ws.report(32).layer("unclassified", Category.CODE).lines == 1

    def test_totals_sum_layers(self):
        ws = make_analyzer()
        ws.consume(
            [
                MemRef(CODE, 0, 4, "tcp_input"),
                MemRef(CODE, 4096, 4, "ipintr"),
                MemRef(READ, 8192, 4, "tcp_input"),
            ]
        )
        report = ws.report(32)
        assert report.total(Category.CODE).lines == 2
        assert report.total(Category.READONLY).lines == 1
        assert report.grand_total_bytes() == 3 * 32


class TestGranularity:
    def test_same_atoms_two_granularities(self):
        # Two code words 40 bytes apart: distinct 32-byte lines, one
        # 64-byte... actually 0 and 40 are line 0 and line 1 at 32B, but
        # both in line 0 at 64B.
        ws = make_analyzer()
        ws.consume([MemRef(CODE, 0, 4, "tcp_input"), MemRef(CODE, 40, 4, "tcp_input")])
        assert ws.report(32).total(Category.CODE).lines == 2
        assert ws.report(64).total(Category.CODE).lines == 1
        assert ws.report(8).total(Category.CODE).lines == 2

    def test_dense_region_bytes_shrink_with_smaller_lines(self):
        # A sparse touch pattern: every other 16-byte chunk.
        ws = make_analyzer()
        refs = [MemRef(CODE, base, 4, "tcp_input") for base in range(0, 256, 32)]
        ws.consume(refs)
        bytes_at_32 = ws.totals_at(32)[Category.CODE].bytes
        bytes_at_16 = ws.totals_at(16)[Category.CODE].bytes
        bytes_at_8 = ws.totals_at(8)[Category.CODE].bytes
        assert bytes_at_32 > bytes_at_16 > bytes_at_8

    def test_rejects_line_below_atom(self):
        ws = make_analyzer()
        with pytest.raises(ConfigurationError):
            ws.report(2)

    def test_rejects_non_power_of_two_line(self):
        ws = make_analyzer()
        with pytest.raises(ConfigurationError):
            ws.report(48)


class TestLineSizeTable:
    def test_baseline_row_is_zero(self):
        ws = make_analyzer()
        ws.consume([MemRef(CODE, i, 4, "tcp_input") for i in range(0, 1000, 8)])
        table = ws.line_size_table()
        row = table.row(32)
        delta = row.deltas[Category.CODE]
        assert delta.bytes_pct == 0.0
        assert delta.lines_pct == 0.0

    def test_data_below_8_is_na(self):
        ws = make_analyzer()
        ws.consume([MemRef(READ, 0, 4, "tcp_input")])
        table = ws.line_size_table()
        row = table.row(4)
        assert row.deltas[Category.READONLY] is None
        assert row.deltas[Category.MUTABLE] is None
        assert row.deltas[Category.CODE] is not None

    def test_dense_code_line_deltas(self):
        # Fully dense code: doubling the line size halves lines exactly
        # and leaves bytes unchanged.
        ws = make_analyzer()
        ws.consume([MemRef(CODE, i, 4, "tcp_input") for i in range(0, 1024, 4)])
        table = ws.line_size_table()
        row = table.row(64)
        delta = row.deltas[Category.CODE]
        assert delta.bytes_pct == pytest.approx(0.0)
        assert delta.lines_pct == pytest.approx(-50.0)

    def test_missing_row_raises(self):
        ws = make_analyzer()
        ws.consume([MemRef(CODE, 0, 4, "tcp_input")])
        with pytest.raises(ConfigurationError):
            ws.line_size_table().row(128)


class TestProperties:
    @given(
        addrs=st.lists(st.integers(0, 4096), min_size=1, max_size=200),
    )
    @settings(max_examples=50, deadline=None)
    def test_lines_monotone_in_granularity(self, addrs):
        """Property: smaller lines never decrease the line count, larger
        lines never decrease the byte count (coverage monotonicity)."""
        ws = WorkingSetAnalyzer()
        ws.consume([MemRef(CODE, addr, 4) for addr in addrs])
        sizes = [4, 8, 16, 32, 64]
        lines = [ws.totals_at(s)[Category.CODE].lines for s in sizes]
        byte_counts = [ws.totals_at(s)[Category.CODE].bytes for s in sizes]
        assert lines == sorted(lines, reverse=True)
        assert byte_counts == sorted(byte_counts)

    @given(
        reads=st.lists(st.integers(0, 2048), max_size=50),
        writes=st.lists(st.integers(0, 2048), max_size=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_categories_partition_data(self, reads, writes):
        """Property: every touched data line is exactly one of RO/mutable."""
        ws = WorkingSetAnalyzer()
        ws.consume([MemRef(READ, addr, 4) for addr in reads])
        ws.consume([MemRef(WRITE, addr, 4) for addr in writes])
        totals = ws.totals_at(32)
        touched_lines = {addr // 32 for addr in reads} | {
            (addr + 3) // 32 for addr in reads
        }
        touched_lines |= {addr // 32 for addr in writes} | {
            (addr + 3) // 32 for addr in writes
        }
        assert (
            totals[Category.READONLY].lines + totals[Category.MUTABLE].lines
            == len(touched_lines)
        )


class TestLineOwnership:
    def test_line_owned_by_lowest_touched_chunk(self):
        """A 64-byte line touched only in its upper 32-byte half belongs
        to the layer that first touched that half, not to nobody."""
        ws = make_analyzer()
        ws.consume([MemRef(READ, 96, 4, "tcp_input"), MemRef(WRITE, 200, 4, "ipintr")])
        report = ws.report(64)
        assert report.layer("TCP", Category.READONLY).lines == 1
        assert report.layer("IP", Category.MUTABLE).lines == 1
        assert report.layer("unclassified", Category.READONLY).lines == 0
        assert report.layer("unclassified", Category.MUTABLE).lines == 0


class NaiveAnalyzer:
    """Per-record reference for the working-set rules (test oracle).

    Code atoms and data chunks are owned by first touch; a code line
    belongs to its lowest touched atom's owner, a data line to its
    lowest touched chunk's owner, and is mutable if any atom in it was
    written.  ``line_size_table``/``totals_at`` are the analyzer's own,
    running over this class's ``report``.
    """

    def __init__(self, classifier, atom_size=4, chunk=32):
        self.classifier = classifier
        self.atom_size = atom_size
        self.chunk = chunk
        self.code_atoms = {}
        self.chunk_owner = {}
        self.data_atoms = set()
        self.written_atoms = set()

    def consume(self, refs):
        for ref in refs:
            layer = self.classifier.layer_of_fn(ref.fn)
            atoms = range(ref.addr // self.atom_size, (ref.end - 1) // self.atom_size + 1)
            if ref.is_code():
                for atom in atoms:
                    self.code_atoms.setdefault(atom, layer)
                continue
            for chunk in range(ref.addr // self.chunk, (ref.end - 1) // self.chunk + 1):
                self.chunk_owner.setdefault(chunk, layer)
            self.data_atoms.update(atoms)
            if ref.is_write():
                self.written_atoms.update(atoms)

    _check_line_size = WorkingSetAnalyzer._check_line_size
    totals_at = WorkingSetAnalyzer.totals_at
    line_size_table = WorkingSetAnalyzer.line_size_table

    def report(self, line_size):
        from repro.cache.workingset import CategoryCount, WorkingSetReport

        per_atom = self._check_line_size(line_size)
        counts = {}
        code_lines = {}
        for atom in sorted(self.code_atoms):
            code_lines.setdefault(atom // per_atom, self.code_atoms[atom])
        for owner in code_lines.values():
            key = (owner, Category.CODE)
            counts[key] = counts.get(key, 0) + 1
        data_lines = {}
        for atom in self.data_atoms:
            line = atom // per_atom
            data_lines[line] = data_lines.get(line, False) or atom in self.written_atoms
        for line, written in data_lines.items():
            chunks = range(
                line * line_size // self.chunk, ((line + 1) * line_size - 1) // self.chunk + 1
            )
            owner = next(self.chunk_owner[c] for c in chunks if c in self.chunk_owner)
            key = (owner, Category.MUTABLE if written else Category.READONLY)
            counts[key] = counts.get(key, 0) + 1
        per_layer = {}
        for (layer, category), lines in counts.items():
            per_layer.setdefault(layer, {})[category] = CategoryCount(
                lines * line_size, lines
            )
        return WorkingSetReport(line_size=line_size, per_layer=per_layer)


def naive_phase_stats(trace, line_size=32):
    from repro.trace.phases import KindTotals, PhaseStats

    result = []
    for label, sl in trace.phase_slices():
        totals = {}
        for kind in RefKind:
            refs = [ref for ref in trace.rows()[sl] if ref.kind is kind]
            lines = {
                line
                for ref in refs
                for line in range(ref.addr // line_size, (ref.end - 1) // line_size + 1)
            }
            totals[kind] = KindTotals(bytes=len(lines) * line_size, refs=len(refs))
        result.append(PhaseStats(label, totals[WRITE], totals[READ], totals[CODE]))
    return result


ref_rows = st.lists(
    st.builds(
        MemRef,
        kind=st.sampled_from(list(RefKind)),
        addr=st.integers(0, 700),
        size=st.integers(1, 24),
        fn=st.sampled_from([None, "tcp_input", "ipintr", "mystery_fn"]),
    ),
    max_size=120,
)


class TestColumnarMatchesReference:
    @given(first=ref_rows, second=ref_rows)
    @settings(max_examples=60, deadline=None)
    def test_reports_match_naive_reference(self, first, second):
        """Property: the columnar analyzer equals the per-record oracle on
        unaligned, multi-atom traces of all three kinds, consumed in two
        batches (first touch carries across batches)."""
        classifier = LayerClassifier({"tcp_input": "TCP", "ipintr": "IP"})
        ws = WorkingSetAnalyzer(classifier)
        naive = NaiveAnalyzer(classifier)
        for batch in (first, second):
            ws.consume(batch)
            naive.consume(batch)
        for line_size in (4, 8, 16, 32, 64):
            assert ws.report(line_size) == naive.report(line_size)
        assert ws.line_size_table() == naive.line_size_table()

    def test_long_trace_matches_naive_reference(self):
        """A trace several times longer than the analyzer's expansion slice,
        over a small address range, so first touches fall in every slice
        and later slices revisit earlier slices' units with other owners."""
        from repro.trace import TraceBuffer

        rng = np.random.default_rng(7)
        n = 30_000
        trace = TraceBuffer.from_columns(
            (
                rng.integers(0, 3, n),
                rng.integers(0, 6000, n) + np.arange(n) // 10,
                rng.integers(1, 24, n),
                rng.integers(-1, 3, n),
            ),
            ["tcp_input", "ipintr", "mystery_fn"],
        )
        classifier = LayerClassifier({"tcp_input": "TCP", "ipintr": "IP"})
        ws = WorkingSetAnalyzer(classifier)
        naive = NaiveAnalyzer(classifier)
        ws.consume(trace)
        naive.consume(trace.rows())
        for line_size in (4, 8, 16, 32, 64):
            assert ws.report(line_size) == naive.report(line_size)

    @given(rows=ref_rows, cuts=st.lists(st.integers(0, 120), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_phase_stats_match_naive_reference(self, rows, cuts):
        from repro.trace import TraceBuffer, phase_stats

        trace = TraceBuffer()
        marks = sorted({cut for cut in cuts if 0 < cut < len(rows)})
        for index, ref in enumerate(rows):
            if index in marks:
                trace.mark_phase(f"phase{index}")
            trace.append(ref.kind, ref.addr, ref.size, ref.fn)
        assert phase_stats(trace) == naive_phase_stats(trace)
        assert phase_stats(trace, 8) == naive_phase_stats(trace, 8)


def test_rejects_chunk_not_multiple_of_atom():
    with pytest.raises(ConfigurationError):
        WorkingSetAnalyzer(atom_size=8, classification_chunk=4)

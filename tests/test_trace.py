"""Tests for the repro.trace package."""

import io

import pytest

from repro.errors import TraceError
import numpy as np

from repro.trace import (
    LayerClassifier,
    MemRef,
    RefKind,
    TraceBuffer,
    build_call_graph,
    dump_trace,
    parse_trace,
    phase_stats,
)
from repro.trace.record import span_units


class TestMemRef:
    def test_append_stores_each_kind(self):
        trace = TraceBuffer()
        for kind in (RefKind.CODE, RefKind.READ, RefKind.WRITE):
            trace.append(kind, 0)
        assert [ref.kind for ref in trace.rows()] == [
            RefKind.CODE, RefKind.READ, RefKind.WRITE,
        ]

    def test_end(self):
        assert MemRef(RefKind.READ, 100, 8).end == 108

    def test_rejects_negative_addr(self):
        with pytest.raises(TraceError):
            TraceBuffer().append(RefKind.READ, -1, 4)
        with pytest.raises(TraceError):
            TraceBuffer.from_rows([MemRef(RefKind.READ, -1, 4)])

    def test_rejects_zero_size(self):
        with pytest.raises(TraceError):
            TraceBuffer().append(RefKind.READ, 0, 0)
        with pytest.raises(TraceError):
            TraceBuffer.from_rows([MemRef(RefKind.READ, 0, 0)])

    def test_rejects_values_past_their_column(self):
        # int64 addresses and int32 sizes: a value past the column is an
        # error, not a silent wrap (2**32 + 4 would store size 4).
        with pytest.raises(TraceError, match="size"):
            TraceBuffer().append(RefKind.READ, 0, 2**32 + 4)
        with pytest.raises(TraceError, match="size"):
            TraceBuffer().append(RefKind.READ, np.arange(3), 2**31)
        with pytest.raises(TraceError, match="address"):
            TraceBuffer().append(RefKind.READ, np.array([2**63], np.uint64))
        with pytest.raises(TraceError, match="address"):
            TraceBuffer.from_rows([MemRef(RefKind.READ, 0), MemRef(RefKind.READ, 2**64)])
        trace = TraceBuffer()
        trace.append(RefKind.READ, 2**63 - 1, 2**31 - 1)
        assert trace.rows() == [MemRef(RefKind.READ, 2**63 - 1, 2**31 - 1)]

    def test_kind_from_letter(self):
        assert RefKind.from_letter("C") is RefKind.CODE
        with pytest.raises(TraceError):
            RefKind.from_letter("X")

    def test_span_units(self):
        units, ref = span_units(np.array([30, 64]), np.array([4, 4]), 32)
        assert units.tolist() == [0, 1, 2]
        assert ref.tolist() == [0, 0, 1]


class TestTraceBuffer:
    def test_append_attaches_current_fn(self):
        trace = TraceBuffer()
        trace.enter("tcp_input")
        trace.append(RefKind.CODE, 0)
        assert trace.rows()[0].fn == "tcp_input"

    def test_explicit_fn_preserved(self):
        trace = TraceBuffer()
        trace.enter("outer")
        trace.append(RefKind.CODE, 0, fn="inner")
        assert trace.rows()[0].fn == "inner"

    def test_nested_calls(self):
        trace = TraceBuffer()
        trace.enter("a")
        trace.enter("b")
        trace.append(RefKind.CODE, 0)
        trace.leave()
        trace.append(RefKind.CODE, 4)
        assert [r.fn for r in trace.rows()] == ["b", "a"]

    def test_block_append_is_one_ref_per_address(self):
        trace = TraceBuffer()
        trace.append(RefKind.READ, np.array([8, 16, 24]), 8, fn="f")
        trace.append(RefKind.CODE, np.array([], dtype=np.int64), fn="unused")
        trace.append(RefKind.WRITE, 40)
        assert len(trace) == 4
        assert trace.rows() == [
            MemRef(RefKind.READ, 8, 8, "f"),
            MemRef(RefKind.READ, 16, 8, "f"),
            MemRef(RefKind.READ, 24, 8, "f"),
            MemRef(RefKind.WRITE, 40, 4, None),
        ]
        assert trace.fn_names == ["f"]
        assert trace.kind.tolist() == [1, 1, 1, 2]
        assert trace.fn.tolist() == [0, 0, 0, -1]

    def test_row_and_column_round_trip(self):
        rows = [MemRef(RefKind.CODE, 4, 4, "a"), MemRef(RefKind.WRITE, 9, 2, None)]
        trace = TraceBuffer.from_rows(rows)
        assert trace.rows() == rows
        again = TraceBuffer.from_columns(
            (trace.kind, trace.addr, trace.size, trace.fn), trace.fn_names
        )
        assert again.rows() == rows

    def test_select_keeps_masked_rows(self):
        trace = TraceBuffer()
        trace.append(RefKind.CODE, np.array([0, 4, 8]), fn="f")
        kept = trace.select(np.array([True, False, True]))
        assert [r.addr for r in kept.rows()] == [0, 8]

    def test_leave_without_enter_raises(self):
        with pytest.raises(TraceError):
            TraceBuffer().leave()

    def test_phase_slices_cover_everything(self):
        trace = TraceBuffer()
        trace.append(RefKind.CODE, 0)
        trace.mark_phase("intr")
        trace.append(RefKind.CODE, 4)
        trace.append(RefKind.CODE, 8)
        slices = trace.phase_slices()
        assert [(label, sl.start, sl.stop) for label, sl in slices] == [
            ("prelude", 0, 1),
            ("intr", 1, 3),
        ]

    def test_empty_phase_rejected(self):
        trace = TraceBuffer()
        trace.mark_phase("entry")
        with pytest.raises(TraceError):
            trace.mark_phase("exit")

    def test_phase_slice(self):
        trace = TraceBuffer()
        trace.mark_phase("entry")
        trace.append(RefKind.CODE, 0)
        trace.mark_phase("exit")
        trace.append(RefKind.CODE, 4)
        assert [r.addr for r in trace.rows()[trace.phase_slice("exit")]] == [4]
        with pytest.raises(TraceError):
            trace.phase_slice("missing")

    def test_no_phases_single_prelude(self):
        trace = TraceBuffer()
        trace.append(RefKind.CODE, 0)
        assert trace.phase_slices() == [("prelude", slice(0, 1))]

    def test_empty_trace_no_slices(self):
        assert TraceBuffer().phase_slices() == []


class TestPhaseStats:
    def test_figure1_style_totals(self):
        trace = TraceBuffer()
        trace.mark_phase("intr")
        trace.enter("tcp_input")
        trace.append(RefKind.CODE, 0, 4)
        trace.append(RefKind.CODE, 4, 4)  # same line as previous
        trace.append(RefKind.READ, 1000, 8)
        trace.append(RefKind.WRITE, 2000, 8)
        stats = phase_stats(trace)
        assert len(stats) == 1
        phase = stats[0]
        assert phase.code.bytes == 32
        assert phase.code.refs == 2
        assert phase.read.bytes == 32
        assert phase.read.refs == 1
        assert phase.write.bytes == 32
        assert phase.write.refs == 1

    def test_format_matches_paper_layout(self):
        trace = TraceBuffer()
        trace.mark_phase("pkt intr")
        trace.append(RefKind.CODE, 0)
        text = phase_stats(trace)[0].format()
        assert "pkt intr:" in text
        assert "Code: 32 bytes 1 refs" in text


class TestTraceIO:
    def build_trace(self):
        trace = TraceBuffer()
        trace.mark_phase("entry")
        trace.enter("syscall")
        trace.append(RefKind.CODE, 0x1000, 4)
        trace.append(RefKind.READ, 0x2000, 8)
        trace.enter("soreceive")
        trace.append(RefKind.WRITE, 0x3000, 4)
        trace.leave()
        trace.leave()
        return trace

    def test_roundtrip(self):
        trace = self.build_trace()
        stream = io.StringIO()
        dump_trace(trace, stream)
        parsed = parse_trace(stream.getvalue().splitlines())
        assert parsed.rows() == trace.rows()
        assert parsed.phase_marks == trace.phase_marks
        assert parsed.call_events == trace.call_events

    def test_save_and_load_file(self, tmp_path):
        from repro.trace import load_trace, save_trace

        trace = self.build_trace()
        path = tmp_path / "trace.txt"
        save_trace(trace, path)
        assert load_trace(path).rows() == trace.rows()

    def test_comments_and_blanks_ignored(self):
        parsed = parse_trace(["; comment", "", "C 0x10 4 fn"])
        assert len(parsed.rows()) == 1
        assert parsed.rows()[0].fn == "fn"

    def test_malformed_line_raises(self):
        with pytest.raises(TraceError):
            parse_trace(["C 0x10"])

    def test_bad_kind_raises(self):
        with pytest.raises(TraceError):
            parse_trace(["Z 0x10 4"])

    def test_bad_number_raises(self):
        with pytest.raises(TraceError):
            parse_trace(["C zzz 4"])

    def test_out_of_range_number_raises(self):
        # An Alpha kernel-segment address does not fit the int64 column.
        with pytest.raises(TraceError, match="address"):
            parse_trace(["R 0x0 4", "R 0xfffffc0000000000 8"])
        with pytest.raises(TraceError, match="size"):
            parse_trace([f"R 0x10 {2**31}"])


class TestCallGraph:
    def test_basic_graph(self):
        trace = TraceBuffer()
        trace.enter("syscall")
        trace.enter("soreceive")
        trace.leave()
        trace.enter("soreceive")
        trace.leave()
        trace.enter("tsleep")
        trace.leave()
        trace.leave()
        graph = build_call_graph(trace)
        assert graph.roots == ["syscall"]
        assert graph.call_count("syscall", "soreceive") == 2
        assert graph.call_count("syscall", "tsleep") == 1
        assert graph.call_count("tsleep", "syscall") == 0

    def test_callees_sorted_by_count(self):
        trace = TraceBuffer()
        trace.enter("main")
        for _ in range(3):
            trace.enter("often")
            trace.leave()
        trace.enter("rare")
        trace.leave()
        trace.leave()
        graph = build_call_graph(trace)
        assert graph.callees("main") == ["often", "rare"]

    def test_transitive_callees(self):
        trace = TraceBuffer()
        trace.enter("a")
        trace.enter("b")
        trace.enter("c")
        trace.leave()
        trace.leave()
        trace.leave()
        graph = build_call_graph(trace)
        assert graph.transitive_callees("a") == {"b", "c"}
        assert graph.transitive_callees("missing") == set()

    def test_mismatched_return_raises(self):
        trace = TraceBuffer()
        trace.enter("a")
        # Corrupt the event stream directly.
        from repro.trace.buffer import CallEvent

        trace.call_events.append(CallEvent(0, "b", enter=False))
        with pytest.raises(TraceError):
            build_call_graph(trace)

    def test_format_tree(self):
        trace = TraceBuffer()
        trace.enter("a")
        trace.enter("b")
        trace.leave()
        trace.leave()
        graph = build_call_graph(trace)
        assert graph.format() == "a\n  b"


class TestLayerClassifier:
    def test_layers_in_order(self):
        classifier = LayerClassifier({"f1": "A", "f2": "B", "f3": "A"})
        assert classifier.layers() == ["A", "B"]

    def test_none_fn_unclassified(self):
        classifier = LayerClassifier({})
        assert classifier.layer_of_fn(None) == "unclassified"

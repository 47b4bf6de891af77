"""Tests for the NetBSD receive-path model (Section 2 reproduction)."""

import numpy as np
import pytest

from repro.cache.workingset import Category
from repro.errors import ConfigurationError
from repro.netbsd import (
    ALL_LAYERS,
    CATALOG,
    CODE_PLAN,
    PAPER_TABLE1,
    PHASES,
    ReceivePathModel,
    catalog_by_name,
    coverage_stats,
    fn_to_layer_map,
    functions_of_layer,
    layer_catalog_bytes,
    synthesize_code_touch_words,
    synthesize_data_touch_words,
    table1_row_sum,
)
from repro.trace.buffer import TraceBuffer
from repro.trace.callgraph import build_call_graph
from repro.trace.io import dump_trace, parse_trace
from repro.trace.phases import phase_stats


class TestCatalog:
    def test_figure1_sizes_preserved(self):
        # Spot-check published sizes from Figure 1.
        by_name = catalog_by_name()
        assert by_name["tcp_input"].size == 11872
        assert by_name["in_cksum"].size == 1104
        assert by_name["soreceive"].size == 5536
        assert by_name["leintr"].size == 3264
        assert by_name["pal_swpipl"].size == 8

    def test_every_layer_has_functions(self):
        for layer in ALL_LAYERS:
            assert functions_of_layer(layer)

    def test_unknown_layer_rejected(self):
        with pytest.raises(ConfigurationError):
            functions_of_layer("nonsense")

    def test_catalog_capacity_covers_budgets(self):
        # Each layer's catalogued code must hold its Table-1 budget.
        for layer in ALL_LAYERS:
            assert layer_catalog_bytes(layer) >= PAPER_TABLE1[layer].code

    def test_fn_to_layer_total(self):
        mapping = fn_to_layer_map()
        assert len(mapping) == len(CATALOG)
        assert mapping["tcp_input"] == "TCP"

    def test_row_sum_vs_published_total(self):
        rows = table1_row_sum()
        assert rows.readonly == 5088
        assert rows.mutable == 3648
        assert rows.code == 30304  # published total is 30592; see docs


class TestTouchMaps:
    def test_code_budget_exact(self):
        rng = np.random.default_rng(0)
        words = synthesize_code_touch_words(6144, 100, rng)
        lines = {int(w) // 8 for w in words}
        assert len(lines) == 100

    def test_code_budget_zero(self):
        rng = np.random.default_rng(0)
        assert synthesize_code_touch_words(6144, 0, rng).size == 0

    def test_code_budget_overflow_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            synthesize_code_touch_words(320, 11, rng)

    def test_code_full_capacity(self):
        rng = np.random.default_rng(1)
        words = synthesize_code_touch_words(320, 10, rng)
        assert len({int(w) // 8 for w in words}) == 10

    def test_data_budget_exact(self):
        rng = np.random.default_rng(2)
        words = synthesize_data_touch_words(1024, 16, rng)
        assert len({int(w) // 8 for w in words}) == 16

    def test_code_density_near_paper(self):
        """Aggregate sub-line density lands near Table 3's 4-byte row
        (-25% bytes at word granularity)."""
        rng = np.random.default_rng(3)
        totals = {4: 0, 32: 0}
        for _ in range(30):
            words = synthesize_code_touch_words(6144, 120, rng)
            stats = coverage_stats(words)
            totals[4] += stats[4]
            totals[32] += stats[32]
        density = (totals[4] * 4) / (totals[32] * 32)
        assert 0.65 < density < 0.85

    def test_coverage_stats_empty(self):
        stats = coverage_stats(np.empty(0, dtype=np.int64))
        assert all(value == 0 for value in stats.values())


class TestPlanConsistency:
    def test_layer_budgets_match_table1(self):
        for layer in ALL_LAYERS:
            budget = sum(
                CODE_PLAN[spec.name].budget
                for spec in CATALOG
                if spec.layer == layer and spec.name in CODE_PLAN
            )
            assert budget * 32 == PAPER_TABLE1[layer].code, layer

    def test_every_planned_function_in_catalog(self):
        names = {spec.name for spec in CATALOG}
        assert set(CODE_PLAN) <= names

    def test_in_cksum_active_bytes(self):
        # Section 5.1: 992 of in_cksum's 1104 bytes are active.
        assert CODE_PLAN["in_cksum"].budget * 32 == 992


class TestReceivePathModel:
    @pytest.fixture(scope="class")
    def model(self):
        return ReceivePathModel(seed=0)

    @pytest.fixture(scope="class")
    def trace(self, model):
        return model.build_trace()

    def test_table1_exact(self, model, trace):
        report = model.analyze(trace).report(32)
        for layer in ALL_LAYERS:
            target = PAPER_TABLE1[layer]
            assert report.layer(layer, Category.CODE).bytes == target.code
            assert report.layer(layer, Category.READONLY).bytes == target.readonly
            assert report.layer(layer, Category.MUTABLE).bytes == target.mutable

    def test_empty_trace_analyzes_to_zero(self, model):
        """An empty trace is analysed as given, not replaced by a fresh
        build (a TraceBuffer with no references is falsy)."""
        analyzer = model.analyze(TraceBuffer())
        for line_size in (4, 32, 64):
            report = analyzer.report(line_size)
            assert report.grand_total_bytes() == 0
            for category in Category:
                assert report.total(category).lines == 0

    def test_table1_exact_other_seed(self):
        model = ReceivePathModel(seed=99)
        report = model.analyze().report(32)
        for layer in ALL_LAYERS:
            assert report.layer(layer, Category.CODE).bytes == PAPER_TABLE1[layer].code

    def test_three_phases(self, trace):
        labels = [label for label, _ in trace.phase_slices()]
        assert labels == list(PHASES)

    def test_phase_code_totals_close(self, trace):
        stats = {s.label: s for s in phase_stats(trace)}
        assert abs(stats["entry"].code.bytes - 3008) <= 0.1 * 3008
        assert abs(stats["pkt intr"].code.bytes - 13664) <= 0.1 * 13664
        assert abs(stats["exit"].code.bytes - 18240) <= 0.1 * 18240

    def test_interrupt_phase_is_ref_heavy(self, trace):
        stats = {s.label: s for s in phase_stats(trace)}
        # The checksum/copy loops make the interrupt column dominate refs.
        assert stats["pkt intr"].code.refs > 4 * stats["exit"].code.refs

    def test_call_graph_reflects_script(self, trace):
        graph = build_call_graph(trace)
        assert graph.call_count("soreceive", "sbwait") == 1
        assert graph.call_count("ipintr", "in_broadcast") == 1
        assert "tcp_output" in graph.transitive_callees("cpu_switch")

    def test_aux_refs_excluded_from_table1(self, model, trace):
        kept = trace.select(model.table1_mask(trace)).rows()
        assert all(
            ref.is_code() or not model.is_aux_addr(ref.addr) for ref in kept
        )
        assert len(kept) < len(trace.rows())

    def test_trace_io_roundtrip(self, trace):
        import io

        stream = io.StringIO()
        dump_trace(trace, stream)
        parsed = parse_trace(stream.getvalue().splitlines())
        assert len(parsed.rows()) == len(trace.rows())
        assert parsed.rows()[:100] == trace.rows()[:100]
        assert parsed.phase_marks == trace.phase_marks

    def test_working_set_dwarfs_cache(self, model, trace):
        """Section 2's headline: the working set is >4x an 8 KB cache."""
        report = model.analyze(trace).report(32)
        total = report.grand_total_bytes()
        assert total > 4 * 8192

    def test_message_bytes_are_minor(self, trace):
        """"Message contents are not the main consumer of precious
        memory bandwidth": message-buffer traffic is a small fraction
        of code traffic."""
        model = ReceivePathModel(seed=0)
        message_refs = sum(
            1
            for ref in trace.rows()
            if not ref.is_code()
            and model.message_base <= ref.addr < model.message_base + 1024
        )
        code_refs = sum(1 for ref in trace.rows() if ref.is_code())
        assert message_refs < 0.05 * code_refs

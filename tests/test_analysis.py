"""Tests for repro.analysis: conflict maps, budgets, scheduler checks,
the mbuf lifecycle linter, the reporters, and the CLI."""

import json

import pytest

from repro.analysis import (
    RULES,
    Finding,
    Severity,
    analyze_conflicts,
    analyze_netbsd_stack,
    analyze_stack,
    analyze_synthetic_stack,
    build_conflict_map,
    check_batch_budget,
    check_group_budgets,
    check_group_partition,
    check_netbsd_group_budgets,
    check_scheduler_budgets,
    check_scheduler_config,
    check_scheduler_conflicts,
    count_by_severity,
    lint_source,
    render_json,
    render_text,
    worst_severity,
)
from repro.analysis.cli import main as analysis_main
from repro.buffers import MbufError, MbufPool
from repro.cache.hierarchy import CacheGeometry
from repro.core import (
    ConventionalScheduler,
    GroupedLDLPScheduler,
    LDLPScheduler,
    MachineBinding,
    PassthroughLayer,
)
from repro.core.layer import LayerFootprint
from repro.core.scheduler import diagnose_groups
from repro.errors import (
    ConfigurationError,
    GroupingError,
    LayoutError,
    SchedulerError,
    TraceError,
)
from repro.machine.layout import MemoryLayout
from repro.machine.program import Program, Region
from repro.netbsd.functions import CATALOG, catalog_program, layer_code_sizes
from repro.sim.runner import build_paper_stack

ICACHE = CacheGeometry(size=8192, line_size=32)  # 256 sets


def _region(name, size, base):
    region = Region(name, size)
    region.base = base
    return region


# ----------------------------------------------------------------------
# Rule registry and findings


class TestFindings:
    def test_registry_has_all_documented_rules(self):
        expected = {
            "LDLP001", "LDLP002", "LDLP003", "LDLP004",
            "SCHED001", "SCHED002", "SCHED003", "SCHED004",
            "MBUF001", "MBUF002", "MBUF003",
            "HARN001", "HARN002", "HARN003", "HARN004", "HARN005", "HARN006",
            "DET001", "DET002", "DET003", "DET004", "DET005",
        }
        assert expected == set(RULES)
        for rule in RULES.values():
            # Paper-derived rules cite a section; HARN001 guards the
            # reproduction harness itself rather than the paper.
            assert rule.paper_section.startswith(("Section", "Reproduction"))

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ConfigurationError):
            Finding("NOPE01", "msg", "target")

    def test_severity_helpers(self):
        findings = [
            Finding("LDLP002", "w", "t"),
            Finding("MBUF001", "e", "t"),
        ]
        assert count_by_severity(findings) == {"error": 1, "warning": 1, "info": 0}
        assert worst_severity(findings) is Severity.ERROR
        assert worst_severity([]) is None

    def test_location_with_and_without_line(self):
        assert Finding("MBUF001", "m", "f.py", line=7).location == "f.py:7"
        assert Finding("LDLP001", "m", "layout").location == "layout"


# ----------------------------------------------------------------------
# Conflict analysis (LDLP001 / LDLP002)


class TestConflictAnalysis:
    def test_known_bad_layout_fires_ldlp001(self):
        # Both regions land on sets 0..63: classic direct-mapped aliasing
        # even though 4 KB of hot code easily fits the 8 KB cache.
        regions = [
            _region("hot_a", 2048, 0),
            _region("hot_b", 2048, 8192),
        ]
        conflict_map, findings = analyze_conflicts(regions, ICACHE)
        assert [f.rule_id for f in findings] == ["LDLP001"]
        assert findings[0].severity is Severity.ERROR
        assert findings[0].details["regions"] == ["hot_a", "hot_b"]
        assert findings[0].details["conflicting_sets"] == 64
        assert conflict_map.max_occupancy == 2

    def test_clean_layout_is_clean(self):
        regions = [
            _region("hot_a", 2048, 0),
            _region("hot_b", 2048, 2048),
        ]
        conflict_map, findings = analyze_conflicts(regions, ICACHE)
        assert findings == []
        assert conflict_map.conflicting_sets == 0
        assert conflict_map.utilization() == pytest.approx(128 / 256)

    def test_oversized_hot_set_fires_ldlp002_not_ldlp001(self):
        # 3 x 6 KB cannot fit 8 KB: conflicts are structural, so the
        # analyzer must not blame the placement.
        regions = [
            _region("layer0", 6144, 0),
            _region("layer1", 6144, 6144),
            _region("layer2", 6144, 12288),
        ]
        _, findings = analyze_conflicts(regions, ICACHE)
        assert [f.rule_id for f in findings] == ["LDLP002"]
        assert findings[0].severity is Severity.WARNING
        assert findings[0].details["hot_bytes"] == 3 * 6144

    def test_hot_subset_selects_regions(self):
        regions = [
            _region("hot", 2048, 0),
            _region("cold", 2048, 8192),  # aliases hot, but is not hot
        ]
        _, findings = analyze_conflicts(regions, ICACHE, hot=["hot"])
        assert findings == []

    def test_unknown_hot_name_raises(self):
        with pytest.raises(LayoutError):
            analyze_conflicts([_region("a", 64, 0)], ICACHE, hot=["b"])

    def test_unplaced_region_raises(self):
        with pytest.raises(LayoutError):
            build_conflict_map([Region("unplaced", 64)], ICACHE)

    def test_aliased_pairs_counts_contested_sets(self):
        regions = [_region("a", 1024, 0), _region("b", 1024, 8192)]
        conflict_map = build_conflict_map(regions, ICACHE)
        assert conflict_map.aliased_pairs() == {("a", "b"): 32}


# ----------------------------------------------------------------------
# Budget checks (LDLP003 / LDLP004)


class TestBudgets:
    def test_oversized_group_warns(self):
        findings = check_group_budgets([6144, 6144], [[0, 1]], 8192)
        assert [f.rule_id for f in findings] == ["LDLP003"]
        assert findings[0].details["overflow_bytes"] == 2 * 6144 - 8192

    def test_fitting_groups_are_clean(self):
        assert check_group_budgets([6144, 6144], [[0], [1]], 8192) == []

    def test_batch_cap_overflow_warns_with_recommendation(self):
        findings = check_batch_budget(20, 8192)
        assert [f.rule_id for f in findings] == ["LDLP004"]
        assert findings[0].details["recommended_batch"] == 14

    def test_paper_batch_cap_fits(self):
        assert check_batch_budget(14, 8192) == []

    def test_scheduler_budgets_clean_for_paper_stack(self):
        scheduler = LDLPScheduler(build_paper_stack())
        assert check_scheduler_budgets(scheduler) == []

    def test_scheduler_budgets_flag_oversized_layer(self):
        layers = [
            PassthroughLayer("big", LayerFootprint(code_bytes=12288)),
        ]
        findings = check_scheduler_budgets(LDLPScheduler(layers))
        assert "LDLP003" in {f.rule_id for f in findings}

    def test_netbsd_per_layer_groups_flag_ethernet_and_tcp(self):
        findings = check_netbsd_group_budgets(
            [[name] for name in layer_code_sizes()], 8192
        )
        flagged = {f.details["members"][0] for f in findings}
        assert flagged == {"Ethernet", "TCP"}

    def test_layer_code_sizes_match_catalog(self):
        sizes = layer_code_sizes()
        assert sum(sizes.values()) == sum(spec.size for spec in CATALOG)


# ----------------------------------------------------------------------
# Scheduler-config checks (SCHED001-004)


class TestSchedulerChecks:
    def test_overlap_and_gap(self):
        findings = check_group_partition(5, [[0, 1], [1, 2], [4]])
        rules = {f.rule_id for f in findings}
        assert rules == {"SCHED001", "SCHED002"}
        by_rule = {f.rule_id: f for f in findings}
        assert by_rule["SCHED001"].details["overlapping"] == [1]
        assert by_rule["SCHED002"].details["missing"] == [3]

    def test_misordered_groups(self):
        findings = check_group_partition(3, [[2], [0, 1]])
        assert {f.rule_id for f in findings} == {"SCHED003"}

    def test_out_of_range_and_empty_group(self):
        findings = check_group_partition(2, [[0, 1, 5], []])
        by_rule = {f.rule_id: f for f in findings}
        assert by_rule["SCHED002"].details["out_of_range"] == [5]
        assert by_rule["SCHED002"].details["empty_groups"] == [1]

    def test_valid_partition_is_clean(self):
        assert check_group_partition(4, [[0, 1], [2], [3]]) == []

    def test_flush_ignored_under_queueless_scheduler(self):
        class Coalescer(PassthroughLayer):
            def flush(self):
                return []

        layers = [Coalescer("coalesce"), PassthroughLayer("top")]
        findings = check_scheduler_config(ConventionalScheduler(layers))
        assert [f.rule_id for f in findings] == ["SCHED004"]
        assert findings[0].details["layers"] == ["coalesce"]

    def test_flush_respected_under_ldlp(self):
        class Coalescer(PassthroughLayer):
            def flush(self):
                return []

        layers = [Coalescer("coalesce"), PassthroughLayer("top")]
        assert check_scheduler_config(LDLPScheduler(layers)) == []

    def test_grouped_scheduler_config_is_clean(self):
        scheduler = GroupedLDLPScheduler(build_paper_stack())
        assert check_scheduler_config(scheduler) == []


# ----------------------------------------------------------------------
# Typed runtime errors (the satellite fixes)


class TestTypedErrors:
    def test_grouping_error_carries_indices(self):
        layers = build_paper_stack()
        with pytest.raises(GroupingError) as excinfo:
            GroupedLDLPScheduler(layers, groups=[[0], [0, 1], [2, 3]])
        err = excinfo.value
        assert err.overlapping == (0,)
        assert err.missing == (4,)
        assert isinstance(err, SchedulerError)
        assert "0" in str(err)

    def test_diagnosis_matches_lint(self):
        groups = [[0], [0, 1], [2, 3]]
        diagnosis = diagnose_groups(5, groups)
        findings = check_group_partition(5, groups)
        assert list(diagnosis.overlapping) == [
            f for f in findings if f.rule_id == "SCHED001"
        ][0].details["overlapping"]

    def test_place_random_fails_fast_when_window_full(self):
        layout = MemoryLayout(line_size=32, span=1024)
        layout.place_random(Region("a", 1024))
        with pytest.raises(LayoutError, match="cannot fit"):
            layout.place_random(Region("b", 32))

    def test_place_random_rejects_region_larger_than_window(self):
        layout = MemoryLayout(line_size=32, span=1024)
        with pytest.raises(LayoutError, match="exceeds"):
            layout.place_random(Region("big", 2048))

    def test_pool_verify_balanced(self):
        pool = MbufPool()
        mbuf = pool.alloc()
        with pytest.raises(MbufError, match="leaked"):
            pool.verify_balanced()
        assert pool.outstanding == 1
        pool.free(mbuf)
        pool.verify_balanced()


# ----------------------------------------------------------------------
# Introspection hooks


class TestIntrospection:
    def test_cache_geometry_describe(self):
        assert ICACHE.describe() == {
            "size": 8192, "line_size": 32, "num_sets": 256,
        }

    def test_program_describe_footprint(self):
        program = Program()
        program.add_code("f", 100)
        program.add_data("d", 64)
        footprint = program.describe_footprint()
        assert footprint["regions"] == 2
        assert footprint["code_bytes"] == 100
        assert footprint["code_lines"] == 4
        assert footprint["data_lines"] == 2

    def test_layer_describe_footprint(self):
        layer = PassthroughLayer("l0")
        description = layer.describe_footprint()
        assert description["name"] == "l0"
        assert description["code_bytes"] == 6144
        assert description["holds_messages"] is False

    def test_scheduler_describe_config(self):
        scheduler = GroupedLDLPScheduler(build_paper_stack())
        config = scheduler.describe_config()
        assert config["scheduler"] == "GroupedLDLPScheduler"
        assert config["uses_queues"] is True
        assert config["groups"] == [[0], [1], [2], [3], [4]]
        assert config["batch_limit"] == 14
        assert len(config["layers"]) == 5

    def test_region_cache_set_indices(self):
        region = _region("r", 64, 8192)
        indices = region.cache_set_indices(32, 256)
        assert list(indices) == [0, 1]
        with pytest.raises(LayoutError):
            region.cache_set_indices(32, 0)


# ----------------------------------------------------------------------
# Whole-stack pipelines


class TestStackPipelines:
    def test_synthetic_stack_lints_clean(self):
        analysis = analyze_synthetic_stack(seed=0)
        assert analysis.findings == []
        assert analysis.summary["groups"] == [[0], [1], [2], [3], [4]]

    def test_synthetic_stack_clean_across_seeds(self):
        for seed in range(5):
            assert analyze_synthetic_stack(seed=seed).findings == []

    def test_netbsd_stack_reproduces_working_set_overflow(self):
        analysis = analyze_netbsd_stack(seed=0)
        rules = [f.rule_id for f in analysis.findings]
        assert rules.count("LDLP002") == 1
        assert rules.count("LDLP003") == 2  # Ethernet and TCP layers
        assert analysis.summary["functions"] == len(CATALOG)
        assert analysis.summary["cache_utilization"] == 1.0

    def test_netbsd_sequential_placement_also_overflows(self):
        # The overflow is capacity, not placement: sequential placement
        # must report the same structural warning.
        analysis = analyze_netbsd_stack(seed=0, placement="sequential")
        assert "LDLP002" in [f.rule_id for f in analysis.findings]

    def test_unknown_stack_name_raises(self):
        with pytest.raises(ConfigurationError):
            analyze_stack("nonesuch")

    def test_scheduler_conflicts_need_binding(self):
        scheduler = LDLPScheduler(build_paper_stack())
        with pytest.raises(ConfigurationError):
            check_scheduler_conflicts(scheduler)

    def test_bound_scheduler_groups_lint_clean(self):
        binding = MachineBinding(rng=1, random_placement=True)
        scheduler = GroupedLDLPScheduler(build_paper_stack(), binding)
        assert check_scheduler_conflicts(scheduler) == []

    def test_catalog_program_covers_catalog(self):
        program = catalog_program()
        assert len(program.code_regions()) == len(CATALOG)
        assert program.total_size() == sum(spec.size for spec in CATALOG)


# ----------------------------------------------------------------------
# mbuf lifecycle linter (MBUF001-003)

DOUBLE_FREE_SRC = """
def rx(pool):
    m = pool.alloc(64)
    pool.free(m)
    pool.free(m)
"""

USE_AFTER_FREE_SRC = """
def rx(pool):
    m = pool.alloc(64)
    pool.free_chain(m)
    return m.length
"""

LEAK_SRC = """
def rx(pool):
    m = pool.alloc(64)
    n = pool.alloc(32)
    pool.free(n)
"""

CLEAN_SRC = """
from repro.buffers import MbufPool

def rx(upper):
    pool = MbufPool()
    m = pool.alloc(64)
    m.append(b"payload")
    upper.deliver(m)       # ownership handed to the upper layer
    n = pool.alloc(16)
    return n               # ownership handed to the caller
"""


class TestMbufLint:
    def test_seeded_double_free(self):
        findings = lint_source(DOUBLE_FREE_SRC, "fixture.py")
        assert [f.rule_id for f in findings] == ["MBUF001"]
        assert findings[0].line == 5
        assert findings[0].details["first_free_line"] == 4

    def test_seeded_use_after_free(self):
        findings = lint_source(USE_AFTER_FREE_SRC, "fixture.py")
        assert [f.rule_id for f in findings] == ["MBUF002"]
        assert findings[0].details["freed_line"] == 4

    def test_seeded_leak(self):
        findings = lint_source(LEAK_SRC, "fixture.py")
        assert [f.rule_id for f in findings] == ["MBUF003"]
        assert findings[0].details["variable"] == "m"

    def test_clean_handoffs_stay_quiet(self):
        assert lint_source(CLEAN_SRC, "fixture.py") == []

    def test_discarded_alloc_is_a_leak(self):
        findings = lint_source("def rx(pool):\n    pool.alloc(64)\n")
        assert [f.rule_id for f in findings] == ["MBUF003"]

    def test_reassignment_of_live_mbuf_is_a_leak(self):
        src = "def rx(pool):\n    m = pool.alloc()\n    m = pool.alloc()\n    pool.free(m)\n"
        findings = lint_source(src)
        assert [f.rule_id for f in findings] == ["MBUF003"]
        assert findings[0].details["previous_alloc_line"] == 2

    def test_free_then_realloc_is_fine(self):
        src = (
            "def rx(pool):\n"
            "    m = pool.alloc()\n"
            "    pool.free(m)\n"
            "    m = pool.alloc()\n"
            "    pool.free(m)\n"
        )
        assert lint_source(src) == []

    def test_double_free_of_parameter(self):
        src = "def drop(pool, m):\n    pool.free(m)\n    pool.free(m)\n"
        assert [f.rule_id for f in lint_source(src)] == ["MBUF001"]

    def test_branches_are_walked(self):
        src = (
            "def rx(pool, fast):\n"
            "    m = pool.alloc()\n"
            "    if fast:\n"
            "        pool.free(m)\n"
            "        pool.free(m)\n"
        )
        assert "MBUF001" in {f.rule_id for f in lint_source(src)}

    def test_container_storage_counts_as_handoff(self):
        src = "def rx(pool, out):\n    m = pool.alloc()\n    out['m'] = m\n"
        assert lint_source(src) == []

    def test_syntax_error_raises_trace_error(self):
        with pytest.raises(TraceError):
            lint_source("def broken(:\n")

    def test_pool_constructor_names_pool(self):
        src = (
            "from repro.buffers import MbufPool\n"
            "allocator = MbufPool()\n"
            "m = allocator.alloc()\n"
        )
        assert [f.rule_id for f in lint_source(src)] == ["MBUF003"]


# ----------------------------------------------------------------------
# Reporters and CLI


class TestReportersAndCli:
    def test_render_json_schema(self):
        findings = [Finding("MBUF001", "msg", "f.py", line=3)]
        payload = json.loads(render_json(findings))
        assert payload["counts"]["error"] == 1
        entry = payload["findings"][0]
        assert entry["rule"] == "double-free"
        assert entry["severity"] == "error"
        assert entry["location"] == "f.py:3"
        assert entry["paper_section"] == "Section 3.2"

    def test_render_text_clean(self):
        assert "no findings" in render_text([])

    def test_render_text_lists_findings(self):
        text = render_text([Finding("LDLP002", "too big", "stack:netbsd")])
        assert "stack:netbsd: warning LDLP002 working-set-overflow" in text

    def test_cli_clean_example_json(self, capsys):
        status = analysis_main(
            ["examples/tcp_receive_path.py", "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert status == 0
        assert payload["findings"] == []

    def test_cli_flags_seeded_defect(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(DOUBLE_FREE_SRC)
        status = analysis_main([str(bad)])
        out = capsys.readouterr().out
        assert status == 1
        assert "MBUF001" in out

    def test_cli_fail_on_never(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(DOUBLE_FREE_SRC)
        assert analysis_main([str(bad), "--fail-on", "never"]) == 0
        capsys.readouterr()

    def test_cli_stack_warnings_do_not_fail_error_gate(self, capsys):
        status = analysis_main(["--stack", "netbsd", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert status == 0
        assert payload["counts"]["warning"] >= 1
        assert payload["counts"]["error"] == 0
        assert "stack:netbsd" in payload["stacks"]

    def test_cli_fail_on_warning_gates_netbsd(self, capsys):
        status = analysis_main(["--stack", "netbsd", "--fail-on", "warning"])
        capsys.readouterr()
        assert status == 1

    def test_cli_requires_some_target(self, capsys):
        with pytest.raises(SystemExit):
            analysis_main([])
        capsys.readouterr()

    def test_cli_unreadable_target(self, tmp_path, capsys):
        missing = tmp_path / "missing.py"
        assert analysis_main([str(missing)]) == 2
        capsys.readouterr()

    def test_experiment_cli_analyze_runs(self, capsys):
        from repro.experiments.cli import main as experiments_main

        assert experiments_main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "LDLP002" in out

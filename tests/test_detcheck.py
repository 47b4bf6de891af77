"""Tests for repro.analysis.detcheck — the DET determinism rules.

Mutation-style: each rule gets minimal synthetic offenders that must
fire and near-miss variants that must stay quiet, so a regression in
either direction (rule goes blind / rule goes noisy) fails here.
"""

import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis import RULES, check_determinism, check_package, check_source
from repro.analysis.cli import main as analysis_main
from repro.analysis.detcheck import (
    apply_suppressions,
    check_parallel_purity,
    module_state_writes,
    parse_suppressions,
)
from repro.experiments.cli import main as experiments_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def rules_of(source: str) -> list[str]:
    """Rule ids reported for a dedented source snippet."""
    return [f.rule_id for f in check_source(textwrap.dedent(source), "snippet.py")]


# ----------------------------------------------------------------------
# DET001 — unseeded / process-global RNG


class TestDET001:
    def test_unseeded_default_rng_fires(self):
        assert rules_of(
            """
            import numpy as np
            rng = np.random.default_rng()
            """
        ) == ["DET001"]

    def test_seeded_default_rng_clean(self):
        assert rules_of(
            """
            import numpy as np
            rng = np.random.default_rng(7)
            other = np.random.default_rng(seed=7)
            """
        ) == []

    def test_unseeded_random_class_fires(self):
        assert rules_of(
            """
            import random
            r = random.Random()
            """
        ) == ["DET001"]

    def test_seeded_random_class_clean(self):
        assert rules_of(
            """
            import random
            r = random.Random(3)
            """
        ) == []

    def test_global_random_function_fires(self):
        assert rules_of(
            """
            import random
            random.shuffle([1, 2, 3])
            """
        ) == ["DET001"]

    def test_from_import_alias_resolved(self):
        assert rules_of(
            """
            from random import randint as ri
            x = ri(0, 9)
            """
        ) == ["DET001"]

    def test_legacy_numpy_global_fires(self):
        assert rules_of(
            """
            import numpy as np
            np.random.seed(0)
            x = np.random.randint(10)
            """
        ) == ["DET001", "DET001"]

    def test_instance_generator_methods_clean(self):
        # Calls on an *instance* are fine — only the module-level
        # global-state APIs are flagged.
        assert rules_of(
            """
            import numpy as np
            rng = np.random.default_rng(1)
            x = rng.integers(10)
            y = rng.shuffle([1, 2])
            """
        ) == []


# ----------------------------------------------------------------------
# DET002 — builtin hash()/id()


class TestDET002:
    def test_hash_fires(self):
        assert rules_of("x = hash('key')\n") == ["DET002"]

    def test_id_fires(self):
        assert rules_of("x = id(object())\n") == ["DET002"]

    def test_shadowed_hash_clean(self):
        assert rules_of(
            """
            def digest(hash):
                return hash("key")
            """
        ) == []

    def test_object_dot_hash_clean(self):
        # Attribute access named hash is not the builtin.
        assert rules_of("y = obj.hash(3)\n") == []


# ----------------------------------------------------------------------
# DET003 — wall clocks


class TestDET003:
    def test_time_time_fires(self):
        assert rules_of(
            """
            import time
            t = time.time()
            """
        ) == ["DET003"]

    def test_from_import_perf_counter_fires(self):
        assert rules_of(
            """
            from time import perf_counter
            t = perf_counter()
            """
        ) == ["DET003"]

    def test_datetime_now_fires(self):
        assert rules_of(
            """
            import datetime
            now = datetime.datetime.now()
            """
        ) == ["DET003"]

    def test_untracked_time_function_clean(self):
        assert rules_of(
            """
            import time
            time.sleep(0.1)
            """
        ) == []

    def test_suppression_with_reason_silences(self):
        assert rules_of(
            """
            import time
            t = time.time()  # det: allow[DET003] metadata timestamp only
            """
        ) == []

    def test_reasonless_suppression_keeps_finding(self):
        findings = check_source(
            textwrap.dedent(
                """
                import time
                t = time.time()  # det: allow[DET003]
                """
            ),
            "snippet.py",
        )
        assert [f.rule_id for f in findings] == ["DET003"]
        assert findings[0].details["reasonless_suppression"] is True
        assert "no reason" in findings[0].message

    def test_suppression_for_other_rule_keeps_finding(self):
        findings = check_source(
            textwrap.dedent(
                """
                import time
                t = time.time()  # det: allow[DET001] wrong rule
                """
            ),
            "snippet.py",
        )
        assert [f.rule_id for f in findings] == ["DET003"]
        assert "reasonless_suppression" not in findings[0].details


# ----------------------------------------------------------------------
# DET004 — salted-set iteration order


class TestDET004:
    def test_for_loop_over_str_set_fires(self):
        assert rules_of(
            """
            names = {"tcp", "udp"}
            out = []
            for name in names:
                out.append(name)
            """
        ) == ["DET004"]

    def test_sorted_iteration_clean(self):
        assert rules_of(
            """
            names = {"tcp", "udp"}
            out = []
            for name in sorted(names):
                out.append(name)
            """
        ) == []

    def test_list_call_fires(self):
        assert rules_of(
            """
            names = {"tcp", "udp"}
            ordered = list(names)
            """
        ) == ["DET004"]

    def test_join_fires(self):
        assert rules_of(
            """
            names = {"tcp", "udp"}
            text = ",".join(names)
            """
        ) == ["DET004"]

    def test_membership_test_clean(self):
        assert rules_of(
            """
            names = {"tcp", "udp"}
            ok = "tcp" in names
            """
        ) == []

    def test_int_set_clean(self):
        # int hashes are not salted; iteration order is stable.
        assert rules_of(
            """
            nums = {3, 1, 2}
            ordered = list(nums)
            for n in nums:
                print(n)
            """
        ) == []

    def test_order_neutral_consumers_clean(self):
        assert rules_of(
            """
            names = {"tcp", "udp"}
            n = len(names)
            first = min(names)
            ok = all(name for name in names)
            """
        ) == []

    def test_annotation_marks_parameter_salted(self):
        assert rules_of(
            """
            def render(names: set[str]) -> list:
                return list(names)
            """
        ) == ["DET004"]

    def test_annotated_parameter_sorted_clean(self):
        assert rules_of(
            """
            def render(names: set[str]) -> list:
                return sorted(names)
            """
        ) == []

    def test_add_promotes_plain_set(self):
        assert rules_of(
            """
            seen = set()
            seen.add("alpha")
            for name in seen:
                print(name)
            """
        ) == ["DET004"]

    def test_comprehension_over_salted_set_fires(self):
        assert rules_of(
            """
            names = {"a", "b"}
            lengths = [len(n) for n in names]
            """
        ) == ["DET004"]

    def test_sorted_comprehension_clean(self):
        assert rules_of(
            """
            names = {"a", "b"}
            lengths = sorted(len(n) for n in names)
            """
        ) == []

    def test_set_union_propagates_salting(self):
        assert rules_of(
            """
            left = {"a"}
            right = {"b"}
            both = left | right
            ordered = list(both)
            """
        ) == ["DET004"]


# ----------------------------------------------------------------------
# Suppression parsing


class TestSuppressions:
    def test_parse_rules_and_reason(self):
        supp = parse_suppressions(
            "x = 1\ny = 2  # det: allow[DET001,DET003] both deliberate\n"
        )
        assert list(supp) == [2]
        assert supp[2].rules == {"DET001", "DET003"}
        assert supp[2].reason == "both deliberate"
        assert supp[2].covers("DET001") and supp[2].covers("DET003")
        assert not supp[2].covers("DET002")

    def test_reasonless_does_not_cover(self):
        supp = parse_suppressions("t = now()  # det: allow[DET003]\n")
        assert supp[1].reason == ""
        assert not supp[1].covers("DET003")

    def test_apply_drops_only_covered_lines(self):
        from repro.analysis import Finding

        findings = [
            Finding("DET003", "clock", "f.py", line=1),
            Finding("DET003", "clock", "f.py", line=2),
        ]
        supp = parse_suppressions("a  # det: allow[DET003] fine\nb\n")
        kept = apply_suppressions(findings, supp)
        assert [f.line for f in kept] == [2]


# ----------------------------------------------------------------------
# DET005 — module state writes + parallel purity


class TestModuleStateWrites:
    def _writes(self, source):
        import ast

        return module_state_writes(ast.parse(textwrap.dedent(source)))

    def test_global_rebinding_detected(self):
        writes = self._writes(
            """
            COUNT = 0

            def bump():
                global COUNT
                COUNT = COUNT + 1
            """
        )
        assert [(w.name, w.kind, w.function) for w in writes] == [
            ("COUNT", "global-write", "bump")
        ]

    def test_container_mutation_detected(self):
        writes = self._writes(
            """
            CACHE = {}

            def remember(key, value):
                CACHE[key] = value

            def forget(key):
                del CACHE[key]

            def note(value):
                CACHE.setdefault("notes", value)
            """
        )
        assert {(w.name, w.kind) for w in writes} == {
            ("CACHE", "container-mutation")
        }
        assert {w.function for w in writes} == {"remember", "forget", "note"}

    def test_local_shadow_not_flagged(self):
        assert self._writes(
            """
            CACHE = {}

            def pure(CACHE):
                CACHE["k"] = 1
                return CACHE

            def local():
                CACHE = {}
                CACHE.update(a=1)
                return CACHE
            """
        ) == []

    def test_reads_not_flagged(self):
        assert self._writes(
            """
            TABLE = {"a": 1}

            def lookup(key):
                return TABLE.get(key)
            """
        ) == []


class TestTreeIsClean:
    def test_package_scan_clean(self):
        assert check_package() == []

    def test_parallel_purity_clean(self):
        assert check_parallel_purity() == []

    def test_full_gate_clean(self):
        assert check_determinism() == []


# ----------------------------------------------------------------------
# CLI wiring


class TestCLI:
    def test_determinism_gate_exits_zero(self, capsys):
        assert analysis_main(["--determinism"]) == 0
        out = capsys.readouterr().out
        assert "determinism" in out

    def test_list_rules_prints_registry(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out

    def test_experiments_cli_determinism(self, capsys):
        assert experiments_main(["analyze", "--determinism"]) == 0
        capsys.readouterr()

    def test_experiments_cli_list_rules(self, capsys):
        assert experiments_main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DET005" in out and "impure-sweep-point" in out


# ----------------------------------------------------------------------
# Registry / documentation coherence


class TestRuleCatalog:
    def test_rule_ids_well_formed_and_unique(self):
        pattern = re.compile(r"^[A-Z]+\d{3}$")
        assert all(pattern.match(rule_id) for rule_id in RULES)
        names = [rule.name for rule in RULES.values()]
        assert len(names) == len(set(names))

    def test_every_shipped_rule_documented(self):
        design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        missing = [rule_id for rule_id in RULES if rule_id not in design]
        assert not missing, f"rules missing from DESIGN.md table: {missing}"

    def test_det_rules_are_errors(self):
        for rule_id, rule in RULES.items():
            if rule_id.startswith("DET"):
                assert rule.severity.value == "error"
                assert rule.paper_section == "Reproduction methodology"


# ----------------------------------------------------------------------
# The canonical in-tree suppression examples stay in place


class TestCanonicalSuppressions:
    @pytest.mark.parametrize(
        "relpath, rule_id",
        [
            ("src/repro/harness/runner.py", "DET003"),
            ("src/repro/obs/runtime.py", "DET005"),
        ],
    )
    def test_suppression_present_with_reason(self, relpath, rule_id):
        source = (REPO_ROOT / relpath).read_text(encoding="utf-8")
        suppressions = parse_suppressions(source)
        covering = [s for s in suppressions.values() if s.covers(rule_id)]
        assert covering, f"no reasoned {rule_id} suppression in {relpath}"

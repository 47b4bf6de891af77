"""Tests of the multi-core machine, dispatch policies, and sweep.

The two acceptance pins of the multi-core work live here: (1) with one
core, every dispatch policy reproduces the single-core benchmark
bit-identically for every scheduler, and (2) the whole multicore sweep
is byte-identical across harness worker counts and repeat runs.  Plus
the RSS balance property: flow-hash dispatch spreads flows over cores
within a stated bound (each core gets between 0.5x and 1.5x the fair
share once there are at least 32 flows per core).
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.harnesscheck import check_registry_coverage
from repro.cache.hierarchy import CacheGeometry, MachineSpec
from repro.core.dispatch import (
    APP_CLASS_KEY,
    DISPATCH_POLICIES,
    FLOW_KEY,
    AppDefinedDispatch,
    FlowHashRSS,
    LDLPAwareDispatch,
    make_dispatch_policy,
    stable_hash,
)
from repro.core.layer import Message
from repro.core.overload import DROP_POLICIES
from repro.errors import ConfigurationError
from repro.experiments import multicore as experiment
from repro.harness import ResultCache, run_experiment
from repro.harness.cache import canonical_json
from repro.machine.multicore import MultiCoreSpec
from repro.obs.runtime import Recorder, recording
from repro.sim.multicore import (
    MultiCoreConfig,
    build_cores,
    multicore_point,
    run_multicore,
)
from repro.sim.runner import SimulationConfig, run_simulation
from repro.sim.vec import vec_step
from repro.traffic.poisson import PoissonSource

ALL_SCHEDULERS = ("conventional", "ilp", "ldlp", "grouped")

#: Every drop policy, each paired with a dispatch policy so that every
#: dispatch policy is exercised too.
POLICY_DISPATCH = list(
    zip(sorted(DROP_POLICIES), itertools.cycle(sorted(DISPATCH_POLICIES)))
)

#: Obs counters both the single-core and the multi-core drive emit.
SHARED_COUNTERS = (
    "messages.arrivals",
    "messages.drops",
    "messages.completions",
    "scheduler.service_steps",
    "faults.cache_flushes",
)


def flow_message(flow: int, app_class: int | None = None) -> Message:
    """A message tagged the way the multi-core runner tags arrivals."""
    message = Message()
    message.meta[FLOW_KEY] = flow
    message.meta[APP_CLASS_KEY] = (
        app_class if app_class is not None else flow % 8
    )
    return message


# ----------------------------------------------------------------------
# Dispatch-policy semantics


class TestDispatchPolicies:
    def test_registry_names_match_policy_names(self):
        for name, factory in DISPATCH_POLICIES.items():
            assert factory().name == name

    def test_unknown_policy_raises(self):
        with pytest.raises(ConfigurationError):
            make_dispatch_policy("round-robin-but-wrong")

    def test_rss_is_per_flow_sticky(self):
        """Every message of one flow lands on the same core."""
        policy = FlowHashRSS()
        for flow in range(50):
            cores = {
                policy.select(flow_message(flow), 4) for _ in range(5)
            }
            assert len(cores) == 1

    def test_rss_matches_stable_hash(self):
        policy = FlowHashRSS()
        assert policy.select(flow_message(17), 8) == stable_hash(17) % 8

    def test_app_rules_table_wins_over_hash(self):
        policy = AppDefinedDispatch(rules={3: 1, 5: 2})
        assert policy.select(flow_message(0, app_class=3), 4) == 1
        assert policy.select(flow_message(0, app_class=5), 4) == 2

    def test_app_falls_back_to_field_hash(self):
        policy = AppDefinedDispatch(rules={3: 1})
        assert policy.select(flow_message(0, app_class=7), 4) == (
            stable_hash(7) % 4
        )

    def test_ldlp_steers_whole_chunks_then_rotates(self):
        policy = LDLPAwareDispatch(chunk=3)
        picks = [policy.select(Message(), 2) for _ in range(9)]
        assert picks == [0, 0, 0, 1, 1, 1, 0, 0, 0]

    def test_ldlp_chunk_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            LDLPAwareDispatch(chunk=0)

    def test_ldlp_recovers_from_shrunk_core_count(self):
        policy = LDLPAwareDispatch(chunk=1)
        policy.select(Message(), 8)
        policy.select(Message(), 8)  # rotated to core 1
        assert policy.select(Message(), 1) == 0

    def test_selects_are_deterministic(self):
        """No policy may draw randomness: same inputs, same core."""
        for name in DISPATCH_POLICIES:
            first = [
                make_dispatch_policy(name).select(flow_message(i), 4)
                for i in range(40)
            ]
            second = [
                make_dispatch_policy(name).select(flow_message(i), 4)
                for i in range(40)
            ]
            assert first == second


class TestRSSBalanceProperty:
    @given(
        cores=st.sampled_from([2, 3, 4, 8]),
        flows_per_core=st.integers(32, 128),
        start=st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_rss_balances_flows_within_bound(
        self, cores, flows_per_core, start
    ):
        """The stated bound: with >= 32 flows per core, every core
        receives between 0.5x and 1.5x the fair share of flows."""
        policy = FlowHashRSS()
        flows = cores * flows_per_core
        counts = [0] * cores
        for flow in range(start, start + flows):
            counts[policy.select(flow_message(flow), cores)] += 1
        fair = flows / cores
        assert min(counts) >= 0.5 * fair
        assert max(counts) <= 1.5 * fair


# ----------------------------------------------------------------------
# Machine topology


class TestMultiCoreSpec:
    def test_core_count_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            MultiCoreSpec(num_cores=0)

    def test_per_core_l2_is_rejected(self):
        spec = MachineSpec(l2=CacheGeometry(size=65536, line_size=32))
        with pytest.raises(ConfigurationError):
            MultiCoreSpec(num_cores=2, core=spec)

    def test_shared_l2_line_size_must_match(self):
        with pytest.raises(ConfigurationError):
            MultiCoreSpec(
                num_cores=2,
                shared_l2=CacheGeometry(size=65536, line_size=64),
            )

    def test_shared_l2_must_cover_primaries(self):
        with pytest.raises(ConfigurationError):
            MultiCoreSpec(
                num_cores=2,
                shared_l2=CacheGeometry(size=4096, line_size=32),
            )

    def test_shared_l2_is_one_instance(self):
        cores = build_cores(
            MultiCoreConfig(
                num_cores=3,
                shared_l2=CacheGeometry(size=65536, line_size=32),
            ),
            0,
        )
        shared = cores[0].binding.cpu.hierarchy.l2
        assert shared is not None
        for scheduler in cores:
            assert scheduler.binding.cpu.hierarchy.l2 is shared


# ----------------------------------------------------------------------
# Acceptance pin 1: one core == the single-core benchmark, bit for bit


class TestSingleCoreEquivalence:
    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
    @pytest.mark.parametrize("dispatch", sorted(DISPATCH_POLICIES))
    def test_one_core_reproduces_run_simulation(self, scheduler, dispatch):
        base = run_simulation(
            PoissonSource(9000.0, size=552, rng=7),
            SimulationConfig(
                scheduler=scheduler, duration=0.04, engine="scalar"
            ),
            seed=7,
        )
        multi = run_multicore(
            PoissonSource(9000.0, size=552, rng=7),
            MultiCoreConfig(
                scheduler=scheduler,
                dispatch=dispatch,
                num_cores=1,
                duration=0.04,
            ),
            seed=7,
        )
        assert multi.aggregate.to_dict() == base.to_dict()

    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
    @pytest.mark.parametrize("policy,dispatch", POLICY_DISPATCH)
    @pytest.mark.parametrize("flush", [None, 150_000])
    @pytest.mark.parametrize("engine", ["scalar", "vec"])
    def test_one_core_reproduces_every_drop_flush_and_engine(
        self, scheduler, policy, dispatch, flush, engine
    ):
        """Under overload (drops) and cache flushes, a one-core run
        reproduces ``run_simulation`` on either engine — result and
        shared obs counters both."""
        shape = dict(
            scheduler=scheduler,
            duration=0.02,
            input_limit=60,
            drop_policy=policy,
            flush_period_cycles=flush,
        )
        base_recorder = Recorder(keep_spans=False)
        with recording(base_recorder):
            base = run_simulation(
                PoissonSource(14000.0, size=552, rng=7),
                SimulationConfig(engine=engine, **shape),
                seed=7,
            )
        multi_recorder = Recorder(keep_spans=False)
        with recording(multi_recorder):
            multi = run_multicore(
                PoissonSource(14000.0, size=552, rng=7),
                MultiCoreConfig(dispatch=dispatch, num_cores=1, **shape),
                seed=7,
            )
        assert multi.aggregate.to_dict() == base.to_dict()
        assert base.dropped > 0
        for name in SHARED_COUNTERS:
            assert multi_recorder.counters.get(name) == (
                base_recorder.counters.get(name)
            ), name
        flushes = base_recorder.counters.get("faults.cache_flushes")
        assert (flushes > 0) == (flush is not None)


# ----------------------------------------------------------------------
# Every core steps through the vec engine: scalar == vec at N > 1


def run_both_engines(**shape):
    """One multi-core config on both engines under a metrics recorder;
    returns {engine: (canonical result JSON, counters dict)}."""
    outcomes = {}
    for engine in ("scalar", "vec"):
        recorder = Recorder(keep_spans=False)
        with recording(recorder):
            result = run_multicore(
                PoissonSource(7000.0 * shape["num_cores"], size=552, rng=3),
                MultiCoreConfig(engine=engine, **shape),
                seed=3,
            )
        outcomes[engine] = (
            canonical_json(result.to_dict()),
            recorder.counters.as_dict(),
        )
    return outcomes


class TestMultiCoreEngines:
    @pytest.mark.parametrize("dispatch", sorted(DISPATCH_POLICIES))
    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
    @pytest.mark.parametrize("cores", [2, 4])
    @pytest.mark.parametrize("flush", [None, 150_000])
    def test_vec_steps_match_scalar(self, dispatch, scheduler, cores, flush):
        """Per-core vec steps leave the whole result (aggregate and
        per-core attribution) and every obs counter as scalar steps do."""
        shape = dict(
            scheduler=scheduler,
            dispatch=dispatch,
            num_cores=cores,
            duration=0.02,
            flush_period_cycles=flush,
        )
        config = MultiCoreConfig(**shape)
        assert all(vec_step(core) is not None for core in build_cores(config, 3))
        outcomes = run_both_engines(**shape)
        assert outcomes["scalar"] == outcomes["vec"]
        counters = outcomes["vec"][1]
        assert counters["messages.completions"] > 0
        assert (counters.get("faults.cache_flushes", 0) > 0) == (
            flush is not None
        )
        if scheduler in ("ldlp", "grouped"):
            assert counters["ldlp.batched_messages"] > counters["ldlp.batches"]

    def test_shared_l2_stays_scalar_and_matches(self):
        shape = dict(
            scheduler="ldlp",
            dispatch="ldlp",
            num_cores=2,
            duration=0.02,
            shared_l2=CacheGeometry(size=65536, line_size=32),
        )
        cores = build_cores(MultiCoreConfig(**shape), 3)
        assert all(vec_step(core) is None for core in cores)
        outcomes = run_both_engines(**shape)
        assert outcomes["scalar"] == outcomes["vec"]

    def test_unknown_engine_fails_at_config(self):
        with pytest.raises(ConfigurationError, match="unknown engine 'turbo'"):
            MultiCoreConfig(engine="turbo")


# ----------------------------------------------------------------------
# Multi-core behaviour


class TestMultiCoreRun:
    def test_messages_conserved_across_dispatch(self):
        for dispatch in DISPATCH_POLICIES:
            point = multicore_point(
                "ldlp", dispatch, 3, 12000.0, [0], 0.03
            )
            assert point["conservation_violations"] == 0
            aggregate = point["result"]["aggregate"]
            assert aggregate["offered"] == (
                aggregate["completed"] + aggregate["dropped"]
            )

    def test_per_core_counts_sum_to_aggregate(self):
        result = run_multicore(
            PoissonSource(12000.0, size=552, rng=1),
            MultiCoreConfig(scheduler="ldlp", dispatch="rss", num_cores=4,
                            duration=0.03),
            seed=1,
        )
        assert sum(c.completed for c in result.cores) == (
            result.aggregate.completed
        )
        assert sum(c.dispatched for c in result.cores) == (
            result.aggregate.offered
        )
        assert sum(c.drops for c in result.cores) == result.aggregate.dropped

    def test_ldlp_dispatch_beats_rss_on_imisses_at_4_cores(self):
        """The locality claim: chunked steering keeps layer code
        resident, so LDLP-aware dispatch misses less than RSS."""
        rss = multicore_point("ldlp", "rss", 4, 12000.0, [0, 1], 0.04)
        ldlp = multicore_point("ldlp", "ldlp", 4, 12000.0, [0, 1], 0.04)
        rss_imiss = rss["result"]["aggregate"]["misses"]["instruction"]
        ldlp_imiss = ldlp["result"]["aggregate"]["misses"]["instruction"]
        assert ldlp_imiss < rss_imiss

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MultiCoreConfig(dispatch="nope")
        with pytest.raises(ConfigurationError):
            MultiCoreConfig(num_cores=0)
        with pytest.raises(ConfigurationError):
            MultiCoreConfig(num_flows=0)

    def test_nonpositive_input_limit_rejected(self):
        with pytest.raises(ConfigurationError, match="input_limit"):
            MultiCoreConfig(input_limit=0, drop_policy="head")


# ----------------------------------------------------------------------
# Acceptance pin 2: byte-identical across --jobs and repeat runs


class TestSweepDeterminism:
    def tiny_spec(self):
        """The real multicore sweep shrunk to stay fast under pytest."""
        from repro.harness.points import SweepPoint, SweepSpec

        def points(scale: str) -> list[SweepPoint]:
            del scale
            return [
                SweepPoint(
                    experiment="tinymulticore",
                    key=f"{dispatch}/cores={cores}",
                    func="repro.sim.multicore:multicore_point",
                    params={
                        "scheduler": "ldlp",
                        "dispatch": dispatch,
                        "cores": cores,
                        "rate": 12000.0,
                        "seeds": [0, 1],
                        "duration": 0.02,
                    },
                )
                for dispatch in sorted(DISPATCH_POLICIES)
                for cores in (1, 2)
            ]

        return SweepSpec(
            name="tinymulticore",
            points=points,
            quantities=lambda points, results: {},
            sources=("repro.sim", "repro.core", "repro.machine"),
            assemble=lambda points, results: results,
        )

    def test_every_policy_identical_across_jobs(self, tmp_path):
        spec = self.tiny_spec()
        serial = run_experiment(spec, jobs=1, cache=ResultCache(tmp_path / "a"))
        parallel = run_experiment(spec, jobs=2, cache=ResultCache(tmp_path / "b"))
        assert serial.results_json() == parallel.results_json()

    def test_point_repeats_byte_identically(self):
        import json

        first = multicore_point("grouped", "app", 2, 12000.0, [0, 1], 0.02)
        second = multicore_point("grouped", "app", 2, 12000.0, [0, 1], 0.02)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_different_seeds_differ(self):
        first = multicore_point("ldlp", "rss", 2, 12000.0, [0], 0.02)
        second = multicore_point("ldlp", "rss", 2, 12000.0, [5], 0.02)
        assert first["result"] != second["result"]


# ----------------------------------------------------------------------
# Experiment declaration and the HARN002 coverage rule


class TestExperimentSweep:
    def test_ci_sweep_exercises_every_policy(self):
        points = experiment.sweep_points("ci")
        exercised = {point.params["dispatch"] for point in points}
        assert exercised == set(DISPATCH_POLICIES)

    def test_ci_sweep_reaches_four_cores(self):
        """The acceptance pin needs >= 4 cores in the golden record."""
        points = experiment.sweep_points("ci")
        assert max(point.params["cores"] for point in points) >= 4

    def test_golden_quantities_pin_the_locality_ratio(self):
        points = experiment.sweep_points("ci")
        results = {
            point.key: multicore_point(
                **{**point.params, "seeds": [0], "duration": 0.02}
            )
            for point in points
        }
        quantities = experiment.golden_quantities(points, results)
        assert quantities["conservation_violations"] == 0.0
        # The locality win needs a batching scheduler: LDLP batches the
        # chunks the dispatcher steers; conventional processes messages
        # one at a time, so steering cannot change its miss rate.
        assert quantities["ldlp/ldlp_vs_rss_imiss"] < 1.0
        assert quantities["conventional/ldlp_vs_rss_imiss"] == (
            pytest.approx(1.0, rel=0.05)
        )

    def test_assemble_and_render(self):
        points = experiment.sweep_points("ci")[:2]
        results = {
            point.key: multicore_point(
                **{**point.params, "seeds": [0], "duration": 0.02}
            )
            for point in points
        }
        table = experiment.assemble(points, results).render()
        assert "dispatch" in table and "cores" in table

    def test_harn002_clean_on_shipped_registry(self):
        assert [
            f for f in check_registry_coverage() if f.rule_id == "HARN002"
        ] == []

    def test_harn002_flags_unexercised_policy(self, monkeypatch):
        import repro.core.dispatch as dispatch_module

        monkeypatch.setitem(
            dispatch_module.DISPATCH_POLICIES, "phantom", FlowHashRSS
        )
        findings = [
            f for f in check_registry_coverage() if f.rule_id == "HARN002"
        ]
        assert len(findings) == 1
        assert findings[0].rule_id == "HARN002"
        assert findings[0].details["policy"] == "phantom"

    def test_harn005_flags_unexercised_scheduler(self, monkeypatch):
        import repro.sim.runner as runner_module

        assert [
            f for f in check_registry_coverage() if f.rule_id == "HARN005"
        ] == []
        monkeypatch.setattr(
            runner_module, "SCHEDULER_NAMES",
            (*runner_module.SCHEDULER_NAMES, "phantom"),
        )
        findings = [
            f for f in check_registry_coverage() if f.rule_id == "HARN005"
        ]
        assert len(findings) == 1
        assert findings[0].target == "experiment:multicore"
        assert findings[0].details["scheduler"] == "phantom"

"""Differential harness: the vec engine must equal the scalar engine.

The vectorized step strategy (:mod:`repro.sim.vec`) is only allowed to be
*fast*; it is never allowed to be *different*.  These tests enforce the
contract at three levels:

* **ExperimentRun level** — every declared experiment at CI scale,
  executed once per engine through the real harness (no cache), must
  produce byte-identical canonical-JSON results, identical obs
  counters, and an intact drop/completion conservation balance.
* **Property level** — hypothesis fans random ``SimulationConfig``
  combinations (scheduler × drop policy × fault plan × seed) through
  both engines and compares results and counters.
* **Degenerate-input level** — zero-length and length-1 arrival
  streams through every scheduler and drop policy (the PR 4
  ``len()``-truthiness bug class), plus the structured arrival table
  itself at those lengths.

Plus the engine-selection seams: config validation, the static
``vec_supported`` envelope, and the silent scalar fallbacks.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binding import MachineBinding
from repro.core.layer import CountingLayer, LayerFootprint
from repro.core.overload import DROP_POLICIES
from repro.core.scheduler import (
    ConventionalScheduler,
    GroupedLDLPScheduler,
    LDLPScheduler,
)
from repro.errors import ConfigurationError
from repro.faults.campaigns import campaign_plan
from repro.harness.cache import ResultCache, canonical_json
from repro.harness.points import point_accepts_engine, with_engine
from repro.harness.registry import EXPERIMENT_MODULES, get_spec
from repro.harness.runner import run_experiment
from repro.obs.runtime import Recorder, recording
from repro.sim.runner import (
    ENGINE_NAMES,
    SCHEDULER_NAMES,
    SimulationConfig,
    build_paper_stack,
    run_simulation,
)
from repro.sim.vec import try_drive_vec, vec_supported
from repro.traffic.base import Arrival
from repro.traffic.poisson import PoissonSource

POLICY_NAMES = tuple(sorted(DROP_POLICIES))


def _run_both_engines(config, arrivals, seed):
    """One config on both engines under a metrics recorder; returns
    {engine: (canonical result JSON, counters dict)}."""
    outcomes = {}
    for engine in ENGINE_NAMES:
        recorder = Recorder(keep_spans=False)
        with recording(recorder):
            result = run_simulation(
                PoissonSource(1000.0, rng=seed),
                replace(config, engine=engine),
                seed=seed,
                arrivals=arrivals,
            )
        outcomes[engine] = (
            canonical_json(result.to_dict()),
            recorder.counters.as_dict(),
        )
    return outcomes


# ----------------------------------------------------------------------
# ExperimentRun level: all declared experiments, both engines


@pytest.mark.parametrize("name", sorted(EXPERIMENT_MODULES))
def test_experiment_byte_identical_across_engines(name):
    """Stats, counters, and conservation balance at CI scale."""
    runs = {}
    for engine in ENGINE_NAMES:
        spec = with_engine(get_spec(name), engine)
        runs[engine] = run_experiment(
            spec, scale="ci", jobs=1, cache=ResultCache(enabled=False)
        )
    scalar, vec = runs["scalar"], runs["vec"]
    assert scalar.results_json() == vec.results_json()
    assert scalar.counters == vec.counters
    counters = vec.counters
    if counters.get("messages.arrivals"):
        # Every simulated drive loop runs until the queue drains, so
        # arrivals must be fully accounted as completions + drops.
        assert counters["messages.arrivals"] == (
            counters.get("messages.completions", 0.0)
            + counters.get("messages.drops", 0.0)
        )


def test_engine_tagging_only_touches_sim_points():
    """with_engine pins sim-backed points and leaves analytic ones."""
    faults = with_engine(get_spec("faults"), "scalar").points_for("ci")
    assert all(point.params["engine"] == "scalar" for point in faults)
    table1 = get_spec("table1")
    assert [
        point.params for point in with_engine(table1, "scalar").points_for("ci")
    ] == [point.params for point in table1.points_for("ci")]
    assert not any(
        point_accepts_engine(point) for point in table1.points_for("ci")
    )


# ----------------------------------------------------------------------
# Property level: random configs through both engines


@settings(max_examples=20, deadline=None)
@given(
    scheduler=st.sampled_from(SCHEDULER_NAMES),
    policy=st.sampled_from(POLICY_NAMES),
    seed=st.integers(0, 2**20),
    rate=st.sampled_from([2000.0, 9000.0, 15000.0]),
    input_limit=st.sampled_from([4, 32, 500]),
    faulted=st.booleans(),
)
def test_random_config_equivalence(
    scheduler, policy, seed, rate, input_limit, faulted
):
    """scheduler × drop policy × fault plan × seed, scalar ≡ vec."""
    duration = 0.015
    flush = None
    source = PoissonSource(rate, rng=seed)
    arrivals = source.arrival_list(duration)
    if faulted:
        # The standard campaign plan: loss, duplication, reordering and
        # jitter (out-of-order timestamps!) plus periodic cache flushes.
        plan = campaign_plan()
        arrivals = plan.apply(arrivals, seed)
        flush = plan.flush_period_cycles
    config = SimulationConfig(
        scheduler=scheduler,
        drop_policy=policy,
        duration=duration,
        input_limit=input_limit,
        flush_period_cycles=flush,
    )
    outcomes = _run_both_engines(config, arrivals, seed)
    assert outcomes["scalar"] == outcomes["vec"]


@settings(max_examples=10, deadline=None)
@given(
    scheduler=st.sampled_from(SCHEDULER_NAMES),
    batch_limit=st.sampled_from([1, 3, 14]),
    buffer_size=st.sampled_from([1024, 2048]),
    prefetch=st.sampled_from([0.0, 0.3, 0.5]),
    seed=st.integers(0, 2**10),
)
def test_machine_variation_equivalence(
    scheduler, batch_limit, buffer_size, prefetch, seed
):
    """Machine-shape knobs that stress the template compiler: batch
    caps, buffer geometry, and the iprefetch rounding path."""
    from repro.cache.hierarchy import MachineSpec

    config = SimulationConfig(
        scheduler=scheduler,
        duration=0.01,
        batch_limit=batch_limit,
        buffer_size=buffer_size,
        spec=MachineSpec(iprefetch_efficiency=prefetch),
    )
    arrivals = PoissonSource(9000.0, rng=seed).arrival_list(config.duration)
    outcomes = _run_both_engines(config, arrivals, seed)
    assert outcomes["scalar"] == outcomes["vec"]


# ----------------------------------------------------------------------
# Degenerate-input level: the PR 4 truthiness bug class


@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_empty_and_singleton_streams(scheduler, policy):
    """Zero-length and length-1 arrival streams through every
    scheduler and drop policy, on both engines."""
    for arrivals in ([], [Arrival(time=0.001, size=552)]):
        config = SimulationConfig(
            scheduler=scheduler, drop_policy=policy, duration=0.01
        )
        outcomes = _run_both_engines(config, list(arrivals), seed=0)
        assert outcomes["scalar"] == outcomes["vec"]
        for engine in ENGINE_NAMES:
            result_json, counters = outcomes[engine]
            expected = float(len(arrivals))
            assert counters.get("messages.arrivals", 0.0) == expected
            assert counters.get("messages.completions", 0.0) == expected


# ----------------------------------------------------------------------
# Engine-selection seams


def test_unknown_engine_rejected():
    with pytest.raises(ConfigurationError):
        SimulationConfig(engine="turbo")
    from repro.sim.runner import drive

    scheduler = ConventionalScheduler(build_paper_stack(), MachineBinding())
    with pytest.raises(ConfigurationError):
        drive(scheduler, [], engine="turbo")


def test_vec_supported_envelope():
    """The static envelope: paper stacks vectorize, stateful stacks,
    unbound schedulers and oversized code working sets do not."""
    assert vec_supported(
        LDLPScheduler(build_paper_stack(), MachineBinding())
    )
    assert not vec_supported(
        ConventionalScheduler(build_paper_stack())  # no binding
    )
    counting = [
        CountingLayer(f"count{i}", LayerFootprint()) for i in range(2)
    ]
    assert not vec_supported(
        ConventionalScheduler(counting, MachineBinding())
    )
    # 12 KB of layer code = 384 lines in a 256-set I-cache: the code
    # working set conflicts with itself, so the static template is
    # unsound and the engine must decline (ablations A3 hits this).
    big = build_paper_stack(code_bytes=12288)
    assert not vec_supported(ConventionalScheduler(big, MachineBinding()))
    assert vec_supported(
        GroupedLDLPScheduler(build_paper_stack(), MachineBinding())
    )

    # LDLP is grouped LDLP with singleton groups, but the kind check
    # stays exact-type: a user subclass may override service semantics.
    class Custom(LDLPScheduler):
        pass

    assert not vec_supported(Custom(build_paper_stack(), MachineBinding()))
    ldlp = LDLPScheduler(build_paper_stack(), MachineBinding())
    assert ldlp.describe_config()["groups"] == [[0], [1], [2], [3], [4]]


def test_unsupported_stack_falls_back_to_scalar():
    """engine='vec' on an ineligible stack silently runs scalar and
    produces the scalar result."""
    counting = [
        CountingLayer(f"count{i}", LayerFootprint()) for i in range(3)
    ]
    scheduler = ConventionalScheduler(counting, MachineBinding())
    assert try_drive_vec(scheduler, []) is None
    results = {}
    for engine in ENGINE_NAMES:
        config = SimulationConfig(
            scheduler="conventional",
            duration=0.01,
            layer_code_bytes=12288,
            engine=engine,
        )
        arrivals = PoissonSource(3000.0, rng=1).arrival_list(config.duration)
        result = run_simulation(
            PoissonSource(3000.0, rng=1), config, seed=1, arrivals=arrivals
        )
        results[engine] = canonical_json(result.to_dict())
    assert results["scalar"] == results["vec"]


def test_span_keeping_recorder_uses_scalar_path():
    """Full tracing needs per-layer invoke spans, which only the
    scalar path emits: under a keep_spans recorder the vec engine must
    stand aside, and the trace must contain layer tracks."""
    config = SimulationConfig(duration=0.005, engine="vec")
    arrivals = PoissonSource(5000.0, rng=0).arrival_list(config.duration)
    recorder = Recorder(keep_spans=True)
    with recording(recorder):
        run_simulation(PoissonSource(5000.0, rng=0), config, seed=0,
                       arrivals=arrivals)
    tracks = set(recorder.tracks())
    assert "layer0" in tracks
    assert any(span.name == "invoke" for span in recorder.spans)


def test_latency_sample_order_is_identical():
    """Not just summary statistics: the raw per-completion latency
    sample sequences match, which pins completion *order*."""
    from repro.sim.runner import build_scheduler, drive
    from repro.core.layer import Message

    for scheduler_name in SCHEDULER_NAMES:
        config = SimulationConfig(scheduler=scheduler_name, duration=0.01)
        arrivals = PoissonSource(12000.0, rng=7).arrival_list(config.duration)
        samples = {}
        for engine in ENGINE_NAMES:
            scheduler = build_scheduler(config, seed=7)
            timestamped = [
                (a.time, Message(size=a.size, arrival_time=a.time))
                for a in arrivals
            ]
            stats = drive(scheduler, timestamped, engine=engine)
            samples[engine] = list(stats.latency._samples)
        assert samples["scalar"] == samples["vec"], scheduler_name

"""Driving the synthetic benchmark with flow-lookup charging attached.

Composes the pieces the rest of the package already provides: a
:class:`~repro.traffic.zipf.ZipfFlowSource` supplies arrivals tagged
with skewed destination flows, :func:`repro.sim.runner.build_scheduler`
builds the Section-4 stack, a :class:`~repro.flows.lookup.FlowLookup`
is attached to the machine binding, and the standard drive loop runs.
The scheduler hooks (:func:`repro.core.scheduler.charge_flow_lookups`)
then charge one route/PCB lookup per distinct flow per service batch —
so under load, LDLP and Grouped batches amortize lookup misses the same
way they amortize instruction misses, while Conventional and ILP pay
per message.

Lookup charging touches only the flow cache and the cycle counter, so
``engine="vec"`` runs take vectorized steps too (:mod:`repro.sim.vec`
calls the same hooks) and both engine passes produce byte-identical
results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, TypeVar

import numpy as np

from ..core.dispatch import FLOW_KEY
from ..core.layer import Message
from ..errors import ConfigurationError
from ..sim.runner import (
    SimulationConfig,
    assemble_run_result,
    build_scheduler,
    drive,
)
from ..sim.stats import ResultRecord, RunResult, merge_results, sum_records
from ..traffic.base import Arrival, TrafficSource
from ..traffic.onoff import ParetoOnOffSource
from ..traffic.poisson import PoissonSource
from ..traffic.zipf import ZipfFlowSource
from .lookup import FlowCacheSpec


@dataclass(frozen=True)
class FlowRunResult(ResultRecord):
    """One flow-charged run: the standard result plus lookup accounting.

    ``lookups`` counts lookups actually performed (after per-batch
    dedup); ``demand`` counts the lookups messages would have performed
    without batching, so ``lookups / demand`` is the batch-amortization
    factor and ``misses / completed`` is the headline
    lookup-misses-per-message the experiment pins.  ``untagged`` counts
    table walks by messages with no FLOW_KEY meta: always zero here,
    since :func:`run_flow_simulation` tags every message, but gossip's
    control datagrams produce them
    (:class:`repro.gossip.runner.GossipRunResult` extends this type).
    """

    run: RunResult
    lookups: int
    demand: int
    hits: int
    misses: int
    evictions: int
    untagged: int

    @property
    def hit_ratio(self) -> float:
        """Fraction of *tagged* lookups served from the cache."""
        performed = self.lookups - self.untagged
        if performed == 0:
            return float("nan")
        return self.hits / performed

    @property
    def lookup_misses_per_message(self) -> float:
        """Full table walks per completed message."""
        return self.misses / max(self.run.completed, 1)


F = TypeVar("F", bound=FlowRunResult)


def merge_flow_results(results: list[F]) -> F:
    """Merge per-seed runs of one result type (flows or a subclass):
    averaged run stats, every other field summed."""
    return sum_records(results, run=merge_results([r.run for r in results]))


def run_flow_simulation(
    source: TrafficSource,
    config: SimulationConfig | None = None,
    cache: FlowCacheSpec | None = None,
    seed: int | np.random.Generator | None = 0,
    arrivals: list[Arrival] | None = None,
) -> FlowRunResult:
    """Run one configuration with flow-lookup charging attached.

    Arrivals carrying a ``flow`` attribute
    (:class:`~repro.traffic.zipf.FlowArrival`) are tagged into the
    message meta under :data:`~repro.core.dispatch.FLOW_KEY`; plain
    arrivals all map to flow 0 — one destination, the degenerate case
    where every lookup after the first hits.  ``arrivals`` overrides
    the source's stream (to replay the identical sequence against
    several schedulers or cache organizations).
    """
    config = config or SimulationConfig()
    cache = cache or FlowCacheSpec()
    scheduler = build_scheduler(config, seed)
    binding = scheduler.binding
    assert binding is not None
    binding.flow_lookup = cache.build()

    stream = arrivals if arrivals is not None else source.arrival_list(config.duration)
    timestamped = []
    for a in stream:
        message = Message(size=a.size, arrival_time=a.time)
        message.meta[FLOW_KEY] = int(getattr(a, "flow", 0))
        timestamped.append((a.time, message))
    outcome = drive(
        scheduler,
        timestamped,
        flush_period_cycles=config.flush_period_cycles,
        engine=config.engine,
    )
    run = assemble_run_result([scheduler], outcome, source, stream, config)
    lookup = binding.flow_lookup
    return FlowRunResult(
        run=run,
        lookups=lookup.lookups,
        demand=lookup.demand,
        hits=lookup.stats.hits,
        misses=lookup.stats.misses,
        evictions=lookup.stats.evictions,
        untagged=lookup.untagged,
    )


def make_flow_base(
    base: str, rate: float, message_size: int, seed: int
) -> TrafficSource:
    """Build the base arrival process for one flow-tagged run.

    ``"poisson"`` is the memoryless classic; ``"bellcore"`` is the
    self-similar Pareto ON/OFF aggregate
    (:class:`~repro.traffic.onoff.ParetoOnOffSource`) configured so its
    long-run mean rate equals ``rate`` — the bursty base whose stateful
    RNG is exactly what the ZipfFlowSource snapshot fix protects.
    """
    if base == "poisson":
        return PoissonSource(rate, size=message_size, rng=seed)
    if base == "bellcore":
        num_sources = 16
        source = ParetoOnOffSource(
            num_sources=num_sources,
            packet_rate_on=rate / (num_sources * 0.2),
            size=message_size,
            rng=seed,
        )
        return source
    raise ConfigurationError(
        f"unknown flow base {base!r}; expected 'poisson' or 'bellcore'"
    )


def flows_point(
    scheduler: str,
    organization: str,
    entries: int,
    skew: float,
    rate: float,
    seeds: list[int],
    duration: float,
    num_flows: int = 64,
    policy: str = "tail",
    message_size: int = 552,
    hit_cycles: float = 4.0,
    miss_cycles: float = 120.0,
    engine: str = "vec",
    base: str = "poisson",
) -> dict[str, Any]:
    """One (scheduler, organization, entries, skew) sweep point.

    Module-level and fully determined by its JSON parameters (the
    harness contract: parallel workers resolve it by dotted name, the
    result cache keys it by content hash).  Per seed, a base stream at
    mean ``rate`` — Poisson by default, the Bellcore-style self-similar
    aggregate with ``base="bellcore"`` — is flow-tagged by a
    Zipf(``skew``) draw over ``num_flows`` destinations and driven
    through the flow-charged stack; results merge across seeds.  The
    conservation audit counts seeds where
    ``offered != completed + dropped`` — lookup charging must neither
    create nor lose messages.  ``engine`` selects the drive-loop step
    strategy (results are engine-invariant; only speed differs).
    """
    cache = FlowCacheSpec(
        entries=entries,
        organization=organization,
        hit_cycles=hit_cycles,
        miss_cycles=miss_cycles,
    )
    config = SimulationConfig(
        scheduler=scheduler,
        duration=duration,
        drop_policy=policy,
        engine=engine,
    )
    results = []
    violations = 0
    for seed in seeds:
        source = ZipfFlowSource(
            make_flow_base(base, rate, message_size, seed),
            num_flows=num_flows,
            skew=skew,
            seed=seed,
        )
        result = run_flow_simulation(source, config, cache, seed=seed)
        run = result.run
        if run.offered != run.completed + run.dropped:
            violations += 1
        results.append(result)
    merged = merge_flow_results(results)
    return {
        "result": merged.to_dict(),
        "organization": organization,
        "entries": entries,
        "conservation_violations": violations,
    }

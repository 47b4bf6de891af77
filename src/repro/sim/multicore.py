"""Multi-core synthetic benchmark: dispatch stage -> N cores -> stats.

The single-core benchmark (:func:`repro.sim.runner.run_simulation`)
generalized to the modern topology: a receive-side dispatch stage
(:mod:`repro.core.dispatch`) steers each arrival onto one of N modeled
cores, each a copy of the paper's CPU running its own scheduler
instance over private I/D caches.
Admission-time dispatch composes with admission-time drops: the
dispatcher picks the core *first*, then that core's
:class:`~repro.core.overload.DropPolicy` decides admission, so every
drop-policy sweep from :mod:`repro.faults` carries over unchanged.

There is one drive loop (:func:`repro.sim.runner.drive`'s event merge
over N per-core CPU clocks); a single core is just N = 1.  The next
event is always the earliest of (next arrival, next busy core's service
step), with ties admitting first, which is why a ``num_cores=1`` run
reproduces :func:`repro.sim.runner.run_simulation` bit-identically for
every dispatch policy (``tests/test_multicore.py`` pins this).
Cores couple only through dispatch at admission, so each core's service
steps can be replayed on their own: with ``engine="vec"`` every core
inside the vectorized envelope steps through its own
:func:`repro.sim.vec.vec_step`, and the rest step through scalar
``service_step()``, with bit-identical results either way.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any

from ..cache.hierarchy import MachineSpec
from ..core.dispatch import (
    APP_CLASS_KEY,
    DISPATCH_POLICIES,
    FLOW_KEY,
    DispatchPolicy,
    make_dispatch_policy,
)
from ..core.layer import Message
from ..core.overload import DROP_POLICIES
from ..core.scheduler import Scheduler
from ..errors import ConfigurationError
from ..obs.runtime import active_recorder
from ..traffic.base import Arrival, TrafficSource
from ..traffic.poisson import PoissonSource
from .runner import (
    SCHEDULER_NAMES,
    DriveStats,
    SimulationConfig,
    _drive_cores,
    assemble_run_result,
    build_scheduler,
    check_engine,
    scalar_step,
)
from .stats import ResultRecord, RunResult, merge_results, sum_records
from .vec import vec_step


@dataclass(frozen=True)
class MultiCoreConfig:
    """Configuration of one multi-core benchmark run.

    The per-core knobs (``scheduler``, layer shape, ``input_limit``,
    ``drop_policy``, ``flush_period_cycles``, buffer geometry) mean
    exactly what they mean in :class:`~repro.sim.runner.SimulationConfig`
    — each core gets its own scheduler built from them.  On top of that:

    ``num_cores``
        The core count; 1 reproduces the single-core model exactly.
        Every core is an identical copy of ``spec`` (clock, private I/D
        caches, miss penalty) with its own cycle clock and statistics.
    ``dispatch``
        Dispatch-policy registry name (:data:`repro.core.dispatch.DISPATCH_POLICIES`).
    ``num_flows`` / ``app_classes``
        The modeled traffic structure the dispatcher keys on: arrivals
        are tagged with a deterministic flow id in ``0..num_flows-1``
        and a decoded application class ``flow % app_classes``.
    ``engine``
        The per-core step strategy (:data:`~repro.sim.runner.ENGINE_NAMES`),
        as in :class:`~repro.sim.runner.SimulationConfig`; results do
        not depend on it.
    """

    scheduler: str = "ldlp"
    dispatch: str = "rss"
    num_cores: int = 4
    num_flows: int = 64
    app_classes: int = 8
    num_layers: int = 5
    layer_code_bytes: int = 6144
    layer_data_bytes: int = 256
    layer_base_cycles: float = 1376.0
    layer_per_byte_cycles: float = 0.5
    spec: MachineSpec = field(default_factory=MachineSpec)
    duration: float = 0.2
    input_limit: int = 500
    batch_limit: int | None = None
    pool_buffers: int = 32
    buffer_size: int = 2048
    random_placement: bool = True
    drop_policy: str = "tail"
    flush_period_cycles: float | None = None
    engine: str = "vec"

    def __post_init__(self) -> None:
        check_engine(self.engine)
        if self.scheduler not in SCHEDULER_NAMES:
            raise ConfigurationError(
                f"unknown scheduler {self.scheduler!r}; expected one of "
                f"{SCHEDULER_NAMES}"
            )
        if self.dispatch not in DISPATCH_POLICIES:
            raise ConfigurationError(
                f"unknown dispatch policy {self.dispatch!r}; expected one "
                f"of {tuple(sorted(DISPATCH_POLICIES))}"
            )
        if self.drop_policy not in DROP_POLICIES:
            raise ConfigurationError(
                f"unknown drop policy {self.drop_policy!r}; expected one of "
                f"{tuple(sorted(DROP_POLICIES))}"
            )
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.input_limit < 1:
            raise ConfigurationError("input_limit must be >= 1")
        if self.num_flows < 1:
            raise ConfigurationError("num_flows must be >= 1")
        if self.app_classes < 1:
            raise ConfigurationError("app_classes must be >= 1")
        if self.flush_period_cycles is not None and self.flush_period_cycles <= 0:
            raise ConfigurationError("cache-flush period must be positive")
        if self.num_cores < 1:
            raise ConfigurationError(
                f"core count must be >= 1, got {self.num_cores}"
            )

    def core_config(self) -> SimulationConfig:
        """The single-core :class:`SimulationConfig` each core is built from."""
        return SimulationConfig(
            scheduler=self.scheduler,
            num_layers=self.num_layers,
            layer_code_bytes=self.layer_code_bytes,
            layer_data_bytes=self.layer_data_bytes,
            layer_base_cycles=self.layer_base_cycles,
            layer_per_byte_cycles=self.layer_per_byte_cycles,
            spec=self.spec,
            duration=self.duration,
            input_limit=self.input_limit,
            batch_limit=self.batch_limit,
            pool_buffers=self.pool_buffers,
            buffer_size=self.buffer_size,
            random_placement=self.random_placement,
            drop_policy=self.drop_policy,
            flush_period_cycles=self.flush_period_cycles,
            engine=self.engine,
        )


def core_seed(seed: int, core: int) -> int:
    """The placement seed of one core.

    Core 0 uses ``seed`` verbatim — the single-core equivalence anchor —
    and higher cores derive distinct deterministic seeds (CRC-mixed, no
    process entropy), so an N-core run samples N independent random code
    placements, the paper's averaging methodology applied per core.
    """
    if core == 0:
        return int(seed)
    return zlib.crc32(f"core:{seed}:{core}".encode("utf-8"))


def build_cores(config: MultiCoreConfig, seed: int) -> list[Scheduler]:
    """Build one machine-bound scheduler per core.

    Each core reuses the exact single-core constructor
    (:func:`repro.sim.runner.build_scheduler`) with its own placement
    seed, so every core gets its own CPU and private caches.
    """
    base = config.core_config()
    return [
        build_scheduler(base, core_seed(seed, index))
        for index in range(config.num_cores)
    ]


def tag_flows(
    messages: list[tuple[float, Message]],
    seed: int,
    num_flows: int,
    app_classes: int,
) -> None:
    """Tag each message with its flow id and decoded application class.

    The flow id is a CRC mix of (seed, arrival index) modulo
    ``num_flows`` — deterministic, PYTHONHASHSEED-independent — and the
    application class is ``flow % app_classes``, modeling many flows
    multiplexed over fewer application-level services.  Dispatch
    policies key on these meta fields (:data:`~repro.core.dispatch.FLOW_KEY`,
    :data:`~repro.core.dispatch.APP_CLASS_KEY`).
    """
    for index, (_, message) in enumerate(messages):
        flow = zlib.crc32(f"flow:{seed}:{index}".encode("utf-8")) % num_flows
        message.meta[FLOW_KEY] = int(flow)
        message.meta[APP_CLASS_KEY] = int(flow % app_classes)


def drive_multicore(
    cores: list[Scheduler],
    dispatch: DispatchPolicy,
    arrivals: list[tuple[float, Message]],
    flush_period_cycles: float | None = None,
    engine: str = "scalar",
) -> DriveStats:
    """Drive N bound schedulers from one dispatched arrival stream.

    Runs the shared drive loop (:func:`repro.sim.runner.drive`'s event
    merge): the next arrival is dispatched, then admitted by the target
    core's drop policy, as long as it is not later than the earliest
    busy core's clock; otherwise that core steps (ties broken by core
    index).  ``engine`` picks the step strategies as in
    :func:`repro.sim.runner.drive`: ``"vec"`` gives each core a
    :func:`repro.sim.vec.vec_step` and falls back to
    :func:`~repro.sim.runner.scalar_step` core by core where the
    vectorized engine declines.

    With a :mod:`repro.obs` recorder installed, each core's service
    steps are spans on a ``core{i}/scheduler`` track with machine
    counters attached (per-core miss attribution), every dispatch an
    instant on the ``dispatch`` track, and drops/flushes counted per
    core as well as globally.
    """
    check_engine(engine)
    steps = []
    for scheduler in cores:
        step = vec_step(scheduler) if engine == "vec" else None
        steps.append(step if step is not None else scalar_step(scheduler))
    return _drive_cores(cores, steps, arrivals, flush_period_cycles, dispatch)


@dataclass(frozen=True)
class CoreStats(ResultRecord):
    """Per-core attribution of one multi-core run."""

    core: int
    dispatched: int
    completed: int
    drops: int
    icache_misses: int
    dcache_misses: int
    cycles: float
    stall_cycles: float
    service_cycles: float


@dataclass(frozen=True)
class MultiCoreRunResult(ResultRecord):
    """One multi-core run: the aggregate plus per-core attribution."""

    dispatch: str
    num_cores: int
    aggregate: RunResult
    cores: tuple[CoreStats, ...]

    @property
    def dispatch_imbalance(self) -> float:
        """Max over mean of per-core dispatched counts (1.0 = perfect).

        The load-balance figure of merit for a dispatch policy: RSS
        should sit near 1, sticky policies may trade imbalance for
        locality.
        """
        counts = [core.dispatched for core in self.cores]
        mean = sum(counts) / len(counts)
        if mean == 0:
            return 1.0
        return max(counts) / mean


def run_multicore(
    source: TrafficSource,
    config: MultiCoreConfig | None = None,
    seed: int = 0,
    arrivals: list[Arrival] | None = None,
) -> MultiCoreRunResult:
    """Run one multi-core configuration against one traffic source.

    ``arrivals`` overrides the source's stream (used to replay the
    identical arrival sequence against several dispatch policies or
    core counts).  The aggregate :class:`~repro.sim.stats.RunResult`
    uses the same accounting as the single-core benchmark — misses and
    cycles summed over cores, divided by total completions — so a
    one-core run is bit-identical to
    :func:`repro.sim.runner.run_simulation`.
    """
    config = config or MultiCoreConfig()
    cores = build_cores(config, seed)
    dispatch = make_dispatch_policy(config.dispatch)
    stream = arrivals if arrivals is not None else source.arrival_list(config.duration)
    timestamped = [
        (a.time, Message(size=a.size, arrival_time=a.time)) for a in stream
    ]
    tag_flows(timestamped, seed, config.num_flows, config.app_classes)
    outcome = drive_multicore(
        cores,
        dispatch,
        timestamped,
        flush_period_cycles=config.flush_period_cycles,
        engine=config.engine,
    )

    aggregate = assemble_run_result(cores, outcome, source, stream, config)
    core_stats = tuple(
        CoreStats(
            core=index,
            dispatched=outcome.per_core_dispatched[index],
            completed=outcome.per_core_completed[index],
            drops=scheduler.drops,
            icache_misses=scheduler.binding.cpu.icache_misses,  # type: ignore[union-attr]
            dcache_misses=scheduler.binding.cpu.dcache_misses,  # type: ignore[union-attr]
            cycles=float(scheduler.binding.cpu.cycles),  # type: ignore[union-attr]
            stall_cycles=float(scheduler.binding.cpu.stall_cycles),  # type: ignore[union-attr]
            service_cycles=outcome.per_core_service_cycles[index],
        )
        for index, scheduler in enumerate(cores)
    )
    result = MultiCoreRunResult(
        dispatch=config.dispatch,
        num_cores=config.num_cores,
        aggregate=aggregate,
        cores=core_stats,
    )
    recorder = active_recorder()
    if recorder is not None:
        # Per-(policy, core count) miss totals, the counters the
        # dispatch-locality claim can be read from (ldlp vs rss at >= 4
        # cores), plus per-core attribution totals.
        prefix = f"multicore.{config.dispatch}.cores{config.num_cores}"
        imisses = sum(stats.icache_misses for stats in core_stats)
        dmisses = sum(stats.dcache_misses for stats in core_stats)
        recorder.count(f"{prefix}.imisses", float(imisses))
        recorder.count(f"{prefix}.dmisses", float(dmisses))
        recorder.count(f"{prefix}.completed", float(outcome.completed))
        for stats in core_stats:
            recorder.count(
                f"multicore.core{stats.core}.imisses",
                float(stats.icache_misses),
            )
    return result


def merge_multicore_results(
    results: list[MultiCoreRunResult],
) -> MultiCoreRunResult:
    """Merge same-configuration multi-core runs across seeds.

    The aggregate is seed-merged like the single-core benchmark
    (:func:`repro.sim.stats.merge_results`); per-core stats are summed
    element-wise (core i of every seed is the same modeled core).
    """
    if not results:
        raise ConfigurationError("cannot merge zero multi-core results")
    num_cores = results[0].num_cores
    merged_cores = tuple(
        sum_records([r.cores[index] for r in results], core=index)
        for index in range(num_cores)
    )
    return MultiCoreRunResult(
        dispatch=results[0].dispatch,
        num_cores=num_cores,
        aggregate=merge_results([r.aggregate for r in results]),
        cores=merged_cores,
    )


def multicore_point(
    scheduler: str,
    dispatch: str,
    cores: int,
    rate: float,
    seeds: list[int],
    duration: float,
    policy: str = "tail",
    num_flows: int = 64,
    app_classes: int = 8,
    message_size: int = 552,
    engine: str = "vec",
) -> dict[str, Any]:
    """One (scheduler, dispatch, core count) sweep point.

    Module-level and fully determined by its JSON parameters (the
    harness contract: parallel workers resolve it by dotted name, the
    result cache keys it by content hash).  Per seed, draw a Poisson
    arrival stream at the *aggregate* rate, dispatch it over ``cores``
    cores, and merge.  Returns the merged
    :class:`MultiCoreRunResult` plus a conservation audit — dispatching
    must neither create nor lose messages
    (``offered == completed + dropped`` once the queues drain).
    ``engine`` selects the per-core step strategy (results are
    engine-invariant; only speed differs).
    """
    config = MultiCoreConfig(
        scheduler=scheduler,
        dispatch=dispatch,
        num_cores=cores,
        num_flows=num_flows,
        app_classes=app_classes,
        duration=duration,
        drop_policy=policy,
        engine=engine,
    )
    results = []
    violations = 0
    for seed in seeds:
        source = PoissonSource(rate, size=message_size, rng=seed)
        result = run_multicore(source, config, seed=seed)
        aggregate = result.aggregate
        if aggregate.offered != aggregate.completed + aggregate.dropped:
            violations += 1
        results.append(result)
    merged = merge_multicore_results(results)
    return {
        "result": merged.to_dict(),
        "dispatch": dispatch,
        "cores": cores,
        "conservation_violations": violations,
        "dispatch_imbalance": merged.dispatch_imbalance,
    }

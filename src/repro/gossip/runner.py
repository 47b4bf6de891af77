"""Driving gossip fleets through the modeled stack.

Glue between :mod:`repro.gossip.fleet` and the existing machinery: a
:class:`~repro.gossip.fleet.GossipFleetSource` supplies byte-accurate
datagram arrivals, each data datagram is tagged with its destination
peer (:data:`~repro.core.dispatch.FLOW_KEY`) and message kind
(:data:`~repro.core.dispatch.APP_CLASS_KEY`), a flow-lookup cache is
attached to the binding, and the standard drive loop runs.  Control
datagrams (synchronize / acknowledgment walker traffic) deliberately
carry *no* flow tag — they have no cacheable destination — so every
service batch mixes tagged and untagged messages, exercising the
untagged-walk accounting in
:meth:`repro.flows.lookup.FlowLookup.charge_batch`.

:func:`gossip_point` is the harness sweep point: framing mode ×
collection batch size × scheduler × drop policy, with wire-level
header/byte totals carried alongside the standard run result so the
``gossip`` experiment can pin header-bytes/msg savings from sessions
and lookup-misses/msg under peer skew.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.dispatch import APP_CLASS_KEY, FLOW_KEY
from ..core.layer import Message
from ..flows.lookup import FlowCacheSpec
from ..flows.runner import FlowRunResult, merge_flow_results
from ..sim.runner import (
    SimulationConfig,
    assemble_run_result,
    build_scheduler,
    drive,
)
from .fleet import GossipFleetSource, GossipFleetSpec
from .wire import CONTROL_KINDS


@dataclass(frozen=True)
class GossipRunResult(FlowRunResult):
    """One gossip run: a flow-charged result plus wire accounting.

    The run and lookup fields are inherited from
    :class:`repro.flows.runner.FlowRunResult`; here ``untagged`` counts
    the control-datagram table walks that have no cacheable destination.
    ``datagrams`` / ``messages`` / ``header_bytes`` / ``wire_bytes``
    total over the *offered* stream (a pure function of the fleet spec,
    independent of drops), so the header-bytes/msg headline compares
    framing modes on identical traffic.
    """

    datagrams: int
    messages: int
    header_bytes: int
    wire_bytes: int

    @property
    def header_bytes_per_message(self) -> float:
        """Non-payload wire bytes per logical message offered."""
        return self.header_bytes / max(self.messages, 1)

    @property
    def wire_bytes_per_message(self) -> float:
        """Total wire bytes per logical message offered."""
        return self.wire_bytes / max(self.messages, 1)


def run_gossip_simulation(
    source: GossipFleetSource,
    config: SimulationConfig | None = None,
    cache: FlowCacheSpec | None = None,
    seed: int | np.random.Generator | None = 0,
) -> GossipRunResult:
    """Run one gossip fleet through the flow-charged stack.

    Data datagrams are tagged with their destination peer under
    :data:`~repro.core.dispatch.FLOW_KEY` and their kind under
    :data:`~repro.core.dispatch.APP_CLASS_KEY`; control datagrams get
    the app-class tag only, leaving the flow untagged on purpose —
    walker traffic resolves no destination, so it must pay the full
    table walk and must not alias tagged flow 0.
    """
    config = config or SimulationConfig()
    cache = cache or FlowCacheSpec()
    scheduler = build_scheduler(config, seed)
    binding = scheduler.binding
    assert binding is not None
    binding.flow_lookup = cache.build()

    stream = source.arrival_list(config.duration)
    datagrams = len(stream)
    messages = 0
    header_bytes = 0
    wire_bytes = 0
    timestamped = []
    for a in stream:
        message = Message(size=a.size, arrival_time=a.time)
        message.meta[APP_CLASS_KEY] = a.kind
        if a.kind not in CONTROL_KINDS:
            message.meta[FLOW_KEY] = int(a.flow)
        timestamped.append((a.time, message))
        messages += a.messages
        header_bytes += a.header_bytes
        wire_bytes += a.size
    outcome = drive(
        scheduler,
        timestamped,
        flush_period_cycles=config.flush_period_cycles,
        engine=config.engine,
    )
    run = assemble_run_result([scheduler], outcome, source, stream, config)
    lookup = binding.flow_lookup
    return GossipRunResult(
        run=run,
        lookups=lookup.lookups,
        demand=lookup.demand,
        hits=lookup.stats.hits,
        misses=lookup.stats.misses,
        evictions=lookup.stats.evictions,
        untagged=lookup.untagged,
        datagrams=datagrams,
        messages=messages,
        header_bytes=header_bytes,
        wire_bytes=wire_bytes,
    )


def gossip_point(
    framing: str,
    collection_size: int,
    scheduler: str,
    policy: str,
    rate: float,
    seeds: list[int],
    duration: float,
    num_peers: int = 10_000,
    num_communities: int = 4,
    peer_skew: float = 1.1,
    data_fraction: float = 0.75,
    data_payload_bytes: int = 67,
    entries: int = 16,
    organization: str = "direct",
    hit_cycles: float = 4.0,
    miss_cycles: float = 120.0,
    engine: str = "vec",
) -> dict[str, Any]:
    """One (framing, collection size, scheduler, drop policy) point.

    Module-level and fully determined by its JSON parameters (the
    harness contract).  Per seed, a fresh fleet spec drives one run;
    results merge across seeds.  The conservation audit counts seeds
    where ``offered != completed + dropped`` — the gossip tagging path
    must neither create nor lose datagrams.  ``engine`` selects the
    drive-loop step strategy (results are engine-invariant; only speed
    differs).
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
        spec = GossipFleetSpec(
            num_peers=num_peers,
            num_communities=num_communities,
            peer_skew=peer_skew,
            framing=framing,
            collection_size=collection_size,
            data_fraction=data_fraction,
            data_payload_bytes=data_payload_bytes,
            rate=rate,
            seed=seed,
        )
        result = run_gossip_simulation(
            GossipFleetSource(spec), config, cache, seed=seed
        )
        run = result.run
        if run.offered != run.completed + run.dropped:
            violations += 1
        results.append(result)
    merged = merge_flow_results(results)
    return {
        "result": merged.to_dict(),
        "framing": framing,
        "collection_size": collection_size,
        "header_bytes_per_message": merged.header_bytes_per_message,
        "wire_bytes_per_message": merged.wire_bytes_per_message,
        "lookup_misses_per_message": merged.lookup_misses_per_message,
        "conservation_violations": violations,
    }

"""Turn sweep records into the benchmark's named metrics.

Metric names match ``[A-Za-z0-9_.-]+``; the unit of each is fixed here
and in ``BENCHMARK.json``.  See ``README.md`` in this directory for
what each metric means and which end-to-end metric each layer moves.
"""

from __future__ import annotations

import statistics

#: Host-time metrics of the untraced run (``--trace 0``), with units.
END_TO_END = {
    "wall_s": "s",
    "point_s_p50": "s",
    "point_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Metrics of the traced run (``--trace 1``), with units.  The first
#: three are end-to-end figures that are zero on some workload, so they
#: cannot carry a regression bound; the traced run reports them from its
#: untraced sweeps.
PER_LAYER = {
    "sim_msgs_per_s": "msg/s",
    "trace_refs_per_s": "refs/s",
    "failed_frac": "ratio",
    "harness.content_key_s": "s",
    "harness.store_s": "s",
    "harness.golden_check_s": "s",
    "traffic.generate_s": "s",
    "traffic.arrivals": "count",
    "sim.drive_self_s": "s",
    "sim.service_steps": "count",
    "vec.fallback_frac": "ratio",
    "vec.plans_built": "count",
    "vec.plan_applies": "count",
    "vec.plan_reuse_ratio": "ratio",
    "vec.plan_build_s": "s",
    "vec.plan_apply_s": "s",
    "core.charge_s": "s",
    "core.charge_calls": "count",
    "core.service_step_s": "s",
    "core.batch_mean": "msg",
    "cache.access_s": "s",
    "cache.access_calls": "count",
    "machine.cpu_s": "s",
    "flows.lookup_s": "s",
    "flows.lookups": "count",
    "flows.hit_ratio": "ratio",
    "gossip.wire_s": "s",
    "gossip.fleet_s": "s",
    "dispatch.select_s": "s",
    "netbsd.build_trace_s": "s",
    "trace.refs": "count",
    "workingset.consume_s": "s",
    "workingset.report_s": "s",
    "point.other_self_s": "s",
    "obs.metrics_overhead_frac": "ratio",
    "model.imisses_per_msg": "misses/msg",
    "model.dmisses_per_msg": "misses/msg",
    "bench.traced_wall_s": "s",
    "bench.tracing_overhead_frac": "ratio",
}

#: Printed with the end-to-end metrics but left out of the result line:
#: the same times before host-speed scaling, and the host speed itself.
RAW = {
    "raw.wall_s": "s",
    "raw.point_s_p50": "s",
    "raw.point_s_p90": "s",
    "raw.setup_s": "s",
    "host.speed": "ratio",
}

#: Every metric the benchmark can print, with its unit.
UNITS = {**END_TO_END, **PER_LAYER, **RAW}

#: Span names whose self time makes up each ``*_s`` per-layer metric.
SELF_TIME = {
    "harness.content_key_s": ("harness.content_key",),
    "harness.store_s": ("harness.store",),
    "harness.golden_check_s": ("harness.golden_check",),
    "traffic.generate_s": ("traffic.generate",),
    "sim.drive_self_s": ("sim.drive", "sim.try_drive_vec", "sim.drive_multicore"),
    "vec.plan_build_s": ("vec.plan_build",),
    "vec.plan_apply_s": ("vec.plan_apply",),
    "core.charge_s": ("core.charge",),
    "core.service_step_s": ("core.service_step",),
    "cache.access_s": ("cache.access",),
    "machine.cpu_s": ("machine.cpu",),
    "flows.lookup_s": ("flows.lookup",),
    "gossip.wire_s": ("gossip.wire",),
    "gossip.fleet_s": ("gossip.fleet",),
    "dispatch.select_s": ("dispatch.select",),
    "netbsd.build_trace_s": ("netbsd.build_trace",),
    "workingset.consume_s": ("workingset.consume",),
    "workingset.report_s": ("workingset.report",),
    "point.other_self_s": ("harness.point",),
}


def ratio(top: float, bottom: float) -> float:
    """``top / bottom``, or 0 when there is nothing to divide by."""
    return top / bottom if bottom else 0.0


def percentile(samples: list[float], fraction: float) -> float:
    """Inclusive-method percentile of the samples."""
    if len(samples) < 2:
        return samples[0]
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def end_to_end_metrics(untraced: list[dict], setups: list[dict] = ()) -> dict[str, float]:
    """Medians over a run's untraced sweeps, plus the pooled point times.

    ``setups`` are the run's set-up-only records; their set-up times
    join the sweeps' in the ``setup_s`` median.
    """
    wall = statistics.median(r["wall_scaled_s"] for r in untraced)
    points = [s for r in untraced for s in r["point_scaled_s"]]
    raw_points = [s for r in untraced for s in r["point_s"]]
    counters = untraced[0]["counters"]
    attempted = sum(r["attempted"] for r in untraced)
    return {
        "wall_s": wall,
        "point_s_p50": statistics.median(points),
        "point_s_p90": percentile(points, 0.90),
        "setup_s": statistics.median(r["setup_scaled_s"] for r in [*untraced, *setups]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "failed_frac": ratio(sum(r["failed"] for r in untraced), attempted),
        "sim_msgs_per_s": counters.get("messages.arrivals", 0.0) / wall,
        "trace_refs_per_s": counters.get("trace.refs", 0.0) / wall,
        "raw.wall_s": statistics.median(r["wall_s"] for r in untraced),
        "raw.point_s_p50": statistics.median(raw_points),
        "raw.point_s_p90": percentile(raw_points, 0.90),
        "raw.setup_s": statistics.median(r["setup_s"] for r in [*untraced, *setups]),
        "host.speed": statistics.median(r["speed"] for r in untraced),
    }


def per_layer_metrics(untraced: list[dict], traced: list[dict], probe: dict) -> dict[str, float]:
    """Per-layer metrics: medians of the traced sweeps' span totals."""
    def layer(stat: str, span: str) -> float:
        return statistics.median(r["layers"].get(span, {}).get(stat, 0.0) for r in traced)

    head = traced[0]
    counters, mine = head["counters"], head["tracer_counters"]
    untraced_wall = statistics.median(r["wall_scaled_s"] for r in untraced)
    traced_wall = statistics.median(r["wall_scaled_s"] for r in traced)
    built = layer("calls", "vec.plan_build")
    applied = layer("calls", "vec.plan_apply")
    driven = mine.get("sim.messages_driven", 0.0)
    e2e = end_to_end_metrics(untraced)
    values = {
        "sim_msgs_per_s": e2e["sim_msgs_per_s"],
        "trace_refs_per_s": e2e["trace_refs_per_s"],
        "failed_frac": ratio(
            sum(r["failed"] for r in untraced + traced),
            sum(r["attempted"] for r in untraced + traced),
        ),
        "traffic.arrivals": mine.get("traffic.arrivals", 0.0),
        "sim.service_steps": counters.get("scheduler.service_steps", 0.0),
        "vec.fallback_frac": ratio(driven - mine.get("vec.messages_replayed", 0.0), driven),
        "vec.plans_built": built,
        "vec.plan_applies": applied,
        "vec.plan_reuse_ratio": ratio(applied, built),
        "core.charge_calls": layer("calls", "core.charge"),
        "core.batch_mean": ratio(
            counters.get("ldlp.batched_messages", 0.0), counters.get("ldlp.batches", 0.0)
        ),
        "cache.access_calls": layer("calls", "cache.access"),
        "flows.lookups": counters.get("flows.lookups", 0.0),
        "flows.hit_ratio": ratio(counters.get("flows.hits", 0.0), counters.get("flows.lookups", 0.0)),
        "trace.refs": counters.get("trace.refs", 0.0),
        "obs.metrics_overhead_frac": ratio(probe["recorded_s"], probe["bare_s"]) - 1.0,
        **head["model"],
        "bench.traced_wall_s": traced_wall,
        "bench.tracing_overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    for metric, spans in SELF_TIME.items():
        values[metric] = sum(layer("self_s", span) for span in spans)
    return {name: values[name] for name in PER_LAYER}


def sweep_problems(records: list[dict]) -> list[str]:
    """Everything that makes a run's outputs untrustworthy."""
    problems = [line for r in records for line in r["failures"]]
    digests = sorted({r["digest"] for r in records})
    if len(digests) > 1:
        problems.append(f"results differ between sweeps of one seed: {digests}")
    models = {tuple(sorted(r["model"].items())) for r in records}
    if len(models) > 1:
        problems.append(f"model counts differ between sweeps of one seed: {sorted(models)}")
    for r in records:
        if r.get("nesting_violations"):
            problems.append(f"{r['nesting_violations']} traced spans do not nest")
    return problems

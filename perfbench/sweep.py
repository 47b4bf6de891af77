"""One cold sweep of one workload in a fresh interpreter.

``run.py`` starts this script once per measured sweep, so every sweep
pays its own imports, spec resolution and source digests, and no
template or model cache survives from one sweep to the next.  It runs
each experiment through ``repro.harness.run_experiment`` exactly as
``ldlp-experiment run --jobs 1`` does, with a fresh, empty result
cache, checks the outputs, and prints one JSON record as its last line.

Modes:

* ``sweep`` — the cold sweep, untraced or (``--trace 1``) under the
  span tracer of :mod:`tracer`;
* ``setup`` — the same start, stopped where the first point would
  begin, to sample set-up time more often than sweeps allow;
* ``obs-probe`` — a fixed subset of the workload's points executed bare
  and under a metrics-only ``repro.obs`` recorder, alternately, to
  price the obs layer's metrics mode.

In the first two modes a :class:`hostspeed.SpeedSampler` runs from the
start of the process, so every timing comes both raw and scaled to the
reference host speed.

Run it through ``run.py``; it expects ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from hostspeed import SpeedSampler
from workloads import BLESSED_SEED, SCALE, WORKLOADS, build_specs

#: Bare/recorded execution pairs per point in the obs probe.
OBS_PROBE_ROUNDS = 2


def instrument(tracer) -> None:
    """Wrap each layer's public calls at the place its caller finds them."""
    from repro.cache.cache import DirectMappedCache, SetAssociativeCache
    from repro.cache.chunked import SegmentedAccessPlan
    from repro.cache.workingset import WorkingSetAnalyzer
    from repro.core.binding import MachineBinding
    from repro.core.dispatch import DispatchPolicy
    from repro.core.scheduler import Scheduler
    from repro.flows.lookup import FlowLookup
    from repro.gossip.fleet import GossipFleetSource
    from repro.harness.cache import ResultCache
    from repro.machine.cpu import CPU
    from repro.netbsd.receive_path import ReceivePathModel
    from repro.traffic.base import TrafficSource
    import repro.sim.multicore  # noqa: F401  (bind drive_multicore before patching)
    import repro.sim.vec  # noqa: F401

    def arg(args, kwargs, index, name):
        return kwargs[name] if name in kwargs else args[index]

    def generated(t, args, kwargs, result):
        if not t.in_span("traffic.generate"):
            t.count("traffic.arrivals", len(result))

    def driven(index):
        def hook(t, args, kwargs, result):
            t.count("sim.messages_driven", len(arg(args, kwargs, index, "arrivals")))
        return hook

    def replayed(t, args, kwargs, result):
        if result is not None:
            t.count("vec.messages_replayed", len(arg(args, kwargs, 1, "arrivals")))

    tracer.patch_function(
        "repro.harness.runner", "_execute_point", "harness.point",
        point_of=lambda args: f"{args[0].experiment}/{args[0].key}",
    )
    tracer.patch_function("repro.harness.runner", "run_experiment", "harness.run")
    tracer.patch_function("repro.harness.cache", "content_key", "harness.content_key")
    tracer.patch_method(ResultCache, "store", "harness.store")
    tracer.patch_function("repro.harness.golden", "check_quantities", "harness.golden_check")
    tracer.patch_attr(
        GossipFleetSource, "arrival_list", "gossip.fleet", TrafficSource.arrival_list
    )
    tracer.patch_method(TrafficSource, "arrival_list", "traffic.generate", generated)
    tracer.patch_function("repro.sim.runner", "drive", "sim.drive", driven(1))
    tracer.patch_function("repro.sim.vec", "try_drive_vec", "sim.try_drive_vec", replayed)
    tracer.patch_function(
        "repro.sim.multicore", "drive_multicore", "sim.drive_multicore", driven(2)
    )
    tracer.patch_method(SegmentedAccessPlan, "__init__", "vec.plan_build")
    tracer.patch_method(SegmentedAccessPlan, "apply", "vec.plan_apply")
    tracer.patch_method(MachineBinding, "charge", "core.charge")
    tracer.patch_method(Scheduler, "service_step", "core.service_step")
    tracer.patch_method(DirectMappedCache, "access_line_array_report", "cache.access")
    tracer.patch_method(SetAssociativeCache, "access_line", "cache.access")
    tracer.patch_method(CPU, "fetch_code_lines", "machine.cpu")
    tracer.patch_method(CPU, "read_data_lines", "machine.cpu")
    tracer.patch_method(FlowLookup, "charge_batch", "flows.lookup")
    for name in ("encode_collection", "decode_collection", "datagram_accounting"):
        tracer.patch_function("repro.gossip.wire", name, "gossip.wire")
    tracer.patch_method(DispatchPolicy, "select", "dispatch.select")
    tracer.patch_method(ReceivePathModel, "build_trace", "netbsd.build_trace")
    tracer.patch_method(WorkingSetAnalyzer, "consume", "workingset.consume")
    tracer.patch_method(WorkingSetAnalyzer, "report", "workingset.report")


class SetUpDone(Exception):
    """Raised at the first point of a set-up-only run."""


def observe_points(state: dict, set_up_only: bool) -> None:
    """Time each point and keep its obs counters.

    Records when the first point starts (the end of set-up), each
    point's ``perf_counter`` window, and each point's obs counters for
    the conservation check.  ``set_up_only`` stops the run when the
    first point would start.
    """
    import repro.harness.runner as runner

    inner = runner._execute_point

    def observed(point):
        if state["first_point_at"] is None:
            state["first_point_at"] = (time.monotonic(), time.perf_counter())
            if set_up_only:
                raise SetUpDone
        start = time.perf_counter()
        outcome = inner(point)
        state["windows"].append((start, time.perf_counter()))
        state["counters"][(point.experiment, outcome[0])] = outcome[3]
        return outcome

    runner._execute_point = observed


def setup_times(args, sampler: SpeedSampler, state: dict) -> tuple[float, float]:
    """Raw and scaled time from process start to the first point.

    The interpreter's own start-up, before the sampler ran, takes the
    first sample's speed.
    """
    if state["first_point_at"] is None:  # no point ever started
        state["first_point_at"] = (time.monotonic(), time.perf_counter())
    _, first_perf = state["first_point_at"]
    before = max(state["sampler_started"][0] - args.spawned_at, 0.0)
    raw, scaled = sampler.window(state["sampler_started"][1], first_perf)
    return before + raw, before * sampler.speed(0) + scaled


def sweep(args, sampler: SpeedSampler, state: dict) -> dict:
    """Run, check and summarise one cold sweep of the workload.

    In ``setup`` mode, stop where the first point would start and
    report only the set-up time.
    """
    workload = WORKLOADS[args.workload]
    work_dir = Path(args.work_dir)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    specs = build_specs(workload, args.seed, max_points=args.max_points)
    if tracer is not None:
        instrument(tracer)

    import repro.harness.golden as golden
    import repro.harness.runner as runner
    from repro.harness.cache import ResultCache

    cache_dir = work_dir / f"cache-{args.workload}-{args.tag}"
    if cache_dir.exists():
        shutil.rmtree(cache_dir)
    cache = ResultCache(cache_dir, enabled=True)
    state.update(first_point_at=None, counters={}, windows=[])
    observe_points(state, set_up_only=args.mode == "setup")
    if args.mode == "setup":
        try:
            runner.run_experiment(specs[0][0], SCALE, jobs=1, cache=cache)
        except SetUpDone:
            pass
        sampler.stop()
        setup_s, setup_scaled_s = setup_times(args, sampler, state)
        return {"mode": "setup", "workload": workload.name,
                "setup_s": setup_s, "setup_scaled_s": setup_scaled_s}

    runs, failures, spans = [], [], []
    for spec, _, _ in specs:
        start = time.perf_counter()
        try:
            runs.append(runner.run_experiment(spec, SCALE, jobs=1, cache=cache))
        except Exception:  # a point raised: the whole experiment counts as failed
            runs.append(None)
            failures.append(f"{spec.name}: raised\n{traceback.format_exc(limit=4)}")
        spans.append((start, time.perf_counter()))
    sampler.stop()
    shutil.rmtree(cache_dir, ignore_errors=True)

    cache_hits = sum(run.cache_hits for run in runs if run is not None)
    if cache_hits:
        raise SystemExit(f"refusing to report: {cache_hits} point(s) served from cache")

    from checks import check_sweep, model_counts, results_digest

    checked = check_sweep(
        specs, runs, state["counters"], args.goldens, golden.check_quantities,
        blessed=args.seed == BLESSED_SEED, goldens=args.max_points is None,
    )
    walls = [sampler.window(*span) for span in spans]
    points = [sampler.window(*window) for window in state["windows"]]
    setup_s, setup_scaled_s = setup_times(args, sampler, state)
    record = {
        "mode": "sweep",
        "workload": workload.name,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "setup_scaled_s": setup_scaled_s,
        "wall_s": sum(raw for raw, _ in walls),
        "wall_scaled_s": sum(scaled for _, scaled in walls),
        "point_s": [raw for raw, _ in points],
        "point_scaled_s": [scaled for _, scaled in points],
        "speed": sampler.median_speed(),
        "speed_samples": len(sampler.starts),
        "attempted": checked.attempted,
        "failed": checked.failed,
        "failures": (failures + checked.failures)[:20],
        "cache_hits": cache_hits,
        "digest": results_digest(checked.results),
        "counters": checked.counters,
        "model": model_counts(checked.results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        import numpy as np

        from tracer import layer_totals, nesting_violations

        tracer.uninstall()
        if len(points) == len(tracer.points):
            point_scale = np.array([scaled / raw for raw, scaled in points])
        else:  # a point raised, so windows and traced points do not pair up
            point_scale = None
        record["layers"] = layer_totals(tracer, point_scale, sampler.median_speed())
        record["tracer_counters"] = dict(tracer.counters)
        record["spans"] = len(tracer.start)
        record["nesting_violations"] = nesting_violations(tracer.arrays())
        spans_path = work_dir / f"spans-{workload.name}.npz"
        tracer.save(spans_path)
        record["spans_file"] = str(spans_path)
    return record


def obs_probe(args) -> dict:
    """Time a fixed point subset bare and under a metrics-only recorder."""
    from repro.obs.runtime import Recorder, recording

    workload = WORKLOADS[args.workload]
    chosen = []
    for spec, _, _ in build_specs(workload, args.seed, max_points=args.max_points):
        points = spec.points_for(SCALE)
        chosen.extend(points[i] for i in sorted({0, len(points) // 2}))

    def timed(point, recorded):
        start = time.perf_counter()
        if recorded:
            with recording(Recorder(keep_spans=False)):
                point.execute()
        else:
            point.execute()
        return time.perf_counter() - start

    bare_s = recorded_s = 0.0
    for point in chosen:
        timed(point, False)  # first call pays imports and lazy set-up
        samples = {False: [], True: []}
        for round_ in range(OBS_PROBE_ROUNDS):
            for recorded in ((False, True) if round_ % 2 == 0 else (True, False)):
                samples[recorded].append(timed(point, recorded))
        bare_s += statistics.median(samples[False])
        recorded_s += statistics.median(samples[True])
    return {
        "mode": "obs-probe",
        "workload": workload.name,
        "points": len(chosen),
        "bare_s": bare_s,
        "recorded_s": recorded_s,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("sweep", "setup", "obs-probe"), default="sweep")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--goldens", default="goldens")
    parser.add_argument("--tag", default="0", help="distinguishes scratch files")
    parser.add_argument("--max-points", type=int, default=None,
                        help="keep the first N points of each experiment (smoke runs)")
    return parser


def main(argv: list[str] | None = None) -> int:
    sampler = SpeedSampler()
    state = {"sampler_started": (time.monotonic(), time.perf_counter())}
    sampler.start()
    args = build_parser().parse_args(argv)
    if args.spawned_at is None:
        args.spawned_at = state["sampler_started"][0]
    if args.mode == "obs-probe":
        sampler.stop()
        record = obs_probe(args)
    else:
        record = sweep(args, sampler, state)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

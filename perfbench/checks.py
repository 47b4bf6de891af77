"""Output checks on one sweep, and the exact model counts it yields.

Every check here can fail: the benchmark's tests tamper with a result
in memory and expect the failure to show in ``failed_frac``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Any

from repro.harness.cache import canonical_json

from workloads import SCALE


def results_digest(results: dict[str, dict[str, Any]]) -> str:
    """SHA-256 of the canonical JSON of every point result of a sweep."""
    return hashlib.sha256(canonical_json(results).encode("utf-8")).hexdigest()


def run_results(value: Any):
    """Yield every ``RunResult``-shaped dict nested in a point result."""
    if isinstance(value, dict):
        if {"offered", "completed", "dropped", "misses"} <= value.keys():
            yield value
            return
        for item in value.values():
            yield from run_results(item)
    elif isinstance(value, list):
        for item in value:
            yield from run_results(item)


def conservation_failures(result: Any, counters: dict[str, float]) -> list[str]:
    """Why one point breaks message conservation (empty when it holds).

    Two independent ledgers must balance: the obs counters
    (``messages.arrivals == messages.completions + messages.drops``)
    and every run result (``offered == completed + dropped``).
    """
    reasons = []
    arrivals = counters.get("messages.arrivals", 0.0)
    done = counters.get("messages.completions", 0.0) + counters.get("messages.drops", 0.0)
    if arrivals != done:
        reasons.append(f"obs counters: {arrivals:g} arrivals != {done:g} completions+drops")
    for run in run_results(result):
        if run["offered"] != run["completed"] + run["dropped"]:
            reasons.append(
                f"result: offered {run['offered']} != completed {run['completed']}"
                f" + dropped {run['dropped']}"
            )
    return reasons


def golden_failures(
    spec, points, results, goldens_dir, scale, check, values: bool
) -> list[str]:
    """Golden breaches of one experiment's declared point set.

    ``values=True`` (the blessed seed) compares every quantity with its
    golden value and tolerance.  At any other seed the values may
    legitimately move, so only the shape is checked: the experiment
    must still produce exactly the golden's quantities, all finite.
    ``check`` is ``repro.harness.golden.check_quantities`` (passed in
    so the traced run can time the call where this module finds it).
    """
    from repro.harness.golden import load_golden

    golden = load_golden(spec.name, scale, root=goldens_dir)
    got = spec.quantities(points, results)
    breaches = check(spec.name, golden, got)
    if not values:
        breaches = [b for b in breaches if math.isnan(b.want) or not math.isfinite(b.got)]
    return [breach.describe() for breach in breaches]


@dataclass
class SweepCheck:
    """Outcome of checking one sweep's outputs."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: experiment -> point key -> result, for the digest and model counts.
    results: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: obs counter totals over every point.
    counters: dict[str, float] = field(default_factory=dict)


def check_sweep(specs, runs, point_counters, goldens_dir, check, blessed, goldens=True):
    """Check every point of a sweep; a failing point counts once.

    ``specs`` is :func:`workloads.build_specs` output, ``runs`` the
    matching ``ExperimentRun`` (``None`` for an experiment that raised:
    all its points fail), and ``point_counters`` maps ``(experiment,
    point key)`` to that point's obs counters.  A conservation breach
    fails its point; a golden breach fails every point of the replica
    it was computed from.
    """
    out = SweepCheck()
    totals: dict[str, float] = {}
    for (spec, original, replicas), run in zip(specs, runs):
        count = sum(len(keys) for keys in replicas)
        out.attempted += count
        if run is None:
            out.failed += count
            continue
        out.results[spec.name] = run.results
        bad = set()
        for key, result in run.results.items():
            counters = point_counters[(spec.name, key)]
            for name, value in counters.items():
                totals[name] = totals.get(name, 0.0) + value
            reasons = conservation_failures(result, counters)
            if reasons:
                bad.add(key)
                out.failures.append(f"{spec.name}/{key}: {'; '.join(reasons)}")
        by_key = {point.key: point for point in run.points}
        for replica, keys in enumerate(replicas if goldens else ()):
            breaches = golden_failures(
                original,
                [replace(by_key[key], key=declared) for key, declared in keys.items()],
                {declared: run.results[key] for key, declared in keys.items()},
                goldens_dir, SCALE, check,
                values=blessed and replica == 0,
            )
            if breaches:
                bad.update(keys)
                out.failures.extend(f"golden {line}" for line in breaches)
        out.failed += len(bad)
    out.counters = {name: totals[name] for name in sorted(totals)}
    return out


def model_counts(results: dict[str, dict[str, Any]]) -> dict[str, float]:
    """Simulated I/D misses per completed message over every run result.

    Exact functions of the inputs: they must repeat bit for bit, and no
    host-speed change may move them.  Zero when the sweep drives no
    messages (the receive-path analysis).
    """
    messages = imisses = dmisses = 0.0
    for result in (r for experiment in results.values() for r in experiment.values()):
        for run in run_results(result):
            completed = run["completed"]
            messages += completed
            imisses += run["misses"]["instruction"] * completed
            dmisses += run["misses"]["data"] * completed
    if not messages:
        return {"model.imisses_per_msg": 0.0, "model.dmisses_per_msg": 0.0}
    return {
        "model.imisses_per_msg": imisses / messages,
        "model.dmisses_per_msg": dmisses / messages,
    }

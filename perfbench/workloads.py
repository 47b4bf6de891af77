"""The benchmark's workloads: which experiments, which engine, which seeds.

Why each workload was chosen is recorded in ``BENCHMARK.json`` and in
``README.md`` beside this file.

A workload is a fixed list of the repository's registered sweep
experiments, pinned to one drive-loop engine with
``repro.harness.points.with_engine``.  The benchmark derives every
point's ``seed``/``seeds`` parameter from the workload seed, so the
program under test only ever sees the generated points.

Seed rule: replica ``r`` of an experiment at workload seed ``n`` shifts
every declared seed by ``n * replicas + r``.  Workload seed 0, replica 0
is therefore the declared (blessed) point set, the one the checked-in
goldens were recorded from.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Every workload runs at this harness scale.
SCALE = "ci"

#: The workload seed at which replica 0 is exactly the declared sweep.
BLESSED_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    experiments: tuple[str, ...]
    engine: str
    #: Seed-shifted copies of each experiment's points per sweep.
    replicas: int = 1


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper-vec",
            experiments=("figure5", "figure6", "figure7", "ablations", "faults"),
            engine="vec",
        ),
        Workload(
            name="fleet",
            experiments=("multicore", "flows", "gossip"),
            engine="vec",
        ),
        Workload(
            name="receive-path",
            experiments=("table1", "table2", "table3", "figure1"),
            engine="vec",
            replicas=4,
        ),
    )
}


def seed_offset(seed: int, replicas: int, replica: int) -> int:
    """The amount replica ``replica`` at workload ``seed`` shifts seeds by."""
    return seed * replicas + replica


def reseed_params(params: dict, offset: int) -> dict:
    """A copy of point params with ``seed``/``seeds`` shifted by ``offset``."""
    if "seed" not in params and "seeds" not in params:
        raise ValueError(f"point params carry no seed: {sorted(params)}")
    out = dict(params)
    if "seed" in out:
        out["seed"] = int(out["seed"]) + offset
    if "seeds" in out:
        out["seeds"] = [int(s) + offset for s in out["seeds"]]
    return out


def replica_key(key: str, replica: int) -> str:
    """Point key of one replica; replica 0 keeps the declared key."""
    return key if replica == 0 else f"{key}@r{replica}"


def build_specs(workload: Workload, seed: int, max_points: int | None = None):
    """The workload's engine-pinned, seed-rewritten sweep specs.

    Returns ``[(spec, original_spec, replicas)]`` in workload order,
    where ``replicas[r]`` maps replica ``r``'s point keys back to the
    declared keys, so the experiment's own ``quantities`` can read each
    replica.  ``max_points`` keeps only the first points of each
    experiment (smoke runs).
    """
    from repro.harness import get_spec
    from repro.harness.points import with_engine

    built = []
    for name in workload.experiments:
        original = get_spec(name)
        declared = original.points_for(SCALE)
        if max_points is not None:
            declared = declared[:max_points]
        points, replicas = [], []
        for replica in range(workload.replicas):
            offset = seed_offset(seed, workload.replicas, replica)
            keys = {}
            for point in declared:
                key = replica_key(point.key, replica)
                keys[key] = point.key
                points.append(
                    replace(point, key=key, params=reseed_params(point.params, offset))
                )
            replicas.append(keys)
        fixed = tuple(points)
        spec = with_engine(
            replace(original, points=lambda scale, fixed=fixed: list(fixed)),
            workload.engine,
        )
        built.append((spec, original, replicas))
    return built

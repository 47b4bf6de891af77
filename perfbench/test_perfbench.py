"""Tests of the benchmark itself: names, spans, smoke runs, failing checks.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_totals, nesting_violations, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_metric_names_are_plain():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]] + list(metrics.UNITS)
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in metrics.END_TO_END


def test_reseeding_keeps_the_blessed_points_at_seed_zero():
    assert workloads.reseed_params({"seeds": [0, 1], "rate": 5}, 0) == {
        "seeds": [0, 1], "rate": 5,
    }
    assert workloads.reseed_params({"seed": 0}, 7) == {"seed": 7}
    with pytest.raises(ValueError):
        workloads.reseed_params({"rate": 5}, 1)
    offsets = {
        workloads.seed_offset(seed, 4, replica) for seed in range(3) for replica in range(4)
    }
    assert offsets == set(range(12))


def test_synthetic_spans_nest_with_nonnegative_self_time():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.002))

    def body():
        inner()
        inner()

    outer = tracer.wrap("outer", body)
    outer()
    spans = tracer.arrays()
    assert nesting_violations(spans) == 0
    assert (self_times(spans) >= 0).all()
    totals = layer_totals(tracer)
    assert totals["inner"]["calls"] == 2
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["total_s"] - totals["inner"]["total_s"]
    )
    assert totals["outer"]["self_s"] < totals["inner"]["total_s"]


def test_window_integrates_the_sampled_speed():
    ref = hostspeed.REFERENCE_KERNEL_S
    sampler = hostspeed.SpeedSampler()
    sampler.starts, sampler.durations = [1.0, 2.0], [ref, 2 * ref]
    raw, scaled = sampler.window(0.5, 3.0)
    assert raw == pytest.approx(2.5 - 3 * ref)
    assert scaled == pytest.approx(0.5 * 1.0 + (1 - ref) * 0.75 + (1 - 2 * ref) * 0.5)
    assert sampler.window(1.5, 1.75) == pytest.approx((0.25, 0.25 * 0.75))


def test_sampler_samples_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.SpeedSampler()
    sampler.start()
    deadline = time.perf_counter() + 0.2
    while time.perf_counter() < deadline:
        pass
    sampler.stop()
    assert len(sampler.starts) >= 3
    assert signal.getsignal(signal.SIGALRM) == before
    assert sampler.median_speed() > 0


def test_nesting_check_catches_a_child_outside_its_parent():
    spans = {
        "start": np.array([0.0, 0.5]),
        "end": np.array([1.0, 1.5]),
        "parent": np.array([-1, 0], dtype=np.int32),
    }
    assert nesting_violations(spans) == 1


def test_patches_are_undone():
    from repro.core.binding import MachineBinding

    original = MachineBinding.__dict__["charge"]
    tracer = Tracer()
    tracer.patch_method(MachineBinding, "charge", "core.charge")
    assert MachineBinding.__dict__["charge"] is not original
    tracer.uninstall()
    assert MachineBinding.__dict__["charge"] is original
    with pytest.raises(LookupError):
        tracer.patch_method(MachineBinding, "no_such_method", "x")


def test_traced_sweep_spans_nest_inside_their_parents(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "sweep.py"), "--workload", "fleet", "--seed", "1",
         "--trace", "1", "--max-points", "1", "--work-dir", str(tmp_path),
         "--goldens", str(ROOT / "goldens")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert record["nesting_violations"] == 0
    assert record["layers"]["core.charge"]["calls"] > 0
    with np.load(record["spans_file"]) as saved:
        spans = {key: saved[key] for key in ("start", "end", "parent")}
        names = list(saved["names"])
        name_id = saved["name_id"]
    assert len(spans["start"]) == record["spans"]
    assert (self_times(spans) >= -1e-12).all()
    child = np.flatnonzero(spans["parent"] >= 0)
    up = spans["parent"][child]
    assert (spans["start"][child] >= spans["start"][up]).all()
    assert (spans["end"][child] <= spans["end"][up]).all()
    roots = name_id[spans["parent"] < 0]
    assert {names[i] for i in roots} <= {"harness.run", "harness.golden_check"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--max-points", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        value = result["metrics"][name]["value"]
        assert f"{name}: {value!r} {unit}" in lines
    for key in ("engine", "nproc", "python", "numpy", "git_commit", "seed", "scale",
                "sweeps", "results_sha256"):
        assert any(line.startswith(f"# {key}: ") for line in lines), key


def test_run_refuses_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _blessed_table1(tmp_path):
    from repro.harness import ResultCache, run_experiment

    workload = workloads.Workload("t", ("table1",), "vec")
    specs = workloads.build_specs(workload, workloads.BLESSED_SEED)
    run = run_experiment(specs[0][0], workloads.SCALE, jobs=1, cache=ResultCache(tmp_path))
    assert run.cache_hits == 0
    counters = {("table1", key): dict(run.counters) for key in run.results}
    return specs, run, counters


def test_a_tampered_result_turns_failed_frac_above_zero(tmp_path):
    from repro.harness.golden import check_quantities

    specs, run, counters = _blessed_table1(tmp_path)
    goldens = ROOT / "goldens"
    clean = checks.check_sweep(specs, [run], counters, goldens, check_quantities, blessed=True)
    assert (clean.attempted, clean.failed) == (1, 0), clean.failures

    (result,) = run.results.values()
    result["totals"]["code"] += 4096
    tampered = checks.check_sweep(specs, [run], counters, goldens, check_quantities, blessed=True)
    assert tampered.failed == 1 and tampered.failures
    record = {"wall_s": 1.0, "wall_scaled_s": 1.0, "point_s": [1.0], "point_scaled_s": [1.0],
              "setup_s": 0.1, "setup_scaled_s": 0.1, "speed": 1.0, "counters": {},
              "peak_rss_mb": 1.0, "attempted": tampered.attempted, "failed": tampered.failed}
    assert metrics.end_to_end_metrics([record])["failed_frac"] > 0


def test_conservation_check_reads_both_ledgers():
    run = {"offered": 10, "completed": 9, "dropped": 1, "misses": {}}
    balanced = {"messages.arrivals": 10.0, "messages.completions": 9.0, "messages.drops": 1.0}
    assert checks.conservation_failures({"result": run}, balanced) == []
    assert checks.conservation_failures({"result": {**run, "dropped": 0}}, balanced)
    assert checks.conservation_failures(run, {**balanced, "messages.drops": 0.0})


def test_model_counts_weight_by_completed_messages():
    runs = {
        "a": {"p": {"offered": 1, "completed": 1, "dropped": 0,
                    "misses": {"instruction": 10.0, "data": 2.0}}},
        "b": {"q": {"result": {"offered": 3, "completed": 3, "dropped": 0,
                               "misses": {"instruction": 30.0, "data": 6.0}}}},
    }
    assert checks.model_counts(runs) == {
        "model.imisses_per_msg": 25.0, "model.dmisses_per_msg": 5.0,
    }
    assert checks.model_counts({}) == {
        "model.imisses_per_msg": 0.0, "model.dmisses_per_msg": 0.0,
    }

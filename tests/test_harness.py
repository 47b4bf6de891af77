"""Tests of the parallel experiment harness: worker-count determinism,
the content-hashed result cache, the golden regression gate, and the
``run``/``regress`` CLI.

The determinism tests are the satellite regression required by the
harness design: the same sweep run at ``--jobs 1`` and ``--jobs 4``
must serialize byte-identically, because every sweep point is a pure
function of its explicitly seeded parameters.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.harness import (
    ResultCache,
    SweepPoint,
    SweepSpec,
    Tolerance,
    all_specs,
    bless,
    check_quantities,
    content_key,
    get_spec,
    load_golden,
    run_experiment,
    source_digest,
)
from repro.harness.cli import main as harness_cli
from repro.harness.registry import EXPERIMENT_MODULES


# ----------------------------------------------------------------------
# A tiny but real sweep: four short Section-4 simulation points.

def tiny_sim_spec() -> SweepSpec:
    def points(scale: str) -> list[SweepPoint]:
        del scale
        return [
            SweepPoint(
                experiment="tinysim",
                key=f"{scheduler}/rate={rate}",
                func="repro.sim.runner:poisson_point",
                params={
                    "scheduler": scheduler,
                    "rate": rate,
                    "seeds": [0],
                    "duration": 0.03,
                },
            )
            for scheduler in ("conventional", "ldlp")
            for rate in (2000, 8000)
        ]

    def quantities(points, results):
        return {
            "ldlp_total_misses_8000": results["ldlp/rate=8000"]["misses"][
                "instruction"
            ]
            + results["ldlp/rate=8000"]["misses"]["data"]
        }

    return SweepSpec(
        name="tinysim",
        points=points,
        quantities=quantities,
        sources=("repro.sim", "repro.core"),
        assemble=lambda points, results: results,
        default_tolerance=Tolerance(rel=0.1),
    )


class TestWorkerDeterminism:
    def test_jobs1_equals_jobs4(self, tmp_path):
        """The satellite regression: identical bytes at any job count."""
        spec = tiny_sim_spec()
        serial = run_experiment(
            spec, jobs=1, cache=ResultCache(tmp_path / "a")
        )
        parallel = run_experiment(
            spec, jobs=4, cache=ResultCache(tmp_path / "b")
        )
        assert serial.results_json() == parallel.results_json()
        assert serial.computed == parallel.computed == 4

    def test_result_order_is_declared_order(self, tmp_path):
        spec = tiny_sim_spec()
        run = run_experiment(spec, jobs=4, cache=ResultCache(tmp_path))
        assert list(run.results) == [point.key for point in run.points]

    def test_jobs_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_experiment(
                tiny_sim_spec(), jobs=0, cache=ResultCache(tmp_path)
            )


class TestResultCache:
    def test_second_run_is_fully_cached_and_identical(self, tmp_path):
        spec = tiny_sim_spec()
        cache = ResultCache(tmp_path)
        first = run_experiment(spec, jobs=1, cache=cache)
        second = run_experiment(spec, jobs=1, cache=cache)
        assert first.computed == 4 and first.cache_hits == 0
        assert second.computed == 0 and second.cache_hits == 4
        assert second.hit_rate == 1.0
        assert first.results_json() == second.results_json()

    def test_cached_points_keep_original_elapsed(self, tmp_path):
        spec = tiny_sim_spec()
        cache = ResultCache(tmp_path)
        first = run_experiment(spec, jobs=1, cache=cache)
        second = run_experiment(spec, jobs=1, cache=cache)
        assert second.serial_s == pytest.approx(first.serial_s, rel=1e-6)

    def test_disabled_cache_always_recomputes(self, tmp_path):
        spec = tiny_sim_spec()
        cache = ResultCache(tmp_path, enabled=False)
        run_experiment(spec, jobs=1, cache=cache)
        again = run_experiment(spec, jobs=1, cache=cache)
        assert again.computed == 4
        assert not any(tmp_path.rglob("*.json"))

    def test_key_depends_on_params(self):
        spec = tiny_sim_spec()
        a, b = spec.points_for("ci")[:2]
        assert content_key(a, spec.sources) != content_key(b, spec.sources)
        assert content_key(a, spec.sources) == content_key(a, spec.sources)

    def test_key_depends_on_sources(self):
        point = tiny_sim_spec().points_for("ci")[0]
        assert content_key(point, ("repro.sim",)) != content_key(
            point, ("repro.cache",)
        )

    def test_source_digest_covers_packages_and_modules(self):
        package = source_digest(("repro.sim",))
        module = source_digest(("repro.sim.runner",))
        assert package != module
        assert len(package) == 64

    def test_clear(self, tmp_path):
        spec = tiny_sim_spec()
        cache = ResultCache(tmp_path)
        run_experiment(spec, jobs=1, cache=cache)
        assert cache.clear("tinysim") == 4
        assert run_experiment(spec, jobs=1, cache=cache).computed == 4


class TestGoldenGate:
    def test_bless_then_check_passes(self, tmp_path):
        spec = tiny_sim_spec()
        run = run_experiment(spec, jobs=1, cache=ResultCache(tmp_path / "c"))
        quantities = run.quantities(spec)
        bless(spec, "ci", quantities, root=tmp_path / "g")
        golden = load_golden("tinysim", "ci", root=tmp_path / "g")
        assert check_quantities("tinysim", golden, quantities) == []

    def test_perturbation_fails(self, tmp_path):
        """A deliberate model perturbation must trip the gate."""
        spec = tiny_sim_spec()
        run = run_experiment(spec, jobs=1, cache=ResultCache(tmp_path / "c"))
        quantities = run.quantities(spec)
        bless(spec, "ci", quantities, root=tmp_path / "g")
        golden = load_golden("tinysim", "ci", root=tmp_path / "g")
        perturbed = {
            key: value * 1.5 for key, value in quantities.items()
        }
        breaches = check_quantities("tinysim", golden, perturbed)
        assert len(breaches) == 1
        assert "ldlp_total_misses_8000" in breaches[0].describe()

    def test_missing_and_extra_quantities_are_breaches(self):
        golden = {"present": (1.0, Tolerance(rel=0.1))}
        assert len(check_quantities("x", golden, {})) == 1
        assert len(check_quantities("x", golden, {"present": 1.0, "new": 2.0})) == 1

    def test_missing_golden_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_golden("nope", "ci", root=tmp_path)

    def test_tolerance_semantics(self):
        tolerance = Tolerance(rel=0.1, abs=2.0)
        assert tolerance.allows(100.0, 109.0)
        assert not tolerance.allows(100.0, 111.0)
        assert tolerance.allows(1.0, 2.9)  # abs dominates near zero
        assert Tolerance().allows(5.0, 5.0)
        assert not Tolerance().allows(5.0, 5.0001)


class TestSpecs:
    def test_every_experiment_declares_a_sweep(self):
        specs = all_specs()
        assert len(specs) == len(EXPERIMENT_MODULES)
        for spec in specs:
            points = spec.points_for("ci")
            assert points, spec.name
            for point in points:
                # Params must be JSON-round-trippable for the cache.
                assert json.loads(json.dumps(point.params)) == point.params
                assert point.resolve() is not None

    def test_unknown_experiment_and_scale(self):
        with pytest.raises(ConfigurationError):
            get_spec("figure99")
        with pytest.raises(ConfigurationError):
            get_spec("figure5").points_for("huge")

    def test_duplicate_point_keys_rejected(self):
        spec = SweepSpec(
            name="dup",
            points=lambda scale: [
                SweepPoint("dup", "same", "repro.sim.runner:poisson_point", {}),
                SweepPoint("dup", "same", "repro.sim.runner:poisson_point", {}),
            ],
            quantities=lambda points, results: {},
            sources=("repro.sim",),
            assemble=lambda points, results: results,
        )
        with pytest.raises(ConfigurationError):
            spec.points_for("ci")

    def test_figure5_figure6_share_cached_points(self, tmp_path):
        """The two figures are views of the same simulations: at equal
        (scheduler, rate, seeds, duration) they produce equal cache
        keys, so one computation serves both."""
        f5 = get_spec("figure5")
        f6 = get_spec("figure6")
        point5 = f5.points_for("default")[0]
        match = [
            p for p in f6.points_for("default") if p.params == point5.params
        ]
        assert match
        assert content_key(point5, f5.sources) == content_key(
            match[0], f6.sources
        )


class TestHashpoint:
    def test_hashpoint_digest_is_stable(self, capsys):
        """python -m repro.harness.hashpoint prints the same digest for
        the same point in-process (the CI seed-matrix smoke compares it
        across PYTHONHASHSEED values)."""
        from repro.harness.hashpoint import main as hashpoint_main

        digests = []
        for _ in range(2):
            assert hashpoint_main(["table1", "--scale", "ci"]) == 0
            line = capsys.readouterr().out.strip()
            name, digest = line.split()
            assert name.startswith("table1/")
            digests.append(digest)
        assert digests[0] == digests[1]
        assert len(digests[0]) == 64


class TestHarnessCli:
    def test_run_and_regress_roundtrip(self, tmp_path, capsys):
        args = [
            "schedules",
            "--cache-dir", str(tmp_path / "cache"),
            "--scale", "ci",
        ]
        assert harness_cli(["run", *args, "--no-render"]) == 0
        goldens = ["--goldens-dir", str(tmp_path / "goldens")]
        assert harness_cli(["regress", *args, *goldens, "--bless"]) == 0
        assert harness_cli(
            ["regress", *args, *goldens, "--expect-cached"]
        ) == 0
        out = capsys.readouterr().out
        assert "PASS    schedules" in out

    def test_regress_fails_without_golden(self, tmp_path, capsys):
        assert harness_cli([
            "regress", "schedules",
            "--cache-dir", str(tmp_path / "cache"),
            "--goldens-dir", str(tmp_path / "empty"),
        ]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_regress_detects_drift(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        goldens = ["--goldens-dir", str(tmp_path / "goldens")]
        assert harness_cli(
            ["regress", "schedules", *cache, *goldens, "--bless"]
        ) == 0
        # Corrupt one golden value: the gate must fail on exactly it.
        path = tmp_path / "goldens" / "schedules.ci.json"
        data = json.loads(path.read_text())
        key = "ldlp_order_crc"
        data["quantities"][key]["value"] += 1
        path.write_text(json.dumps(data))
        assert harness_cli(
            ["regress", "schedules", *cache, *goldens]
        ) == 1
        assert key in capsys.readouterr().out

    def test_top_level_cli_dispatches(self, tmp_path, capsys):
        from repro.experiments.cli import main as top_main

        assert top_main([
            "run", "schedules",
            "--cache-dir", str(tmp_path / "cache"),
            "--no-render",
        ]) == 0
        assert "schedules" in capsys.readouterr().out

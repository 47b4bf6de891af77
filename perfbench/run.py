"""The repository's benchmark: cold harness sweeps, timed and checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-vec --seed 0 --seconds 20 --trace 0

Each measured sweep runs in a fresh interpreter (``sweep.py``): every
experiment of the workload goes through ``repro.harness.run_experiment``
with ``jobs=1`` and a fresh, empty result cache, exactly as
``ldlp-experiment run --no-cache --jobs 1`` would run it.  Sweeps repeat
until ``--seconds`` have passed (and at least enough of them ran for
the point-time percentiles), and the medians are reported.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced sweeps and prints the per-layer metrics.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A full report with
run metadata and per-sweep records is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from metrics import (
    END_TO_END,
    PER_LAYER,
    UNITS,
    end_to_end_metrics,
    per_layer_metrics,
    sweep_problems,
)
from workloads import SCALE, WORKLOADS

HERE = Path(__file__).resolve().parent

#: Fewest untraced sweeps per run.
MIN_SWEEPS = 2
#: Fewest set-up samples per run; set-up-only starts make up the sweeps' shortfall.
MIN_SETUPS = 8
#: Fewest per-point samples per run: p90 then has ten samples beyond it.
MIN_POINT_SAMPLES = 100
#: Once the minimums are met, a run stops after this long whatever ``--seconds`` asks.
HARD_STOP_S = 120.0
#: Per-sweep timeout, well inside the benchmark's 180 s budget.
SWEEP_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def git_commit(root: Path) -> str:
    """The checked-out commit read from ``.git``, or ``unknown``."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def spawn(root: Path, work_dir: Path, args, mode: str, traced: bool, tag: str) -> dict:
    """Run ``sweep.py`` in a fresh interpreter and return its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(root / "src"), env.get("PYTHONPATH")) if part
    )
    command = [
        sys.executable, str(HERE / "sweep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--trace", "1" if traced else "0",
        "--work-dir", str(work_dir), "--goldens", str(root / "goldens"),
        "--tag", tag,
    ]
    if args.max_points is not None:
        command += ["--max-points", str(args.max_points)]
    command += ["--spawned-at", repr(time.monotonic())]
    done = subprocess.run(
        command, cwd=root, env=env, capture_output=True, text=True,
        timeout=SWEEP_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchError(
            f"{mode} sweep exited {done.returncode}:\n{done.stderr.strip()[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(root: Path, work_dir: Path, args) -> dict:
    """Repeat sweeps for the run's time budget.

    Returns lists of records by kind: ``untraced``, ``traced``,
    ``setup`` and ``probe``.  An untraced run repeats cold sweeps, then
    adds set-up-only starts until it has :data:`MIN_SETUPS` set-up
    samples; a traced run alternates untraced and traced sweeps (so both
    see the same host conditions) and ends with one obs-overhead probe.
    """
    smoke = args.max_points is not None
    min_sweeps = 1 if smoke else MIN_SWEEPS
    min_samples = 0 if smoke else MIN_POINT_SAMPLES
    start = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[dict] = []
    while True:
        if args.trace:
            order = (False, True) if len(traced) % 2 == 0 else (True, False)
            for flag in order:
                record = spawn(root, work_dir, args, "sweep", flag, str(len(traced)))
                (traced if flag else untraced).append(record)
            enough = True
        else:
            untraced.append(spawn(root, work_dir, args, "sweep", False, str(len(untraced))))
            samples = sum(len(r["point_s"]) for r in untraced)
            enough = len(untraced) >= min_sweeps and samples >= min_samples
        elapsed = time.monotonic() - start
        if enough and (elapsed >= args.seconds or elapsed >= HARD_STOP_S):
            break
    while not (smoke or args.trace) and len(untraced) + len(setups) < MIN_SETUPS:
        setups.append(spawn(root, work_dir, args, "setup", False, "setup"))
    probes = [spawn(root, work_dir, args, "obs-probe", False, "probe")] if args.trace else []
    return {"untraced": untraced, "traced": traced, "setup": setups, "probe": probes}


def metadata(root: Path, args, untraced: list[dict], traced: list[dict]) -> dict:
    """What a reader needs to reproduce or compare this run."""
    import numpy

    workload = WORKLOADS[args.workload]
    return {
        "workload": workload.name,
        "experiments": list(workload.experiments),
        "engine": workload.engine,
        "scale": SCALE,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "sweeps": len(untraced),
        "traced_sweeps": len(traced),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(root),
        "results_sha256": untraced[0]["digest"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--max-points", type=int, default=None,
        help="smoke run: first N points of each experiment, one sweep",
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    for needed in (root / "src" / "repro" / "__init__.py", root / "goldens"):
        if not needed.exists():
            print(f"perfbench: {needed} not found; run from a checkout root", file=sys.stderr)
            return 2
    work_dir = root / ".perfbench"
    work_dir.mkdir(exist_ok=True)

    started = time.monotonic()
    try:
        records = measure(root, work_dir, args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    untraced, traced = records["untraced"], records["traced"]
    sweeps = untraced + traced
    problems = sweep_problems(sweeps)
    attempted = sum(r["attempted"] for r in sweeps)
    failed = sum(r["failed"] for r in sweeps)
    if args.trace:
        values = per_layer_metrics(untraced, traced, records["probe"][0])
        reported = PER_LAYER
    else:
        values, reported = end_to_end_metrics(untraced, records["setup"]), END_TO_END
    meta = metadata(root, args, untraced, traced)
    meta["setup_samples"] = len(untraced) + len(records["setup"])
    meta["elapsed_s"] = round(time.monotonic() - started, 1)

    for key, value in meta.items():
        print(f"# {key}: {value}")
    samples = sum(len(r["point_s"]) for r in untraced)
    print(f"# point-time samples: {samples}")
    for name, value in values.items():
        print(f"{name}: {value!r} {UNITS[name]}")
    for line in problems:
        print(f"! {line}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": UNITS[name]} for name in reported
        },
    }
    report = {"metadata": meta, "result": result, "problems": problems, "records": records}
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (work_dir / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

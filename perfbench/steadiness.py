"""Run the benchmark at several seeds and tabulate each metric's spread.

Usage, from the repository root::

    python3 perfbench/steadiness.py --runs 10 --seconds 20 > perfbench/STEADINESS.md

For every workload it makes ``--runs`` untraced runs at seeds
``first-seed .. first-seed + runs - 1`` and prints, per end-to-end
metric, the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread: the inter-quartile distance as a share of the median.  It
also checks that every run was correct.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    print("| workload | metric | unit | median | q1 | q3 | spread | bound | runs correct |")
    print("|---|---|---|---|---|---|---|---|---|")
    started = time.time()
    for workload in names:
        results = [
            run_once(workload, seed, args.seconds)
            for seed in range(args.first_seed, args.first_seed + args.runs)
        ]
        correct = sum(r["correct"] for r in results)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            print(
                f"| {workload} | {name} | {metric['unit']} | {median:.4g} | {q1:.4g} "
                f"| {q3:.4g} | {(q3 - q1) / median:.3f} | {bounds[name]} "
                f"| {correct}/{len(results)} |",
                flush=True,
            )
    print(
        f"\n{args.runs} runs per workload, seeds {args.first_seed}.."
        f"{args.first_seed + args.runs - 1}, --seconds {args.seconds}, "
        f"Python {platform.python_version()}, {time.time() - started:.0f} s in total."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

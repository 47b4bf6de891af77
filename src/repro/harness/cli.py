"""``ldlp-experiment run`` / ``regress`` — the parallel harness CLI.

Usage::

    ldlp-experiment run --jobs 4                 # every experiment
    ldlp-experiment run figure5 figure6 --jobs 4 --scale default
    ldlp-experiment regress --jobs 2             # golden gate, cached
    ldlp-experiment regress figure8 --bless      # re-bless after a change

``run`` executes each experiment's declared sweep points over a worker
pool, reusing the content-hashed cache, and prints each reproduced
table, assembled from the point results.  ``regress`` instead extracts
each experiment's golden quantities and fails (exit 1) when any drifts
outside its checked-in tolerance.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import ConfigurationError
from .cache import ResultCache
from ..sim.runner import ENGINE_NAMES
from .golden import DEFAULT_GOLDENS_DIR, bless, check_quantities, load_golden
from .points import SCALES, with_engine
from .registry import EXPERIMENT_MODULES, get_spec
from .runner import ExperimentRun, run_experiment


def build_parser() -> argparse.ArgumentParser:
    """The ``run``/``regress`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="ldlp-experiment",
        description="Parallel experiment harness with result cache and goldens.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in (
        ("run", "run experiment sweeps in parallel, print their tables"),
        ("regress", "run (cached) and gate against checked-in goldens"),
    ):
        cmd = sub.add_parser(command, help=help_text)
        cmd.add_argument(
            "experiments",
            nargs="*",
            metavar="experiment",
            help=(
                "experiments to run (default: all): "
                + ", ".join(EXPERIMENT_MODULES)
            ),
        )
        cmd.add_argument(
            "--jobs", "-j", type=int, default=1,
            help="worker processes for sweep points (default 1)",
        )
        cmd.add_argument(
            "--scale", choices=SCALES, default="ci",
            help="sweep scale: ci (fast), default, paper (default: ci)",
        )
        cmd.add_argument(
            "--cache-dir", default=None,
            help="result cache directory (default .ldlp-cache or $LDLP_CACHE_DIR)",
        )
        cmd.add_argument(
            "--no-cache", action="store_true",
            help="recompute every point; do not read or write the cache",
        )
        cmd.add_argument(
            "--engine", choices=ENGINE_NAMES, default=None,
            help=(
                "pin simulation-backed points to one drive-loop engine "
                "(default: each point's own default, currently vec); "
                "engine-pinned params get their own cache namespace"
            ),
        )
    run_cmd, regress_cmd = sub.choices["run"], sub.choices["regress"]
    run_cmd.add_argument(
        "--quantities", action="store_true",
        help="print the golden quantities of each experiment",
    )
    run_cmd.add_argument(
        "--no-render", action="store_true",
        help="suppress the reproduced tables, print timings only",
    )
    regress_cmd.add_argument(
        "--goldens-dir", default=DEFAULT_GOLDENS_DIR,
        help=f"goldens directory (default {DEFAULT_GOLDENS_DIR}/)",
    )
    regress_cmd.add_argument(
        "--bless", action="store_true",
        help="rewrite the goldens from this run instead of checking",
    )
    regress_cmd.add_argument(
        "--expect-cached", action="store_true",
        help="fail if any point had to be recomputed (cache-hash instability)",
    )
    return parser


def _run_all(args: argparse.Namespace) -> list[ExperimentRun]:
    names = list(args.experiments) or list(EXPERIMENT_MODULES)
    cache = ResultCache(root=args.cache_dir, enabled=not args.no_cache)
    runs = []
    for name in names:
        spec = get_spec(name)
        if args.engine is not None:
            spec = with_engine(spec, args.engine)
        run = run_experiment(spec, scale=args.scale, jobs=args.jobs, cache=cache)
        print(run.timing_summary())
        runs.append(run)
    return runs


def cmd_run(args: argparse.Namespace) -> int:
    """``run``: execute sweeps and print each assembled table."""
    runs = _run_all(args)
    for run in runs:
        spec = get_spec(run.name)
        if not args.no_render:
            print()
            print(spec.assemble(run.points, run.results).render())
        if args.quantities:
            print(f"\n{run.name} quantities:")
            for key, value in sorted(run.quantities(spec).items()):
                print(f"  {key} = {value:g}")
    return 0


def cmd_regress(args: argparse.Namespace) -> int:
    """``regress``: execute sweeps and gate quantities against goldens."""
    runs = _run_all(args)
    print()
    failures = 0
    for run in runs:
        spec = get_spec(run.name)
        quantities = run.quantities(spec)
        if args.bless:
            path = bless(spec, args.scale, quantities, root=args.goldens_dir)
            print(f"BLESSED {run.name}: {len(quantities)} quantities -> {path}")
            continue
        try:
            golden = load_golden(run.name, args.scale, root=args.goldens_dir)
        except ConfigurationError as exc:
            print(f"FAIL    {run.name}: {exc}")
            failures += 1
            continue
        breaches = check_quantities(run.name, golden, quantities)
        if args.expect_cached and run.computed:
            print(
                f"FAIL    {run.name}: {run.computed} points were recomputed "
                f"(expected a fully cached run; cache keys are unstable or "
                f"the cache was not warmed)"
            )
            failures += 1
        elif breaches:
            print(f"FAIL    {run.name}: {len(breaches)} quantity breach(es)")
            for breach in breaches:
                print(f"        {breach.describe()}")
            failures += 1
        else:
            print(f"PASS    {run.name}: {len(golden)} quantities within tolerance")
    if failures:
        print(f"\nregression gate FAILED for {failures} experiment(s)")
        return 1
    if not args.bless:
        print("\nregression gate passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry: dispatch to :func:`cmd_run` or :func:`cmd_regress`."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    return cmd_regress(args)


if __name__ == "__main__":
    sys.exit(main())

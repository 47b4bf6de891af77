"""``ldlp-experiment`` — run any reproduction harness from the shell.

Usage::

    ldlp-experiment run table1                    # one experiment's table
    ldlp-experiment run --jobs 4                  # every experiment
    ldlp-experiment run figure5 figure6 --jobs 4 --scale default
    ldlp-experiment regress --jobs 2              # golden regression gate
    ldlp-experiment regress figure8 --bless

    ldlp-experiment trace figure6 --sink chrome   # Perfetto timeline
    ldlp-experiment trace receive --sink table    # live miss attribution

    ldlp-experiment faults injectors              # survival matrix

    ldlp-experiment analyze                       # full static-analysis report
    ldlp-experiment analyze --determinism         # DET gate (exit 1 on ERROR)
    ldlp-experiment analyze --list-rules          # rule registry

``run`` and ``regress`` go through :mod:`repro.harness`: sweep points
fan out over a worker pool, results are cached by content hash, ``run``
prints each experiment's table assembled from its point results, and
``regress`` gates reproduced quantities against the checked-in
``goldens/``.  ``trace`` goes through :mod:`repro.obs`: it re-runs one
experiment under a recorder and emits a Chrome-trace timeline, a
miss-attribution table, or counter metrics.
"""

from __future__ import annotations

import argparse
import sys


def _analyze_command(argv: list[str]) -> int:
    """``ldlp-experiment analyze [...]`` — the analyzer subcommand.

    With no flags this is the legacy report: every checker over both
    modelled stacks, informational (never fails).  ``--list-rules``
    prints the rule registry; ``--determinism`` runs only the DET
    determinism/parallel-purity gate, which *does* gate (exit 1 on an
    ERROR finding) so CI can wire it directly.
    """
    parser = argparse.ArgumentParser(
        prog="ldlp-experiment analyze",
        description="Static analysis of the reproduction (repro.analysis).",
    )
    parser.add_argument("--seed", type=int, default=0, help="placement seed")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule registry and exit",
    )
    parser.add_argument(
        "--determinism", action="store_true",
        help="run only the DET determinism/parallel-purity gate",
    )
    parser.add_argument(
        "--format", dest="fmt", choices=("text", "json"), default="text"
    )
    parser.add_argument(
        "--fail-on", choices=("error", "warning", "never"), default=None
    )
    args = parser.parse_args(argv)
    from ..analysis.cli import main as analysis_main

    if args.list_rules:
        return analysis_main(["--list-rules"])
    if args.determinism:
        command = ["--determinism", "--format", args.fmt]
        if args.fail_on:
            command += ["--fail-on", args.fail_on]
        return analysis_main(command)
    return analysis_main(
        ["--stack", "synthetic", "--stack", "netbsd", "--harness",
         "--determinism", "--seed", str(args.seed), "--format", args.fmt,
         "--fail-on", args.fail_on or "never"]
    )


def _harness_command(argv: list[str]) -> int:
    from ..harness.cli import main as harness_main

    return harness_main(argv)


def _trace_command(argv: list[str]) -> int:
    from ..obs.cli import main as obs_main

    return obs_main(argv[1:])


def _faults_command(argv: list[str]) -> int:
    from ..faults.cli import main as faults_main

    return faults_main(argv[1:])


#: Every subcommand and its handler, which gets the full argument list
#: (the command name first).
COMMANDS = {
    "run": _harness_command,
    "regress": _harness_command,
    "trace": _trace_command,
    "faults": _faults_command,
    "analyze": lambda argv: _analyze_command(argv[1:]),
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser: it names the subcommands and prints help."""
    parser = argparse.ArgumentParser(
        prog="ldlp-experiment",
        description=(
            "Regenerate the tables and figures of Blackwell, 'Speeding up "
            "Protocols for Small Messages' (SIGCOMM 1996)."
        ),
    )
    parser.add_argument(
        "command",
        choices=list(COMMANDS),
        help=(
            "run/regress: experiment sweeps; trace: obs timelines; "
            "faults: fault campaigns; analyze: static analysis "
            "(see 'ldlp-experiment <command> --help')"
        ),
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry: dispatch to the named subcommand."""
    if argv is None:
        argv = sys.argv[1:]
    if not argv or argv[0] not in COMMANDS:
        build_parser().parse_args(argv[:1])  # help or a usage error; exits
    return COMMANDS[argv[0]](argv)


if __name__ == "__main__":
    sys.exit(main())

"""Simulation: the one drive loop, statistics, the Section-4
synthetic benchmark runner, and its multi-core generalization
(:mod:`repro.sim.multicore`)."""

from .multicore import (
    CoreStats,
    MultiCoreConfig,
    MultiCoreRunResult,
    drive_multicore,
    merge_multicore_results,
    multicore_point,
    run_multicore,
)
from .runner import (
    ComparisonResult,
    DriveStats,
    drive,
    ENGINE_NAMES,
    SCHEDULER_NAMES,
    SimulationConfig,
    build_paper_stack,
    compare_schedulers,
    run_averaged,
    run_simulation,
)
from .stats import (
    LatencyRecorder,
    LatencySummary,
    MissesPerMessage,
    RunResult,
    merge_results,
)
from .vec import try_drive_vec, vec_supported

__all__ = [
    "CoreStats",
    "DriveStats",
    "drive",
    "drive_multicore",
    "ComparisonResult",
    "ENGINE_NAMES",
    "LatencyRecorder",
    "LatencySummary",
    "MissesPerMessage",
    "MultiCoreConfig",
    "MultiCoreRunResult",
    "RunResult",
    "SCHEDULER_NAMES",
    "SimulationConfig",
    "build_paper_stack",
    "compare_schedulers",
    "merge_multicore_results",
    "merge_results",
    "multicore_point",
    "run_averaged",
    "run_multicore",
    "run_simulation",
    "try_drive_vec",
    "vec_supported",
]

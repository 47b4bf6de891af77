"""The simulated machine: regions, layout, CPU cost model, executor,
and the N-core topology (:mod:`repro.machine.multicore`)."""

from .cpu import CPU
from .executor import (
    BufferPool,
    ExecutionProfile,
    FootprintExecutor,
    MessageBuffer,
    PlacedLayer,
)
from .layout import DEFAULT_SPAN, MemoryLayout
from .multicore import MultiCoreSpec
from .program import Program, Region, RegionKind

__all__ = [
    "BufferPool",
    "CPU",
    "DEFAULT_SPAN",
    "ExecutionProfile",
    "FootprintExecutor",
    "MemoryLayout",
    "MessageBuffer",
    "MultiCoreSpec",
    "PlacedLayer",
    "Program",
    "Region",
    "RegionKind",
]

"""The simulated machine: regions, layout, the CPU cost model over
split I/D primary caches, and the footprint executor."""

from .cpu import CPU
from .executor import (
    BufferPool,
    ExecutionProfile,
    FootprintExecutor,
    MessageBuffer,
    PlacedLayer,
)
from .layout import DEFAULT_SPAN, MemoryLayout
from .program import Program, Region, RegionKind

__all__ = [
    "BufferPool",
    "CPU",
    "DEFAULT_SPAN",
    "ExecutionProfile",
    "FootprintExecutor",
    "MemoryLayout",
    "MessageBuffer",
    "PlacedLayer",
    "Program",
    "Region",
    "RegionKind",
]

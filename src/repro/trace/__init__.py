"""Memory-trace infrastructure: records, buffers, analysis, and I/O.

This package rebuilds the paper's tracing apparatus (Section 2.2) as a
library: a :class:`TraceBuffer` holds references as int columns (kind,
address, size, function id) with :class:`MemRef` as its row view; traces
are segmented into phases, classified into layers, and serialized to a
greppable text format.
"""

from .buffer import CallEvent, PhaseMark, TraceBuffer
from .callgraph import CallGraph, build_call_graph
from .classify import UNCLASSIFIED, LayerClassifier
from .io import dump_trace, load_trace, parse_trace, save_trace
from .phases import KindTotals, PhaseStats, phase_stats
from .record import MemRef, RefKind

__all__ = [
    "CallEvent",
    "CallGraph",
    "KindTotals",
    "LayerClassifier",
    "MemRef",
    "PhaseMark",
    "PhaseStats",
    "RefKind",
    "TraceBuffer",
    "UNCLASSIFIED",
    "build_call_graph",
    "dump_trace",
    "load_trace",
    "parse_trace",
    "phase_stats",
    "save_trace",
]

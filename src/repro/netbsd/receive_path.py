"""The scripted TCP receive-&-acknowledge trace (Tables 1-3, Figure 1).

This module is the stand-in for the paper's in-kernel Alpha tracing
apparatus: it generates a memory-reference trace of one receive-and-
acknowledge iteration through the NetBSD stack, structured as the three
phases of Table 2 (entry / device interrupt / exit), over the function
catalog of Figure 1.

Calibration targets:

* per-layer code line budgets equal Table 1 exactly (by construction);
* per-layer read-only/mutable data line budgets equal Table 1 exactly;
* sub-line touch densities reproduce Table 3's line-size sensitivities
  (via :mod:`repro.netbsd.touchmap`);
* per-phase code/read/write totals approximate Figure 1's annotations
  (stack, message-buffer, and DMA-ring regions — which Table 1's
  caption excludes but the phase totals include — are modelled with
  tuned aux touch counts).

The emitted trace is a plain :class:`~repro.trace.TraceBuffer` built as
columns: each emit (a function's touch-map prefix, its loop revisits, a
layer's data words, an aux region) appends one block of addresses.  All
analysis runs through the generic columnar pipeline; Table 1's aux
exclusion is the boolean mask :meth:`ReceivePathModel.table1_mask`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..cache.workingset import WorkingSetAnalyzer
from ..errors import ConfigurationError
from ..obs.runtime import active_recorder
from ..trace.buffer import TraceBuffer
from ..trace.classify import LayerClassifier
from ..trace.record import RefKind
from .functions import ALL_LAYERS, CATALOG, FunctionSpec, fn_to_layer_map
from .layers import PAPER_TABLE1
from .touchmap import (
    WORD,
    WORDS_PER_LINE,
    synthesize_code_touch_words,
    synthesize_data_touch_words,
)

LINE = WORD * WORDS_PER_LINE  # 32

PHASE_ENTRY = "entry"
PHASE_INTR = "pkt intr"
PHASE_EXIT = "exit"
PHASES = (PHASE_ENTRY, PHASE_INTR, PHASE_EXIT)


def hot_function_names() -> tuple[str, ...]:
    """Functions the receive path actually executes (Figure 1's map).

    This is the hot working set the static conflict analyzer checks:
    the catalog minus functions the traced path never touches.
    """
    return tuple(CODE_PLAN)


@dataclass(frozen=True)
class CodePlan:
    """Per-phase touched-line counts for one function.

    Phases touch a *prefix* of the function's touch map, so a function
    appearing in several phases contributes ``max(entry, intr, exit)``
    lines to the working set; per-layer sums of that maximum must equal
    Table 1 (checked at model build time).
    """

    entry: int = 0
    intr: int = 0
    exit: int = 0

    @property
    def budget(self) -> int:
        return max(self.entry, self.intr, self.exit)

    def lines_in(self, phase: str) -> int:
        return {PHASE_ENTRY: self.entry, PHASE_INTR: self.intr,
                PHASE_EXIT: self.exit}[phase]


#: The phase plan.  Line counts were chosen so that (a) each layer's
#: budget sum hits Table 1 exactly and (b) per-phase sums land near the
#: Figure 1 per-column code totals (94 / 427 / 570 lines).
CODE_PLAN: dict[str, CodePlan] = {
    # Copy / checksum (layer budget 101 lines)
    "in_cksum": CodePlan(intr=31),
    "bcopy": CodePlan(intr=10, exit=20),
    "copyout": CodePlan(exit=5),
    "copyin": CodePlan(exit=5),
    "bzero": CodePlan(intr=6),
    "uiomove": CodePlan(exit=14),
    "ntohl": CodePlan(intr=2, exit=2),
    "ntohs": CodePlan(intr=1, exit=1),
    "ovbcopy": CodePlan(exit=14),
    "imin_imax": CodePlan(exit=3),
    # Kernel entry/exit (budget 37)
    "syscall": CodePlan(entry=10, exit=16),
    "trap": CodePlan(intr=6),
    "XentInt": CodePlan(intr=5),
    "XentSys": CodePlan(entry=4, exit=4),
    "rei": CodePlan(intr=3, exit=5),
    "pal_swpipl": CodePlan(intr=1, exit=1),
    # Common (budget 51)
    "microtime": CodePlan(intr=5, exit=9),
    "spl0": CodePlan(entry=4, intr=2, exit=4),
    "splx": CodePlan(entry=4, intr=2, exit=4),
    "splnet": CodePlan(intr=3),
    "netintr": CodePlan(intr=11),
    "do_sir": CodePlan(intr=6),
    "interrupt": CodePlan(intr=6),
    "schednetisr": CodePlan(intr=3),
    "logwakeup": CodePlan(intr=5),
    # Process control (budget 69)
    "setrunqueue": CodePlan(intr=5),
    "mi_switch": CodePlan(entry=10, exit=14),
    "cpu_switch": CodePlan(entry=10, exit=13),
    "tsleep": CodePlan(entry=12, exit=18),
    "wakeup": CodePlan(intr=12),
    "selwakeup": CodePlan(intr=4),
    "idle": CodePlan(intr=2),
    "remrq": CodePlan(exit=1),
    # Device / Ethernet (budget 140)
    "leintr": CodePlan(intr=34),
    "lestart": CodePlan(exit=18),
    "lewritereg": CodePlan(exit=4),
    "asic_intr": CodePlan(intr=6),
    "tc_3000_500_iointr": CodePlan(intr=10),
    "copyfrombuf_gap2": CodePlan(intr=6),
    "copytobuf_gap2": CodePlan(exit=5),
    "copyfrombuf_gap16": CodePlan(intr=3),
    "copytobuf_gap16": CodePlan(exit=3),
    "zerobuf_gap16": CodePlan(intr=3),
    "ether_input": CodePlan(intr=22),
    "ether_output": CodePlan(exit=20),
    "arpresolve": CodePlan(exit=6),
    # IP (budget 87)
    "ipintr": CodePlan(intr=45),
    "in_broadcast": CodePlan(intr=6),
    "ip_output": CodePlan(exit=36),
    # TCP (budget 99)
    "tcp_input": CodePlan(intr=60),
    "tcp_output": CodePlan(exit=30),
    "tcp_usrreq": CodePlan(exit=9),
    # Socket low (budget 173)
    "soreceive": CodePlan(entry=20, exit=150),
    "sbappend": CodePlan(intr=5),
    "sbcompress": CodePlan(intr=8),
    "sowakeup": CodePlan(intr=6),
    "sbwait": CodePlan(entry=4),
    # Socket high (budget 19)
    "read": CodePlan(entry=9, exit=9),
    "soo_read": CodePlan(entry=3, exit=3),
    "seltrue": CodePlan(exit=2),
    "getsock": CodePlan(entry=5, exit=5),
    # Buffer management (budget 171)
    "malloc": CodePlan(intr=20, exit=40),
    "free": CodePlan(intr=5, exit=22),
    "m_adj": CodePlan(exit=8),
    "m_get": CodePlan(intr=22),
    "m_free": CodePlan(exit=16),
    "m_copym": CodePlan(exit=28),
    "m_pullup": CodePlan(intr=13),
    "sbreserve": CodePlan(intr=8),
    "mb_alloc_cluster": CodePlan(intr=14),
}

#: Extra instruction references from data loops per (phase, function):
#: the checksum sweep, the driver copy, ``bcopy``, ``uiomove``...  These
#: add *references* without adding working-set lines, reproducing the
#: ref-heavy device-interrupt column of Figure 1.
LOOP_REFS: dict[str, dict[str, int]] = {
    PHASE_ENTRY: {},
    PHASE_INTR: {
        "in_cksum": 14000,
        "bcopy": 9000,
        "copyfrombuf_gap2": 12000,
        "zerobuf_gap16": 1500,
        "m_get": 1200,
        "tcp_input": 2200,
        "ether_input": 600,
    },
    PHASE_EXIT: {
        "uiomove": 1800,
        "copyout": 1400,
        "bcopy": 2000,
        "copytobuf_gap2": 1200,
        "in_cksum": 0,
        "lestart": 500,
        "ip_output": 400,
    },
}

#: Calls structure per phase: (function, nesting-depth) in execution
#: order.  Depth changes produce enter/leave events so the call graph
#: of the trace is meaningful.
PHASE_SCRIPTS: dict[str, list[tuple[str, int]]] = {
    PHASE_ENTRY: [
        ("XentSys", 0),
        ("syscall", 1),
        ("read", 2),
        ("getsock", 3),
        ("soo_read", 3),
        ("soreceive", 4),
        ("sbwait", 5),
        ("tsleep", 6),
        ("spl0", 7),
        ("splx", 7),
        ("mi_switch", 7),
        ("cpu_switch", 8),
    ],
    PHASE_INTR: [
        ("XentInt", 0),
        ("interrupt", 1),
        ("tc_3000_500_iointr", 2),
        ("asic_intr", 3),
        ("leintr", 3),
        ("splnet", 4),
        ("m_get", 4),
        ("malloc", 5),
        ("mb_alloc_cluster", 5),
        ("copyfrombuf_gap2", 4),
        ("copyfrombuf_gap16", 4),
        ("zerobuf_gap16", 4),
        ("ether_input", 4),
        ("schednetisr", 5),
        ("logwakeup", 5),
        ("rei", 1),
        ("pal_swpipl", 1),
        ("netintr", 0),
        ("do_sir", 1),
        ("ipintr", 1),
        ("in_broadcast", 2),
        ("m_pullup", 2),
        ("tcp_input", 1),
        ("trap", 2),
        ("in_cksum", 2),
        ("ntohl", 2),
        ("ntohs", 2),
        ("microtime", 2),
        ("sbreserve", 2),
        ("sbappend", 2),
        ("sbcompress", 3),
        ("bcopy", 4),
        ("bzero", 4),
        ("free", 3),
        ("sowakeup", 2),
        ("wakeup", 3),
        ("setrunqueue", 4),
        ("selwakeup", 3),
        ("spl0", 1),
        ("splx", 1),
        ("idle", 0),
    ],
    PHASE_EXIT: [
        ("cpu_switch", 0),
        ("mi_switch", 1),
        ("remrq", 2),
        ("tsleep", 1),
        ("soreceive", 1),
        ("imin_imax", 2),
        ("m_copym", 2),
        ("uiomove", 2),
        ("copyout", 3),
        ("m_adj", 2),
        ("m_free", 2),
        ("free", 3),
        ("seltrue", 2),
        ("tcp_usrreq", 1),
        ("tcp_output", 2),
        ("microtime", 3),
        ("malloc", 3),
        ("m_copym", 3),
        ("bcopy", 3),
        ("ntohl", 3),
        ("ntohs", 3),
        ("ip_output", 3),
        ("in_cksum", 4),
        ("ether_output", 4),
        ("arpresolve", 5),
        ("lestart", 5),
        ("copytobuf_gap2", 6),
        ("copytobuf_gap16", 6),
        ("lewritereg", 6),
        ("ovbcopy", 5),
        ("copyin", 2),
        ("soo_read", 1),
        ("read", 1),
        ("getsock", 1),
        ("syscall", 0),
        ("XentSys", 0),
        ("rei", 0),
        ("pal_swpipl", 0),
        ("spl0", 0),
        ("splx", 0),
    ],
}

#: Aux regions (excluded from Table 1, per its caption, but present in
#: the Figure 1 per-phase totals): kernel stacks, the message buffer,
#: and the device DMA ring.  Values are (read_lines, read_refs,
#: write_lines, write_refs) per phase, tuned against Figure 1.
AUX_PLAN: dict[str, tuple[int, int, int, int]] = {
    PHASE_ENTRY: (13, 25, 14, 45),
    PHASE_INTR: (345, 5400, 126, 1320),
    PHASE_EXIT: (45, 1280, 115, 870),
}

#: Message-buffer activity per phase: (read_lines, read_refs,
#: write_lines, write_refs).  The 552-byte message spans 18 lines; it is
#: written by the driver copy and read by checksum + copy in the
#: interrupt, then read again by the copy to user space at exit.
MESSAGE_PLAN: dict[str, tuple[int, int, int, int]] = {
    PHASE_ENTRY: (0, 0, 0, 0),
    PHASE_INTR: (18, 210, 18, 140),
    PHASE_EXIT: (18, 90, 0, 0),
}


def _prefix_counts(words: np.ndarray) -> list[int]:
    """prefix_counts[k] = number of words covering the first k lines."""
    if not words.size:
        return [0]
    _, first = np.unique(words // WORDS_PER_LINE, return_index=True)
    # Words are sorted, so line k + 1 starts where the first k lines end.
    return [0, *np.sort(first)[1:].tolist(), words.size]


@dataclass
class _TouchMap:
    """A placed function (with its ``spec``) or data region."""

    base: int
    #: Absolute word addresses of the full touch map (budget lines).
    words: np.ndarray
    spec: FunctionSpec | None = None

    def __post_init__(self) -> None:
        #: Word count covering the first k lines, for k = 0..budget.
        self.prefix_counts = _prefix_counts(self.words)

    def words_for_lines(self, lines: int) -> np.ndarray:
        """The touch-map prefix covering ``lines`` distinct lines."""
        if lines <= 0:
            return self.words[:0]
        return self.words[: self.prefix_counts[min(lines, len(self.prefix_counts) - 1)]]


class ReceivePathModel:
    """Builds and analyzes the receive-&-acknowledge trace."""

    #: Segment bases: code at 0, layer data above, aux regions above that.
    CODE_BASE = 0x0
    DATA_BASE = 0x100000
    AUX_BASE = 0x200000
    #: Aux regions: a 16 KB stack, a 1 KB message buffer, a 4 KB DMA ring.
    stack_base, stack_size = AUX_BASE, 16 * 1024
    message_base, message_size = AUX_BASE + 0x10000, 1024
    dma_base, dma_size = AUX_BASE + 0x20000, 4096

    def __init__(self, seed: int = 0) -> None:
        self.rng = np.random.default_rng(seed)
        self._functions: dict[str, _TouchMap] = {}
        self._regions: dict[tuple[str, bool], _TouchMap] = {}
        self._place_functions()
        self._place_data_regions()
        self._validate_plan()

    # ------------------------------------------------------------------
    # Construction

    def _place_functions(self) -> None:
        cursor = self.CODE_BASE
        for spec in CATALOG:
            plan = CODE_PLAN.get(spec.name)
            budget = plan.budget if plan else 0
            words_rel = synthesize_code_touch_words(spec.size, budget, self.rng)
            self._functions[spec.name] = _TouchMap(
                base=cursor, words=words_rel + cursor // WORD, spec=spec
            )
            cursor += -(-spec.size // LINE) * LINE  # line-align next fn

    def _place_data_regions(self) -> None:
        cursor = self.DATA_BASE
        for layer in ALL_LAYERS:
            targets = PAPER_TABLE1[layer]
            for mutable, target_bytes in ((False, targets.readonly),
                                          (True, targets.mutable)):
                target_lines = target_bytes // LINE
                size = max(2 * target_bytes, LINE)
                # Mutable structures (PCB fields, queue heads) cluster
                # less within a line than read-only tables do; the pair
                # probability is calibrated against Table 3's rows.
                pair_prob = 0.15 if mutable else 0.35
                words_rel = synthesize_data_touch_words(
                    size, target_lines, self.rng, pair_prob=pair_prob
                )
                self._regions[(layer, mutable)] = _TouchMap(
                    base=cursor, words=words_rel + cursor // WORD
                )
                cursor += size

    def _validate_plan(self) -> None:
        for name in CODE_PLAN:
            if name not in self._functions:
                raise ConfigurationError(f"plan references unknown function {name!r}")
        for layer in ALL_LAYERS:
            budget = sum(
                CODE_PLAN[spec.name].budget
                for spec in CATALOG
                if spec.layer == layer and spec.name in CODE_PLAN
            )
            target = PAPER_TABLE1[layer].code // LINE
            if budget != target:
                raise ConfigurationError(
                    f"layer {layer!r} code plan sums to {budget} lines, "
                    f"Table 1 requires {target}"
                )

    # ------------------------------------------------------------------
    # Trace generation

    def build_trace(self) -> TraceBuffer:
        """Generate the full three-phase receive-&-acknowledge trace.

        With a :mod:`repro.obs` recorder installed, each phase is a
        span on the ``trace-gen`` track whose clock is the reference
        index (trace generation has no cycle clock of its own; the
        miss-attribution replay supplies modelled cycles later).
        """
        recorder = active_recorder()
        trace = TraceBuffer()
        # Cumulative fraction of each (layer, mutable) data budget
        # emitted so far; by the last phase every layer reaches 1.0, so
        # the union of phases covers the full Table-1 data budget.
        data_cum: dict[str, float] = {}
        for phase in PHASES:
            trace.mark_phase(phase)
            start = len(trace)
            handle = (
                recorder.begin("trace-gen", phase, float(start))
                if recorder is not None
                else None
            )
            self._emit_phase(trace, phase, data_cum)
            if recorder is not None and handle is not None:
                handle.args["refs"] = len(trace) - start
                recorder.end(handle, float(len(trace)))
                recorder.count("trace.refs", float(len(trace) - start))
        return trace

    def _emit_phase(
        self, trace: TraceBuffer, phase: str, data_cum: dict[str, float]
    ) -> None:
        # zlib.crc32, not hash(): str hashes are salted per interpreter
        # (PYTHONHASHSEED), which would make the trace differ between
        # harness worker processes and break result caching.
        rng = np.random.default_rng(zlib.crc32(phase.encode()))
        depth_stack: list[str] = []
        script = PHASE_SCRIPTS[phase]
        layer_of = fn_to_layer_map()
        # Which layers already emitted data in this phase (emit once per
        # phase, at the first function of that layer).
        data_done: set[str] = set()
        for fn_name, depth in script:
            while len(depth_stack) > depth:
                trace.leave()
                depth_stack.pop()
            trace.enter(fn_name)
            depth_stack.append(fn_name)
            self._emit_function_code(trace, phase, fn_name, rng)
            layer = layer_of.get(fn_name)
            if layer and layer not in data_done:
                data_done.add(layer)
                self._emit_layer_data(trace, phase, layer, fn_name, rng, data_cum)
        while depth_stack:
            trace.leave()
            depth_stack.pop()
        self._emit_aux(trace, phase, rng)

    def _emit_function_code(
        self,
        trace: TraceBuffer,
        phase: str,
        fn_name: str,
        rng: np.random.Generator,
    ) -> None:
        placed = self._functions[fn_name]
        plan = CODE_PLAN.get(fn_name)
        if plan is None:
            return
        words = placed.words_for_lines(plan.lines_in(phase))
        trace.append(RefKind.CODE, words * WORD, WORD, fn_name)
        loop_extra = LOOP_REFS[phase].get(fn_name, 0)
        if loop_extra and words.size:
            # Loop iterations revisit a small window of the function.
            window = words[: min(16, words.size)]
            picks = rng.integers(0, window.size, size=loop_extra)
            trace.append(RefKind.CODE, window[picks] * WORD, WORD, fn_name)

    def _phase_fraction(self, layer: str, phase: str) -> float:
        """Layer's code presence in a phase, as a fraction of its budget."""
        phase_lines = 0
        budget_lines = 0
        for spec in CATALOG:
            if spec.layer != layer or spec.name not in CODE_PLAN:
                continue
            plan = CODE_PLAN[spec.name]
            phase_lines += plan.lines_in(phase)
            budget_lines += plan.budget
        if budget_lines == 0:
            return 0.0
        return phase_lines / budget_lines

    def _emit_layer_data(
        self,
        trace: TraceBuffer,
        phase: str,
        layer: str,
        fn_name: str,
        rng: np.random.Generator,
        data_cum: dict[str, float],
    ) -> None:
        fraction = self._phase_fraction(layer, phase)
        cumulative = min(1.0, data_cum.get(layer, 0.0) + fraction)
        if phase == PHASES[-1]:
            # The union over the whole trace must cover the full budget.
            cumulative = 1.0
        data_cum[layer] = cumulative
        for mutable in (False, True):
            region = self._regions[(layer, mutable)]
            total_lines = len(region.prefix_counts) - 1
            lines = round(total_lines * cumulative)
            words = region.words_for_lines(lines)
            trace.append(RefKind.READ, words * WORD, WORD, fn_name)
            if mutable:
                # Every touched word of a mutable region is written
                # back (these are the fields the path updates), so the
                # mutable classification survives reanalysis at any
                # line size — which is what Table 3's mutable column
                # measures.
                trace.append(RefKind.WRITE, words * WORD, WORD, fn_name)

    def _emit_aux(self, trace: TraceBuffer, phase: str, rng: np.random.Generator) -> None:
        read_lines, read_refs, write_lines, write_refs = AUX_PLAN[phase]
        self._emit_region_refs(
            trace, self.stack_base, self.stack_size, read_lines, read_refs,
            RefKind.READ, rng, fn="stack",
        )
        self._emit_region_refs(
            trace, self.stack_base, self.stack_size, write_lines, write_refs,
            RefKind.WRITE, rng, fn="stack",
        )
        m_read_lines, m_read_refs, m_write_lines, m_write_refs = MESSAGE_PLAN[phase]
        self._emit_region_refs(
            trace, self.message_base, self.message_size, m_read_lines,
            m_read_refs, RefKind.READ, rng, fn="message",
        )
        self._emit_region_refs(
            trace, self.message_base, self.message_size, m_write_lines,
            m_write_refs, RefKind.WRITE, rng, fn="message",
        )
        if phase == PHASE_INTR:
            # The driver walks the DMA descriptor ring.
            self._emit_region_refs(
                trace, self.dma_base, self.dma_size, 48, 200, RefKind.READ,
                rng, fn="leintr",
            )

    def _emit_region_refs(
        self,
        trace: TraceBuffer,
        base: int,
        size: int,
        lines: int,
        refs: int,
        kind: RefKind,
        rng: np.random.Generator,
        fn: str,
    ) -> None:
        if lines <= 0 or refs <= 0:
            return
        capacity = size // LINE
        lines = min(lines, capacity)
        chosen = rng.permutation(capacity)[:lines]
        addrs = base + chosen * LINE + (rng.integers(0, WORDS_PER_LINE, lines) * WORD)
        # First touch each line once, then distribute the remaining refs.
        trace.append(kind, addrs, WORD, fn)
        extra = refs - lines
        if extra > 0:
            picks = rng.integers(0, lines, size=extra)
            trace.append(kind, addrs[picks], WORD, fn)

    # ------------------------------------------------------------------
    # Analysis helpers

    def classifier(self) -> LayerClassifier:
        return LayerClassifier(fn_to_layer_map())

    def is_aux_addr(self, addr: int | np.ndarray) -> bool | np.ndarray:
        """True for stack / message / DMA addresses (excluded by Table 1)."""
        return addr >= self.AUX_BASE

    def table1_mask(self, trace: TraceBuffer) -> np.ndarray:
        """Which references Table 1 counts: everything except aux data."""
        return (trace.kind == RefKind.CODE.code) | ~self.is_aux_addr(trace.addr)

    def analyze(self, trace: TraceBuffer | None = None) -> WorkingSetAnalyzer:
        """Run the working-set analysis Table 1/3 are derived from."""
        if trace is None:
            trace = self.build_trace()
        analyzer = WorkingSetAnalyzer(self.classifier())
        analyzer.consume(trace.select(self.table1_mask(trace)))
        return analyzer

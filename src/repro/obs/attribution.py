"""Live per-function / per-layer miss attribution from a memory trace.

The paper's Tables 1-3 and Figure 1 work because the in-kernel
simulator could say which function, layer and phase each reference (and
so each cache miss) belonged to.  This module is that attribution for
our traces: it replays a function-annotated
:class:`~repro.trace.buffer.TraceBuffer` through a cold
:class:`~repro.cache.hierarchy.SplitCacheHierarchy`, charging a modelled
cycle clock (one cycle per reference plus the machine's read-miss
penalty), and attributes every access, miss and stall cycle to the
function — and through the function, the Table-1 layer — that issued it.

Two products come out of one replay:

* the **function table** (Figure 1's function×column shape): per
  function, references / misses / stall cycles split into code, read
  and write columns;
* the **live working set** (Table 1's layer×category shape): distinct
  lines touched per layer, split into code / read-only / mutable by the
  paper's rules (a line written at least once is mutable; data lines
  belong to the layer of the function that touched them first).

The live working set is computed from the same replayed event stream —
not from :class:`~repro.cache.workingset.WorkingSetAnalyzer` — so the
golden pin in ``tests/test_obs.py`` that compares it against the static
Table 1 catalogue is a genuine two-implementation cross-check.

When a :class:`~repro.obs.runtime.Recorder` is supplied, the replay also
emits one span per function activation (tracks are Table-1 layers, the
clock is the modelled cycle count), which is how the receive path gets
its Chrome-trace timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..cache.hierarchy import MachineSpec, SplitCacheHierarchy
from ..trace.buffer import TraceBuffer
from .runtime import Recorder

#: Layer name used for functions outside the supplied function→layer map
#: (kernel stacks, the message buffer, the DMA ring).
AUX_LAYER = "aux"


@dataclass
class FunctionMisses:
    """Attribution row for one function (Figure 1's column shape)."""

    fn: str
    layer: str
    code_refs: int = 0
    code_misses: int = 0
    read_refs: int = 0
    read_misses: int = 0
    write_refs: int = 0
    write_misses: int = 0
    stall_cycles: int = 0

    @property
    def refs(self) -> int:
        """Total references issued by the function."""
        return self.code_refs + self.read_refs + self.write_refs

    @property
    def misses(self) -> int:
        """Total primary-cache misses attributed to the function."""
        return self.code_misses + self.read_misses + self.write_misses


@dataclass
class _LineInfo:
    """First-touch ownership and write history of one cache line."""

    layer: str
    written: bool = False


@dataclass
class MissAttribution:
    """Everything one replay produced (see module docstring)."""

    spec: MachineSpec
    functions: dict[str, FunctionMisses]
    code_lines: dict[int, str] = field(default_factory=dict)
    data_lines: dict[int, _LineInfo] = field(default_factory=dict)
    cycles: int = 0

    def function_table(self) -> list[FunctionMisses]:
        """Rows sorted by layer then by total misses, busiest first."""
        return sorted(
            self.functions.values(),
            key=lambda row: (row.layer, -row.misses, row.fn),
        )

    def live_working_set(self, line_size: int = 32) -> dict[str, dict[str, int]]:
        """Per-layer working set in bytes: Table 1's layer×category shape.

        Categories are ``code``, ``readonly`` and ``mutable``; aux lines
        (owner :data:`AUX_LAYER`) are excluded, matching Table 1's
        caption.
        """
        table: dict[str, dict[str, int]] = {}

        def bump(layer: str, category: str) -> None:
            row = table.setdefault(
                layer, {"code": 0, "readonly": 0, "mutable": 0}
            )
            row[category] += line_size

        for layer in self.code_lines.values():
            if layer != AUX_LAYER:
                bump(layer, "code")
        for info in self.data_lines.values():
            if info.layer != AUX_LAYER:
                bump(info.layer, "mutable" if info.written else "readonly")
        return table

    def render(self, top: int = 20) -> str:
        """The per-function miss table as text (busiest ``top`` rows)."""
        from ..experiments.report import render_table

        rows = []
        for row in sorted(
            self.functions.values(), key=lambda r: (-r.misses, r.layer, r.fn)
        )[:top]:
            rows.append(
                [
                    row.fn,
                    row.layer,
                    row.code_refs,
                    row.code_misses,
                    row.read_refs,
                    row.read_misses,
                    row.write_refs,
                    row.write_misses,
                    row.stall_cycles,
                ]
            )
        return render_table(
            [
                "function",
                "layer",
                "code refs",
                "I-miss",
                "read refs",
                "D-miss",
                "write refs",
                "W-miss",
                "stall cyc",
            ],
            rows,
            title=(
                f"Live miss attribution (top {min(top, len(self.functions))} "
                f"functions by misses; {self.cycles} modelled cycles)"
            ),
        )


class MissAttributor:
    """Replays a function-annotated trace, attributing misses.

    Parameters
    ----------
    spec:
        Machine description; the replay uses its cold split I/D caches
        and its read-miss penalty for the modelled clock.
    fn_layers:
        Function name → Table-1 layer map
        (:func:`repro.netbsd.functions.fn_to_layer_map`); unmapped
        functions land in :data:`AUX_LAYER`.
    aux_addrs:
        Predicate marking addresses Table 1's caption excludes (stacks,
        message buffer, DMA ring); those lines are still replayed
        through the caches — their misses are real — but are kept out
        of the live working set.
    """

    def __init__(
        self,
        spec: MachineSpec | None = None,
        fn_layers: dict[str, str] | None = None,
        aux_addrs: Callable[[int], bool] | None = None,
    ) -> None:
        self.spec = spec or MachineSpec()
        self.fn_layers = fn_layers or {}
        self.aux_addrs = aux_addrs or (lambda addr: False)

    def _layer_of(self, fn: str | None) -> str:
        if fn is None:
            return AUX_LAYER
        return self.fn_layers.get(fn, AUX_LAYER)

    def replay(
        self, trace: TraceBuffer, recorder: Recorder | None = None
    ) -> MissAttribution:
        """Replay the full trace; optionally emit spans into ``recorder``.

        The replay is single-pass: references are charged against cold
        caches in trace order while call events open/close per-function
        spans and phase marks open/close phase spans, all on the
        modelled cycle clock.
        """
        hierarchy = SplitCacheHierarchy(self.spec)
        line_size = self.spec.icache.line_size
        penalty = self.spec.miss_penalty
        result = MissAttribution(spec=self.spec, functions={})
        cycles = 0

        phase_slices = trace.phase_slices()
        events = trace.call_events
        event_index = 0
        phase_index = 0
        open_phase = None
        span_stack: list[object] = []

        for ref_index, ref in enumerate(trace.rows()):
            # Close/open phase spans at their marked positions.
            while (
                phase_index < len(phase_slices)
                and phase_slices[phase_index][1].start == ref_index
            ):
                if recorder is not None:
                    if open_phase is not None:
                        recorder.end(open_phase, float(cycles))
                    open_phase = recorder.begin(
                        "phase", phase_slices[phase_index][0], float(cycles)
                    )
                phase_index += 1
            # Apply call events scheduled before this reference.
            while event_index < len(events) and events[event_index].index <= ref_index:
                event = events[event_index]
                event_index += 1
                if recorder is None:
                    continue
                if event.enter:
                    span_stack.append(
                        recorder.begin(
                            self._layer_of(event.fn), event.fn, float(cycles)
                        )
                    )
                elif span_stack:
                    recorder.end(span_stack.pop(), float(cycles))

            row = result.functions.get(ref.fn or "?")
            if row is None:
                row = FunctionMisses(fn=ref.fn or "?", layer=self._layer_of(ref.fn))
                result.functions[row.fn] = row
            line = ref.addr // line_size
            cycles += 1
            if ref.is_code():
                missed = hierarchy.icache.access_span_report(ref.addr, ref.size)  # type: ignore[attr-defined]
                row.code_refs += 1
                row.code_misses += int(missed.size)
                stall = int(missed.size) * penalty
                row.stall_cycles += stall
                cycles += stall
                result.code_lines.setdefault(line, row.layer)
            else:
                missed = hierarchy.dcache.access_span_report(ref.addr, ref.size)  # type: ignore[attr-defined]
                if ref.is_write():
                    # Writes allocate but never stall (write buffer).
                    row.write_refs += 1
                    row.write_misses += int(missed.size)
                else:
                    row.read_refs += 1
                    row.read_misses += int(missed.size)
                    stall = int(missed.size) * penalty
                    row.stall_cycles += stall
                    cycles += stall
                if not self.aux_addrs(ref.addr):
                    info = result.data_lines.setdefault(line, _LineInfo(row.layer))
                    if ref.is_write():
                        info.written = True

        if recorder is not None:
            while span_stack:
                recorder.end(span_stack.pop(), float(cycles))
            if open_phase is not None:
                recorder.end(open_phase, float(cycles))
            recorder.count("obs.replayed_refs", float(len(trace)))
            recorder.count("obs.modelled_cycles", float(cycles))
        result.cycles = cycles
        return result


def replay_receive_path(
    seed: int = 0,
    spec: MachineSpec | None = None,
    recorder: Recorder | None = None,
) -> MissAttribution:
    """Build and replay the NetBSD receive-&-acknowledge trace.

    The one-call form the CLI and tests use: constructs the
    :class:`~repro.netbsd.receive_path.ReceivePathModel`, generates its
    three-phase trace (with phase spans landing in ``recorder`` when
    given), and replays it with Figure-1 function→layer attribution and
    Table-1 aux exclusion.
    """
    from ..netbsd.functions import fn_to_layer_map
    from ..netbsd.receive_path import ReceivePathModel

    model = ReceivePathModel(seed=seed)
    trace = model.build_trace()
    attributor = MissAttributor(
        spec=spec,
        fn_layers=fn_to_layer_map(),
        aux_addrs=model.is_aux_addr,
    )
    return attributor.replay(trace, recorder=recorder)


def render_live_table1(attribution: MissAttribution) -> str:
    """Live working set vs the static Table 1 catalogue, side by side."""
    from ..experiments.report import render_table
    from ..netbsd.layers import ALL_LAYERS, PAPER_TABLE1

    live = attribution.live_working_set()
    rows = []
    for layer in ALL_LAYERS:
        got = live.get(layer, {"code": 0, "readonly": 0, "mutable": 0})
        want = PAPER_TABLE1[layer]
        rows.append(
            [
                layer,
                got["code"],
                want.code,
                got["readonly"],
                want.readonly,
                got["mutable"],
                want.mutable,
            ]
        )
    return render_table(
        ["Layer", "code", "(paper)", "ro-data", "(paper)", "mut-data", "(paper)"],
        rows,
        title="Live miss-attribution working set vs Table 1 (bytes)",
    )

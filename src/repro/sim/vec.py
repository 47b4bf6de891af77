"""The vectorized (columnar) step strategy of the drive loop.

With scalar steps, :func:`repro.sim.runner.drive` spends essentially
all of its time in the service path: one Python-level call per
(layer, message) invocation, each performing a handful of small numpy
cache probes and float additions.  This module replaces a whole service step with a
constant number of numpy operations, while producing **bit-identical**
results — same latency samples in the same order, same cache statistics,
same obs counters, same drop decisions.

How it works
------------
*One loop, another step.*  The engine is a step strategy, not a loop:
:func:`vec_step` builds a :meth:`_VecEngine.step` for one scheduler,
and the shared drive loop (:mod:`repro.sim.runner`) does admission,
drops, obs counters, flushes and latency exactly as it does for scalar
steps.  :func:`try_drive_vec` runs it on one core;
:func:`repro.sim.multicore.drive_multicore` gives every eligible core
its own engine, since cores couple only through dispatch at admission.

*Three template kinds.*  ``conventional`` and ``ilp`` run one message
through the whole stack per step; ``grouped`` runs one batch group by
group (:class:`~repro.core.scheduler.GroupedLDLPScheduler`), and
per-layer LDLP is that kind with one layer per group, exactly as
:class:`~repro.core.scheduler.LDLPScheduler` is in the scalar
schedulers.

*Static step templates.*  For a given scheduler kind, the sequence of
(layer, message-slot) invocations a service step performs — and hence
the full reference stream it pushes through each cache — is a pure
function of the batch composition (which ring buffer holds which
message size).  The engine compiles that into a
:class:`repro.cache.chunked.SegmentedAccessPlan` per cache plus a
per-invocation cost-addend layout, cached by composition key.  The ring
of 32 buffers and the bounded batch cap keep the key space small, so
steady state replays cached templates.  The instruction stream depends
on the batch *length* alone (buffers and sizes only move data lines and
cost addends), so the I-cache plan is built once per length and shared
by every composition of that length.

*Dynamic replay.*  Applying a template is ~15 numpy ops: gather the
live tags for first-touched sets, compare, scatter the final tags,
turn per-segment miss counts into stall addends, and one ``cumsum``
over the flat addend array.  ``cumsum`` accumulates strictly
left-to-right, so seeding slot 0 with the current cycle counter
reproduces the scalar engine's float-addition *order* — which is what
makes the cycle counts (and therefore every latency sample) bit-exact,
not merely close.

Equivalence boundaries
----------------------
The engine silently declines (:func:`vec_step` returns ``None``, the
caller falls back to scalar steps for that core) whenever exact replay
is not guaranteed: unbound schedulers, non-passthrough layers (stateful
stacks), primary caches that are not direct-mapped, layers whose code
working set conflicts with itself in the instruction cache
(the static template would be unsound — see
:class:`~repro.cache.chunked.UnsupportedPlanError`), or a span-keeping
obs recorder (the vec path does not emit per-layer ``invoke`` spans,
only the drive-level counters and ``service_step`` spans the harness
consumes; full tracing keeps the scalar path).

Flow-lookup charging (:mod:`repro.flows`) is inside the envelope: a
step calls :func:`~repro.core.scheduler.charge_flow_lookups` exactly
where the scalar step does, before the template reads the cycle
counter.  A lookup touches only the flow cache and adds one
``cpu.execute``, never the I/D caches, so the template and its addition
order are unchanged, and the per-batch dedup and untagged-walk
accounting are the scalar code itself.

Sharing one I-cache plan between compositions is exact because
:meth:`~repro.cache.chunked.SegmentedAccessPlan.apply` is stateless: all
cache state lives in the tag array it is handed.
"""

from __future__ import annotations

import numpy as np

from ..cache.cache import DirectMappedCache
from ..cache.chunked import SegmentedAccessPlan
from ..core.layer import Message, PassthroughLayer
from ..core.scheduler import (
    ConventionalScheduler,
    GroupedLDLPScheduler,
    ILPScheduler,
    LDLPScheduler,
    Scheduler,
    charge_flow_lookups,
    take_batch,
)
from ..machine.executor import FootprintExecutor, MessageBuffer
from ..obs.runtime import active_recorder
from .runner import DriveStats, Step, _drive_cores

#: Cost-addend slots per invocation in a step template (istall, layer
#: data stall, message-buffer stall, execute, trailing execute).
_SLOTS = 5


class _StepTemplate:
    """Compiled cache plans + cost layout for one batch composition."""

    __slots__ = (
        "iplan", "dplan", "addends", "ipos", "dpos", "completions"
    )

    def __init__(
        self,
        iplan: SegmentedAccessPlan,
        dplan: SegmentedAccessPlan,
        addends: np.ndarray,
        ipos: np.ndarray,
        dpos: np.ndarray,
        completions: list[tuple[int, int]],
    ) -> None:
        self.iplan = iplan
        self.dplan = dplan
        #: Flat addend array: slot 0 = live cycle counter, then _SLOTS
        #: per invocation; cumsum replays the scalar addition order.
        self.addends = addends
        self.ipos = ipos
        self.dpos = dpos
        #: (message slot, addend index of its completion cycle) pairs
        #: in scalar completion order.
        self.completions = completions


def _distinct_sets(lines: np.ndarray, num_lines: int) -> bool:
    """True when the line array maps to all-distinct cache sets."""
    if lines.size == 0:
        return True
    return int(np.unique(lines % num_lines).size) == int(lines.size)


class _VecEngine:
    """Per-drive-call state of the vectorized service path."""

    def __init__(self, scheduler: Scheduler, kind: str) -> None:
        self.scheduler = scheduler
        self.kind = kind
        binding = scheduler.binding
        assert binding is not None
        self.binding = binding
        self.cpu = binding.cpu
        self.icache = self.cpu.icache
        self.dcache = self.cpu.dcache
        self.miss_penalty = binding.spec.miss_penalty
        efficiency = float(binding.spec.iprefetch_efficiency)
        self.iprefetch_scale = (1.0 - efficiency) if efficiency else None
        self.placed = [
            binding.placed_layer(layer.name) for layer in scheduler.layers
        ]
        self.extra_per_byte = sum(
            layer.footprint.per_byte_cycles for layer in scheduler.layers[1:]
        )
        self.groups = (
            scheduler.groups if isinstance(scheduler, GroupedLDLPScheduler) else None
        )
        self._templates: dict[tuple[tuple[int, int], ...], _StepTemplate] = {}
        #: I-cache plans by batch length: the code stream of a step does
        #: not depend on which buffers or sizes the batch holds.
        self._iplans: dict[int, SegmentedAccessPlan] = {}

    # ------------------------------------------------------------------
    # Template compilation

    def _invocations(self, sizes: list[int]) -> list[tuple[int, int, bool, float]]:
        """The step's (layer, slot, include_data, trailing_execute) list.

        Mirrors each scalar scheduler's invocation order exactly (the
        order determines cache behaviour — it is the paper's whole
        subject): conventional/ILP are message-major, grouped is
        group-major with one queue hop per group (per-layer LDLP, one
        layer per group, is layer-major over the batch).
        """
        num_layers = len(self.placed)
        queue_cost = float(FootprintExecutor.QUEUE_INSTRUCTIONS)
        if self.kind == "conventional":
            return [(index, 0, True, 0.0) for index in range(num_layers)]
        if self.kind == "ilp":
            program = [(0, 0, True, self.extra_per_byte * sizes[0])]
            program += [(index, 0, False, 0.0) for index in range(1, num_layers)]
            return program
        assert self.groups is not None
        program = []
        for members in self.groups:
            for slot in range(len(sizes)):
                for position, layer_index in enumerate(members):
                    program.append(
                        (layer_index, slot, True,
                         queue_cost if position == 0 else 0.0)
                    )
        return program

    def _completion_points(
        self, batch: int, invocations: int
    ) -> list[tuple[int, int]]:
        """Per-message completion (slot, addend index) in scalar order."""
        if self.kind in ("conventional", "ilp"):
            return [(0, _SLOTS * invocations)]
        assert self.groups is not None
        last = len(self.groups[-1])
        offset = batch * sum(len(members) for members in self.groups[:-1])
        return [
            (slot, _SLOTS * (offset + slot * last + last - 1) + _SLOTS)
            for slot in range(batch)
        ]

    def _compile(
        self, sizes: list[int], buffers: list[MessageBuffer]
    ) -> _StepTemplate:
        program = self._invocations(sizes)
        count = len(program)
        data_segments: list[np.ndarray] = []
        addends = np.zeros(1 + _SLOTS * count)
        base = _SLOTS * np.arange(count, dtype=np.int64)
        for position, (layer_index, slot, include_data, trailing) in enumerate(
            program
        ):
            placed = self.placed[layer_index]
            data_segments.append(placed.data_lines)
            if include_data:
                buffer = buffers[slot]
                size = min(sizes[slot], buffer.capacity)
                data_segments.append(
                    buffer.lines_for(size) if size > 0 else placed.data_lines[:0]
                )
                addends[_SLOTS * position + 4] = placed.profile.compute_cycles(
                    sizes[slot]
                )
            else:
                data_segments.append(placed.data_lines[:0])
                addends[_SLOTS * position + 4] = placed.profile.base_cycles
            addends[_SLOTS * position + 5] = trailing
        dpos = np.empty(2 * count, dtype=np.int64)
        dpos[0::2] = base + 2
        dpos[1::2] = base + 3
        iplan = self._iplans.get(len(sizes))
        if iplan is None:
            code_segments = [
                self.placed[layer_index].code_lines
                for layer_index, _, _, _ in program
            ]
            iplan = SegmentedAccessPlan(
                np.concatenate(code_segments) if code_segments else
                np.empty(0, dtype=np.int64),
                np.cumsum([0] + [seg.size for seg in code_segments]),
                self.icache.num_lines,
            )
            self._iplans[len(sizes)] = iplan
        dplan = SegmentedAccessPlan(
            np.concatenate(data_segments) if data_segments else
            np.empty(0, dtype=np.int64),
            np.cumsum([0] + [seg.size for seg in data_segments]),
            self.dcache.num_lines,
        )
        return _StepTemplate(
            iplan,
            dplan,
            addends,
            base + 1,
            dpos,
            self._completion_points(len(sizes), count),
        )

    # ------------------------------------------------------------------
    # Dynamic replay

    def step(self) -> list[tuple[Message, float]]:
        """Run one service step; returns (message, completion cycle)."""
        scheduler = self.scheduler
        if self.kind in ("conventional", "ilp"):
            batch = [scheduler.input_queue.popleft()]
            charge_flow_lookups(scheduler, batch)
        else:
            batch = take_batch(scheduler)  # type: ignore[arg-type]
            if not batch:
                return []
        buffers = [self.binding.buffer_of(message) for message in batch]
        sizes = [message.size for message in batch]
        key = tuple(
            (buffer.index, size) for buffer, size in zip(buffers, sizes)
        )
        template = self._templates.get(key)
        if template is None:
            template = self._compile(sizes, buffers)
            self._templates[key] = template
        cpu = self.cpu
        imiss = template.iplan.apply(self.icache.tag_array, self.icache.stats)
        dmiss = template.dplan.apply(self.dcache.tag_array, self.dcache.stats)
        istall = imiss * self.miss_penalty
        if self.iprefetch_scale is not None:
            # round() and np.rint both round half to even, so the
            # per-call prefetch discount truncates identically.
            istall = np.rint(istall * self.iprefetch_scale)
        dstall = dmiss * self.miss_penalty
        addends = template.addends
        addends[0] = cpu.cycles
        addends[template.ipos] = istall
        addends[template.dpos] = dstall
        timeline = np.cumsum(addends)
        cpu.cycles = float(timeline[-1])
        cpu.stall_cycles += float(istall.sum() + dstall.sum())
        return [
            (batch[slot], float(timeline[index]))
            for slot, index in template.completions
        ]


def vec_supported(scheduler: Scheduler) -> bool:
    """Whether the vectorized engine can replay this scheduler exactly.

    Checks everything static: scheduler kind, pure passthrough layers,
    bound direct-mapped I/D primaries, and self-conflict-free
    code/data/buffer placements (the static-template soundness
    condition).  Dynamic conditions (a span-keeping recorder) are
    checked by :func:`vec_step` per call.
    """
    kind = _scheduler_kind(scheduler)
    if kind is None:
        return False
    binding = scheduler.binding
    if binding is None or not binding.bound:
        return False
    cpu = binding.cpu
    if type(cpu.icache) is not DirectMappedCache:
        return False
    if type(cpu.dcache) is not DirectMappedCache:
        return False
    for layer in scheduler.layers:
        if type(layer) is not PassthroughLayer:
            return False
    icache_sets = cpu.icache.num_lines
    dcache_sets = cpu.dcache.num_lines
    for layer in scheduler.layers:
        placed = binding.placed_layer(layer.name)
        if not _distinct_sets(placed.code_lines, icache_sets):
            return False
        if not _distinct_sets(placed.data_lines, dcache_sets):
            return False
    pool = binding.pool
    if pool is None:
        return False
    for buffer in pool.buffers:
        if not _distinct_sets(buffer.lines_for(buffer.capacity), dcache_sets):
            return False
    return True


def _scheduler_kind(scheduler: Scheduler) -> str | None:
    """The template kind for a scheduler, or None if unsupported.

    Exact-type checks: a subclass may override service semantics, and
    silently vectorizing it would break the scalar≡vec contract.
    :class:`LDLPScheduler` is grouped LDLP with singleton groups, so it
    replays through the ``"grouped"`` template.
    """
    for cls, kind in (
        (ConventionalScheduler, "conventional"),
        (ILPScheduler, "ilp"),
        (LDLPScheduler, "grouped"),
        (GroupedLDLPScheduler, "grouped"),
    ):
        if type(scheduler) is cls:
            return kind
    return None


def vec_step(scheduler: Scheduler) -> Step | None:
    """A vectorized step strategy for one bound scheduler, or ``None``.

    Returns ``None`` (the caller falls back to
    :func:`~repro.sim.runner.scalar_step`) when the scheduler is outside
    the engine's exact-replay envelope; see the module docstring for the
    boundaries.  Otherwise every step the returned strategy takes leaves
    the scheduler, its caches, its CPU and the obs counters exactly as
    the scalar step would.
    """
    recorder = active_recorder()
    if recorder is not None and recorder.keep_spans:
        # Full tracing wants the per-layer invoke spans only the scalar
        # path emits.
        return None
    if not vec_supported(scheduler):
        return None
    return _VecEngine(scheduler, _scheduler_kind(scheduler) or "").step


def try_drive_vec(
    scheduler: Scheduler,
    arrivals: list[tuple[float, Message]],
    flush_period_cycles: float | None = None,
) -> DriveStats | None:
    """Vectorized twin of :func:`repro.sim.runner.drive`.

    Returns ``None`` (caller falls back to scalar steps) when
    :func:`vec_step` declines the scheduler.  Otherwise runs the shared
    one-core drive loop with the vectorized step strategy, so the
    returned :class:`~repro.sim.runner.DriveStats`, all cache/CPU
    statistics, and all obs counters are bit-identical to the scalar
    path's.
    """
    step = vec_step(scheduler)
    if step is None:
        return None
    return _drive_cores([scheduler], [step], arrivals, flush_period_cycles)

"""Hypothesis property tests for the cache models.

These pin the invariants the simulator's correctness rests on, over
randomly generated access traces rather than hand-picked cases:

* counter sanity — misses never exceed accesses, and hits + misses
  always equals accesses;
* capacity — a direct-mapped cache never holds more distinct lines
  than it has sets;
* locality — once a span smaller than the cache is resident, repeated
  access to it hits on every line;
* equivalence — the vectorized span path matches the scalar path, and
  1-way set-associative matches direct-mapped, access for access.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.cache.cache import DirectMappedCache, SetAssociativeCache
from repro.cache.chunked import SegmentedAccessPlan, UnsupportedPlanError, unit_plan
from repro.errors import ConfigurationError

#: Small geometries keep traces interesting (evictions actually happen).
SIZES = st.sampled_from([256, 512, 1024])
LINE_SIZES = st.sampled_from([16, 32])
WAYS = st.sampled_from([1, 2, 4])

#: A trace of (addr, size) byte accesses within a few cache-sizes of
#: address space, so conflict misses are common.
ACCESSES = st.lists(
    st.tuples(st.integers(0, 4096), st.integers(0, 96)),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, accesses=ACCESSES)
def test_misses_never_exceed_accesses(size, line_size, accesses):
    cache = DirectMappedCache(size, line_size)
    for addr, span in accesses:
        cache.access_span(addr, span)
    stats = cache.stats
    assert stats.misses <= stats.accesses
    assert stats.hits + stats.misses == stats.accesses
    assert stats.evictions <= stats.misses


@settings(max_examples=60, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, ways=WAYS, accesses=ACCESSES)
def test_set_associative_counters_sane(size, line_size, ways, accesses):
    cache = SetAssociativeCache(size, line_size, ways=ways)
    for addr, span in accesses:
        cache.access(addr, span)
    stats = cache.stats
    assert stats.misses <= stats.accesses
    assert stats.hits + stats.misses == stats.accesses


@settings(max_examples=60, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, accesses=ACCESSES)
def test_occupancy_bounded_by_set_count(size, line_size, accesses):
    cache = DirectMappedCache(size, line_size)
    for addr, span in accesses:
        cache.access_span(addr, span)
    assert len(cache.resident_lines()) <= cache.num_lines


@settings(max_examples=60, deadline=None)
@given(
    size=SIZES,
    line_size=LINE_SIZES,
    addr=st.integers(0, 2048),
    data=st.data(),
)
def test_warm_span_hits_on_repeat(size, line_size, addr, data):
    """A contiguous span no larger than the cache, once resident, hits
    on every line of every subsequent access — the locality the LDLP
    batching argument depends on."""
    # Keep the span within num_lines distinct lines: starting mid-line,
    # a full cache-size span would touch one extra line and self-evict.
    span = data.draw(st.integers(1, size - addr % line_size))
    cache = DirectMappedCache(size, line_size)
    cache.access_span(addr, span)  # warm-up may miss freely
    before = cache.stats.misses
    for _ in range(3):
        assert cache.access_span(addr, span) == 0
    assert cache.stats.misses == before


@settings(max_examples=60, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, accesses=ACCESSES)
def test_span_path_matches_scalar_path(size, line_size, accesses):
    """The vectorized DirectMappedCache.access_span must be observably
    identical to the scalar Cache.access loop: same per-call miss
    counts, same final counters, same resident lines."""
    fast = DirectMappedCache(size, line_size)
    slow = DirectMappedCache(size, line_size)
    for addr, span in accesses:
        assert fast.access_span(addr, span) == super(
            DirectMappedCache, slow
        ).access_span(addr, span)
    assert fast.stats.misses == slow.stats.misses
    assert fast.stats.hits == slow.stats.hits
    assert fast.stats.evictions == slow.stats.evictions
    assert fast.resident_lines() == slow.resident_lines()


@settings(max_examples=60, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, accesses=ACCESSES)
@pytest.mark.parametrize("policy", ["lru", "fifo"])
def test_one_way_equals_direct_mapped(policy, size, line_size, accesses):
    """SetAssociativeCache(ways=1) is a direct-mapped cache — under
    either replacement policy, since a one-line set has no replacement
    order to maintain."""
    direct = DirectMappedCache(size, line_size)
    assoc = SetAssociativeCache(size, line_size, ways=1, policy=policy)
    for addr, span in accesses:
        assert direct.access(addr, span) == assoc.access(addr, span)
    assert direct.stats.misses == assoc.stats.misses
    assert direct.stats.hits == assoc.stats.hits
    assert direct.stats.evictions == assoc.stats.evictions
    assert direct.resident_lines() == assoc.resident_lines()


#: Spans sized in *lines* relative to the cache so the vectorized
#: access_span boundary (count == num_lines, where the fast path hands
#: off to the scalar loop) is actually crossed: with 8–64 lines per
#: cache, relative spans of num_lines - 2 .. num_lines + 2 lines all
#: occur, on warm as well as cold tag state.
BOUNDARY_OPS = st.lists(
    st.tuples(st.integers(0, 4096), st.integers(-2, 2)),
    min_size=1,
    max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, ops=BOUNDARY_OPS)
def test_span_boundary_full_stats_parity(size, line_size, ops):
    """Full CacheStats parity across the count == num_lines boundary.

    The vectorized access_span path is only taken while the span covers
    at most num_lines lines; the first span past that falls back to the
    scalar loop mid-sequence.  Hits, misses, *and* evictions — not just
    the returned miss counts — must agree with the pure scalar path at
    exactly that hand-off, on whatever warm state earlier spans left."""
    fast = DirectMappedCache(size, line_size)
    slow = DirectMappedCache(size, line_size)
    num_lines = fast.num_lines
    for addr, delta in ops:
        # delta is lines relative to the boundary; size straddles it.
        span = (num_lines + delta) * line_size - addr % line_size
        if span <= 0:
            continue
        assert fast.access_span(addr, span) == super(
            DirectMappedCache, slow
        ).access_span(addr, span)
        assert fast.stats.snapshot() == slow.stats.snapshot()
    assert fast.stats.hits == slow.stats.hits
    assert fast.stats.misses == slow.stats.misses
    assert fast.stats.evictions == slow.stats.evictions
    assert fast.resident_lines() == slow.resident_lines()


@settings(max_examples=60, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, ways=WAYS, accesses=ACCESSES)
def test_fifo_counters_sane(size, line_size, ways, accesses):
    """Counter sanity holds for the FIFO replacement policy too."""
    cache = SetAssociativeCache(size, line_size, ways=ways, policy="fifo")
    for addr, span in accesses:
        cache.access(addr, span)
    stats = cache.stats
    assert stats.misses <= stats.accesses
    assert stats.hits + stats.misses == stats.accesses
    assert stats.evictions <= stats.misses
    assert len(cache.resident_lines()) <= cache.num_lines


@settings(max_examples=60, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, ways=WAYS, accesses=ACCESSES)
def test_fifo_never_beats_itself_on_occupancy(size, line_size, ways, accesses):
    """LRU and FIFO see identical miss sets on cold sequential fills;
    they may diverge only once eviction order matters.  Either way the
    two policies' *accesses* agree exactly (the access stream is policy
    independent) and both respect capacity."""
    lru = SetAssociativeCache(size, line_size, ways=ways, policy="lru")
    fifo = SetAssociativeCache(size, line_size, ways=ways, policy="fifo")
    for addr, span in accesses:
        lru.access(addr, span)
        fifo.access(addr, span)
    assert lru.stats.accesses == fifo.stats.accesses
    assert len(lru.resident_lines()) <= lru.num_lines
    assert len(fifo.resident_lines()) <= fifo.num_lines


@settings(max_examples=40, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, ways=WAYS, accesses=ACCESSES)
@pytest.mark.parametrize("policy", ["lru", "fifo"])
def test_flush_behavior_matches_direct_mapped(
    policy, size, line_size, ways, accesses
):
    """After flush(), both cache classes agree: no resident lines,
    statistics preserved, and the refill of a previously-resident span
    misses without counting evictions (the slots are empty, not
    occupied) — the documented DirectMappedCache contract."""
    direct = DirectMappedCache(size, line_size)
    assoc = SetAssociativeCache(size, line_size, ways=ways, policy=policy)
    for addr, span in accesses:
        direct.access(addr, span)
        assoc.access(addr, span)
    for cache in (direct, assoc):
        stats_before = cache.stats.snapshot()
        cache.flush()
        assert cache.resident_lines() == set()
        assert cache.stats.snapshot() == stats_before
        evictions_before = cache.stats.evictions
        cache.access_line(0)
        assert cache.stats.evictions == evictions_before
        assert cache.contains_line(0)


# ----------------------------------------------------------------------
# Chunked (vectorized) kernels: repro.cache.chunked

#: Line streams with heavy set reuse (small line-number range) so the
#: chunked kernels see repeats, conflicts, and evictions.
LINE_STREAMS = st.lists(st.integers(0, 96), min_size=0, max_size=120)

#: The satellite chunk sizes: degenerate (1), odd (7), typical (64),
#: and the whole stream at once (None).
CHUNK_SIZES = st.sampled_from([1, 7, 64, None])


@settings(max_examples=60, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, lines=LINE_STREAMS, chunk=CHUNK_SIZES)
def test_stream_path_matches_scalar_path(size, line_size, lines, chunk):
    """access_stream ≡ an access_line loop: same per-position miss
    mask, same counters, same resident lines — for every chunk size."""
    stream = np.asarray(lines, dtype=np.int64)
    fast = DirectMappedCache(size, line_size)
    slow = DirectMappedCache(size, line_size)
    mask = fast.access_stream(stream, chunk_size=chunk)
    expected = [slow.access_line(int(line)) for line in lines]
    assert mask.tolist() == expected
    assert fast.stats.misses == slow.stats.misses
    assert fast.stats.hits == slow.stats.hits
    assert fast.stats.evictions == slow.stats.evictions
    assert fast.resident_lines() == slow.resident_lines()


@settings(max_examples=60, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, lines=LINE_STREAMS)
def test_stream_invariant_under_chunk_size(size, line_size, lines):
    """Chunking is purely an implementation knob: every chunk size
    (1, 7, 64, whole-stream) produces identical masks and state."""
    stream = np.asarray(lines, dtype=np.int64)
    reference = DirectMappedCache(size, line_size)
    ref_mask = reference.access_stream(stream, chunk_size=None)
    for chunk in (1, 7, 64):
        cache = DirectMappedCache(size, line_size)
        mask = cache.access_stream(stream, chunk_size=chunk)
        assert np.array_equal(mask, ref_mask)
        assert cache.stats.misses == reference.stats.misses
        assert cache.stats.hits == reference.stats.hits
        assert cache.stats.evictions == reference.stats.evictions
        assert cache.resident_lines() == reference.resident_lines()


@settings(max_examples=60, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, lines=LINE_STREAMS, chunk=CHUNK_SIZES)
def test_chunked_counters_sane(size, line_size, lines, chunk):
    """misses ≤ accesses (and hits + misses == accesses) on the
    chunked path, matching the scalar counter-sanity property."""
    cache = DirectMappedCache(size, line_size)
    cache.access_stream(np.asarray(lines, dtype=np.int64), chunk_size=chunk)
    stats = cache.stats
    assert stats.accesses == len(lines)
    assert stats.misses <= stats.accesses
    assert stats.hits + stats.misses == stats.accesses
    assert stats.evictions <= stats.misses


@settings(max_examples=40, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, lines=LINE_STREAMS, chunk=CHUNK_SIZES)
def test_chunked_l2_bounded_by_l1_misses(size, line_size, lines, chunk):
    """Feeding the chunked path's missed lines to a next-level cache
    keeps the hierarchy invariant: L2 accesses ≤ L1 misses."""
    l1 = DirectMappedCache(size, line_size)
    l2 = DirectMappedCache(4 * size, line_size)
    stream = np.asarray(lines, dtype=np.int64)
    mask = l1.access_stream(stream, chunk_size=chunk)
    missed = stream[mask]
    l2.access_stream(missed, chunk_size=chunk)
    assert l2.stats.accesses == int(mask.sum())
    assert l2.stats.accesses <= l1.stats.misses


@settings(max_examples=60, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, lines=LINE_STREAMS)
def test_segmented_plan_matches_call_parallel_path(size, line_size, lines):
    """A segmented plan over random segment boundaries reproduces the
    scalar per-call access_line_array_report path, provided no segment
    repeats a set (the plan's declared soundness condition)."""
    cache_sets = size // line_size
    stream = np.asarray(lines, dtype=np.int64)
    # Split the stream at arbitrary fixed boundaries, then drop
    # in-segment set repeats so the plan is supported.
    pieces = [stream[start : start + 5] for start in range(0, stream.size, 5)]
    segments = []
    for piece in pieces:
        sets = piece % cache_sets
        _, first_index = np.unique(sets, return_index=True)
        segments.append(piece[np.sort(first_index)])
    flat = (
        np.concatenate(segments) if segments else np.empty(0, dtype=np.int64)
    )
    offsets = np.cumsum([0] + [seg.size for seg in segments])
    planned = DirectMappedCache(size, line_size)
    scalar = DirectMappedCache(size, line_size)
    plan = SegmentedAccessPlan(flat, offsets, cache_sets)
    per_segment = plan.apply(planned._tags, planned.stats)
    for index, segment in enumerate(segments):
        missed = scalar.access_line_array_report(segment)
        assert int(per_segment[index]) == int(missed.size)
    assert planned.stats.misses == scalar.stats.misses
    assert planned.stats.hits == scalar.stats.hits
    assert planned.stats.evictions == scalar.stats.evictions
    assert planned.resident_lines() == scalar.resident_lines()


def test_segmented_plan_rejects_in_segment_set_repeat():
    """Two same-set positions in one segment defeat the static
    template; the plan must refuse rather than silently diverge."""
    with pytest.raises(UnsupportedPlanError):
        SegmentedAccessPlan(
            np.asarray([3, 3 + 8], dtype=np.int64),
            np.asarray([0, 2], dtype=np.int64),
            8,
        )
    # The same two lines in separate segments are fine.
    plan = SegmentedAccessPlan(
        np.asarray([3, 3 + 8], dtype=np.int64),
        np.asarray([0, 1, 2], dtype=np.int64),
        8,
    )
    assert plan.size == 2


def test_access_stream_validates_inputs():
    cache = DirectMappedCache(256, 32)
    with pytest.raises(ConfigurationError):
        cache.access_stream(np.asarray([-1], dtype=np.int64))
    with pytest.raises(ConfigurationError):
        cache.access_stream(np.asarray([1], dtype=np.int64), chunk_size=0)


def test_access_stream_empty_and_singleton():
    """The zero-length and length-1 degenerate streams (the PR 4
    truthiness bug class) behave exactly like the scalar loop."""
    cache = DirectMappedCache(256, 32)
    empty = cache.access_stream(np.empty(0, dtype=np.int64))
    assert empty.shape == (0,) and empty.dtype == bool
    assert cache.stats.accesses == 0
    single = cache.access_stream(np.asarray([5], dtype=np.int64))
    assert single.tolist() == [True]
    assert cache.access_stream(np.asarray([5], dtype=np.int64)).tolist() == [
        False
    ]
    assert unit_plan(np.empty(0, dtype=np.int64), 8).size == 0


@settings(max_examples=40, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, accesses=ACCESSES)
def test_span_report_returns_exactly_the_missed_lines(size, line_size, accesses):
    cache = DirectMappedCache(size, line_size)
    for addr, span in accesses:
        if span == 0:
            continue
        missed = cache.access_span_report(addr, span)
        first = addr // line_size
        last = (addr + span - 1) // line_size
        assert np.all(missed >= first) and np.all(missed <= last)
        # After the access every touched line must be resident.
        for line in range(first, last + 1):
            present = cache.contains_line(line)
            # A line can only be absent if a later line of the same
            # access evicted it (span longer than the cache).
            if last - first + 1 <= cache.num_lines:
                assert present

"""Property tests: range-arithmetic planning == the old block-by-block path.

PR 3 replaced the transfer engine's eager ``list(iter_blocks(...))`` +
per-block writer with :class:`ModeEPlan` range arithmetic and bulk sink
writes.  These tests pin the equivalence: for any file size, block size,
restart set and cut point, the new path must leave the sink in the
byte-identical state the old loop did — same received ranges (restart
markers), same promoted bytes, same synthetic-source bookkeeping.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gridftp.mode_e import ModeEPlan
from repro.gridftp.transfer import TransferEngine
from repro.storage.data import LiteralData, PartialData, SyntheticData
from repro.storage.dsi import WriteSink
from repro.util.ranges import ByteRangeSet
from tests.gridftp.mode_e_reference import iter_blocks


class _NullBackend:
    """A sink backend that just remembers what was committed."""

    def __init__(self):
        self.committed = None
        self.partial = None

    def commit_file(self, path, uid, data):
        self.committed = data

    def commit_partial(self, path, uid, partial):
        self.partial = partial


def _sink(expected_size: int) -> WriteSink:
    return WriteSink(
        backend=_NullBackend(),
        path="/prop/file.bin",
        uid=0,
        expected_size=expected_size,
        partial=PartialData(expected_size=expected_size),
    )


def _old_write(sink, data, block_size, needed, limit):
    """The pre-PR ``_write_blocks`` loop, verbatim semantics: whole
    blocks in plan order, stop at the first block that doesn't fit."""
    spent = 0
    for block in iter_blocks(data, block_size, needed):
        if limit is not None and spent + block.size > limit:
            return
        if block.synthetic is not None:
            sink.write_synthetic_range(block.offset, block.size, block.synthetic)
        else:
            sink.write_range(block.offset, block.payload or b"")
        spent += block.size


def _new_write(sink, data, block_size, needed, limit):
    plan = ModeEPlan.plan(data.size, block_size, needed)
    TransferEngine._write_ranges(sink, data, plan, limit=limit)


@st.composite
def _scenario(draw):
    total = draw(st.integers(0, 8_000))
    block_size = draw(st.integers(1, 900))
    # optional restart set: ranges must start inside the file
    needed = None
    if total > 0 and draw(st.booleans()):
        needed = ByteRangeSet()
        for _ in range(draw(st.integers(1, 4))):
            start = draw(st.integers(0, total - 1))
            end = draw(st.integers(start + 1, total + 200))  # may overhang EOF
            needed.add(start, end)
    # optional byte budget, biased to land mid-block sometimes
    limit = None
    if draw(st.booleans()):
        limit = draw(st.integers(0, total + block_size))
    return total, block_size, needed, limit


@given(scenario=_scenario(), payload_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=120)
def test_literal_delivery_is_byte_identical(scenario, payload_seed):
    total, block_size, needed, limit = scenario
    import random

    data = LiteralData(random.Random(payload_seed).randbytes(total))
    old_sink, new_sink = _sink(total), _sink(total)
    _old_write(old_sink, data, block_size, needed, limit)
    _new_write(new_sink, data, block_size, needed, limit)
    assert new_sink.received.ranges == old_sink.received.ranges
    # the actual stored bytes agree fragment-for-fragment
    for start, end in old_sink.received.ranges:
        assert (
            new_sink._partial.read(start, end - start)
            == old_sink._partial.read(start, end - start)
        )


@given(scenario=_scenario())
@settings(max_examples=120)
def test_synthetic_delivery_is_state_identical(scenario):
    total, block_size, needed, limit = scenario
    data = SyntheticData(seed=1234, length=total)
    old_sink, new_sink = _sink(total), _sink(total)
    _old_write(old_sink, data, block_size, needed, limit)
    _new_write(new_sink, data, block_size, needed, limit)
    assert new_sink.received.ranges == old_sink.received.ranges
    old_src = old_sink._partial.synthetic_source
    new_src = new_sink._partial.synthetic_source
    assert (old_src is None) == (new_src is None)
    if old_src is not None:
        assert new_src.seed == old_src.seed


@given(scenario=_scenario())
@settings(max_examples=120)
def test_delivered_prefix_matches_block_budget_loop(scenario):
    """Pure planning math: delivered_prefix == simulate the old budget loop."""
    total, block_size, needed, limit = scenario
    plan = ModeEPlan.plan(total, block_size, needed)
    reference = ByteRangeSet()
    spent = 0
    stop = False
    for start, end in plan.ranges:
        cursor = start
        while cursor < end:
            size = min(block_size, end - cursor)
            if limit is not None and spent + size > limit:
                stop = True
                break
            reference.add(cursor, cursor + size)
            spent += size
            cursor += size
        if stop:
            break
    assert plan.delivered_prefix(limit).ranges == reference.ranges


def test_zero_byte_file_still_records_synthetic_source():
    """The old path's bare EOF block carried the synthetic descriptor;
    the bulk path must preserve that or promotion loses its identity."""
    data = SyntheticData(seed=9, length=0)
    old_sink, new_sink = _sink(0), _sink(0)
    _old_write(old_sink, data, 256, None, None)
    _new_write(new_sink, data, 256, None, None)
    assert old_sink._partial.synthetic_source is not None
    assert new_sink._partial.synthetic_source is not None
    assert old_sink.close(complete=True).fingerprint() == new_sink.close(
        complete=True
    ).fingerprint()


def test_mid_block_cut_delivers_strict_whole_block_prefix():
    # 10 blocks of 100 bytes; budget 350 -> exactly 3 whole blocks
    plan = ModeEPlan.plan(1000, 100)
    assert plan.delivered_prefix(350).ranges == [(0, 300)]
    # exact fit counts the block
    assert plan.delivered_prefix(400).ranges == [(0, 400)]
    # budget 0 delivers nothing
    assert plan.delivered_prefix(0).ranges == []

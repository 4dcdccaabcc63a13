"""Property tests: mode E framing reassembles exactly, for any plan."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gridftp.mode_e import plan_blocks
from repro.storage.data import LiteralData
from repro.util.ranges import ByteRangeSet
from tests.gridftp.mode_e_reference import Block, iter_blocks, round_robin


@given(
    data=st.binary(min_size=0, max_size=5000),
    block_size=st.integers(1, 700),
)
def test_blocks_cover_file_exactly_once(data, block_size):
    content = LiteralData(data)
    blocks = list(iter_blocks(content, block_size))
    covered = ByteRangeSet()
    for b in blocks:
        if b.size:
            assert not covered.contains_point(b.offset)  # no double coverage
            covered.add(b.offset, b.offset + b.size)
    assert covered.covers(len(data))
    assert covered.total_bytes() == len(data)


@given(
    data=st.binary(min_size=1, max_size=5000),
    block_size=st.integers(1, 700),
    streams=st.integers(1, 9),
)
@settings(max_examples=60)
def test_parallel_reassembly_is_identity(data, block_size, streams):
    """Round-robin over any stream count, arrive in any per-lane order:
    the receiver reconstructs the original bytes."""
    content = LiteralData(data)
    blocks = list(iter_blocks(content, block_size))
    lanes = round_robin(blocks, streams)
    buf = bytearray(len(data))
    # interleave lanes the way concurrent streams would
    cursors = [0] * len(lanes)
    remaining = sum(len(l) for l in lanes)
    lane_idx = 0
    while remaining:
        lane = lanes[lane_idx % len(lanes)]
        if cursors[lane_idx % len(lanes)] < len(lane):
            b = lane[cursors[lane_idx % len(lanes)]]
            cursors[lane_idx % len(lanes)] += 1
            buf[b.offset : b.offset + b.size] = b.payload
            remaining -= 1
        lane_idx += 1
    assert bytes(buf) == data


@given(
    total=st.integers(0, 10_000),
    block_size=st.integers(1, 999),
)
def test_plan_blocks_partition(total, block_size):
    plan = plan_blocks(total, block_size)
    assert sum(size for _, size in plan) == total
    cursor = 0
    for offset, size in plan:
        assert offset == cursor
        assert 0 < size <= block_size
        cursor += size


@given(
    offset=st.integers(0, 2**60),
    size=st.integers(0, 2**60),
    eof=st.booleans(),
    eod=st.booleans(),
)
def test_header_round_trip(offset, size, eof, eod):
    b = Block(offset=offset, size=size, synthetic=None, payload=None, eof=eof, eod=eod)
    flags, parsed_size, parsed_offset = Block.parse_header(b.header_bytes())
    assert parsed_size == size
    assert parsed_offset == offset
    assert bool(flags & 0x40) == eof
    assert bool(flags & 0x08) == eod

"""Extended block mode framing."""

import pytest

from repro.errors import ProtocolError
from repro.gridftp.mode_e import plan_blocks
from repro.storage.data import LiteralData, SyntheticData
from repro.util.ranges import ByteRangeSet
from tests.gridftp.mode_e_reference import Block, iter_blocks, round_robin


def test_block_header_round_trip():
    b = Block(offset=123456, size=789, payload=b"x" * 789, eof=True, eod=True)
    header = b.header_bytes()
    assert len(header) == 17
    flags, size, offset = Block.parse_header(header)
    assert size == 789
    assert offset == 123456
    assert flags == b.flags


def test_header_wrong_length_rejected():
    with pytest.raises(ProtocolError):
        Block.parse_header(b"short")


def test_block_payload_size_must_match():
    with pytest.raises(ProtocolError):
        Block(offset=0, size=5, payload=b"abc")


def test_negative_geometry_rejected():
    with pytest.raises(ProtocolError):
        Block(offset=-1, size=0, payload=b"")


def test_plan_whole_file():
    plan = plan_blocks(total_size=1000, block_size=300)
    assert plan == [(0, 300), (300, 300), (600, 300), (900, 100)]


def test_plan_restricted_ranges():
    needed = ByteRangeSet([(100, 250), (800, 1000)])
    plan = plan_blocks(1000, block_size=100, needed=needed)
    assert plan == [(100, 100), (200, 50), (800, 100), (900, 100)]


def test_plan_zero_block_size_rejected():
    with pytest.raises(ProtocolError):
        plan_blocks(100, block_size=0)


def test_iter_blocks_literal_reassembles():
    data = LiteralData(bytes(range(256)) * 10)
    blocks = list(iter_blocks(data, block_size=100))
    buf = bytearray(data.size)
    for b in blocks:
        buf[b.offset : b.offset + b.size] = b.payload
    assert bytes(buf) == data.read_all()
    assert blocks[-1].eof and blocks[-1].eod
    assert not any(b.eof for b in blocks[:-1])


def test_iter_blocks_synthetic_descriptors():
    data = SyntheticData(seed=1, length=1000)
    blocks = list(iter_blocks(data, block_size=256))
    assert all(b.payload is None for b in blocks)
    assert all(b.synthetic is data for b in blocks)
    assert sum(b.size for b in blocks) == 1000


def test_iter_blocks_zero_byte_file():
    blocks = list(iter_blocks(LiteralData(b"")))
    assert len(blocks) == 1
    assert blocks[0].size == 0
    assert blocks[0].eof


def test_round_robin_distribution():
    data = LiteralData(b"a" * 1000)
    blocks = list(iter_blocks(data, block_size=100))
    lanes = round_robin(blocks, 3)
    assert len(lanes) == 3
    assert sum(len(l) for l in lanes) == len(blocks)
    # every block present exactly once
    seen = sorted(b.offset for lane in lanes for b in lane)
    assert seen == [b.offset for b in blocks]


def test_round_robin_invalid_streams():
    with pytest.raises(ProtocolError):
        round_robin([], 0)

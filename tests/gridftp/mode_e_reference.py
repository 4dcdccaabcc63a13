"""Mode E block framing: the reference model of the mode E tests.

Every block carries an explicit (offset, count) header and EOD/EOF
flags, so blocks may arrive out of order over any number of streams.
The transfer engine never builds blocks (it plans with range arithmetic
in :class:`repro.gridftp.mode_e.ModeEPlan`); the tests frame files into
blocks here, one at a time, and check the plans against them.

Block payloads are either literal bytes or a synthetic-content
descriptor (see :mod:`repro.storage.data`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import ProtocolError
from repro.gridftp.mode_e import DEFAULT_BLOCK_SIZE, plan_blocks
from repro.storage.data import FileData, SyntheticData
from repro.util.ranges import ByteRangeSet

# header flag bits (following the GridFTP v2 block header)
FLAG_EOF = 0x40
FLAG_EOD = 0x08


@dataclass(frozen=True)
class Block:
    """One mode E block."""

    offset: int
    size: int
    payload: bytes | None = None  # None => synthetic content
    synthetic: SyntheticData | None = None
    eod: bool = False
    eof: bool = False

    def __post_init__(self) -> None:
        if self.size < 0 or self.offset < 0:
            raise ProtocolError("negative block geometry", code=501)
        if self.payload is not None and len(self.payload) != self.size:
            raise ProtocolError(
                f"block size {self.size} != payload length {len(self.payload)}",
                code=501,
            )

    @property
    def flags(self) -> int:
        """The mode E header flag bits."""
        return (FLAG_EOF if self.eof else 0) | (FLAG_EOD if self.eod else 0)

    def header_bytes(self) -> bytes:
        """The 17-byte mode E header: flags, count, offset."""
        return bytes([self.flags]) + self.size.to_bytes(8, "big") + self.offset.to_bytes(
            8, "big"
        )

    @staticmethod
    def parse_header(header: bytes) -> tuple[int, int, int]:
        """(flags, size, offset) from a 17-byte header."""
        if len(header) != 17:
            raise ProtocolError(f"mode E header must be 17 bytes, got {len(header)}", code=501)
        flags = header[0]
        size = int.from_bytes(header[1:9], "big")
        offset = int.from_bytes(header[9:17], "big")
        return flags, size, offset


def iter_blocks(
    data: FileData,
    block_size: int = DEFAULT_BLOCK_SIZE,
    needed: ByteRangeSet | None = None,
) -> Iterator[Block]:
    """Yield mode E blocks covering ``needed`` (default: the whole file).

    The final yielded block carries EOF+EOD.  Synthetic content yields
    descriptor blocks; literal content carries real bytes.
    """
    plan = plan_blocks(data.size, block_size, needed)
    synthetic = data if isinstance(data, SyntheticData) else None
    for i, (offset, size) in enumerate(plan):
        last = i == len(plan) - 1
        if synthetic is not None:
            yield Block(offset=offset, size=size, synthetic=synthetic, eod=last, eof=last)
        else:
            yield Block(
                offset=offset,
                size=size,
                payload=data.read(offset, size),
                eod=last,
                eof=last,
            )
    if not plan:  # zero-byte file: a bare EOF block
        if synthetic is not None:
            yield Block(offset=0, size=0, synthetic=synthetic, eod=True, eof=True)
        else:
            yield Block(offset=0, size=0, payload=b"", eod=True, eof=True)


def round_robin(blocks: list[Block], streams: int) -> list[list[Block]]:
    """Distribute blocks across ``streams`` data channels, round-robin.

    This is how a sender interleaves a file over parallel streams; the
    property tests reassemble every distribution back to the original
    bytes.
    """
    if streams < 1:
        raise ProtocolError("stream count must be >= 1", code=501)
    lanes: list[list[Block]] = [[] for _ in range(streams)]
    for i, block in enumerate(blocks):
        lanes[i % streams].append(block)
    return lanes

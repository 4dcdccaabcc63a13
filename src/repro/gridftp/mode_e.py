"""Extended block mode (MODE E) framing.

Mode E is what makes GridFTP's data channel restartable and parallel:
every block carries an explicit (offset, count) header, so blocks may
arrive out of order over any number of streams, and the set of received
blocks *is* the restart state.  Header flags mark EOD (end of this data
channel) and EOF.

Block payloads are either literal bytes (small files — full end-to-end
integrity in tests) or a synthetic-content descriptor (huge files — see
:mod:`repro.storage.data`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import ProtocolError
from repro.storage.data import FileData, SyntheticData
from repro.util.ranges import ByteRangeSet

#: default mode E block size (the Globus default is 256 KiB)
DEFAULT_BLOCK_SIZE = 256 * 1024

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


def _clamped_ranges(
    total_size: int, needed: ByteRangeSet | None
) -> tuple[tuple[int, int], ...]:
    """The transfer's byte spans, clipped to EOF.

    A ``needed`` range that *starts* at or beyond EOF is a protocol
    error: it would silently plan nothing and then emit a spurious
    bare-EOF block, so we reject it up front (code 501).  Ranges that
    merely *extend* past EOF are clipped, as before.
    """
    if needed is None:
        return ((0, total_size),) if total_size > 0 else ()
    out: list[tuple[int, int]] = []
    for start, end in needed.ranges:
        if start >= total_size:
            raise ProtocolError(
                f"restart range [{start}, {end}) starts beyond EOF "
                f"(file is {total_size} bytes)",
                code=501,
            )
        out.append((start, min(end, total_size)))
    return tuple(out)


@dataclass(frozen=True)
class ModeEPlan:
    """A block schedule held as range arithmetic, not as ``Block`` objects.

    A 10 GiB transfer at the default block size is ~40k blocks; planning
    it as (offset, size) spans keeps per-transfer cost O(#ranges).
    ``delivered_prefix`` reproduces — byte-exactly — what the old
    block-by-block writer delivered under a byte budget: whole blocks in
    plan order, stopping at the first block that does not fit.
    """

    total_size: int
    block_size: int
    ranges: tuple[tuple[int, int], ...]

    @classmethod
    def plan(
        cls,
        total_size: int,
        block_size: int = DEFAULT_BLOCK_SIZE,
        needed: ByteRangeSet | None = None,
    ) -> "ModeEPlan":
        """Build the schedule (``needed`` restricts to restart ranges)."""
        if block_size <= 0:
            raise ProtocolError("block size must be positive", code=501)
        return cls(
            total_size=total_size,
            block_size=block_size,
            ranges=_clamped_ranges(total_size, needed),
        )

    @property
    def total_bytes(self) -> int:
        """Payload bytes the plan covers (sum of span lengths).

        Memoized: plans are immutable and the fleet path reuses one plan
        object across thousands of transfers (frozen dataclass, so the
        cache slot is written via ``object.__setattr__``).
        """
        cached = self.__dict__.get("_total_bytes")
        if cached is None:
            cached = sum(end - start for start, end in self.ranges)
            object.__setattr__(self, "_total_bytes", cached)
        return cached

    def delivered_prefix(self, limit: int | None) -> ByteRangeSet:
        """Ranges safely delivered once ``limit`` payload bytes are spent.

        Mode E acknowledges whole blocks only: a cut mid-block delivers
        nothing for that block.  ``None`` means no budget (everything).
        Each range is delivered whole while the budget lasts; the first
        range that does not fit delivers only the whole blocks the rest
        of the budget covers, and the walk stops there.
        """
        out = ByteRangeSet()
        if limit is None:
            for start, end in self.ranges:
                out.add(start, end)
            return out
        bs = self.block_size
        spent = 0
        for start, end in self.ranges:
            length = end - start
            full, tail = divmod(length, bs)
            take_full = min(full, (limit - spent) // bs)
            took = take_full * bs
            if take_full == full and tail and spent + took + tail <= limit:
                took += tail
            if took:
                out.add(start, start + took)
                spent += took
            if took < length:
                break
        return out


def plan_blocks(total_size: int, block_size: int = DEFAULT_BLOCK_SIZE,
                needed: ByteRangeSet | None = None) -> list[tuple[int, int]]:
    """The (offset, size) schedule for a transfer.

    ``needed`` restricts the plan to specific ranges (a restart); blocks
    are aligned to ``block_size`` boundaries within each range.  Ranges
    starting beyond EOF are rejected (see :func:`_clamped_ranges`).
    """
    if block_size <= 0:
        raise ProtocolError("block size must be positive", code=501)
    plan: list[tuple[int, int]] = []
    for start, end in _clamped_ranges(total_size, needed):
        cursor = start
        while cursor < end:
            size = min(block_size, end - cursor)
            plan.append((cursor, size))
            cursor += size
    return plan


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

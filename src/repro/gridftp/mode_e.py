"""Extended block mode (MODE E) block schedules.

Mode E is what makes GridFTP's data channel restartable and parallel:
every block carries an explicit (offset, count) header, so blocks may
arrive out of order over any number of streams, and the set of received
blocks *is* the restart state.  The transfer engine plans a transfer's
blocks as range arithmetic (:class:`ModeEPlan`) and never frames them;
the block framing itself lives in the tests, as the reference model the
plans are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProtocolError
from repro.util.ranges import ByteRangeSet

#: default mode E block size (the Globus default is 256 KiB)
DEFAULT_BLOCK_SIZE = 256 * 1024

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
    """A block schedule held as range arithmetic, not as one object per block.

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

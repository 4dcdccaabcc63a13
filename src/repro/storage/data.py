"""File content representations.

Small files carry literal bytes end-to-end through the transfer stack,
so integrity tests are real.  The paper's workloads also include
terabyte files, which obviously cannot be materialized; those use
:class:`SyntheticData` — content *defined* by (seed, size), whose bytes
are generated deterministically on demand for any requested window, and
whose fingerprint both sides can compute without reading everything.
A partially-received file is a :class:`PartialData` until its coverage
is complete.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import StorageError
from repro.util.ranges import ByteRangeSet


@lru_cache(maxsize=1024)
def _sha256_hex(content: bytes) -> str:
    """Memoized digest: fleets move the same payload thousands of times,
    and bytes objects cache their own hash, so repeat lookups are cheap."""
    return hashlib.sha256(content).hexdigest()


def checksum(source: "bytes | FileData") -> str:
    """The canonical content digest, memoized where content is literal.

    Accepts raw bytes or any :class:`FileData`.  Every integrity check in
    the system — transfer verification, archival bundle manifests, the
    site-move verifier's far-end re-checksum — routes through here, so
    identical payloads hash once per process regardless of which layer
    asks.  For non-literal content the digest is the data's own
    :meth:`~FileData.fingerprint` (synthetic content is *defined* by its
    seed, so both ends agree without materializing bytes).
    """
    if isinstance(source, (bytes, bytearray, memoryview)):
        return "sha256:" + _sha256_hex(bytes(source))
    return source.fingerprint()

_CHUNK = 32  # one sha256 digest's worth of synthetic bytes per counter block
#: refuse to materialize more than this many synthetic bytes in one read
_MAX_SYNTH_READ = 64 * 1024 * 1024


class FileData(ABC):
    """Immutable file content."""

    __slots__ = ()

    @property
    @abstractmethod
    def size(self) -> int:
        """Content length in bytes."""

    @abstractmethod
    def read(self, offset: int, length: int) -> bytes:
        """The bytes of [offset, offset+length) (clipped at EOF)."""

    @abstractmethod
    def fingerprint(self) -> str:
        """A digest both ends of a transfer can compute independently."""

    def read_all(self) -> bytes:
        """Entire content (only sensible for literal-sized data)."""
        return self.read(0, self.size)


@dataclass(frozen=True, slots=True)
class LiteralData(FileData):
    """Real bytes held in memory."""

    content: bytes

    @property
    def size(self) -> int:
        """Content length in bytes."""
        return len(self.content)

    def read(self, offset: int, length: int) -> bytes:
        """Bytes of [offset, offset+length), clipped at EOF."""
        if offset < 0 or length < 0:
            raise StorageError(f"invalid read window [{offset}, +{length})")
        return self.content[offset : offset + length]

    def fingerprint(self) -> str:
        """Digest both transfer ends compute independently.

        Memoized: content is immutable and verification hashes the same
        payload several times per transfer (source, sink, audit).
        """
        return "sha256:" + _sha256_hex(self.content)


@dataclass(frozen=True, slots=True)
class SyntheticData(FileData):
    """Deterministic pseudo-random content defined by (seed, size).

    ``read`` produces genuine bytes for any window (bounded, to protect
    the host from accidental terabyte materialization); the fingerprint
    is derived from the definition so a receiver holding the same
    (seed, size) agrees without generating anything.
    """

    seed: int
    length: int

    @property
    def size(self) -> int:
        """Content length in bytes."""
        return self.length

    def read(self, offset: int, length: int) -> bytes:
        """Bytes of [offset, offset+length), clipped at EOF."""
        if offset < 0 or length < 0:
            raise StorageError(f"invalid read window [{offset}, +{length})")
        end = min(offset + length, self.length)
        if end <= offset:
            return b""
        if end - offset > _MAX_SYNTH_READ:
            raise StorageError(
                f"refusing to materialize {end - offset} synthetic bytes in one read"
            )
        first_block = offset // _CHUNK
        last_block = (end - 1) // _CHUNK
        out = bytearray()
        for block in range(first_block, last_block + 1):
            out += hashlib.sha256(f"{self.seed}:{block}".encode()).digest()[:_CHUNK]
        start_in = offset - first_block * _CHUNK
        return bytes(out[start_in : start_in + (end - offset)])

    def fingerprint(self) -> str:
        """Digest both transfer ends compute independently."""
        return f"synthetic:{self.seed}:{self.length}"


@dataclass
class PartialData(FileData):
    """A file being assembled: the ranges received so far plus the source.

    ``source`` describes where complete content *would* come from so a
    completed assembly can be promoted: for literal transfers we keep the
    actual fragments; for synthetic transfers we keep the definition.
    """

    expected_size: int
    received: ByteRangeSet = field(default_factory=ByteRangeSet)
    #: (offset, bytes) in arrival order; later fragments overwrite earlier
    #: ones where they overlap, so a short rewrite never loses longer data
    fragments: list[tuple[int, bytes]] = field(default_factory=list)
    synthetic_source: SyntheticData | None = None

    @property
    def size(self) -> int:
        """Content length in bytes."""
        return self.expected_size

    def write_fragment(self, offset: int, data: bytes) -> None:
        """Record literally-received bytes at ``offset``."""
        if data:
            self.fragments.append((offset, data))
            self.received.add(offset, offset + len(data))

    def mark_received(self, start: int, end: int) -> None:
        """Record synthetically-transferred range (no literal bytes kept)."""
        self.received.add(start, end)

    def is_complete(self) -> bool:
        """True when received ranges cover the expected size."""
        return self.received.covers(self.expected_size)

    def promote(self) -> FileData:
        """Finish assembly into real content; raises if incomplete."""
        if not self.is_complete():
            missing = self.received.complement(self.expected_size)
            raise StorageError(
                f"cannot promote partial file: {missing.total_bytes()} bytes missing"
            )
        source = self.synthetic_source
        if source is not None:
            # synthetic content is its (seed, length): a file of the
            # source's length shares the source's frozen definition
            if source.length == self.expected_size:
                return source
            return SyntheticData(source.seed, self.expected_size)
        if (
            len(self.fragments) == 1
            and self.fragments[0][0] == 0
            and len(self.fragments[0][1]) == self.expected_size
        ):
            # one fragment covering everything (the bulk write_range
            # path): promote without assembling a copy
            return LiteralData(self.fragments[0][1])
        buf = bytearray(self.expected_size)
        for offset, data in self.fragments:
            buf[offset : offset + len(data)] = data
        return LiteralData(bytes(buf))

    def read(self, offset: int, length: int) -> bytes:
        """Read from received ranges only; raises on gaps."""
        if not self.received.contains(offset, min(offset + length, self.expected_size)):
            raise StorageError("read window includes bytes not yet received")
        if self.synthetic_source is not None:
            return self.synthetic_source.read(offset, length)
        return self.promote_window(offset, length)

    def promote_window(self, offset: int, length: int) -> bytes:
        """Assemble the received bytes of one window."""
        end = min(offset + length, self.expected_size)
        buf = bytearray(end - offset)
        for frag_off, data in self.fragments:
            lo = max(frag_off, offset)
            hi = min(frag_off + len(data), end)
            if lo < hi:
                buf[lo - offset : hi - offset] = data[lo - frag_off : hi - frag_off]
        return bytes(buf)

    def fingerprint(self) -> str:
        """Digest both transfer ends compute independently."""
        return f"partial:{self.received.total_bytes()}/{self.expected_size}"

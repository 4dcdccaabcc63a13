"""The Data Storage Interface (DSI).

The abstraction the Globus GridFTP server uses to talk to "any storage
system" (paper Section II.A, ref [5]).  A server PI holds a DSI and runs
every operation as the setuid'd local user; backends enforce their own
access semantics against that uid.

Writes go through a :class:`WriteSink` so that extended-block-mode data
arriving out of order over parallel streams lands correctly and partial
files survive interruptions for later restart.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.errors import StorageError
from repro.storage.data import FileData, PartialData, SyntheticData
from repro.util.ranges import ByteRangeSet


@dataclass(slots=True)
class FileStat:
    """Metadata for one path.

    Logically immutable; slotted, not frozen, because every SIZE and
    every size hint builds one (DESIGN §17, *Hot value objects*).
    """

    path: str
    size: int
    is_dir: bool
    owner_uid: int
    mode: int
    mtime: float


class WriteSink:
    """Destination for one file's (possibly out-of-order) incoming blocks.

    The sink wraps a :class:`PartialData`; ``close(complete=True)``
    promotes it into final content via the backend.  A sink created with
    ``resume_from`` continues a previous partial upload — the mechanics
    behind restart markers.
    """

    def __init__(
        self,
        backend: "DataStorageInterface",
        path: str,
        uid: int,
        expected_size: int,
        partial: PartialData,
    ) -> None:
        self._backend = backend
        self._path = path
        self._uid = uid
        self._partial = partial
        self._closed = False
        if expected_size != partial.expected_size:
            raise StorageError(
                f"resume size mismatch: sink expects {expected_size}, "
                f"partial holds {partial.expected_size}"
            )

    @property
    def path(self) -> str:
        """The destination path of this sink."""
        return self._path

    @property
    def received(self) -> ByteRangeSet:
        """Ranges safely written so far — the restart marker content."""
        return self._partial.received.copy()

    def write_range(self, offset: int, data: bytes) -> None:
        """Store literal bytes at ``offset``: one block, or a contiguous
        run of blocks as one fragment.

        Either way :attr:`received` coalesces abutting ranges and the
        promoted bytes are the same.
        """
        self._check_open()
        self._partial.write_fragment(offset, data)

    def write_synthetic_range(self, offset: int, length: int, source: SyntheticData) -> None:
        """Record a contiguous synthetic range without materializing it."""
        self._check_open()
        if self._partial.synthetic_source is None:
            self._partial.synthetic_source = source
        elif self._partial.synthetic_source.seed != source.seed:
            raise StorageError("mixed synthetic sources in one upload")
        self._partial.mark_received(offset, offset + length)

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"write sink for {self._path!r} is closed")

    def close(self, complete: bool) -> FileData | None:
        """Finish the upload.

        ``complete=True`` promotes and commits final content (raises if
        coverage has gaps) and returns it; ``complete=False`` persists the
        partial state for a later resume and returns None.
        """
        self._check_open()
        self._closed = True
        if complete:
            data = self._partial.promote()
            self._backend.commit_file(self._path, self._uid, data)
            return data
        self._backend.commit_partial(self._path, self._uid, self._partial)
        return None


class DataStorageInterface(ABC):
    """The operations a GridFTP server needs from a storage system."""

    name: str = "dsi"

    # -- reads -------------------------------------------------------------

    @abstractmethod
    def open_read(self, path: str, uid: int) -> FileData:
        """Content of ``path``, readable by ``uid``."""

    @abstractmethod
    def stat(self, path: str, uid: int) -> FileStat:
        """Metadata for ``path``."""

    @abstractmethod
    def listdir(self, path: str, uid: int) -> list[str]:
        """Names within directory ``path``."""

    # -- writes -----------------------------------------------------------------

    @abstractmethod
    def open_write(
        self, path: str, uid: int, expected_size: int, resume: bool = False
    ) -> WriteSink:
        """Begin (or resume) an upload to ``path``."""

    @abstractmethod
    def commit_file(self, path: str, uid: int, data: FileData) -> None:
        """Store final content at ``path`` (called by the sink)."""

    @abstractmethod
    def commit_partial(self, path: str, uid: int, partial: PartialData) -> None:
        """Persist an interrupted upload for later resume."""

    @abstractmethod
    def partial_for(self, path: str, uid: int) -> PartialData | None:
        """The persisted partial upload at ``path``, if any."""

    # -- namespace ------------------------------------------------------------

    @abstractmethod
    def mkdir(self, path: str, uid: int) -> None:
        """Create a directory."""

    @abstractmethod
    def delete(self, path: str, uid: int) -> None:
        """Remove a file."""

    @abstractmethod
    def rename(self, old: str, new: str, uid: int) -> None:
        """Move a file."""

    @abstractmethod
    def exists(self, path: str) -> bool:
        """Does the path exist (permission-free probe used by tests)?"""

    # -- integrity ---------------------------------------------------------------

    def checksum(self, path: str, uid: int, algorithm: str = "sha256") -> str:
        """Checksum of a file's content (CKSM command backend).

        Literal content is hashed for real; synthetic content returns its
        definition fingerprint (both transfer ends agree on it).
        """
        data = self.open_read(path, uid)
        if isinstance(data, SyntheticData):
            return data.fingerprint()
        from repro.util.checksums import checksum as _checksum

        return _checksum(algorithm, data.read_all())

"""In-memory POSIX-style filesystem backend.

Implements the DSI over a directory tree with per-node ownership and
permission bits.  Permission semantics are simplified Unix: the owner
needs the owner bits, everyone else the "other" bits (no groups); uid 0
bypasses checks.  Paths are absolute, ``/``-separated.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from repro.errors import (
    FileExistsStorageError,
    FileNotFoundStorageError,
    IsADirectoryStorageError,
    NotADirectoryStorageError,
    PermissionDeniedError,
    StorageError,
)
from repro.sim.clock import Clock
from repro.storage.data import FileData, PartialData
from repro.storage.dsi import DataStorageInterface, FileStat, WriteSink

_R, _W, _X = 4, 2, 1


def split_path(path: str) -> list[str]:
    """Normalize an absolute path into components."""
    if not path.startswith("/"):
        raise StorageError(f"path must be absolute: {path!r}")
    return [p for p in path.split("/") if p]


def _plain_cut(path: str) -> int:
    """Where ``path`` splits into directory and name, if it is plain.

    A plain path is ``/a/.../name``: below a directory other than the
    root, no trailing or doubled slash.  Any other path gives 0: it takes
    the full walk and is never cached.
    """
    cut = path.rfind("/")
    if cut < len(path) - 1 and "//" not in path:
        return max(cut, 0)
    return 0


#: the children of every file: one shared, read-only, empty mapping
_NO_CHILDREN: Mapping[str, "_Node"] = MappingProxyType({})


@dataclass(slots=True)
class _Node:
    """A file or a directory; only a directory owns a ``children`` dict."""

    name: str
    owner_uid: int
    mode: int
    mtime: float
    #: a directory's own dict, or ``_NO_CHILDREN`` for a file
    children: Mapping[str, "_Node"]
    data: FileData | None = None
    partial: PartialData | None = None

    @property
    def is_dir(self) -> bool:
        """True for a directory: a node that owns its children."""
        return self.children is not _NO_CHILDREN

    def permits(self, uid: int, want: int) -> bool:
        """Unix-style permission check for ``uid``."""
        if uid == 0:
            return True
        bits = (self.mode >> 6) & 7 if uid == self.owner_uid else self.mode & 7
        return (bits & want) == want


class PosixStorage(DataStorageInterface):
    """The in-memory POSIX DSI backend."""

    name = "posix"

    #: the directory cache resets past this many entries
    _CACHE_CAP = 131072

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.root = _Node(
            name="/", owner_uid=0, mode=0o755, mtime=clock.now, children={}
        )
        # namespace version: bumped by any mutation that can change how a
        # path resolves or whether a walk is permitted (mkdir/delete/
        # rename/chmod/chown).  Adding *file content* under an existing
        # directory does not bump it: files are looked up live in their
        # directory's children, never cached.
        self._ns_version = 0
        # Directory cache: (directory path, uid, check_exec) -> (ns
        # version, directory).  One entry per directory a uid walks
        # through, however many files it holds: a file resolves with one
        # children lookup in its cached directory, under the checks the
        # last step of a full walk makes.  Only successful walks are
        # cached, and only under plain paths (see _plain_cut).
        self._dir_cache: dict[tuple[str, int, bool], tuple[int, _Node]] = {}

    def _bump_ns(self) -> None:
        self._ns_version += 1

    # -- traversal -------------------------------------------------------------

    def _cached_dir(self, path: str, uid: int, check_exec: bool) -> _Node | None:
        """The directory a walk to ``path`` reached, if cached and current."""
        hit = self._dir_cache.get((path, uid, check_exec))
        if hit is not None and hit[0] == self._ns_version:
            return hit[1]
        return None

    def _cache_dir(self, path: str, uid: int, check_exec: bool, node: _Node) -> None:
        if len(self._dir_cache) > self._CACHE_CAP:
            self._dir_cache.clear()
        self._dir_cache[(path, uid, check_exec)] = (self._ns_version, node)

    def _walk(self, path: str, uid: int, check_exec: bool = True) -> _Node:
        cut = _plain_cut(path)
        if cut:
            parent = self._cached_dir(path[:cut], uid, check_exec)
            if (
                parent is not None
                and parent.is_dir
                and (not check_exec or parent.permits(uid, _X))
            ):
                child = parent.children.get(path[cut + 1:])
                if child is not None:
                    return child
        # A miss, or a step that would fail: the full walk, which raises
        # the error that belongs to the whole path.
        parent = node = self.root
        for part in split_path(path):
            if not node.is_dir:
                raise NotADirectoryStorageError(f"{node.name!r} is not a directory")
            if check_exec and not node.permits(uid, _X):
                raise PermissionDeniedError(f"cannot traverse into {node.name!r} as uid {uid}")
            child = node.children.get(part)
            if child is None:
                raise FileNotFoundStorageError(f"no such path: {path!r}")
            parent, node = node, child
        if cut:
            self._cache_dir(path[:cut], uid, check_exec, parent)
        return node

    def _walk_parent(self, path: str, uid: int) -> tuple[_Node, str]:
        cut = _plain_cut(path)
        if cut:
            parent = self._cached_dir(path[:cut], uid, True)
            if parent is not None:
                return parent, path[cut + 1:]
        parts = split_path(path)
        if not parts:
            raise StorageError("cannot operate on the root directory")
        parent_path = "/" + "/".join(parts[:-1])
        parent = self._walk(parent_path, uid)
        if not parent.is_dir:
            raise NotADirectoryStorageError(f"{parent_path!r} is not a directory")
        if len(parts) > 1:
            self._cache_dir(parent_path, uid, True, parent)
        return parent, parts[-1]

    # -- DSI reads ----------------------------------------------------------------

    def open_read(self, path: str, uid: int) -> FileData:
        """DSI operation (see :class:`DataStorageInterface`)."""
        node = self._walk(path, uid)
        if node.is_dir:
            raise IsADirectoryStorageError(f"{path!r} is a directory")
        if not node.permits(uid, _R):
            raise PermissionDeniedError(f"uid {uid} cannot read {path!r}")
        if node.data is None:
            raise FileNotFoundStorageError(f"{path!r} has no committed content")
        return node.data

    def stat(self, path: str, uid: int) -> FileStat:
        """DSI operation (see :class:`DataStorageInterface`)."""
        node = self._walk(path, uid)
        size = node.data.size if node.data is not None else 0
        return FileStat(
            path=path,
            size=size,
            is_dir=node.is_dir,
            owner_uid=node.owner_uid,
            mode=node.mode,
            mtime=node.mtime,
        )

    def listdir(self, path: str, uid: int) -> list[str]:
        """DSI operation (see :class:`DataStorageInterface`)."""
        node = self._walk(path, uid)
        if not node.is_dir:
            raise NotADirectoryStorageError(f"{path!r} is not a directory")
        if not node.permits(uid, _R):
            raise PermissionDeniedError(f"uid {uid} cannot list {path!r}")
        return sorted(node.children)

    def exists(self, path: str) -> bool:
        """True if the name is present."""
        try:
            self._walk(path, 0, check_exec=False)
            return True
        except FileNotFoundStorageError:
            return False

    # -- DSI writes -----------------------------------------------------------------

    def open_write(
        self, path: str, uid: int, expected_size: int, resume: bool = False
    ) -> WriteSink:
        """DSI operation (see :class:`DataStorageInterface`)."""
        parent, name = self._walk_parent(path, uid)
        existing = parent.children.get(name)
        if existing is not None:
            if existing.is_dir:
                raise IsADirectoryStorageError(f"{path!r} is a directory")
            if not existing.permits(uid, _W):
                raise PermissionDeniedError(f"uid {uid} cannot overwrite {path!r}")
        elif not parent.permits(uid, _W):
            raise PermissionDeniedError(f"uid {uid} cannot create files in {path!r}")
        partial: PartialData | None = None
        if resume and existing is not None and existing.partial is not None:
            partial = existing.partial
        if partial is None:
            partial = PartialData(expected_size=expected_size)
        return WriteSink(self, path, uid, expected_size, partial)

    def commit_file(self, path: str, uid: int, data: FileData) -> None:
        """DSI operation (see :class:`DataStorageInterface`)."""
        parent, name = self._walk_parent(path, uid)
        node = parent.children.get(name)
        if node is None:
            node = _Node(
                name=name, owner_uid=uid, mode=0o644, mtime=self.clock.now,
                children=_NO_CHILDREN,
            )
            parent.children[name] = node
        node.data = data
        node.partial = None
        node.mtime = self.clock.now

    def commit_partial(self, path: str, uid: int, partial: PartialData) -> None:
        """DSI operation (see :class:`DataStorageInterface`)."""
        parent, name = self._walk_parent(path, uid)
        node = parent.children.get(name)
        if node is None:
            node = _Node(
                name=name, owner_uid=uid, mode=0o644, mtime=self.clock.now,
                children=_NO_CHILDREN,
            )
            parent.children[name] = node
        node.partial = partial
        node.mtime = self.clock.now

    def partial_for(self, path: str, uid: int) -> PartialData | None:
        """DSI operation (see :class:`DataStorageInterface`)."""
        try:
            node = self._walk(path, uid)
        except FileNotFoundStorageError:
            return None
        return node.partial

    # -- namespace ---------------------------------------------------------------------

    def mkdir(self, path: str, uid: int) -> None:
        """Create a directory (MKD)."""
        parent, name = self._walk_parent(path, uid)
        if not parent.permits(uid, _W):
            raise PermissionDeniedError(f"uid {uid} cannot create directories in {path!r}")
        if name in parent.children:
            raise FileExistsStorageError(f"{path!r} already exists")
        parent.children[name] = _Node(
            name=name, owner_uid=uid, mode=0o755, mtime=self.clock.now, children={}
        )
        self._bump_ns()

    def makedirs(self, path: str, uid: int) -> None:
        """Create every missing component of ``path`` (mkdir -p).

        One walk as root, the walk :meth:`exists` makes, finds the first
        missing component; it and each below it are made by :meth:`mkdir`
        as ``uid``.  A path that already resolves changes nothing.
        """
        parts = split_path(path)
        node = self.root
        for i, part in enumerate(parts):
            if not node.is_dir:
                raise NotADirectoryStorageError(f"{node.name!r} is not a directory")
            child = node.children.get(part)
            if child is None:
                for j in range(i + 1, len(parts) + 1):
                    self.mkdir("/" + "/".join(parts[:j]), uid)
                return
            node = child

    def delete(self, path: str, uid: int) -> None:
        """Remove a file (DELE)."""
        parent, name = self._walk_parent(path, uid)
        node = parent.children.get(name)
        if node is None:
            raise FileNotFoundStorageError(f"no such path: {path!r}")
        if node.children:
            raise StorageError(f"directory not empty: {path!r}")
        if not parent.permits(uid, _W):
            raise PermissionDeniedError(f"uid {uid} cannot delete from {path!r}")
        del parent.children[name]
        self._bump_ns()

    def rename(self, old: str, new: str, uid: int) -> None:
        """Move a file (RNFR/RNTO)."""
        old_parent, old_name = self._walk_parent(old, uid)
        node = old_parent.children.get(old_name)
        if node is None:
            raise FileNotFoundStorageError(f"no such path: {old!r}")
        if not old_parent.permits(uid, _W):
            raise PermissionDeniedError(f"uid {uid} cannot move {old!r}")
        new_parent, new_name = self._walk_parent(new, uid)
        # A directory moved under itself would hang below its own
        # descendant, unreachable from the root (POSIX: EINVAL).  Paths
        # name nodes one to one here, so "under" is a component prefix.
        old_parts, new_parts = split_path(old), split_path(new)
        if len(new_parts) > len(old_parts) and new_parts[: len(old_parts)] == old_parts:
            raise StorageError(f"cannot move {old!r} into its own subtree {new!r}")
        if not new_parent.permits(uid, _W):
            raise PermissionDeniedError(f"uid {uid} cannot create {new!r}")
        if new_name in new_parent.children:
            raise FileExistsStorageError(f"{new!r} already exists")
        del old_parent.children[old_name]
        node.name = new_name
        node.mtime = self.clock.now
        new_parent.children[new_name] = node
        self._bump_ns()

    # -- convenience for tests/examples -------------------------------------------

    def write_file(self, path: str, data: FileData | bytes, uid: int = 0) -> None:
        """Create parent dirs as root and commit content in one call."""
        parts = split_path(path)
        if len(parts) > 1:
            self.makedirs("/" + "/".join(parts[:-1]), 0)
        if isinstance(data, bytes):
            from repro.storage.data import LiteralData

            data = LiteralData(data)
        self.commit_file(path, uid, data)

    def chmod(self, path: str, mode: int, uid: int = 0) -> None:
        """DSI operation (see :class:`DataStorageInterface`)."""
        node = self._walk(path, uid)
        if uid not in (0, node.owner_uid):
            raise PermissionDeniedError(f"uid {uid} cannot chmod {path!r}")
        node.mode = mode
        self._bump_ns()

    def chown(self, path: str, owner_uid: int) -> None:
        """Root-only ownership change (no uid argument: callers are setup code)."""
        node = self._walk(path, 0, check_exec=False)
        node.owner_uid = owner_uid
        self._bump_ns()

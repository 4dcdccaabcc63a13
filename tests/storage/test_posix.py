"""The in-memory POSIX backend."""

import pytest

from repro.errors import (
    FileExistsStorageError,
    FileNotFoundStorageError,
    IsADirectoryStorageError,
    NotADirectoryStorageError,
    PermissionDeniedError,
    StorageError,
)
from repro.sim.clock import Clock
from repro.storage.data import LiteralData
from repro.storage.posix import PosixStorage, split_path

ALICE, BOB = 1000, 1001


@pytest.fixture
def fs():
    clock = Clock()
    fs = PosixStorage(clock)
    fs.makedirs("/home/alice", 0)
    fs.chown("/home/alice", ALICE)
    return fs


def test_write_and_read(fs):
    fs.write_file("/home/alice/a.txt", b"content", uid=ALICE)
    assert fs.open_read("/home/alice/a.txt", ALICE).read_all() == b"content"


def test_relative_path_rejected(fs):
    with pytest.raises(StorageError):
        fs.stat("relative/path", 0)


def test_missing_file(fs):
    with pytest.raises(FileNotFoundStorageError):
        fs.open_read("/home/alice/nope", ALICE)
    assert not fs.exists("/home/alice/nope")


def test_read_directory_rejected(fs):
    with pytest.raises(IsADirectoryStorageError):
        fs.open_read("/home/alice", ALICE)


def test_listdir(fs):
    fs.write_file("/home/alice/b.txt", b"b", uid=ALICE)
    fs.write_file("/home/alice/a.txt", b"a", uid=ALICE)
    assert fs.listdir("/home/alice", ALICE) == ["a.txt", "b.txt"]
    with pytest.raises(NotADirectoryStorageError):
        fs.listdir("/home/alice/a.txt", ALICE)


def test_other_uid_cannot_write_into_home(fs):
    with pytest.raises(PermissionDeniedError):
        fs.open_write("/home/alice/intruder", BOB, 10)


def test_owner_read_only_file(fs):
    fs.write_file("/home/alice/secret", b"s", uid=ALICE)
    fs.chmod("/home/alice/secret", 0o600, uid=ALICE)
    assert fs.open_read("/home/alice/secret", ALICE).read_all() == b"s"
    with pytest.raises(PermissionDeniedError):
        fs.open_read("/home/alice/secret", BOB)


def test_root_bypasses_permissions(fs):
    fs.write_file("/home/alice/secret", b"s", uid=ALICE)
    fs.chmod("/home/alice/secret", 0o600, uid=ALICE)
    assert fs.open_read("/home/alice/secret", 0).read_all() == b"s"


def test_chmod_requires_owner_or_root(fs):
    fs.write_file("/home/alice/f", b"x", uid=ALICE)
    with pytest.raises(PermissionDeniedError):
        fs.chmod("/home/alice/f", 0o777, uid=BOB)


def test_mkdir_and_exists(fs):
    fs.mkdir("/home/alice/sub", ALICE)
    assert fs.exists("/home/alice/sub")
    with pytest.raises(FileExistsStorageError):
        fs.mkdir("/home/alice/sub", ALICE)


def test_stat(fs):
    fs.write_file("/home/alice/f", b"12345", uid=ALICE)
    st = fs.stat("/home/alice/f", ALICE)
    assert st.size == 5
    assert not st.is_dir
    assert st.owner_uid == ALICE
    assert fs.stat("/home/alice", ALICE).is_dir


def test_delete(fs):
    fs.write_file("/home/alice/f", b"x", uid=ALICE)
    fs.delete("/home/alice/f", ALICE)
    assert not fs.exists("/home/alice/f")
    with pytest.raises(FileNotFoundStorageError):
        fs.delete("/home/alice/f", ALICE)


def test_delete_nonempty_dir_rejected(fs):
    fs.mkdir("/home/alice/d", ALICE)
    fs.write_file("/home/alice/d/f", b"x", uid=ALICE)
    with pytest.raises(StorageError, match="not empty"):
        fs.delete("/home/alice/d", ALICE)


def test_rename(fs):
    fs.write_file("/home/alice/old", b"x", uid=ALICE)
    fs.rename("/home/alice/old", "/home/alice/new", ALICE)
    assert not fs.exists("/home/alice/old")
    assert fs.open_read("/home/alice/new", ALICE).read_all() == b"x"


def test_rename_over_existing_rejected(fs):
    fs.write_file("/home/alice/a", b"a", uid=ALICE)
    fs.write_file("/home/alice/b", b"b", uid=ALICE)
    with pytest.raises(FileExistsStorageError):
        fs.rename("/home/alice/a", "/home/alice/b", ALICE)


def test_write_sink_lifecycle(fs):
    sink = fs.open_write("/home/alice/up.bin", ALICE, expected_size=6)
    sink.write_range(3, b"def")
    sink.write_range(0, b"abc")
    out = sink.close(complete=True)
    assert out.read_all() == b"abcdef"
    assert fs.open_read("/home/alice/up.bin", ALICE).read_all() == b"abcdef"


def test_write_sink_partial_and_resume(fs):
    sink = fs.open_write("/home/alice/up.bin", ALICE, expected_size=6)
    sink.write_range(0, b"abc")
    sink.close(complete=False)
    # no committed content yet
    with pytest.raises(FileNotFoundStorageError):
        fs.open_read("/home/alice/up.bin", ALICE)
    assert fs.partial_for("/home/alice/up.bin", ALICE) is not None
    # resume and finish
    sink2 = fs.open_write("/home/alice/up.bin", ALICE, expected_size=6, resume=True)
    assert sink2.received.ranges == [(0, 3)]
    sink2.write_range(3, b"def")
    sink2.close(complete=True)
    assert fs.open_read("/home/alice/up.bin", ALICE).read_all() == b"abcdef"
    assert fs.partial_for("/home/alice/up.bin", ALICE) is None


def test_sink_closed_rejects_writes(fs):
    sink = fs.open_write("/home/alice/f", ALICE, 3)
    sink.write_range(0, b"abc")
    sink.close(complete=True)
    with pytest.raises(StorageError):
        sink.write_range(0, b"xyz")


def test_checksum(fs):
    fs.write_file("/home/alice/f", b"data", uid=ALICE)
    import hashlib

    assert fs.checksum("/home/alice/f", ALICE) == hashlib.sha256(b"data").hexdigest()


def test_overwrite_replaces_content(fs):
    fs.write_file("/home/alice/f", b"old", uid=ALICE)
    fs.commit_file("/home/alice/f", ALICE, LiteralData(b"new"))
    assert fs.open_read("/home/alice/f", ALICE).read_all() == b"new"


@pytest.mark.parametrize("new", ["/a/c", "/a/b/c", "/a/b"])
def test_rename_into_own_subtree_rejected(fs, new):
    fs.write_file("/a/b/f", b"x")
    before = [(p, fs.listdir(p, 0)) for p in ("/", "/a", "/a/b")]
    with pytest.raises(StorageError, match="into its own subtree"):
        fs.rename("/a", new, 0)
    assert [(p, fs.listdir(p, 0)) for p in ("/", "/a", "/a/b")] == before
    assert fs.open_read("/a/b/f", 0).read_all() == b"x"


def test_rename_next_to_itself_still_allowed(fs):
    fs.write_file("/a/b/f", b"x")
    fs.rename("/a", "/ab", 0)
    assert fs.open_read("/ab/b/f", 0).read_all() == b"x"
    fs.rename("/ab/b", "/b", 0)
    assert fs.listdir("/", 0) == ["ab", "b", "home"]


# -- makedirs and write_file: mkdir -p, measured against the prefix walk -------


class _PrefixMakedirs(PosixStorage):
    """``makedirs`` as first written: test every prefix from the root."""

    def makedirs(self, path: str, uid: int) -> None:
        parts = split_path(path)
        for i in range(1, len(parts) + 1):
            prefix = "/" + "/".join(parts[:i])
            if not self.exists(prefix):
                self.mkdir(prefix, uid)


def _state(fs):
    """Every node's attributes by path, and the namespace version."""
    rows, stack = {}, [("/", fs.root)]
    while stack:
        path, node = stack.pop()
        rows[path] = (node.owner_uid, node.mode, node.mtime, node.is_dir, id(node.data))
        stack.extend((path.rstrip("/") + "/" + name, child)
                     for name, child in node.children.items())
    return rows, fs._ns_version


_DATA = LiteralData(b"payload")


def _built(cls=PosixStorage):
    """``/home/alice``, owned by alice, holding a file ``f``; then t=5."""
    fs = cls(Clock())
    fs.makedirs("/home/alice", 0)
    fs.chown("/home/alice", ALICE)
    fs.write_file("/home/alice/f", _DATA, uid=ALICE)
    fs.clock.advance(5.0)
    return fs


def _outcome(fs, verb, path, uid):
    """What one call returns or raises, and the tree it leaves."""
    try:
        if verb == "makedirs":
            result = ("ok", fs.makedirs(path, uid))
        else:
            result = ("ok", fs.write_file(path, _DATA, uid))
    except StorageError as exc:
        result = ("raise", type(exc).__name__, str(exc))
    return result, _state(fs)


_CALLS = [
    *[("makedirs", path, uid)
      for path in ("/", "/home", "/home/alice", "/home/alice/f", "/home/alice/f/g",
                   "/home/alice/new/deeper", "/home/bob/x", "/home//alice/", "relative")
      for uid in (0, ALICE)],
    *[("write_file", path, uid)
      for path in ("/home/alice/g", "/home/alice/f", "/home/alice/f/g",
                   "/srv/a/b/g", "/home//alice/g")
      for uid in (0, ALICE)],
]


@pytest.mark.parametrize("verb, path, uid", _CALLS)
def test_makedirs_and_write_file_match_the_prefix_walk(verb, path, uid):
    got = _outcome(_built(), verb, path, uid)
    assert got == _outcome(_built(_PrefixMakedirs), verb, path, uid)


@pytest.mark.parametrize("verb, path", [("makedirs", "/home/alice"),
                                        ("write_file", "/home/alice/g")])
def test_an_existing_parent_is_left_alone(verb, path):
    fs = _built()
    rows, version = _state(fs)
    assert _outcome(fs, verb, path, ALICE)[0] == ("ok", None)
    after, after_version = _state(fs)
    assert after_version == version
    assert {p: row for p, row in after.items() if row[3]} == {
        p: row for p, row in rows.items() if row[3]
    }


def test_write_file_creates_missing_parents_as_root():
    fs = _built()
    fs.write_file("/srv/a/b/g", _DATA, uid=ALICE)
    rows, _ = _state(fs)
    assert [rows[p][:2] for p in ("/srv", "/srv/a", "/srv/a/b")] == [(0, 0o755)] * 3
    assert rows["/srv/a/b/g"][:2] == (ALICE, 0o644)


def test_a_file_in_a_parents_place_is_not_a_directory(fs):
    fs.write_file("/home/alice/f", b"x", uid=ALICE)
    with pytest.raises(NotADirectoryStorageError):
        fs.write_file("/home/alice/f/g", b"y")
    with pytest.raises(NotADirectoryStorageError):
        fs.makedirs("/home/alice/f/g/h", 0)


def test_makedirs_on_an_existing_file_returns_silently(fs):
    fs.write_file("/home/alice/f", b"x", uid=ALICE)
    before = _state(fs)
    assert fs.makedirs("/home/alice/f", ALICE) is None
    assert _state(fs) == before

"""Property: PosixStorage's directory cache resolves exactly like a full walk.

Two trees get the same steps: one :class:`PosixStorage`, and one whose
``_walk``/``_walk_parent`` are the uncached reference below, which walk
every path from the root.  Steps change the namespace (mkdir, makedirs,
write_file, commit_file, delete, rename, chmod, chown) or look a path up
(stat, open_read, open_write, listdir, exists, partial_for and the two
walks themselves), as uid 0 and as two users, through plain,
trailing-slash and doubled-slash paths.  Every step must end alike in
both trees: the same node (named by its path), value or data object, or
the same exception type with the same message.  After every step the
trees must be equal node for node, and a sweep of both walks over every
known path, as every uid, must resolve alike: the sweep fills the cache
and then reads any entry a mutation should have invalidated.

Random step sequences find interactions; every single mutation of a
known path, applied after a sweep, is also tried exhaustively.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    FileNotFoundStorageError,
    NotADirectoryStorageError,
    PermissionDeniedError,
    ReproError,
    StorageError,
)
from repro.sim.clock import Clock
from repro.storage.data import LiteralData
from repro.storage.dsi import FileStat, WriteSink
from repro.storage.posix import PosixStorage, _Node, split_path

ALICE, BOB = 1000, 1001
_UIDS = (0, ALICE, BOB)
_X = 1


class _Uncached(PosixStorage):
    """The reference resolver: every lookup walks from the root."""

    def _walk(self, path: str, uid: int, check_exec: bool = True) -> _Node:
        node = self.root
        for part in split_path(path):
            if not node.is_dir:
                raise NotADirectoryStorageError(f"{node.name!r} is not a directory")
            if check_exec and not node.permits(uid, _X):
                raise PermissionDeniedError(f"cannot traverse into {node.name!r} as uid {uid}")
            child = node.children.get(part)
            if child is None:
                raise FileNotFoundStorageError(f"no such path: {path!r}")
            node = child
        return node

    def _walk_parent(self, path: str, uid: int) -> tuple[_Node, str]:
        parts = split_path(path)
        if not parts:
            raise StorageError("cannot operate on the root directory")
        parent_path = "/" + "/".join(parts[:-1])
        parent = self._walk(parent_path, uid)
        if not parent.is_dir:
            raise NotADirectoryStorageError(f"{parent_path!r} is not a directory")
        return parent, parts[-1]


def _seeded(cls) -> PosixStorage:
    """/a (alice, 0711) holding /a/b (alice), the empty /a/e (alice) and
    two files; /c (bob, 0700) holding /c/d (bob) and one file."""
    fs = cls(Clock())
    for path, owner, mode in (("/a", ALICE, 0o711), ("/a/b", ALICE, 0o755),
                              ("/a/e", ALICE, 0o755), ("/c", BOB, 0o700),
                              ("/c/d", BOB, 0o755)):
        fs.makedirs(path, 0)
        fs.chown(path, owner)
        fs.chmod(path, mode)
    for path, uid in (("/a/b/f", ALICE), ("/a/f", ALICE), ("/c/d/f", BOB)):
        fs.write_file(path, _DATA[path], uid)
    return fs


_DATA = {path: LiteralData(path.encode()) for path in ("/a/b/f", "/a/f", "/c/d/f")}


#: the seeded paths, free names beside them, and /a/b/a, where renaming
#: /a would move it into its own subtree
_KNOWN = ("/a", "/a/b", "/a/b/f", "/a/e", "/a/e/f", "/a/f", "/a/g", "/a/b/a", "/c",
          "/c/d", "/c/d/f", "/g")


def _shaped(path: str, shape: str, cut: int) -> str:
    """``path`` as given, with a trailing slash, or with one slash doubled."""
    if shape == "trailing" and path != "/":
        return path + "/"
    if shape == "doubled":
        slashes = [i for i, ch in enumerate(path) if ch == "/"]
        i = slashes[cut % len(slashes)]
        return path[:i] + "/" + path[i:]
    return path


@st.composite
def _paths(draw) -> str:
    if draw(st.booleans()):
        path = draw(st.sampled_from(_KNOWN))
    else:
        parts = draw(st.lists(st.sampled_from(("a", "b", "c", "d", "f")), max_size=3))
        path = "/" + "/".join(parts)
    shape = draw(st.sampled_from(("plain", "plain", "plain", "trailing", "doubled")))
    return _shaped(path, shape, draw(st.integers(0, 3)))


_uids = st.sampled_from(_UIDS)
_LOOKUPS = ("stat", "open_read", "open_write", "listdir", "exists", "partial_for",
            "walk", "walk_noexec", "walk_parent")
_steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(_LOOKUPS), _paths(), _uids),
        st.tuples(st.sampled_from(("mkdir", "makedirs")), _paths(), _uids),
        st.tuples(st.sampled_from(("write_file", "commit_file")), _paths(), _uids),
        st.tuples(st.just("delete"), _paths(), _uids),
        st.tuples(st.just("rename"), _paths(), _uids, _paths()),
        st.tuples(st.just("chmod"), _paths(), _uids,
                  st.sampled_from((0o000, 0o600, 0o700, 0o711, 0o755))),
        st.tuples(st.just("chown"), _paths(), _uids),
    ),
    min_size=1,
    max_size=20,
)


def _apply(fs: PosixStorage, step: tuple, data: LiteralData):
    verb, path, uid = step[:3]
    if verb == "stat":
        return fs.stat(path, uid)
    if verb == "open_read":
        return fs.open_read(path, uid)
    if verb == "open_write":
        return fs.open_write(path, uid, 4, resume=True)
    if verb == "listdir":
        return fs.listdir(path, uid)
    if verb == "exists":
        return fs.exists(path)
    if verb == "partial_for":
        return fs.partial_for(path, uid)
    if verb == "walk":
        return fs._walk(path, uid)
    if verb == "walk_noexec":
        return fs._walk(path, uid, check_exec=False)
    if verb == "walk_parent":
        return fs._walk_parent(path, uid)
    if verb == "mkdir":
        return fs.mkdir(path, uid)
    if verb == "makedirs":
        return fs.makedirs(path, uid)
    if verb == "write_file":
        return fs.write_file(path, data, uid)
    if verb == "commit_file":
        return fs.commit_file(path, uid, data)
    if verb == "delete":
        return fs.delete(path, uid)
    if verb == "rename":
        return fs.rename(path, step[3], uid)
    if verb == "chmod":
        return fs.chmod(path, step[3], uid)
    if verb == "chown":
        return fs.chown(path, uid)
    raise AssertionError(verb)


def _node_paths(fs: PosixStorage) -> dict[int, str]:
    """id(node) -> its path, for every node reachable from the root."""
    out = {}
    stack = [("/", fs.root)]
    while stack:
        path, node = stack.pop()
        out[id(node)] = path
        for name, child in node.children.items():
            stack.append((path.rstrip("/") + "/" + name, child))
    return out


def _normal(fs: PosixStorage, value):
    """A step's result with nodes named by path and sinks by what they carry."""
    if isinstance(value, _Node):
        return ("node", _node_paths(fs).get(id(value)))
    if isinstance(value, tuple):
        return tuple(_normal(fs, v) for v in value)
    if isinstance(value, WriteSink):
        return ("sink", value.path, tuple(value.received.ranges))
    if isinstance(value, LiteralData):
        return ("data", id(value))  # both trees hold the same data objects
    assert value is None or isinstance(value, (bool, list, str, FileStat)), value
    return value


def _outcome(fs: PosixStorage, step: tuple, data: LiteralData | None = None):
    try:
        value = _apply(fs, step, data)
    except ReproError as exc:
        return ("raise", type(exc).__name__, str(exc))
    return ("ok", _normal(fs, value))


def _tree(node: _Node, path: str = "/") -> list:
    """Every node's path and attributes, children in name order."""
    data = ("data", id(node.data)) if node.data is not None else None
    rows = [(path, node.name, node.owner_uid, node.mode, node.is_dir, data,
             node.partial is not None)]
    for name in sorted(node.children):
        rows.extend(_tree(node.children[name], path.rstrip("/") + "/" + name))
    return rows


#: the paths the cache serves (other shapes always take the full walk)
_SWEEP = [
    (verb, path, uid)
    for path in ("/", *_KNOWN)
    for uid in _UIDS
    for verb in ("walk", "walk_noexec", "walk_parent")
]


def _sweep(cached: PosixStorage, reference: PosixStorage, step) -> None:
    """Both walks over every known path as every uid resolve alike."""
    for probe in _SWEEP:
        assert _outcome(cached, probe) == _outcome(reference, probe), (step, probe)


@given(steps=_steps)
@settings(max_examples=200)
def test_cached_lookups_equal_the_full_walk(steps):
    cached, reference = _seeded(PosixStorage), _seeded(_Uncached)
    _sweep(cached, reference, None)  # every step below starts from a warm cache
    for step in steps:
        data = LiteralData(repr(step).encode())
        got = _outcome(cached, step, data)
        want = _outcome(reference, step, data)
        assert got == want, step
        assert _tree(cached.root) == _tree(reference.root), step
        _sweep(cached, reference, step)


_SINGLE_STEPS = [
    *[(verb, path, uid)
      for verb in ("mkdir", "makedirs", "write_file", "commit_file", "delete", "chown")
      for path in _KNOWN for uid in _UIDS],
    *[("chmod", path, uid, mode) for path in _KNOWN for uid in _UIDS
      for mode in (0o000, 0o700, 0o755)],
    *[("rename", old, uid, new) for old in _KNOWN for new in _KNOWN for uid in _UIDS],
]


def test_every_single_mutation_from_a_warm_cache():
    """Each namespace change on its own, applied after a full sweep."""
    for step in _SINGLE_STEPS:
        cached, reference = _seeded(PosixStorage), _seeded(_Uncached)
        _sweep(cached, reference, None)
        data = LiteralData(b"x")
        assert _outcome(cached, step, data) == _outcome(reference, step, data), step
        _sweep(cached, reference, step)

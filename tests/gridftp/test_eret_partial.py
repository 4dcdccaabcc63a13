"""ERET partial retrieval through the client API."""

import pytest

from repro.storage.data import LiteralData

CONTENT = bytes(range(256)) * 256  # 64 KiB patterned


@pytest.fixture
def loaded(simple_pair):
    world, site, laptop = simple_pair
    uid = site.accounts.get("alice").uid
    site.storage.write_file("/home/alice/big.bin", LiteralData(CONTENT), uid=uid)
    client = site.client_for(world, "alice", laptop)
    return world, site, client, client.connect(site.server)


def test_partial_window_moves_only_window(loaded):
    world, site, client, session = loaded
    res = session.get_partial("/home/alice/big.bin", 1000, 5000, "/tmp/w.bin")
    assert res.nbytes == 5000
    partial = client.local_storage.partial_for("/tmp/w.bin", 0)
    assert partial is not None
    assert partial.received.ranges == [(1000, 6000)]
    assert partial.read(1000, 5000) == CONTENT[1000:6000]


def test_windows_accumulate_to_complete_file(loaded):
    world, site, client, session = loaded
    size = len(CONTENT)
    session.get_partial("/home/alice/big.bin", 0, size // 2, "/tmp/acc.bin")
    res = session.get_partial("/home/alice/big.bin", size // 2, size, "/tmp/acc.bin")
    # second window completed coverage: the file was finalized + verified
    assert res.verified
    final = client.local_storage.open_read("/tmp/acc.bin", 0)
    assert final.read_all() == CONTENT


def test_window_clipped_at_eof(loaded):
    world, site, client, session = loaded
    size = len(CONTENT)
    res = session.get_partial("/home/alice/big.bin", size - 100, 10_000, "/tmp/tail.bin")
    assert res.nbytes == 100


@pytest.mark.traced
def test_partial_usage_recorded(loaded):
    world, site, client, session = loaded
    session.get_partial("/home/alice/big.bin", 0, 1000, "/tmp/u.bin")
    records = world.log.select("usage.record", direction="retrieve-partial")
    assert len(records) == 1
    assert records[0].fields["nbytes"] == 1000

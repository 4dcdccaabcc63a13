"""Command parsing and the registry."""

import pytest

from repro.errors import ProtocolError
from repro.gridftp.commands import (
    feature_labels,
    known_verbs,
    lookup,
    parse_command,
)


def test_parse_verb_and_arg():
    assert parse_command("RETR /data/file.dat") == ("RETR", "/data/file.dat")


def test_parse_lowercase_verb_normalized():
    assert parse_command("retr x") == ("RETR", "x")


def test_parse_no_arg():
    assert parse_command("PASV") == ("PASV", "")


def test_parse_strips_the_line_and_the_argument():
    assert parse_command("  cksm   sha256 /a b  \r\n") == ("CKSM", "sha256 /a b")


def test_parse_empty_line_rejected():
    with pytest.raises(ProtocolError):
        parse_command("   ")


def test_lookup_known_and_unknown():
    assert lookup("RETR") is not None
    assert lookup("retr") is not None
    assert lookup("FROB") is None


def test_auth_requirements():
    assert not lookup("AUTH").requires_auth
    assert not lookup("FEAT").requires_auth
    assert lookup("RETR").requires_auth
    assert lookup("DCSC").requires_auth


def test_dcsc_is_registered_feature():
    assert lookup("DCSC").feature == "DCSC"
    assert "DCSC" in feature_labels(dcsc_enabled=True)
    assert "DCSC" not in feature_labels(dcsc_enabled=False)


def test_feature_labels_sorted_and_complete():
    labels = feature_labels()
    assert labels == sorted(labels)
    for expected in ("SPAS", "SPOR", "DCAU", "PBSZ", "CKSM", "ERET", "ESTO"):
        assert expected in labels


def test_known_verbs_cover_rfc959_core():
    verbs = known_verbs()
    for v in ("USER", "PASS", "QUIT", "TYPE", "MODE", "PASV", "PORT", "RETR",
              "STOR", "REST", "ABOR"):
        assert v in verbs

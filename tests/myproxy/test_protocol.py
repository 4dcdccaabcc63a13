"""MyProxy protocol messages."""

import pytest

from repro.errors import ProtocolError
from repro.myproxy.protocol import LogonRequest, LogonResponse


def test_request_round_trip():
    req = LogonRequest(username="alice", passphrase="p@ss w0rd/()", lifetime_s=43200)
    back = LogonRequest.decode(req.encode())
    assert back == req


def test_request_hides_cleartext():
    req = LogonRequest(username="alice", passphrase="hunter2", lifetime_s=1)
    assert "hunter2" not in req.encode()


def test_request_malformed():
    with pytest.raises(ProtocolError):
        LogonRequest.decode("LOGON onlyonefield")
    with pytest.raises(ProtocolError):
        LogonRequest.decode("GET / HTTP/1.1")


def test_response_ok_round_trip():
    resp = LogonResponse(ok=True, credential_pem="-----BEGIN CERTIFICATE-----\nxx\n")
    back = LogonResponse.decode(resp.encode())
    assert back.ok
    assert back.credential_pem == resp.credential_pem


def test_response_err_round_trip():
    resp = LogonResponse(ok=False, error="authentication failure")
    back = LogonResponse.decode(resp.encode())
    assert not back.ok
    assert back.error == "authentication failure"


def test_response_malformed():
    with pytest.raises(ProtocolError):
        LogonResponse.decode("WHAT even")


@pytest.mark.parametrize("line", ["OK //4=", "ERR //4="])
def test_response_undecodable_body(line):
    """A body that is base64 but not text is a protocol error, not a UnicodeDecodeError."""
    with pytest.raises(ProtocolError):
        LogonResponse.decode(line)

"""The exception hierarchy: catchability contracts callers rely on."""

import pytest

from repro import errors as E


def test_everything_is_a_repro_error():
    roots = [
        E.NetworkError, E.SecurityError, E.PamError, E.StorageError,
        E.ProtocolError, E.TransferError,
    ]
    for cls in roots:
        assert issubclass(cls, E.ReproError)


@pytest.mark.parametrize(
    "child,parent",
    [
        (E.NoRouteError, E.NetworkError),
        (E.PortInUseError, E.NetworkError),
        (E.ConnectionRefusedError_, E.NetworkError),
        (E.LinkDownError, E.NetworkError),
        (E.CertificateError, E.SecurityError),
        (E.UntrustedIssuerError, E.CertificateError),
        (E.SigningPolicyError, E.CertificateError),
        (E.AuthenticationError, E.SecurityError),
        (E.AuthorizationError, E.SecurityError),
        (E.GridmapError, E.AuthorizationError),
        (E.DelegationError, E.SecurityError),
        (E.DCAUError, E.SecurityError),
        (E.UnknownUserError, E.PamError),
        (E.AccountLockedError, E.PamError),
        (E.FileNotFoundStorageError, E.StorageError),
        (E.PermissionDeniedError, E.StorageError),
        (E.TransferFaultError, E.TransferError),
    ],
)
def test_hierarchy(child, parent):
    assert issubclass(child, parent)


def test_protocol_error_carries_code():
    err = E.ProtocolError("nope", code=501)
    assert err.code == 501
    assert E.ProtocolError("x").code == 500


def test_transfer_fault_carries_restart_state():
    from repro.util.ranges import ByteRangeSet

    received = ByteRangeSet([(0, 100)])
    err = E.TransferFaultError("cut", received=received, at_time=42.0)
    assert err.received.total_bytes() == 100
    assert err.at_time == 42.0


def test_untrusted_issuer_names_the_issuer():
    err = E.UntrustedIssuerError("no path", issuer="/O=A/CN=CA-A")
    assert err.issuer == "/O=A/CN=CA-A"


def test_gridmap_error_names_the_subject():
    err = E.GridmapError("missing", subject="/O=A/CN=alice")
    assert err.subject == "/O=A/CN=alice"


def test_catch_security_catches_dcau_and_auth():
    for exc in (E.DCAUError("x"), E.AuthenticationError("y"),
                E.UntrustedIssuerError("z")):
        with pytest.raises(E.SecurityError):
            raise exc

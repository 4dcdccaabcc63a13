"""Certificates: TBS encoding, signatures, serialization."""

import dataclasses
import random

import pytest

from repro.errors import CertificateError
from repro.pki.certificate import (
    Certificate,
    keypair_from_pem,
    keypair_to_pem,
)
from repro.pki.dn import DistinguishedName as DN
from repro.pki.rsa import generate_keypair


@pytest.fixture(scope="module")
def issuer_key():
    return generate_keypair(256, random.Random(10))


@pytest.fixture(scope="module")
def subject_key():
    return generate_keypair(256, random.Random(11))


@pytest.fixture
def cert(issuer_key, subject_key):
    return Certificate(
        subject=DN.parse("/O=Grid/CN=alice"),
        issuer=DN.parse("/O=Grid/CN=CA"),
        serial=7,
        not_before=0.0,
        not_after=1000.0,
        public_key=subject_key.public,
        extensions={"local_username": "alice"},
    ).signed_by(issuer_key)


def test_empty_validity_window_rejected(subject_key):
    with pytest.raises(CertificateError):
        Certificate(
            subject=DN.parse("/CN=x"), issuer=DN.parse("/CN=y"), serial=1,
            not_before=10.0, not_after=10.0, public_key=subject_key.public,
        )


@pytest.mark.parametrize("not_before,not_after", [
    (0.0, float("nan")), (float("nan"), 10.0), (0.0, float("inf")), (float("-inf"), 10.0),
])
def test_non_finite_validity_bound_rejected(subject_key, not_before, not_after):
    """A window with a NaN or infinite end would outlive every lifetime cap."""
    with pytest.raises(CertificateError):
        Certificate(
            subject=DN.parse("/CN=x"), issuer=DN.parse("/CN=y"), serial=1,
            not_before=not_before, not_after=not_after, public_key=subject_key.public,
        )


def test_signature_verifies_with_issuer_key(cert, issuer_key):
    assert cert.verify_signature(issuer_key.public)


def test_signature_fails_with_other_key(cert, subject_key):
    assert not cert.verify_signature(subject_key.public)


@pytest.mark.parametrize(
    "field,value",
    [
        ("serial", 8),
        ("not_after", 2000.0),
        ("is_ca", True),
    ],
)
def test_any_tbs_change_breaks_signature(cert, issuer_key, field, value):
    tampered = dataclasses.replace(cert, **{field: value})
    assert not tampered.verify_signature(issuer_key.public)


def test_extension_change_breaks_signature(cert, issuer_key):
    tampered = dataclasses.replace(cert, extensions={"local_username": "root"})
    assert not tampered.verify_signature(issuer_key.public)


def test_validity_window(cert):
    assert not cert.valid_at(-1.0)
    assert cert.valid_at(0.0)
    assert cert.valid_at(1000.0)
    assert not cert.valid_at(1000.1)
    assert cert.lifetime() == 1000.0


def test_is_self_signed(cert, issuer_key):
    assert not cert.is_self_signed
    root = Certificate(
        subject=DN.parse("/CN=root"), issuer=DN.parse("/CN=root"), serial=1,
        not_before=0, not_after=10, public_key=issuer_key.public, is_ca=True,
    ).signed_by(issuer_key)
    assert root.is_self_signed


def test_dict_round_trip(cert):
    assert Certificate.from_dict(cert.to_dict()) == cert


def test_pem_round_trip(cert):
    pem = cert.to_pem()
    assert pem.startswith("-----BEGIN CERTIFICATE-----")
    assert Certificate.from_pem(pem) == cert


def test_malformed_dict_raises():
    with pytest.raises(CertificateError):
        Certificate.from_dict({"subject": []})


def test_fingerprint_distinguishes(cert, issuer_key):
    other = dataclasses.replace(cert, serial=cert.serial + 1).signed_by(issuer_key)
    assert cert.fingerprint() != other.fingerprint()
    assert cert.fingerprint() == cert.fingerprint()


def test_keypair_pem_round_trip(subject_key):
    pem = keypair_to_pem(subject_key)
    assert "RSA PRIVATE KEY" in pem
    assert keypair_from_pem(pem) == subject_key

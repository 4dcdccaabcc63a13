"""Certificate authorities."""

import pytest

from repro.errors import CertificateError, SigningPolicyError
from repro.pki.ca import CertificateAuthority, self_signed_credential
from repro.pki.dn import DistinguishedName as DN
from repro.pki.policy import SigningPolicy
from repro.sim.clock import Clock
from repro.sim.random import RngFactory
from repro.util.units import DAY, HOUR


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def rng():
    return RngFactory(3).python("ca-tests")


def make_ca(clock, rng, policy=None, enforce=True):
    return CertificateAuthority(
        DN.parse("/O=Test/CN=CA"), clock, rng, key_bits=256,
        policy=policy, enforce_own_policy=enforce,
    )


def test_root_is_self_signed_ca(clock, rng):
    ca = make_ca(clock, rng)
    root = ca.certificate
    assert root.is_self_signed
    assert root.is_ca
    assert root.verify_signature(ca.key.public)


def test_issue_certificate(clock, rng):
    ca = make_ca(clock, rng)
    cred = ca.issue_credential(DN.parse("/O=Test/CN=alice"), lifetime=DAY)
    cert = cred.certificate
    assert cert.issuer == ca.subject
    assert cert.verify_signature(ca.key.public)
    assert cert.not_after - cert.not_before == DAY
    assert not cert.is_ca


@pytest.mark.parametrize("lifetime", [0, -5, float("nan"), float("inf")])
def test_issue_credential_refuses_lifetime_before_drawing_a_key(clock, rng, lifetime):
    ca = make_ca(clock, rng)
    before = ca.rng.getstate()
    with pytest.raises(CertificateError, match="not finite and positive"):
        ca.issue_credential(DN.parse("/O=Test/CN=alice"), lifetime=lifetime)
    assert ca.rng.getstate() == before


def test_issuance_uses_clock(clock, rng):
    ca = make_ca(clock, rng)
    clock.advance(500.0)
    cert = ca.issue(DN.parse("/O=Test/CN=x"), ca.key.public, lifetime=HOUR)
    assert cert.not_before == 500.0
    assert cert.not_after == 500.0 + HOUR


def test_serials_unique(clock, rng):
    ca = make_ca(clock, rng)
    serials = {
        ca.issue(DN.parse(f"/O=Test/CN=u{i}"), ca.key.public).serial for i in range(20)
    }
    assert len(serials) == 20


def test_policy_enforced_on_issue(clock, rng):
    policy = SigningPolicy.namespace(DN.parse("/O=Test/CN=CA"), DN.parse("/O=Test"))
    ca = make_ca(clock, rng, policy=policy)
    ca.issue(DN.parse("/O=Test/CN=ok"), ca.key.public)
    with pytest.raises(SigningPolicyError):
        ca.issue(DN.parse("/O=Evil/CN=bad"), ca.key.public)


def test_rogue_ca_can_disable_own_policy(clock, rng):
    policy = SigningPolicy.namespace(DN.parse("/O=Test/CN=CA"), DN.parse("/O=Test"))
    rogue = make_ca(clock, rng, policy=policy, enforce=False)
    cert = rogue.issue(DN.parse("/O=Evil/CN=bad"), rogue.key.public)
    assert cert.subject == DN.parse("/O=Evil/CN=bad")


def test_issue_credential_bundles_chain(clock, rng):
    ca = make_ca(clock, rng)
    cred = ca.issue_credential(DN.parse("/O=Test/CN=alice"))
    assert len(cred.chain) == 2
    assert cred.chain[1] == ca.certificate
    assert cred.certificate.public_key == cred.key.public


def test_self_signed_credential(clock, rng):
    cred = self_signed_credential(DN.parse("/CN=random"), clock, rng, lifetime=HOUR)
    cert = cred.certificate
    assert cert.is_self_signed
    assert cert.verify_signature(cred.key.public)
    assert not cert.is_ca
    assert cert.not_after == clock.now + HOUR


def test_self_signed_credential_extensions(clock, rng):
    cred = self_signed_credential(
        DN.parse("/CN=lite"), clock, rng, extensions={"no_delegation": True}
    )
    assert cred.certificate.extensions["no_delegation"] is True

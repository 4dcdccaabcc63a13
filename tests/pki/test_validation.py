"""Chain validation — the machinery behind Figures 4 and 5."""

import dataclasses
import math

import pytest

from repro.errors import CertificateError, SigningPolicyError, UntrustedIssuerError
from repro.pki.ca import CertificateAuthority, self_signed_credential
from repro.pki.dn import DistinguishedName as DN
from repro.pki.policy import SigningPolicy
from repro.pki.proxy import create_proxy
from repro.pki.validation import TrustStore, validate_chain
from repro.sim.clock import Clock
from repro.sim.random import RngFactory
from repro.util.units import DAY


@pytest.fixture
def env():
    clock = Clock()
    rng = RngFactory(5).python("val-tests")
    ca_a = CertificateAuthority(DN.parse("/O=A/CN=CA-A"), clock, rng, key_bits=256)
    ca_b = CertificateAuthority(DN.parse("/O=B/CN=CA-B"), clock, rng, key_bits=256)
    alice = ca_a.issue_credential(DN.parse("/O=A/CN=alice"), lifetime=30 * DAY)
    trust_a = TrustStore()
    trust_a.add_anchor(ca_a.certificate)
    trust_b = TrustStore()
    trust_b.add_anchor(ca_b.certificate)
    return clock, rng, ca_a, ca_b, alice, trust_a, trust_b


def test_valid_chain_yields_identity(env):
    clock, rng, ca_a, ca_b, alice, trust_a, trust_b = env
    result = validate_chain(alice.chain, trust_a, clock.now)
    assert result.subject == alice.subject
    assert result.identity == alice.subject
    assert result.anchor.subject == ca_a.subject


def test_proxy_chain_validates_and_strips(env):
    clock, rng, ca_a, ca_b, alice, trust_a, trust_b = env
    proxy = create_proxy(alice, clock, rng)
    result = validate_chain(proxy.chain, trust_a, clock.now)
    assert result.subject == proxy.subject
    assert result.identity == alice.subject


def test_figure4_unknown_ca_rejected(env):
    """The exact Figure 4 failure: CA-A unknown at endpoint B."""
    clock, rng, ca_a, ca_b, alice, trust_a, trust_b = env
    with pytest.raises(UntrustedIssuerError):
        validate_chain(alice.chain, trust_b, clock.now)


def test_figure5_extra_anchor_fixes_it(env):
    """The DCSC fix: CA-A arrives as a policy-exempt extra anchor."""
    clock, rng, ca_a, ca_b, alice, trust_a, trust_b = env
    result = validate_chain(
        alice.chain, trust_b, clock.now, extra_anchors=[ca_a.certificate]
    )
    assert result.identity == alice.subject


def test_leaf_only_chain_completed_from_intermediates(env):
    clock, rng, ca_a, ca_b, alice, trust_a, trust_b = env
    leaf_only = alice.chain[:1]
    result = validate_chain(
        leaf_only, trust_a, clock.now, extra_intermediates=[ca_a.certificate]
    )
    assert result.identity == alice.subject


def test_expired_certificate_rejected(env):
    clock, rng, ca_a, ca_b, alice, trust_a, trust_b = env
    clock.advance(31 * DAY)
    with pytest.raises(CertificateError, match="expired"):
        validate_chain(alice.chain, trust_a, clock.now)


def test_not_yet_valid_rejected(env):
    clock, rng, ca_a, ca_b, alice, trust_a, trust_b = env
    future = ca_a.issue(
        DN.parse("/O=A/CN=later"), ca_a.key.public, not_before=clock.now + 100.0
    )
    with pytest.raises(CertificateError, match="not yet valid"):
        validate_chain([future, ca_a.certificate], trust_a, clock.now)


def test_a_nan_check_time_is_rejected(env):
    """At NaN no window holds: the chain is refused, as valid_at refuses it."""
    clock, rng, ca_a, ca_b, alice, trust_a, trust_b = env
    assert not alice.valid_at(math.nan)
    with pytest.raises(CertificateError, match="at t=nan"):
        validate_chain(alice.chain, trust_a, math.nan)


def test_empty_chain_rejected(env):
    clock, *_, trust_a, _ = env
    with pytest.raises(CertificateError):
        validate_chain([], trust_a, clock.now)


def test_tampered_leaf_rejected(env):
    clock, rng, ca_a, ca_b, alice, trust_a, trust_b = env
    evil = dataclasses.replace(
        alice.certificate, subject=DN.parse("/O=A/CN=root-account")
    )
    with pytest.raises(CertificateError):
        validate_chain([evil, *alice.chain[1:]], trust_a, clock.now)


def test_non_ca_cannot_sign_end_entity(env):
    """An EEC signing another EEC (not a proxy) must be rejected."""
    clock, rng, ca_a, ca_b, alice, trust_a, trust_b = env
    from repro.pki.certificate import Certificate
    from repro.pki.rsa import generate_keypair

    victim_key = generate_keypair(256, rng)
    forged = Certificate(
        subject=DN.parse("/O=A/CN=forged"),
        issuer=alice.subject,  # signed by a non-CA end entity
        serial=99,
        not_before=clock.now,
        not_after=clock.now + DAY,
        public_key=victim_key.public,
    ).signed_by(alice.key)
    with pytest.raises(CertificateError):
        validate_chain([forged, *alice.chain], trust_a, clock.now)


def test_signing_policy_enforced_at_validation(env):
    clock, rng, ca_a, ca_b, alice, trust_a, trust_b = env
    # trust CA-A but constrain it to /O=A/... ; a cert it signed outside
    # that namespace must be rejected by the *validator*.
    rogue = CertificateAuthority(
        DN.parse("/O=A/CN=CA-A2"), clock, rng, key_bits=256, enforce_own_policy=False
    )
    constrained = TrustStore()
    constrained.add_anchor(
        rogue.certificate,
        policy=SigningPolicy.namespace(rogue.subject, DN.parse("/O=A")),
    )
    ok = rogue.issue_credential(DN.parse("/O=A/CN=fine"))
    validate_chain(ok.chain, constrained, clock.now)
    bad = rogue.issue_credential(DN.parse("/O=Evil/CN=mallory"))
    with pytest.raises(SigningPolicyError):
        validate_chain(bad.chain, constrained, clock.now)


def test_policy_checked_flag(env):
    clock, rng, ca_a, ca_b, alice, trust_a, trust_b = env
    policied = TrustStore()
    policied.add_anchor(
        ca_a.certificate, policy=SigningPolicy.namespace(ca_a.subject, DN.parse("/O=A"))
    )
    result = validate_chain(alice.chain, policied, clock.now)
    assert result.policy_checked


def test_self_signed_leaf_as_extra_anchor(env):
    """The DCSC 'random self-signed certificate' context (Section V)."""
    clock, rng, *_ = env
    ss = self_signed_credential(DN.parse("/CN=ctx"), clock, rng)
    result = validate_chain(
        ss.chain, TrustStore(), clock.now, extra_anchors=[ss.certificate]
    )
    assert result.subject == DN.parse("/CN=ctx")


def test_self_signed_leaf_without_anchor_rejected(env):
    clock, rng, *_ = env
    ss = self_signed_credential(DN.parse("/CN=ctx"), clock, rng)
    with pytest.raises(UntrustedIssuerError):
        validate_chain(ss.chain, TrustStore(), clock.now)


def test_trust_store_operations(env):
    clock, rng, ca_a, ca_b, alice, trust_a, trust_b = env
    store = TrustStore()
    assert len(store) == 0
    store.add_anchor(ca_a.certificate)
    assert len(store) == 1
    assert store.find_anchor(ca_a.certificate) is not None
    copy = store.copy()
    store.remove_anchor(ca_a.certificate)
    assert len(store) == 0
    assert len(copy) == 1  # copies are independent

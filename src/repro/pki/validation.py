"""Chain validation against trust stores.

This is the code path whose *failure* motivates DCSC (Figure 4): endpoint
B receives credential A, walks its chain, and cannot reach any of B's
trust anchors, so validation raises :class:`UntrustedIssuerError`.

Validation rules:

* the chain is leaf-first; each certificate's issuer DN must equal the
  next certificate's subject DN, with a valid signature under that
  certificate's key;
* non-leaf, non-proxy signers must be CA certificates;
* proxy certificates must extend their signer's subject by one CN and be
  signed by the *end-entity* (or a previous proxy), per RFC 3820;
* the walk must terminate at a trust anchor: either a chain certificate
  that is itself an anchor, or a chain head whose issuer is an anchor;
* every certificate must be inside its validity window at ``now``;
* if the trust store has a signing policy for an anchor CA, subjects
  signed by that CA must match the policy (DCSC-supplied extra anchors
  are policy-exempt, per paper Section V.A).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import (
    CertificateError,
    SigningPolicyError,
    UntrustedIssuerError,
)
from repro.pki.certificate import Certificate
from repro.pki.dn import DistinguishedName
from repro.pki.policy import SigningPolicy
from repro.pki.proxy import is_proxy_subject, strip_proxy_cns
from repro.util import opcount

#: process-wide TrustStore identity source (see TrustStore.uid)
_TRUST_UIDS = itertools.count()


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of a successful chain validation."""

    subject: DistinguishedName  # leaf subject (may include proxy CNs)
    identity: DistinguishedName  # subject with proxy CNs stripped
    anchor: Certificate  # the trust anchor that terminated the walk
    chain_length: int
    policy_checked: bool


@dataclass
class TrustStore:
    """The trusted-certificates directory of one endpoint.

    ``anchors`` maps certificate fingerprints to trusted (usually
    self-signed CA) certificates; ``policies`` maps anchor fingerprints to
    signing policies.  Configuring this directory is step (g) of the
    conventional install in paper Section III.A; GCMU populates it with
    just the local MyProxy CA.
    """

    anchors: dict[str, Certificate] = field(default_factory=dict)
    policies: dict[str, SigningPolicy] = field(default_factory=dict)
    #: stable process-unique identity, safe to embed in cache keys (unlike
    #: ``id()``, never reused after garbage collection)
    uid: int = field(default_factory=lambda: next(_TRUST_UIDS), repr=False, compare=False)
    #: bumped whenever the anchor set changes; session/pool caches keyed on
    #: (uid, version) self-invalidate when an operator edits the store
    version: int = field(default=0, repr=False, compare=False)

    def add_anchor(self, cert: Certificate, policy: SigningPolicy | None = None) -> None:
        """Trust ``cert`` as a root, optionally with a signing policy."""
        fp = cert.fingerprint()
        self.anchors[fp] = cert
        if policy is not None:
            self.policies[fp] = policy
        self.version += 1

    def remove_anchor(self, cert: Certificate) -> None:
        """Stop trusting a root (and drop its policy)."""
        fp = cert.fingerprint()
        self.anchors.pop(fp, None)
        self.policies.pop(fp, None)
        self.version += 1

    def find_anchor(self, cert: Certificate) -> Certificate | None:
        """The anchor equal to ``cert`` (by fingerprint), if trusted."""
        return self.anchors.get(cert.fingerprint())

    def find_issuer_anchor(self, cert: Certificate) -> Certificate | None:
        """An anchor whose subject matches ``cert.issuer`` and whose key
        verifies ``cert``'s signature."""
        for anchor in self.anchors.values():
            if anchor.subject == cert.issuer and cert.verify_signature(anchor.public_key):
                return anchor
        return None

    def policy_for(self, anchor: Certificate) -> SigningPolicy | None:
        """The signing policy bound to an anchor, if any."""
        return self.policies.get(anchor.fingerprint())

    def copy(self) -> "TrustStore":
        """Shallow copy (anchors/policies dicts duplicated)."""
        return TrustStore(anchors=dict(self.anchors), policies=dict(self.policies))

    def __len__(self) -> int:
        return len(self.anchors)


def validate_chain(
    chain: Sequence[Certificate],
    trust: TrustStore,
    now: float,
    extra_anchors: Iterable[Certificate] = (),
    extra_intermediates: Iterable[Certificate] = (),
) -> ValidationResult:
    """Validate a leaf-first chain; return identity or raise.

    ``extra_anchors`` are policy-exempt trust anchors supplied out of band
    (the self-signed certificates of a DCSC P blob).  ``extra_intermediates``
    are additional certificates available to complete the chain (the
    non-self-signed certificates of a DCSC P blob).
    """
    if not chain:
        raise CertificateError("empty certificate chain")

    opcount.bump("chain.validate.full")

    extra_anchor_fps = {c.fingerprint(): c for c in extra_anchors}
    pool = list(chain) + list(extra_intermediates)

    # -- validity windows ------------------------------------------------
    # decided by Certificate.valid_at, the one validity predicate (a NaN
    # `now` fails it); the comparison after only picks the message
    for cert in chain:
        if not cert.valid_at(now):
            if now < cert.not_before:
                raise CertificateError(
                    f"certificate for {cert.subject} not yet valid at t={now}"
                )
            raise CertificateError(f"certificate for {cert.subject} expired at t={now}")

    # -- walk leaf -> anchor, completing the chain from the pool ----------
    walked: list[Certificate] = [chain[0]]
    current = chain[0]
    seen_fps = {current.fingerprint()}
    policy_checked = False
    anchor: Certificate | None = None

    for _ in range(32):  # hard bound against pathological loops
        # is the current certificate itself an anchor?
        fp = current.fingerprint()
        if fp in extra_anchor_fps:
            anchor = extra_anchor_fps[fp]
            break
        store_anchor = trust.find_anchor(current)
        if store_anchor is not None:
            anchor = store_anchor
            break
        # does a trust-store anchor directly sign the current certificate?
        issuer_anchor = trust.find_issuer_anchor(current)
        if issuer_anchor is not None:
            policy = trust.policy_for(issuer_anchor)
            if policy is not None:
                if not policy.permits(current.subject):
                    raise SigningPolicyError(
                        f"{current.subject} violates signing policy of {issuer_anchor.subject}"
                    )
                policy_checked = True
            anchor = issuer_anchor
            break

        # does a policy-exempt extra anchor (DCSC blob) sign it?
        signer = _find_signer(current, extra_anchor_fps.values())
        if signer is not None:
            anchor = signer
            break

        # a self-signed certificate that is not an anchor is a dead end:
        # this is the Figure 4 failure (CA-A unknown to endpoint B).
        if current.is_self_signed:
            raise UntrustedIssuerError(
                f"no trusted path for {chain[0].subject}: root {current.subject} "
                f"is not a trust anchor",
                issuer=str(current.issuer),
            )

        # otherwise find the issuer within the pool and keep walking
        parent = _find_signer(current, pool)
        if parent is None:
            raise UntrustedIssuerError(
                f"no trusted path for {chain[0].subject}: issuer {current.issuer} "
                f"is not among the trust anchors",
                issuer=str(current.issuer),
            )
        if parent.fingerprint() in seen_fps:
            raise CertificateError("certificate chain contains a cycle")
        _check_signer_authority(current, parent)
        walked.append(parent)
        seen_fps.add(parent.fingerprint())
        current = parent
    else:
        raise CertificateError("certificate chain too long")

    assert anchor is not None
    # if the anchor differs from the final walked cert, it signs it; check
    # CA authority of the anchor unless the final cert IS the anchor.
    final = walked[-1]
    if anchor.fingerprint() != final.fingerprint():
        if not anchor.is_ca and not _proxy_pair_ok(final, anchor):
            raise CertificateError(
                f"trust anchor {anchor.subject} is not a CA and cannot sign {final.subject}"
            )

    subject = chain[0].subject
    return ValidationResult(
        subject=subject,
        identity=strip_proxy_cns(subject),
        anchor=anchor,
        chain_length=len(walked),
        policy_checked=policy_checked,
    )


def _find_signer(cert: Certificate, candidates: Iterable[Certificate]) -> Certificate | None:
    """A candidate whose subject matches cert.issuer and key verifies it."""
    for cand in candidates:
        if cand.subject == cert.issuer and cert.verify_signature(cand.public_key):
            return cand
    return None


def _proxy_pair_ok(child: Certificate, parent: Certificate) -> bool:
    """True iff ``child`` is a well-formed proxy of ``parent``."""
    return (
        child.is_proxy
        and is_proxy_subject(child.subject, parent.subject)
        and child.issuer == parent.subject
    )


def _check_signer_authority(child: Certificate, parent: Certificate) -> None:
    """Enforce who may sign what: CAs sign anything; EECs sign only proxies."""
    if child.is_proxy:
        if not _proxy_pair_ok(child, parent):
            raise CertificateError(
                f"malformed proxy: {child.subject} does not properly extend {parent.subject}"
            )
        return
    if not parent.is_ca:
        raise CertificateError(
            f"{parent.subject} is not a CA and cannot sign end-entity {child.subject}"
        )

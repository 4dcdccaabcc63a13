"""RFC-3820-style proxy certificates.

A proxy certificate lets a short-lived key act as the user without the
user's long-term key leaving their machine, and — crucially for Globus
Online — lets the user *delegate*: hand a further proxy to a service so
it can act on their behalf (restarting transfers, re-authenticating to
endpoints).  GridFTP-Lite's SSH authentication cannot do this, which is
limitation 2 in paper Section III.B.

Rules implemented (following RFC 3820):

* the proxy's subject is the parent's subject plus one ``CN=<serial>`` RDN;
* the proxy's issuer is the parent's subject, signed by the parent's key;
* a proxy may sign further proxies (delegation chains);
* the *identity* of any chain is the subject with trailing proxy CNs
  stripped.
"""

from __future__ import annotations

import random

from repro.errors import CertificateError
from repro.pki.certificate import Certificate
from repro.pki.credential import Credential
from repro.pki.dn import DistinguishedName
from repro.pki.rsa import generate_keypair
from repro.sim.clock import Clock
from repro.util.units import HOUR

#: default proxy lifetime (grid-proxy-init's classic 12 hours)
DEFAULT_PROXY_LIFETIME = 12 * HOUR


def create_proxy(
    parent: Credential,
    clock: Clock,
    rng: random.Random | None = None,
    lifetime: float = DEFAULT_PROXY_LIFETIME,
    key_bits: int = 512,
) -> Credential:
    """Create a proxy credential signed by ``parent``.

    The returned chain is [proxy, *parent chain].  The proxy's lifetime is
    clipped to the parent's expiry: a proxy cannot outlive its signer.
    """
    rng = rng or random.Random()
    now = clock.now
    if not parent.valid_at(now):
        raise CertificateError("cannot create a proxy from an expired credential")
    key = generate_keypair(key_bits, rng)
    serial = rng.randrange(1, 1 << 31)
    not_after = min(now + lifetime, parent.expires_at())
    proxy_cert = Certificate(
        subject=parent.subject.with_cn(str(serial)),
        issuer=parent.subject,
        serial=serial,
        not_before=now,
        not_after=not_after,
        public_key=key.public,
        is_ca=False,
        extensions={"proxy": True},
    ).signed_by(parent.key)
    return Credential(chain=(proxy_cert, *parent.chain), key=key)


def is_proxy_subject(subject: DistinguishedName, parent_subject: DistinguishedName) -> bool:
    """True iff ``subject`` is ``parent_subject`` plus exactly one CN RDN."""
    if len(subject.rdns) != len(parent_subject.rdns) + 1:
        return False
    if not parent_subject.is_prefix_of(subject):
        return False
    attr, _ = subject.rdns[-1]
    return attr == "CN"


def strip_proxy_cns(subject: DistinguishedName) -> DistinguishedName:
    """Remove trailing numeric proxy CN components, yielding the identity.

    Proxy CNs are the serial numbers appended by :func:`create_proxy`; the
    heuristic (trailing all-digit CNs) matches what Globus' own
    ``X509_NAME``-walking code does with ``CN=proxy``/``CN=limited proxy``
    markers in spirit.
    """
    rdns = list(subject.rdns)
    while len(rdns) > 1:
        attr, value = rdns[-1]
        if attr == "CN" and value.isdigit():
            rdns.pop()
        else:
            break
    return DistinguishedName(rdns=tuple(rdns))


def proxy_depth(chain: tuple[Certificate, ...]) -> int:
    """Number of proxy certificates at the head of the chain."""
    depth = 0
    for cert in chain:
        if cert.is_proxy:
            depth += 1
        else:
            break
    return depth

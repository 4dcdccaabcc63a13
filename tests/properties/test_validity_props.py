"""Property: one validity verdict for a certificate, a credential and a chain.

``Certificate.valid_at`` is the one validity predicate.  A credential is
valid when every certificate of its chain is, and ``validate_chain``
accepts a chain that is otherwise sound exactly then.  Check times range
over every float, NaN, the infinities, subnormals and -0.0 included;
bounds over every finite float (a certificate refuses a bound that is
not finite), with times on and beside each bound.
"""

import math
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import CertificateError
from repro.pki.certificate import Certificate
from repro.pki.credential import Credential
from repro.pki.dn import DistinguishedName as DN
from repro.pki.rsa import generate_keypair
from repro.pki.validation import TrustStore, validate_chain

# key generation is expensive; one key per role serves every example
_ROOT_KEY, _LEAF_KEY = [generate_keypair(256, random.Random(i)) for i in (21, 22)]
_ROOT_DN = DN.parse("/O=Grid/CN=Root CA")
_LEAF_DN = DN.parse("/O=Grid/CN=alice")

_EDGES = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, 3600.0, 1.7e308)
_finite = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=False, allow_infinity=False))
_window = st.tuples(_finite, _finite).filter(lambda w: w[0] != w[1]).map(sorted)
_any_time = st.one_of(st.sampled_from((math.nan, math.inf, -math.inf) + _EDGES), st.floats())


def _chain(root_window, leaf_window):
    root = Certificate(subject=_ROOT_DN, issuer=_ROOT_DN, serial=1,
                       not_before=root_window[0], not_after=root_window[1],
                       public_key=_ROOT_KEY.public, is_ca=True).signed_by(_ROOT_KEY)
    leaf = Certificate(subject=_LEAF_DN, issuer=_ROOT_DN, serial=2,
                       not_before=leaf_window[0], not_after=leaf_window[1],
                       public_key=_LEAF_KEY.public).signed_by(_ROOT_KEY)
    return leaf, root


@st.composite
def _case(draw):
    """Two windows and a check time, often on or beside one of their bounds."""
    root_window, leaf_window = draw(_window), draw(_window)
    beside = [t for bound in (*root_window, *leaf_window)
              for t in (bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf))]
    return root_window, leaf_window, draw(st.one_of(st.sampled_from(beside), _any_time))


@settings(max_examples=150, deadline=None)
@given(case=_case())
# a NaN check time: no window holds, so nothing may accept
@example(case=((0.0, 1e9), (0.0, 3600.0), math.nan))
@example(case=((-0.0, 1.0), (5e-324, 1.0), 0.0))
def test_every_reader_gives_the_certificates_verdict(case):
    root_window, leaf_window, t = case
    chain = _chain(root_window, leaf_window)
    verdicts = [cert.valid_at(t) for cert in chain]
    assert Credential(chain=chain, key=_LEAF_KEY).valid_at(t) == all(verdicts)
    assert Credential(chain=chain[1:], key=_ROOT_KEY).valid_at(t) == verdicts[1]
    trust = TrustStore()
    trust.add_anchor(chain[1])
    try:
        validate_chain(chain, trust, t)
    except CertificateError as exc:
        assert "not yet valid at t=" in str(exc) or "expired at t=" in str(exc), exc
        accepted = False
    else:
        accepted = True
    assert accepted == all(verdicts)

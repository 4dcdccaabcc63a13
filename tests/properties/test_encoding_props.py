"""Property tests for the encoding layers (PEM, base64, DCSC blobs)."""

import random
import re
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.util.encoding import (
    b64decode_str,
    b64encode_str,
    is_printable_ascii,
    pem_decode_all,
    pem_encode,
)


@given(st.binary(max_size=2000))
def test_b64_round_trip(data):
    encoded = b64encode_str(data)
    assert is_printable_ascii(encoded)
    assert b64decode_str(encoded) == data


#: the scan ``is_printable_ascii`` ran before its body moved to C
_NON_PRINTABLE = re.compile(r"[^\x20-\x7e]")

# the ASCII edges often, any code point (lone surrogates too) sometimes
_code_points = st.one_of(
    st.characters(min_codepoint=0, max_codepoint=0x80),
    st.characters(exclude_categories=()),
)


@given(st.text(_code_points))
@example("")
@example(" ~")
@example("\x1f")
@example("\x7f")
@example("\x80")
@example("\ud800")
@example("blob\udfff")
def test_is_printable_ascii_equals_the_regex(text):
    assert is_printable_ascii(text) == (_NON_PRINTABLE.search(text) is None)


def test_is_printable_ascii_equals_the_regex_on_every_code_point():
    for c in map(chr, range(sys.maxunicode + 1)):
        assert is_printable_ascii(c) == (_NON_PRINTABLE.search(c) is None), hex(ord(c))


_label = st.sampled_from(["CERTIFICATE", "RSA PRIVATE KEY", "X509 CRL"])


@given(st.lists(st.tuples(_label, st.binary(max_size=300)), max_size=6))
def test_pem_multi_block_round_trip(blocks):
    text = "".join(pem_encode(label, der) for label, der in blocks)
    assert pem_decode_all(text) == blocks


@given(st.lists(st.tuples(_label, st.binary(max_size=200)), min_size=1, max_size=4),
       st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=50))
@settings(max_examples=50)
def test_pem_ignores_interleaved_garbage(blocks, garbage):
    if "-----" in garbage:
        return
    separator = garbage + "\n"
    text = separator.join(pem_encode(label, der) for label, der in blocks) + garbage
    assert pem_decode_all(text) == blocks


# -- DCSC blob round trips over real credentials ------------------------------

_rng = random.Random(99)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31))
def test_dcsc_blob_round_trip_any_credential(seed):
    from repro.gridftp.dcsc import decode_dcsc_blob, encode_dcsc_blob
    from repro.pki.ca import CertificateAuthority
    from repro.pki.dn import DistinguishedName as DN
    from repro.sim.clock import Clock

    rng = random.Random(seed)
    clock = Clock()
    ca = CertificateAuthority(DN.parse("/O=P/CN=CA"), clock, rng, key_bits=256)
    cred = ca.issue_credential(DN.parse(f"/O=P/CN=user{seed % 1000}"))
    ctx = decode_dcsc_blob(encode_dcsc_blob(cred), clock.now)
    assert ctx.credential.chain == cred.chain
    assert ctx.credential.key == cred.key

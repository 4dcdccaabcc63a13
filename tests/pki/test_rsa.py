"""The RSA implementation."""

import hashlib
import math
import random

import pytest

from repro.pki.ca import CertificateAuthority
from repro.pki.dn import DistinguishedName
from repro.pki.rsa import (
    KeyPair,
    PublicKey,
    _odd_part,
    _strong_bpsw,
    _strong_lucas,
    _strong_round,
    generate_keypair,
    sign,
    verify,
)
from repro.sim.clock import Clock


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(256, random.Random(1))


def test_keypair_structure(keypair):
    assert keypair.e == 65537
    assert keypair.n.bit_length() >= 250
    assert keypair.public == PublicKey(n=keypair.n, e=keypair.e)


def test_sign_verify_round_trip(keypair):
    data = b"the quick brown fox"
    sig = sign(keypair, data)
    assert verify(keypair.public, data, sig)


def test_tampered_data_fails(keypair):
    sig = sign(keypair, b"original")
    assert not verify(keypair.public, b"originaL", sig)


def test_tampered_signature_fails(keypair):
    data = b"payload"
    sig = sign(keypair, data)
    assert not verify(keypair.public, data, sig ^ 1)


def test_wrong_key_fails(keypair):
    other = generate_keypair(256, random.Random(2))
    sig = sign(keypair, b"data")
    assert not verify(other.public, b"data", sig)


def test_signature_out_of_range_rejected(keypair):
    assert not verify(keypair.public, b"x", 0)
    assert not verify(keypair.public, b"x", keypair.n)
    assert not verify(keypair.public, b"x", -5)


def test_deterministic_keygen():
    a = generate_keypair(256, random.Random(42))
    b = generate_keypair(256, random.Random(42))
    assert a == b


def test_different_seeds_different_keys():
    a = generate_keypair(256, random.Random(1))
    b = generate_keypair(256, random.Random(2))
    assert a.n != b.n


def test_minimum_bits_enforced():
    with pytest.raises(ValueError):
        generate_keypair(32)


def test_key_dict_round_trip(keypair):
    assert KeyPair.from_dict(keypair.to_dict()) == keypair
    assert PublicKey.from_dict(keypair.public.to_dict()) == keypair.public


def test_public_fingerprint_stable(keypair):
    assert keypair.public.fingerprint() == keypair.public.fingerprint()
    other = generate_keypair(256, random.Random(9))
    assert keypair.public.fingerprint() != other.public.fingerprint()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "seed, key_sha, state_sha",
    [
        (0, "008b1d144c213166de744b809cc0102a18ca10cb63aa4e4daca7633bf3dc0ab0",
         "cebeeb9273292d63f4234934ec697e504323d4bf742a623bc2629bbf3506fdbb"),
        (1, "ffab813022fa762b7854df32d1aefd40489c5c3c9b7b440621f9c86100f9afc1",
         "9c9a4068467075aa3cac082e3b6c20abd8d4898624678444ad469ed7295cfae2"),
        (2, "b2b1e36acb19ef7378730b4bdee268328f9ac724b12248834be01b95df7eba25",
         "edd4170b60f23545e2f717dbb4a1efc3cbebc2cac8d99192b123f316f69e8051"),
    ],
)
def test_key_stream_is_pinned(seed, key_sha, state_sha):
    """A seed's key and the rng state it leaves must never drift."""
    rng = random.Random(seed)
    key = generate_keypair(512, rng)
    assert _sha(f"{key.n:x}:{key.d:x}") == key_sha
    assert _sha(repr(rng.getstate())) == state_sha


def test_issued_credential_key_stream_is_pinned():
    ca = CertificateAuthority(
        DistinguishedName.parse("/O=Golden/CN=Online CA"), Clock(), random.Random(2012)
    )
    keys = [
        ca.issue_credential(DistinguishedName.parse(f"/O=Golden/CN=user{i}")).key
        for i in range(3)
    ]
    assert [_sha(f"{k.n:x}:{k.d:x}") for k in keys] == [
        "c8c22e47cfe74b24e6141404bf3c65050e4817177f76f595d3e5f1eee94af0f1",
        "00e9caab6bbe6c3349df3b9bfa184ac27b0dd43f32168bdfe67b935807501e60",
        "ac9b0082af44af6225ac558f21c8c577d5185ae1650ab8f706c4e70ae278ad53",
    ]
    assert _sha(repr(ca.rng.getstate())) == (
        "2b796e41e2121fefa4ab525ca66db83d3a3d912eef597288fe7c39235ec0ed7e"
    )


def _passes_base_2(n: int) -> bool:
    d, r = _odd_part(n - 1)
    return _strong_round(2, d, r, n)


def test_bpsw_matches_sieve_below_2e5():
    limit = 200_000
    is_prime = bytearray([1]) * limit
    is_prime[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = bytes(len(range(p * p, limit, p)))
    assert [n for n in range(6) if _strong_bpsw(n)] == [2, 3, 5]
    wrong = [n for n in range(1, limit, 2) if _strong_bpsw(n) != is_prime[n]]
    assert wrong == []


@pytest.mark.parametrize("n", [2047, 3277, 4033, 4681, 8321, 3215031751])
def test_bpsw_rejects_strong_base_2_pseudoprimes(n):
    assert _passes_base_2(n)
    assert not _strong_bpsw(n)


@pytest.mark.parametrize("n", [5459, 5777, 10877, 16109, 18971])
def test_bpsw_rejects_strong_lucas_pseudoprimes(n):
    assert _strong_lucas(n)
    assert not _strong_bpsw(n)


def test_strong_lucas_pseudoprimes_below_20000():
    # OEIS A217255: the composites that pass the strong Lucas test.
    passing = [n for n in range(3, 20_000, 2) if _strong_lucas(n)]
    composite = [n for n in passing if any(n % p == 0 for p in range(3, math.isqrt(n) + 1, 2))]
    assert composite == [5459, 5777, 10877, 16109, 18971]


@pytest.mark.parametrize("n", [561, 1105, 1729, 41041])
def test_bpsw_rejects_carmichael_numbers(n):
    assert not _strong_bpsw(n)


@pytest.mark.parametrize("root", [5, 7, 151, 1093, 3511, 2**31 - 1])
def test_bpsw_rejects_prime_squares(root):
    # 5**2 and 7**2 leave the Lucas parameter search at (D/n) = 0 with
    # D = 5 and D = -7; the others at the square check.  1093**2 and
    # 3511**2 pass strong base 2, so only the Lucas test rejects them.
    assert not _strong_lucas(root**2)
    assert not _strong_bpsw(root**2)
    if root in (1093, 3511):
        assert _passes_base_2(root**2)


@pytest.mark.parametrize("exponent", [61, 89, 127])
def test_bpsw_accepts_mersenne_primes(exponent):
    assert _strong_bpsw(2**exponent - 1)


def test_bpsw_agrees_with_sympy_on_random_256_bit_odd_numbers():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(256)
    for _ in range(10_000):
        n = rng.getrandbits(256) | 1
        assert _strong_bpsw(n) == sympy.isprime(n), n

"""Differential test: the fast primality test vs plain Miller-Rabin.

``rsa._is_probable_prime`` skips most of its modular exponentiations
(a gcd sieve, round 0 tested modulo a found factor, Baillie-PSW for
primes) but promises the verdicts and rng draws of plain 24-round
Miller-Rabin, so every seed yields the key it always did.
``_plain_is_probable_prime`` below is that plain test, kept here as the
executable specification, and ``_plain_generate_keypair`` the key
generator built on it.  Any divergence is a bug in the fast path, never
in the reference.
"""

import math
import random

import pytest

import repro.pki.rsa as rsa
from repro.util.memo import Memo

_PLAIN_SMALL_PRIMES = [p for p in range(2, 150) if all(p % q for q in range(2, p))]
_PLAIN_ROUNDS = 24

#: the primes the second gcd of the fast path looks for
_WIDE_PRIMES = [
    p for p in range(151, 4097, 2) if all(p % q for q in range(3, math.isqrt(p) + 1, 2))
]


def _plain_is_probable_prime(n: int, rng: random.Random) -> bool:
    """Trial division, then _PLAIN_ROUNDS Miller-Rabin rounds with random bases."""
    if n < 2:
        return False
    for p in _PLAIN_SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(_PLAIN_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _plain_random_prime(bits: int, rng: random.Random) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _plain_is_probable_prime(candidate, rng):
            return candidate


def _plain_generate_keypair(bits: int, rng: random.Random) -> tuple:
    """``(n, e, d, crt)`` as ``generate_keypair`` derives them, without the memo."""
    e = 65537
    half = bits // 2
    while True:
        p = _plain_random_prime(half, rng)
        q = _plain_random_prime(bits - half, rng)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        d = pow(e, -1, phi)
        return p * q, e, d, (p, q, d % (p - 1), d % (q - 1), pow(q, -1, p))


@pytest.mark.parametrize("bits", [64, 96, 128, 256, 512])
def test_generate_keypair_matches_plain_reference(bits, monkeypatch):
    monkeypatch.setattr(rsa, "_KEYGEN_MEMO", Memo("rsa.keygen", 256))
    for seed in range(100):
        plain_rng, fast_rng = random.Random(seed), random.Random(seed)
        expected = _plain_generate_keypair(bits, plain_rng)
        pair = rsa.generate_keypair(bits, fast_rng)
        assert (pair.n, pair.e, pair.d, pair._crt) == expected, (bits, seed)
        assert fast_rng.getstate() == plain_rng.getstate(), (bits, seed)


def _planted(rng: random.Random, bits: int) -> int:
    """An odd n with a prime factor in (149, 4096] and none below it."""
    while True:
        n = rng.choice(_WIDE_PRIMES) * (rng.getrandbits(bits) | 1)
        if math.gcd(n, math.prod(_PLAIN_SMALL_PRIMES)) == 1:
            return n


def _passes_mod_factor(rng: random.Random, bits: int) -> int:
    """n = p * m whose round-0 base passes modulo p whatever it is.

    p = 3 (mod 4) and m = 1 (mod p - 1) make p - 1 divide n - 1 with
    (p - 1) / 2 dividing n's odd part d, so a^d = +-1 (mod p) for every
    base a that p does not divide: the fast path must fall through to
    the full test.  m has no factor up to 4096, so p is the whole gcd.
    """
    sieve = math.prod(_PLAIN_SMALL_PRIMES) * math.prod(_WIDE_PRIMES)
    while True:
        p = rng.choice([p for p in _WIDE_PRIMES if p % 4 == 3])
        m = 1 + (p - 1) * rng.getrandbits(bits)
        if math.gcd(m, sieve) == 1:
            return p * m


def _inputs() -> list[int]:
    rng = random.Random(2012)
    ns = list(range(0, 5000))
    ns += [2047, 3277, 4033, 4681, 8321, 3215031751, 5459, 5777, 10877, 16109, 18971]
    ns += [561, 1105, 1729, 41041, 151**2, 1093**2, (2**31 - 1) ** 2]
    ns += [rng.getrandbits(bits) | 1 for bits in (64, 128, 256) for _ in range(300)]
    ns += [_plain_random_prime(bits, rng) for bits in (32, 64, 128, 256) for _ in range(10)]
    ns += [_planted(rng, bits) for bits in (64, 128, 256) for _ in range(200)]
    ns += [_passes_mod_factor(rng, bits) for bits in (64, 128, 256) for _ in range(20)]
    return ns


def test_is_probable_prime_matches_plain_reference(monkeypatch):
    # Count the rounds run modulo a proper factor of the n under test
    # (every other round runs modulo n itself) by their outcome.
    current = [0]
    mod_factor = {True: 0, False: 0}
    strong_round = rsa._strong_round

    def spy(a, d, r, m):
        passed = strong_round(a, d, r, m)
        if m != current[0]:
            mod_factor[passed] += 1
        return passed

    monkeypatch.setattr(rsa, "_strong_round", spy)
    for i, n in enumerate(_inputs()):
        current[0] = n
        plain_rng, fast_rng = random.Random(i), random.Random(i)
        verdict = _plain_is_probable_prime(n, plain_rng)
        assert rsa._is_probable_prime(n, fast_rng) == verdict, n
        assert fast_rng.getstate() == plain_rng.getstate(), n
    assert mod_factor[False] > 0, "no round 0 failed modulo a found factor"
    assert mod_factor[True] > 0, "no round 0 passed modulo a found factor"


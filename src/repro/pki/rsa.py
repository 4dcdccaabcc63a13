"""A small, real RSA implementation.

Key generation draws odd candidates from the caller's rng and keeps the
first that passes 24-round Miller-Rabin; signing is hash-and-sign
(SHA-256 digest interpreted as an integer, exponentiated with the private
key).  Keys default to 512 bits — cryptographically toy, but the
*behaviour* is genuine: signatures verify only with the matching public
key, any tampering with signed bytes breaks verification, and that is
precisely what the trust-root logic of Figures 4-5 exercises.

The primality test returns the verdict plain Miller-Rabin would and
consumes the identical rng draws, so a seed always yields the same key,
but it skips a third of the full-width modular exponentiations:

* one ``math.gcd`` against the product of the primes up to 149 replaces
  trial division;
* one ``math.gcd`` against the product of the primes in (149, 4096]
  finds a factor ``g`` of about a third of the survivors.  Round 0 still
  draws its base, but tests it modulo ``g``: a pass modulo n implies a
  pass modulo g, so a fail there is the fail Miller-Rabin would report
  after that same single draw, and the rare pass falls through to the
  full test;
* a candidate that passes round 0 is settled by a strong Baillie-PSW test
  (strong base-2 Miller-Rabin plus strong Lucas with Selfridge's
  parameters; no composite passing it is known, and none exists below
  2**64).  For a prime, the 23 remaining draws are replayed without their
  exponentiations; a composite runs the remaining rounds as usual.

No padding scheme is implemented (the digest is orders of magnitude
smaller than the modulus); do not reuse outside this simulation.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from dataclasses import dataclass

from repro.util import opcount
from repro.util.memo import Memo

# Small primes for trial division (one gcd with their product) before Miller-Rabin.
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
]
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)

#: Sieve bound of the second gcd.  2**10 catches too few composites;
#: at 2**14 the longer gcd costs more than the exponentiations it saves.
_SIEVE_BOUND = 4096


def _sieve_product(lo: int, hi: int) -> int:
    """Product of the primes p with lo < p <= hi (sieve of Eratosthenes)."""
    is_prime = bytearray([1]) * (hi + 1)
    is_prime[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(hi) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = bytes(len(range(p * p, hi + 1, p)))
    return math.prod(p for p in range(lo + 1, hi + 1) if is_prime[p])


_SIEVE_PRODUCT = _sieve_product(_SMALL_PRIMES[-1], _SIEVE_BOUND)

_MR_ROUNDS = 24


@dataclass(frozen=True)
class PublicKey:
    """RSA public key (n, e)."""

    n: int
    e: int

    def to_dict(self) -> dict:
        """Plain-dict form (serialization)."""
        return {"n": f"{self.n:x}", "e": self.e}

    @staticmethod
    def from_dict(d: dict) -> "PublicKey":
        """Rebuild from :meth:`to_dict` output."""
        return PublicKey(n=int(d["n"], 16), e=int(d["e"]))

    def fingerprint(self) -> str:
        """Short stable identifier for the key."""
        return hashlib.sha256(f"{self.n:x}:{self.e:x}".encode()).hexdigest()[:16]


@dataclass(frozen=True)
class KeyPair:
    """RSA key pair.  ``public`` carries (n, e); ``d`` is the private exponent."""

    n: int
    e: int
    d: int

    @property
    def public(self) -> PublicKey:
        """The public half of the key pair."""
        return PublicKey(n=self.n, e=self.e)

    def to_dict(self) -> dict:
        """Plain-dict form (serialization)."""
        return {"n": f"{self.n:x}", "e": self.e, "d": f"{self.d:x}"}

    @staticmethod
    def from_dict(d: dict) -> "KeyPair":
        """Rebuild from :meth:`to_dict` output."""
        return KeyPair(n=int(d["n"], 16), e=int(d["e"]), d=int(d["d"], 16))


def _odd_part(m: int) -> tuple[int, int]:
    """``(d, r)`` with ``m = d * 2**r`` and d odd, for m > 0."""
    r = (m & -m).bit_length() - 1
    return m >> r, r


def _strong_round(a: int, d: int, r: int, m: int) -> bool:
    """One Miller-Rabin round: does base ``a`` pass modulo ``m``?

    ``d * 2**r`` is n - 1 for the candidate n under test; ``m`` is n
    itself or a divisor of it.
    """
    x = pow(a, d, m)
    if x == 1 or x == m - 1:
        return True
    for _ in range(r - 1):
        x = x * x % m
        if x == m - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters, odd n > 2.

    D is the first of 5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1,
    P = 1 and Q = (1 - D) / 4.  With n + 1 = k * 2**s, n passes if
    U_k = 0 or V_(k * 2**i) = 0 (mod n) for some 0 <= i < s.
    """
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and D % n:
            return False  # gcd(D, n) is a proper factor of n
        if D == 13 and math.isqrt(n) ** 2 == n:
            return False  # no D has (D/n) = -1 when n is a square
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    k, s = _odd_part(n + 1)
    # Left-to-right over the bits of k: (U, V, Q^i) for i = 1, then
    # i -> 2i (U_2i = U_i V_i, V_2i = V_i^2 - 2 Q^i) and, on a one bit,
    # i -> i + 1 (U_i+1 = (U_i + V_i) / 2, V_i+1 = (D U_i + V_i) / 2).
    U, V, Qk = 1, 1, Q % n
    for bit in bin(k)[3:]:
        U = U * V % n
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            if U % 2:
                U += n
            if V % 2:
                V += n
            U = (U >> 1) % n
            V = (V >> 1) % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def _strong_bpsw(n: int) -> bool:
    """Strong Baillie-PSW: strong base-2 Miller-Rabin, then strong Lucas.

    Every prime passes.  No composite that passes is known, and none
    exists below 2**64, so there the verdict is exact.
    """
    if n < 3 or n % 2 == 0:
        return n == 2
    d, r = _odd_part(n - 1)
    return _strong_round(2, d, r, n) and _strong_lucas(n)


def _is_probable_prime(n: int, rng: random.Random) -> bool:
    """Miller-Rabin primality test with _MR_ROUNDS random bases.

    Verdict and rng draws are those of the plain test: trial division by
    _SMALL_PRIMES, then _MR_ROUNDS rounds, each drawing
    ``rng.randrange(2, n - 1)`` and returning False at the first failing
    round.  The module docstring explains the shortcuts that keep them.
    """
    if n < 2:
        return False
    if math.gcd(n, _SMALL_PRODUCT) != 1:
        return n in _SMALL_PRIME_SET
    d, r = _odd_part(n - 1)
    a = rng.randrange(2, n - 1)
    g = math.gcd(n, _SIEVE_PRODUCT)
    # g divides n, so a pass modulo n implies a pass modulo g: failing
    # here is failing round 0, decided without the full-width pow.
    if g != 1 and not _strong_round(a, d, r, g):
        return False
    if not _strong_round(a, d, r, n):
        return False
    # A genuinely prime n passes every round, so the plain test consumes
    # exactly _MR_ROUNDS draws and no other randomness: once BPSW says
    # prime, replaying the remaining draws leaves the identical stream.
    if _strong_bpsw(n):
        for _ in range(_MR_ROUNDS - 1):
            rng.randrange(2, n - 1)
        return True
    for _ in range(_MR_ROUNDS - 1):
        if not _strong_round(rng.randrange(2, n - 1), d, r, n):
            return False
    return True


def _random_prime(bits: int, rng: random.Random) -> int:
    """A probable prime with exactly ``bits`` bits."""
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


#: (bits, rng state) -> (keypair, rng state after generation).  GSI
#: delegation re-derives its rng stream from the world seed on every
#: login, so fleet runs request the identical (bits, state) pair
#: thousands of times; replaying the memo — same keypair, same
#: post-generation state — is bit-for-bit identical to regenerating.
#: Both states are kept packed (see :func:`_packed_state`): the key holds
#: the SHA-256 of the packed words, the entry the packed post-state, ~2.5
#: KB instead of the ~25 KB a tuple of 625 Python ints takes.
_KEYGEN_MEMO = Memo("rsa.keygen", 256)


def _packed_state(rng: random.Random) -> tuple[int, bytes, float | None]:
    """``rng.getstate()`` with its Mersenne Twister words packed as uint32.

    ``(version, words, gauss_next)`` is everything ``setstate`` restores;
    every word (624 state words and the index) fits in 32 bits.
    """
    version, words, gauss_next = rng.getstate()
    return version, struct.pack(f"<{len(words)}I", *words), gauss_next


def _restore_state(rng: random.Random, packed: tuple[int, bytes, float | None]) -> None:
    """Set ``rng`` to a state packed by :func:`_packed_state`."""
    version, words, gauss_next = packed
    rng.setstate((version, struct.unpack(f"<{len(words) // 4}I", words), gauss_next))


def generate_keypair(bits: int = 512, rng: random.Random | None = None) -> KeyPair:
    """Generate an RSA key pair of (approximately) ``bits`` modulus bits."""
    if bits < 64:
        raise ValueError("modulus must be at least 64 bits")
    rng = rng or random.Random()
    version, words, gauss_next = _packed_state(rng)
    memo_key = (bits, version, hashlib.sha256(words).digest(), gauss_next)
    hit = _KEYGEN_MEMO.get(memo_key)
    if hit is not None:
        pair, post_state = hit
        _restore_state(rng, post_state)
        opcount.bump("rsa.keygen.memo")
        return pair
    opcount.bump("rsa.keygen.full")
    e = 65537
    half = bits // 2
    while True:
        p = _random_prime(half, rng)
        q = _random_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        d = pow(e, -1, phi)
        pair = KeyPair(n=n, e=e, d=d)
        # Stash the CRT parameters on the instance (KeyPair is frozen, so
        # via object.__setattr__): signing with p/q halves the modulus
        # width, ~4x faster, and produces the identical signature integer.
        # Keys rebuilt from serialized (n, e, d) simply lack the stash and
        # fall back to the plain private-exponent path.
        object.__setattr__(
            pair, "_crt", (p, q, d % (p - 1), d % (q - 1), pow(q, -1, p))
        )
        _KEYGEN_MEMO.put(memo_key, (pair, _packed_state(rng)))
        return pair


def _digest_int(data: bytes, n: int) -> int:
    """SHA-256 digest of ``data`` reduced into the modulus group."""
    h = int.from_bytes(hashlib.sha256(data).digest(), "big")
    return h % n


def sign(key: KeyPair, data: bytes) -> int:
    """Sign ``data`` with the private exponent; returns the signature integer.

    Uses the CRT decomposition when the key carries one (generated keys
    do); the result is bit-identical to ``pow(m, d, n)``.
    """
    opcount.bump("rsa.sign")
    m = _digest_int(data, key.n)
    crt = getattr(key, "_crt", None)
    if crt is None:
        return pow(m, key.d, key.n)
    p, q, dp, dq, qinv = crt
    mp = pow(m % p, dp, p)
    mq = pow(m % q, dq, q)
    return mq + ((mp - mq) * qinv % p) * q


def verify(public: PublicKey, data: bytes, signature: int) -> bool:
    """True iff ``signature`` over ``data`` verifies with ``public``."""
    if not 0 < signature < public.n:
        return False
    digest = _digest_int(data, public.n)
    opcount.bump("rsa.verify")
    return pow(signature, public.e, public.n) == digest

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

On a host with two or more CPUs, :class:`KeyHelper` searches one rng's
key stream in a forked process; :func:`generate_keypair` takes a key
from it only for the exact rng state it would start from, so the key,
the rng post-state, the memo and the tallies are those of an inline
search.

No padding scheme is implemented (the digest is orders of magnitude
smaller than the modulus); do not reuse outside this simulation.
"""

from __future__ import annotations

import gc
import hashlib
import marshal
import math
import os
import random
import select
import signal
import struct
import sys
import time
import weakref
from collections import deque
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


def _state_key(bits: int, rng: random.Random) -> tuple:
    """The keygen memo's key for a ``bits``-bit search from ``rng``'s state."""
    return _packed_key(bits, _packed_state(rng))


def _packed_key(bits: int, packed: tuple[int, bytes, float | None]) -> tuple:
    """:func:`_state_key` of a state packed by :func:`_packed_state`."""
    version, words, gauss_next = packed
    return (bits, version, hashlib.sha256(words).digest(), gauss_next)


def _search_primes(bits: int, rng: random.Random) -> tuple[int, int]:
    """The primes (p, q) of the next ``bits``-bit key in ``rng``'s stream."""
    half = bits // 2
    while True:
        p = _random_prime(half, rng)
        q = _random_prime(bits - half, rng)
        if p != q and (p - 1) * (q - 1) % 65537:
            return p, q


def generate_keypair(
    bits: int = 512, rng: random.Random | None = None, helper: "KeyHelper | None" = None
) -> KeyPair:
    """Generate an RSA key pair of (approximately) ``bits`` modulus bits.

    On a memo miss the primes come from ``helper`` if it holds the search
    from this exact (bits, rng state), else from an inline search.
    """
    if bits < 64:
        raise ValueError("modulus must be at least 64 bits")
    rng = rng or random.Random()
    memo_key = _state_key(bits, rng)
    hit = _KEYGEN_MEMO.get(memo_key)
    if hit is not None:
        pair, post_state = hit
        _restore_state(rng, post_state)
        opcount.bump("rsa.keygen.memo")
        return pair
    opcount.bump("rsa.keygen.full")
    found = helper.take(memo_key) if helper is not None else None
    if found is None:
        p, q = _search_primes(bits, rng)
        post_state = _packed_state(rng)
    else:
        p, q, post_state = found
        _restore_state(rng, post_state)
    e = 65537
    d = pow(e, -1, (p - 1) * (q - 1))
    pair = KeyPair(n=p * q, e=e, d=d)
    # Stash the CRT parameters on the instance (KeyPair is frozen, so
    # via object.__setattr__): signing with p/q halves the modulus
    # width, ~4x faster, and produces the identical signature integer.
    # Keys rebuilt from serialized (n, e, d) simply lack the stash and
    # fall back to the plain private-exponent path.
    object.__setattr__(pair, "_crt", (p, q, d % (p - 1), d % (q - 1), pow(q, -1, p)))
    _KEYGEN_MEMO.put(memo_key, (pair, post_state))
    return pair


_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
#: Helpers alive at once: one per usable CPU, none on one CPU or without
#: ``os.fork``, where every key is searched inline (tests patch this).
HELPER_SLOTS = _CPUS if _CPUS > 1 and hasattr(os, "fork") else 0
#: keys a helper may search beyond what its owner has read
AHEAD = 16
#: seconds between an owner's checks on the helper it waits for
POLL_S = 0.02
#: live helpers forked by this process, by pid
_HELPERS: dict[int, "KeyHelper"] = {}


def _queued_s(pid: int) -> float:
    """Seconds process ``pid`` has been runnable but waiting for a CPU
    (Linux ``/proc/<pid>/schedstat``); 0.0 where that is not reported."""
    try:
        with open(f"/proc/{pid}/schedstat", "rb") as fh:
            return int(fh.read().split()[1]) / 1e9
    except (OSError, IndexError, ValueError):
        return 0.0


class KeyHelper:
    """A forked, niced process that searches one rng's ``bits``-bit key stream.

    The child holds a copy of the rng and searches its next keys in
    stream order.  Each goes back over a pipe as one length-prefixed
    marshal of (memo key of the pre-state, p, q, packed post-state); the
    parent returns one credit byte per frame it uses or drops, and the
    child searches at most :data:`AHEAD` keys beyond its credit.  The
    child exits when the credit pipe closes or the key pipe breaks; the
    parent kills and reaps it when its owner is collected, at exit, or
    when :meth:`take` finds it out of step, stopped or starved.
    """

    def __init__(self, pid: int, bits: int, at: tuple, keys_fd: int, credit_fd: int,
                 owner: object) -> None:
        self.pid: int | None = pid
        self.bits, self._at = bits, at  # _at: memo key of the state it searches from
        #: set when :meth:`take` closed it for waiting on a CPU longer than it ran
        self.starved = False
        self._keys, self._credit, self._buf = keys_fd, credit_fd, b""
        self._frames: deque = deque()
        self._finalizer = weakref.finalize(owner, self.close)

    @classmethod
    def start(cls, bits: int, rng: random.Random, owner: object) -> "KeyHelper | None":
        """Fork a helper for ``rng``'s ``bits``-bit stream, stopped when
        ``owner`` is collected; None when every slot is taken or threads
        run (a forked child of a threaded process may deadlock)."""
        threading = sys.modules.get("threading")
        if len(_HELPERS) >= HELPER_SLOTS or (threading and threading.active_count() > 1):
            return None
        at = _state_key(bits, rng)
        keys_r, keys_w = os.pipe()
        credit_r, credit_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (keys_r, keys_w, credit_r, credit_w):
                os.close(fd)
            return None
        if pid == 0:
            try:
                gc.disable()  # no collection, and so no finalizer, runs here
                os.nice(10)  # its owner waits for it, or has work of its own
                siblings = [fd for h in _HELPERS.values() for fd in (h._keys, h._credit)]
                for fd in (keys_r, credit_w, *siblings):
                    os.close(fd)
                _serve(bits, at, rng, keys_w, credit_r)
            finally:
                os._exit(0)
        os.close(keys_w)
        os.close(credit_r)
        os.set_blocking(keys_r, False)
        _HELPERS[pid] = helper = cls(pid, bits, at, keys_r, credit_w, owner)
        return helper

    def _read(self) -> bool:
        """Parse every whole frame waiting on the key pipe; False once it is closed."""
        try:
            while chunk := os.read(self._keys, 1 << 16):
                buf = self._buf + chunk
                while len(buf) >= 4 and len(buf) >= (end := 4 + int.from_bytes(buf[:4], "little")):
                    self._frames.append(marshal.loads(buf[4:end]))
                    buf = buf[end:]
                self._buf = buf
        except BlockingIOError:
            return True
        return False

    def take(self, memo_key: tuple) -> tuple[int, int, tuple] | None:
        """(p, q, packed post-state) of the key searched from ``memo_key``'s
        state, or None once the helper is closed.

        Frames before it (keys the owner got from the memo) are
        dropped.  With none waiting, the owner waits while the helper
        searches exactly this key and gets a CPU at least half the time.
        A helper that has exited, is stopped, searches another bit size,
        is behind its owner or, over a wait of :data:`POLL_S` or more,
        waited for a CPU longer than it ran (then :attr:`starved` is set)
        is closed instead, and the key is searched inline.
        """
        since = None  # (time, helper's run-queue time) when the owner began to wait
        try:
            while self.pid is not None:
                running = self._read()
                while self._frames:
                    frame = self._frames.popleft()
                    os.write(self._credit, b"\0")
                    self._at = _packed_key(self.bits, frame[3])
                    if frame[0] == memo_key:
                        return frame[1:]
                if (not running or self._at != memo_key
                        or os.waitpid(self.pid, os.WNOHANG | os.WUNTRACED)[0]):
                    break
                now, queued = time.monotonic(), _queued_s(self.pid)
                since = since or (now, queued)
                if now - since[0] >= POLL_S and queued - since[1] > (now - since[0]) / 2:
                    self.starved = True
                    break
                select.select([self._keys], [], [], POLL_S)
        except OSError:
            pass
        self.close()
        return None

    @property
    def closed(self) -> bool:
        """True once the helper has been closed (its child killed and reaped)."""
        return self.pid is None

    def close(self) -> None:
        """Kill and reap the child and close both pipe ends (idempotent)."""
        pid, self.pid = self.pid, None
        if pid is None:
            return
        _HELPERS.pop(pid, None)
        self._finalizer.detach()
        self._frames.clear()
        os.close(self._keys)
        os.close(self._credit)
        try:
            if os.waitpid(pid, os.WNOHANG)[0] == 0:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # reaped elsewhere


def _serve(bits: int, at: tuple, rng: random.Random, keys_fd: int, credit_fd: int) -> None:
    """The child's loop: search keys in stream order while credit lasts."""
    credit = AHEAD
    while True:
        if not credit:
            credit = len(os.read(credit_fd, AHEAD))
            if not credit:
                return  # the parent closed its end
        p, q = _search_primes(bits, rng)
        post = _packed_state(rng)
        frame = marshal.dumps((at, p, q, post))
        os.write(keys_fd, len(frame).to_bytes(4, "little") + frame)  # blocking: all of it
        at = _packed_key(bits, post)
        credit -= 1


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

"""Seeded draws in pure Python, loading neither ``numpy.random`` nor the OpenSSL that it loads:
:func:`sha256` is FIPS 180-4 SHA-256, and :class:`Pcg64` is ``numpy.random.default_rng`` bit for bit
(numpy's ``SeedSequence``, PCG64 with XSL-RR output, ``next_double`` and the Lemire rejection of
``random_bounded_uint64_fill``).  ``tests/test_draws.py`` checks both against those oracles.
"""
import math
import operator

import numpy as np

__all__ = ["Pcg64", "sha256"]

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PRIMES = [p for p in range(2, 312) if all(p % q for q in range(2, math.isqrt(p) + 1))]  # the first 64
# the first 32 fraction bits of the primes' square and cube roots (a float cube root rounds to the floor or one above)
_H0 = tuple(math.isqrt(p << 64) & _M32 for p in _PRIMES[:8])
_K = [(r - (r**3 > p << 96)) & _M32 for p in _PRIMES for r in [round((p << 96) ** (1 / 3))]]


def _rotr(x: int, n: int) -> int:
    return (x >> n | x << (32 - n)) & _M32


def sha256(data: bytes) -> bytes:
    """The SHA-256 digest of ``data``."""
    msg = bytes(data) + b"\x80" + bytes(-(len(data) + 9) % 64) + (8 * len(data)).to_bytes(8, "big")
    h = _H0
    for at in range(0, len(msg), 64):
        w = [int.from_bytes(msg[i:i + 4], "big") for i in range(at, at + 64, 4)]
        for t in range(16, 64):
            x, y = w[t - 15], w[t - 2]
            s0, s1 = _rotr(x, 7) ^ _rotr(x, 18) ^ x >> 3, _rotr(y, 17) ^ _rotr(y, 19) ^ y >> 10
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & _M32)
        a, b, c, d, e, f, g, k = h
        for kt, wt in zip(_K, w):
            t1 = k + (_rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)) + (e & f ^ ~e & g) + kt + wt
            t2 = (_rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)) + (a & b ^ a & c ^ b & c)
            a, b, c, d, e, f, g, k = (t1 + t2) & _M32, a, b, c, (d + t1) & _M32, e, f, g
        h = [(x + y) & _M32 for x, y in zip(h, (a, b, c, d, e, f, g, k))]
    return b"".join(x.to_bytes(4, "big") for x in h)


class Pcg64:
    """The ``uniform`` and ``integers`` draws of ``numpy.random.default_rng(seed)``, for ``seed >= 0``."""

    def __init__(self, seed: int):
        if (seed := operator.index(seed)) < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        # SeedSequence's pool of four from the seed's 32-bit words, then generate_state(4, np.uint64)
        const, mult = 0x43B0D7E5, 0x931E8875

        def hashmix(value: int) -> int:
            nonlocal const
            value, const = value ^ const, const * mult & _M32
            return (value := value * const & _M32) ^ value >> 16

        def mix(x: int, y: int) -> int:
            return (r := (0xCA01F9DD * x - 0x4973F715 * y) & _M32) ^ r >> 16

        entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        pool = [hashmix(w) for w in (entropy + [0] * 3)[:4]]
        for src in range(4):
            pool = [p if dst == src else mix(p, hashmix(pool[src])) for dst, p in enumerate(pool)]
        for w in entropy[4:]:
            pool = [mix(p, hashmix(w)) for p in pool]
        const, mult = 0x8B51F9DD, 0x58F38DED
        w0, w1, w2, w3 = [hashmix(pool[i]) | hashmix(pool[i + 1]) << 32 for i in (0, 2, 0, 2)]
        self._inc = (w2 << 64 | w3) << 1 | 1
        self._state = ((self._inc + (w0 << 64 | w1)) * _PCG_MULT + self._inc) & _M128  # pcg64_srandom_r
        self._kept = []  # a 32-bit draw takes the low half of a 64-bit word and keeps the high

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        self._kept = self._kept or [(x := self._next64()) >> 32, x & _M32]
        return self._kept.pop()

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """float64 draws in ``[low, high)``, of shape ``size``."""
        low, span, out = float(low), float(high) - float(low), np.empty(size)
        out.flat = [low + span * ((self._next64() >> 11) * 2.0**-53) for _ in range(out.size)]
        return out

    def integers(self, low: int, high: int, size=None):
        """int64 draws in ``[low, high)``, ``high - low <= 2**32``, of shape ``size`` (one np.int64 if None)."""
        span, out = high - low, np.empty(1 if size is None else size, dtype=np.int64)
        if not 1 <= span <= 2**32:
            raise ValueError(f"high - low must lie in [1, 2**32], got {span}")
        out.flat = [low + self._below(span) if span > 1 else low for _ in range(out.size)]
        return out[0] if size is None else out

    def _below(self, span: int) -> int:
        m = self._next32() * span
        while m & _M32 < 2**32 % span:  # Lemire: reject a low word below 2**32 mod span
            m = self._next32() * span
        return m >> 32

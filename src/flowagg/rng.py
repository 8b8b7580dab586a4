"""Deterministic random numbers with a fully pinned algorithm.

Streams are xoshiro256** generators seeded through SplitMix64, implemented
here rather than delegated to numpy so that the exact byte-level draw
sequence is part of this package's contract: results must reproduce across
platforms and library versions.

Draw order is part of the contract too. ``uniform``/``normal`` consume the
raw 64-bit stream in documented ways (see each method). The array fillers
take all of a call's raw draws in one batch and transform them as arrays,
yet give exactly the values, in row-major element order, and the stream
position that filling element by element with ``uniform``/``normal``
would give.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """64-bit mixer used for seeding and for deriving independent
    sub-seeds from a parent seed."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """The index-th sub-seed of `seed`: advance a SplitMix64 chain index+1
    times and take the last output. Distinct indices give independent
    streams; derivation is stateless and order-free for callers."""
    if index < 0:
        raise ValueError("sub-seed index must be non-negative")
    mixer = SplitMix64(seed)
    out = mixer.next()
    for _ in range(index):
        out = mixer.next()
    return out


class Xoshiro256StarStar:
    """xoshiro256** stream; state initialized from SplitMix64(seed).

    A freshly constructed generator's four state words are the first four
    SplitMix64 outputs. All-zero state cannot occur from this seeding.
    """

    def __init__(self, seed: int):
        mixer = SplitMix64(seed)
        self.s = [mixer.next(), mixer.next(), mixer.next(), mixer.next()]
        self._spare_normal: float | None = None

    def _draw_u64(self, n: int) -> list[int]:
        """The next n raw outputs; the one place the xoshiro256** step is
        written. The state words live in locals for the whole batch."""
        s0, s1, s2, s3 = self.s
        out = [0] * n
        for i in range(n):
            x = (s1 * 5) & _MASK64
            out[i] = (((x << 7) | (x >> 57)) * 9) & _MASK64
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self.s = [s0, s1, s2, s3]
        return out

    def next_u64(self) -> int:
        return self._draw_u64(1)[0]

    def uniform(self) -> float:
        """One float in [0, 1): the top 53 bits of one u64, scaled."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def normal(self) -> float:
        """Standard normal via the polar-free Box-Muller transform.

        Each invocation of the transform consumes exactly two u64 draws and
        produces two variates; the second is cached and returned by the
        next call without consuming stream. u1 is mapped into (0, 1] so the
        logarithm is always finite.
        """
        return float(self._normals(1)[0])

    def _normals(self, n: int) -> np.ndarray:
        """n normals as ``normal`` would return them one by one: the cached
        spare first, then ceil(rest / 2) Box-Muller pairs from one batch of
        raw draws, cos in the even slots and sin in the odd ones; an unused
        last sin becomes the new spare."""
        out = np.empty(n, dtype=np.float64)
        start = 0
        if n and self._spare_normal is not None:
            out[0] = self._spare_normal
            self._spare_normal = None
            start = 1
        pairs = (n - start + 1) // 2
        if pairs:
            u = np.array(self._draw_u64(2 * pairs), dtype=np.uint64)
            u1 = ((u[0::2] >> 11) + 1) * 2.0 ** -53
            u2 = (u[1::2] >> 11) * 2.0 ** -53
            r = np.sqrt(-2.0 * np.log(u1))
            theta = 2.0 * np.pi * u2
            z = np.empty(2 * pairs, dtype=np.float64)
            z[0::2] = r * np.cos(theta)
            z[1::2] = r * np.sin(theta)
            out[start:] = z[:n - start]
            if (n - start) % 2:
                self._spare_normal = float(z[-1])
        return out

    def uniform_array(self, shape) -> np.ndarray:
        """Float64 array of uniforms filled in row-major order."""
        shape = tuple(int(s) for s in shape)
        u = np.array(self._draw_u64(math.prod(shape)), dtype=np.uint64)
        return ((u >> 11).astype(np.float64) * 2.0 ** -53).reshape(shape)

    def normal_array(self, shape) -> np.ndarray:
        """Float64 array of standard normals filled in row-major order.

        Continues any cached spare from a previous ``normal`` call first.
        """
        shape = tuple(int(s) for s in shape)
        return self._normals(math.prod(shape)).reshape(shape)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection on the top bits, so the
        result is exactly uniform for any n."""
        if n <= 0:
            raise ValueError("randbelow needs a positive bound")
        nbits = (n - 1).bit_length()
        if nbits == 0:
            return 0
        while True:
            v = self.next_u64() >> (64 - nbits)
            if v < n:
                return v

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, drawing via ``randbelow`` from
        the top index downward."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

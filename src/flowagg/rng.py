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

Large batches of raw draws run in lanes. The xoshiro256** state update T
is linear over GF(2): every bit of the next state is an XOR of bits of the
current one, so T is a 256 x 256 bit matrix, and its power T^m jumps a
stream m draws ahead (Blackman & Vigna, "Scrambled Linear Pseudorandom
Number Generators", arXiv:1805.01407). A batch of at least
``LANE_MIN_DRAWS`` draws is cut into lanes of ``LANE_DRAWS`` consecutive
draws. Lane i starts from T^(i * LANE_DRAWS) applied to the batch's start
state, which is the state lane i - 1 ends at; lanes [0, m) jumped by
T^(m * LANE_DRAWS) give lanes [m, 2m), so the starts take one matrix
product per doubling. All lanes then step together as numpy uint64 arrays
through the same step code as the scalar loop, and the draws left over,
fewer than one lane, run in the scalar loop from the state the last lane
ended at. Each lane computes the draws the scalar loop computes at that
place in the stream, with the same integer operations, and the jumps are
exact bit arithmetic, so the values, their order and the final state are
the same bytes on either route; only the speed differs. The jump matrices
T^(2^j) come from one squaring chain, built on the first lane batch of a
process and kept for its life, 8 KiB each.
"""

from __future__ import annotations

import math
import operator
import threading

import numpy as np

_MASK64 = (1 << 64) - 1

# Batches of at least LANE_MIN_DRAWS raw draws run in lanes of LANE_DRAWS
# draws each, a power of two. On one x86-64 core, with the jump chain
# built, lanes of 64 drew 32,000 values in 4.8-5.0 ms against 41 ms for
# the scalar loop (lanes of 32, 128 and 256: 6.9, 5.5 and 7.7 ms), and
# passed the scalar loop at about 1,500 draws. The threshold sits higher
# because a process's first lane batch also builds the chain, 15-20 ms
# and about 1 MB of temporaries: with it at 2,048, init_params' 2,304-draw
# batch built the chain and a 300-step train run at N=200 peaked 0.65 MB
# higher. No batch of a training run reaches 4,096.
LANE_MIN_DRAWS = 4096
LANE_DRAWS = 64

# _JUMPS[j] is T^(2^j), the xoshiro256** step T applied 2^j times, held as
# the images of the 256 unit states: row b is the state that T^(2^j) makes
# of the state with only bit b set (see _bits), four uint64 words, 8 KiB in
# all. Filled by _jump_table on first use, never at import; the lock keeps
# two threads from both appending the same power.
_JUMPS: list[np.ndarray] = []
_JUMPS_LOCK = threading.Lock()


def _xoshiro_steps(state, out) -> list:
    """Write the next len(out) xoshiro256** outputs of `state` to `out` and
    return the state after them; the one place the step is written. The
    four words are Python ints, one stream, or equal-length uint64 arrays,
    one stream per element, whose outputs fill the rows of `out`."""
    s0, s1, s2, s3 = state
    for i in range(len(out)):
        x = (s1 * 5) & _MASK64
        out[i] = (((x << 7) | (x >> 57)) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
    return [s0, s1, s2, s3]


def _bits(words: np.ndarray) -> np.ndarray:
    """K states of four uint64 words as K x 256 bits; bit 64 * w + b is bit
    b of word w."""
    return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8),
                         axis=1, bitorder="little")


def _words(bits: np.ndarray) -> np.ndarray:
    """The inverse of _bits."""
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").astype(np.uint64)


def _jump(states: np.ndarray, table: np.ndarray) -> np.ndarray:
    """K states (K x 4 words) mapped by the linear map whose unit-state
    images are the rows of `table`: each result is the XOR of the rows its
    state's set bits pick. The float32 product is exact, since every sum
    is an integer of at most 256."""
    picked = _bits(states).astype(np.float32) @ _bits(table).astype(np.float32)
    return _words(picked.astype(np.int32) & 1)


def _jump_table(j: int) -> np.ndarray:
    """T^(2^j) as _JUMPS holds it, squaring the chain up to j on demand."""
    with _JUMPS_LOCK:
        if not _JUMPS:
            units = _words(np.eye(256, dtype=np.uint8))
            one_step = _xoshiro_steps(units.T.copy(), np.empty((1, 256), dtype=np.uint64))
            _JUMPS.append(np.stack(one_step, axis=1))
        while len(_JUMPS) <= j:
            _JUMPS.append(_jump(_JUMPS[-1], _JUMPS[-1]))
        return _JUMPS[j]


def _dims(shape) -> tuple[int, ...]:
    """An array filler's shape as non-negative ints, checked before any
    draw so that a bad shape leaves the stream where it was."""
    try:
        dims = tuple(operator.index(d) for d in shape)
    except TypeError:
        dims = None
    if dims is None or any(d < 0 for d in dims):
        raise ValueError(f"array shape must be a sequence of non-negative integers, got {shape!r}")
    return dims


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

    def _draw_u64(self, n: int) -> np.ndarray:
        """The next n raw outputs as a uint64 array: in lanes when n is at
        least LANE_MIN_DRAWS (see the module docstring), the rest in the
        scalar loop."""
        out = np.empty(n, dtype=np.uint64)
        lanes = n // LANE_DRAWS if n >= LANE_MIN_DRAWS else 0
        if lanes:
            # Lanes [0, m) jump T^(m * LANE_DRAWS) ahead to give lanes [m, 2m).
            starts = np.array([self.s], dtype=np.uint64)
            j = LANE_DRAWS.bit_length() - 1
            while len(starts) < lanes:
                ahead = _jump(starts[:lanes - len(starts)], _jump_table(j))
                starts = np.concatenate([starts, ahead])
                j += 1
            grid = out[:lanes * LANE_DRAWS].reshape(lanes, LANE_DRAWS)
            end = _xoshiro_steps(starts.T.copy(), grid.T)
            self.s = [int(w[-1]) for w in end]
        tail = [0] * (n - lanes * LANE_DRAWS)
        self.s = _xoshiro_steps(self.s, tail)
        out[lanes * LANE_DRAWS:] = tail
        return out

    def next_u64(self) -> int:
        return int(self._draw_u64(1)[0])

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
            u = self._draw_u64(2 * pairs)
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
        shape = _dims(shape)
        u = self._draw_u64(math.prod(shape))
        return ((u >> 11).astype(np.float64) * 2.0 ** -53).reshape(shape)

    def normal_array(self, shape) -> np.ndarray:
        """Float64 array of standard normals filled in row-major order.

        Continues any cached spare from a previous ``normal`` call first.
        """
        shape = _dims(shape)
        return self._normals(math.prod(shape)).reshape(shape)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection on the top bits, so the
        result is exactly uniform for any n up to 2**64."""
        if n <= 0:
            raise ValueError("randbelow needs a positive bound")
        if n > 1 << 64:
            raise ValueError(f"randbelow bound {n} exceeds 2**64, the range of one raw draw")
        nbits = (n - 1).bit_length()
        if nbits == 0:
            return 0
        while True:
            v = self.next_u64() >> (64 - nbits)
            if v < n:
                return v

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle from the top index downward: index
        i swaps with ``randbelow(i + 1)``. The raw draws come in batches of
        one per index still to place, tested as ``randbelow`` tests them;
        each index takes at least one draw, so a batch never reaches past
        the stream position that drawing one at a time would end at."""
        i = len(items) - 1
        while i > 0:
            for v in self._draw_u64(i).tolist():
                j = v >> (64 - i.bit_length())
                if j <= i:
                    items[i], items[j] = items[j], items[i]
                    i -= 1

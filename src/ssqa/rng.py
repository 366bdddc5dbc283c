"""64-bit xorshift random number generation with per-replica streams.

The generator applies Marsaglia's (13, 7, 17) left/right/left shift triple
(G. Marsaglia, "Xorshift RNGs", J. Stat. Softw. 8(14), 2003). Replica
stream k is seeded with splitmix64(seed + (k+1) * GOLDEN), which is a
bijection of distinct inputs, so streams are pairwise distinct; a zero
result (which would be an absorbing state) is remapped deterministically.

Binary spin noise takes the low bit of each output word; uniform floats map
the word into [-1, 1). Both engines (reference and hardware model) consume
one output word per spin update from the owning replica's stream, in spin
index order, so their streams stay aligned.

Blocks are generated by jumping ahead. The xorshift step is linear over
GF(2), so k draws map a state s to T^k s for a fixed 64x64 bit matrix T,
and any power of T is built from T by repeated squaring (H. Haramoto,
M. Matsumoto, T. Nishimura, F. Panneton, P. L'Ecuyer, "Efficient jump ahead
for F2-linear random number generators", INFORMS J. Comput. 20(3), 2008).
next_block(n) cuts the n draws of every stream into C = isqrt(n) lanes of
L = ceil(n / C) consecutive draws. Lane c starts from T^(cL) s, and all
C * R lanes advance L times in lockstep as one numpy array, so Python loops
about sqrt(n) times per block instead of n times. The words come out in
stream order, equal to n scalar steps of each stream.

A bit matrix M is held as a 4-bit lookup table: entry [j, v] is M applied
to the word v << 4j. M x is then the XOR of the 16 entries picked by the
nibbles of x, and the table of a product A B is A applied to every entry of
the table of B.

Noise bits need no full words. Bit 0 of draw i is linear in the state,
so the bits of draws 0..n-1 and the state after them are one GF(2)-linear
map of the state, held as a nibble table like the jump tables: entry
[j, v] packs the n low bits drawn from the state v << 4j into ceil(n / 64)
words, followed by T^n (v << 4j). next_block(n, low_bit=True) is then one
table gather per block, whose last word is the new state. next_bipolar
draws through it, so a wrapper on next_block sees every word.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Kept for result provenance, which names the RNG backend; the block kernel
# is plain numpy and has no compiled variant.
_HAVE_NUMBA = False

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    x = (x + GOLDEN) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return (x ^ (x >> 31)) & MASK64


def xorshift_next(state: int):
    """One step of the 64-bit xorshift (13, 7, 17); returns (state', output)."""
    if state == 0:
        raise ValueError("xorshift state must be nonzero")
    x = state & MASK64
    x = (x ^ (x << 13)) & MASK64
    x ^= x >> 7
    x = (x ^ (x << 17)) & MASK64
    return x, x


class XorShift64:
    """Scalar 64-bit xorshift generator; state is never zero."""

    def __init__(self, seed: int):
        self.state = seed & MASK64
        if self.state == 0:
            raise ValueError("seed must be nonzero")

    def next_word(self) -> int:
        self.state, out = xorshift_next(self.state)
        return out


def stream_seeds(seed: int, n_streams: int) -> np.ndarray:
    """Derive one nonzero 64-bit stream seed per replica from the run seed."""
    seeds = np.empty(n_streams, dtype=np.uint64)
    for k in range(n_streams):
        s = splitmix64((seed + (k + 1) * GOLDEN) & MASK64)
        while s == 0:
            s = splitmix64(s + 1)
        seeds[k] = s
    return seeds


_S13, _S7, _S17 = np.uint64(13), np.uint64(7), np.uint64(17)
_NIBBLE = np.arange(16, dtype=np.uint64)
_NIBBLE_SHIFT = (np.uint64(4) * _NIBBLE)[:, None]
# Row j of a table flattened to 256 entries starts at entry 16 j.
_NIBBLE_BASE = 16 * np.arange(16)[:, None]
# Lookup table of the identity matrix: entry [j, v] is v << 4j.
_IDENTITY = _NIBBLE << _NIBBLE_SHIFT


def _advance(x: np.ndarray) -> None:
    """One xorshift step of every word of x, in place."""
    x ^= x << _S13
    x ^= x >> _S7
    x ^= x << _S17


def _apply(tables: np.ndarray, words: np.ndarray) -> np.ndarray:
    """(M, K) images of the K words under each of the M matrix tables, or
    (M, K, ...) when the table entries have trailing axes (the packed words
    of a low-bit table).

    The gather holds one table entry per (matrix, nibble, word), never one
    per bit.
    """
    idx = ((words >> _NIBBLE_SHIFT) & np.uint64(15)).astype(np.intp)
    idx += _NIBBLE_BASE
    flat = tables.reshape(tables.shape[0], 256, *tables.shape[3:])
    return np.bitwise_xor.reduce(np.take(flat, idx, axis=1), axis=1)


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Table of the product a b of two matrix tables."""
    return _apply(a[None], b.ravel()).reshape(16, 16)


def _jump_table(k: int) -> np.ndarray:
    """Table of T^k, the state map of k xorshift draws."""
    power = _IDENTITY.copy()
    _advance(power)
    result = _IDENTITY
    while k:
        if k & 1:
            result = _compose(power, result)
        power = _compose(power, power)
        k >>= 1
    return result


@functools.lru_cache(maxsize=8)
def _lane_tables(lanes: int, length: int) -> np.ndarray:
    """Read-only (lanes, 16, 16) tables of T^(c * length), c = 0..lanes-1."""
    stride = _jump_table(length)
    tables = [_IDENTITY]
    for _ in range(1, lanes):
        tables.append(_compose(stride, tables[-1]))
    tables = np.stack(tables)
    tables.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=8)
def _low_bit_table(n: int) -> np.ndarray:
    """Read-only (16, 16, ceil(n / 64) + 1) nibble table of the n noise bits
    and the state after them, built from the 64 basis rows one nibble bit at
    a time. Bit j of masks[i] is draw i's bit from the basis state e_j, so
    masks[i] is row 0 of T^(i+1): U^(i+1) e_0 for the transpose U of T (right
    by 17, left by 7, right by 13), and masks[i + L] is U^L masks[i]."""
    power = _IDENTITY ^ (_IDENTITY >> _S17)  # the table of U, then of U^step
    power ^= power << _S7
    power ^= power >> _S13
    masks = power[0, 1:2]
    while len(masks) < n:  # the masks double up to 256 words, then grow 256 a pass
        step = min(len(masks), 256)
        masks = np.concatenate((masks, _apply(power[None], masks[-step:][:n - len(masks)])[0]))
        if step < 256:
            power = _compose(power, power)
    # Row b of rows holds byte b of each mask; a basis row packs 64 draws a word.
    words, rows = -(-n // 64), masks[:n].astype("<u8").view(np.uint8).reshape(n, 8).T.copy()
    basis = np.zeros((64, words + 1), dtype="<u8")
    for b, packed in enumerate(basis.view(np.uint8)[:, :(n + 7) // 8].reshape(8, 8, -1)):
        packed[:] = np.packbits(np.unpackbits(rows[b:b + 1], axis=0, bitorder="little"),
                                axis=1, bitorder="little")  # basis rows 8b..8b+7
    basis[:, -1] = _apply(_jump_table(n)[None], np.uint64(1) << np.arange(64, dtype=np.uint64))[0]
    table = np.zeros((16, 16, words + 1), dtype=np.uint64)
    for k in range(4):  # entries v < 2^(k+1) from entries v < 2^k and nibble bit k
        table[:, 1 << k:2 << k] = table[:, :1 << k] ^ basis[k::4, None]
    table.flags.writeable = False
    return table


class RngStreams:
    """R parallel xorshift streams advanced in lockstep.

    next_block(n) returns the next n output words of every stream as an
    (n, R) array: entry [i, k] is draw i of stream k. With low_bit=True it
    returns bit 0 of each of those words as uint8, without forming the words.
    """

    def __init__(self, seed: int, n_streams: int):
        self.states = stream_seeds(seed, n_streams)
        self.n_streams = n_streams

    def next_block(self, n: int, low_bit: bool = False) -> np.ndarray:
        states = self.states
        r = states.shape[0]
        if low_bit:
            out = _apply(_low_bit_table(n)[None], states)[0]  # (R, words + 1)
            states[:] = out[:, -1]
            # Byte b of word w packs draws 64 w + 8 b .. 64 w + 8 b + 7.
            packed = out[:, :-1].astype("<u8", copy=False).view(np.uint8).T
            return np.unpackbits(packed, axis=0, count=n, bitorder="little")
        if n == 0:
            return np.empty((0, r), dtype=np.uint64)
        c = math.isqrt(n)
        length = -(-n // c)
        lanes = _apply(_lane_tables(c, length), states)
        out = np.empty((c, length, r), dtype=np.uint64)
        for j in range(length):
            _advance(lanes)
            out[:, j] = lanes
        out = out.reshape(c * length, r)[:n]
        states[:] = out[-1]
        return out

    def next_bipolar(self, n: int) -> np.ndarray:
        """(n, R) int64 array of +-1 noise bits (low bit of each word)."""
        return 2 * self.next_block(n, low_bit=True).astype(np.int64) - 1

    def next_uniform(self, n: int) -> np.ndarray:
        """(n, R) array of uniforms in [-1, 1)."""
        words = self.next_block(n)
        return (words >> np.uint64(1)).astype(np.float64) / (2.0**62) - 1.0

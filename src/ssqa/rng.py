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

Every table is built one way. The xorshift step is linear over GF(2), so
any map of the state made of draws (T^k for k draws, or the noise bits of n
draws with the state after them) is fixed by the images of the 64 basis
states e_0..e_63, and those images are drawn with the generator itself. The
map is held as a 4-bit lookup table: entry [j, v] is the image of v << 4j,
the XOR of the images of its set bits, so a state's image is the XOR of the
16 entries its nibbles pick.

next_block(n) cuts the n draws of every stream into C = isqrt(n) lanes of
L = ceil(n / C) consecutive draws. Lane c starts from T^(cL) s, read from
the table of T^L applied c times, and all C * R lanes advance L times in
lockstep as one numpy array, so Python loops about sqrt(n) times per block
instead of n times. The words come out in stream order, equal to n scalar
steps of each stream. next_block(n, low_bit=True) is one gather from the
table of the n noise bits, packed 64 draws a word, whose last word is the
new state. next_bipolar draws through it, so a wrapper on next_block sees
every word.
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
_NIBBLE_SHIFT = np.arange(0, 64, 4, dtype=np.uint64)[:, None]
# Row j of a table flattened to 256 entries starts at entry 16 j.
_NIBBLE_BASE = 16 * np.arange(16)[:, None]
# The basis states e_0..e_63: e_j has bit j set.
_BASIS = np.uint64(1) << np.arange(64, dtype=np.uint64)


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


def _table(images: np.ndarray) -> np.ndarray:
    """Read-only (16, 16, ...) nibble table of the linear map whose images of
    e_0..e_63 are images[0..63]: entry [j, v] is the XOR of the images of the
    bits set in v << 4j."""
    table = np.zeros((16, 16, *images.shape[1:]), dtype=np.uint64)
    for k in range(4):  # entries v < 2^(k+1) from entries v < 2^k and nibble bit k
        table[:, 1 << k:2 << k] = table[:, :1 << k] ^ images[k::4, None]
    table.flags.writeable = False
    return table


def _draws(states: np.ndarray, n: int) -> np.ndarray:
    """(n, R) array of the next n words of the R states, which advance n
    draws in place: entry [i, k] is draw i from states[k]."""
    if n == 0:
        return np.empty((0, states.shape[0]), dtype=np.uint64)
    c = math.isqrt(n)
    length = -(-n // c)
    lanes = _apply(_lane_tables(c, length), states)
    out = np.empty((c, length, states.shape[0]), dtype=np.uint64)
    for j in range(length):
        _advance(lanes)
        out[:, j] = lanes
    out = out.reshape(c * length, -1)[:n]
    states[:] = out[-1]
    return out


@functools.lru_cache(maxsize=8)
def _lane_tables(lanes: int, length: int) -> np.ndarray:
    """Read-only (lanes, 16, 16) tables of T^(c * length), c = 0..lanes-1."""
    images = [_BASIS]
    if lanes > 1:  # length < n of the block that asks, so the recursion ends
        stride = _table(_draws(_BASIS.copy(), length)[-1])
        for _ in range(1, lanes):
            images.append(_apply(stride[None], images[-1])[0])
    tables = np.moveaxis(_table(np.stack(images, axis=1)), 2, 0).copy()
    tables.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=8)
def _low_bit_table(n: int) -> np.ndarray:
    """Read-only (16, 16, ceil(n / 64) + 1) nibble table of the n noise bits
    and the state after them. The image of e_j packs bit 0 of the n draws
    from e_j, 64 draws a word, and ends with the state they leave."""
    states = _BASIS.copy()
    images = np.zeros((64, -(-n // 64) + 1), dtype="<u8")
    # Byte b of word w packs draws 64 w + 8 b .. 64 w + 8 b + 7, LSB first.
    packed = images.view(np.uint8)
    for start in range(0, n, 128):
        bits = _draws(states, min(128, n - start)).T & np.uint64(1)
        packed[:, start // 8:(start + bits.shape[1] + 7) // 8] = np.packbits(
            bits, axis=1, bitorder="little")
    images[:, -1] = states
    return _table(images)


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
        if low_bit:
            states = self.states
            out = _apply(_low_bit_table(n)[None], states)[0]  # (R, words + 1)
            states[:] = out[:, -1]
            # Byte b of word w packs draws 64 w + 8 b .. 64 w + 8 b + 7.
            packed = out[:, :-1].astype("<u8", copy=False).view(np.uint8).T
            return np.unpackbits(packed, axis=0, count=n, bitorder="little")
        return _draws(self.states, n)

    def next_bipolar(self, n: int) -> np.ndarray:
        """(n, R) int64 array of +-1 noise bits (low bit of each word)."""
        return 2 * self.next_block(n, low_bit=True).astype(np.int64) - 1

    def next_uniform(self, n: int) -> np.ndarray:
        """(n, R) array of uniforms in [-1, 1)."""
        words = self.next_block(n)
        return (words >> np.uint64(1)).astype(np.float64) / (2.0**62) - 1.0

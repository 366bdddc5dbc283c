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
steps of each stream. T^L is the last word of the cached table of L noise
bits (below), whose image of e_j ends with T^L e_j, as an F2-linear jump is
fixed by its basis images (Haramoto et al., INFORMS J. Comput. 20(3),
2008); so each length holds one map, and a lane count is table applications.

next_block(n, low_bit=True) is one gather from the table of the n noise
bits, whose last word is the new state. With lanes=C the n draws come as C
lanes of L = n / C: one gather of the lane tables gives every lane's start
state, one gather of the L-bit table over the C * R lane states gives every
lane's bits, and lane C - 1's end word is the new state. So a narrow plane
draws many steps of noise per call from the table of one lane. The bits are
packed by bit plane: with B = ceil(n / 8), draw i is bit i // B of byte
i % B, so bit plane p holds draws pB .. pB + B - 1 in order. After one
small (R, B) -> (B, R) byte transpose, shifting the byte plane right by
p = 0..7 and masking bit 0 writes plane p as rows pB .. pB + B - 1 of a
C-ordered (n, R) block: two contiguous broadcast passes give the bits
spin-major, draw i of every stream in row i, with no transposed unpack
(lane by lane for a lane block).
next_bipolar draws through it, so a wrapper on next_block sees every word.
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
    """Read-only (lanes, 16, 16) tables of T^(c * length), c = 0..lanes-1:
    T^length, the last word of the cached _low_bit_table(length), applied c
    times, so a lane count at a length whose low-bit table is cached draws
    nothing."""
    images = [_BASIS]
    if lanes > 1:
        stride = _low_bit_table(length)[None, ..., -1]
        for _ in range(1, lanes):
            images.append(_apply(stride, images[-1])[0])
    tables = np.moveaxis(_table(np.stack(images, axis=1)), 2, 0).copy()
    tables.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=8)
def _low_bit_table(n: int) -> np.ndarray:
    """Read-only (16, 16, ceil(n / 64) + 1) nibble table of the n noise bits
    and the state after them. The image of e_j packs bit 0 of the n draws
    from e_j by bit plane, draw i in bit i // B of byte i % B with
    B = ceil(n / 8), and ends with the state they leave (T^n). The basis is
    drawn in 128-draw chunks, so no (n, 64) word array is held; a chunk's
    lanes are shorter than it, so the recursion through _draws ends."""
    width = -(-n // 8)
    states = _BASIS.copy()
    images = np.zeros((64, -(-n // 64) + 1), dtype="<u8")
    packed = images.view(np.uint8)
    for start in range(0, n, 128):
        bits = _draws(states, min(128, n - start)).astype(np.uint8)  # (draws, 64): the low bytes
        bits &= 1
        stop = start + len(bits)
        # Each bit plane the chunk reaches ORs its draws into their bytes.
        for plane in range(start // width, (stop - 1) // width + 1):
            base = plane * width
            lo, hi = max(start, base), min(stop, base + width)
            packed[:, lo - base:hi - base] |= bits[lo - start:hi - start].T << plane
    images[:, -1] = states
    return _table(images)


_PLANES = np.arange(8, dtype=np.uint8)[:, None]


def _unpack_planes(words: np.ndarray, n: int) -> np.ndarray:
    """(C, n, R) uint8 bits of C lanes of R C-ordered rows of packed words a
    low-bit table gives, each lane a C-ordered (n, R) plane: row i is draw
    i, bit i // B of byte i % B."""
    lanes, replicas = words.shape[:2]
    width = -(-n // 8)
    # Each lane's (B, R) bytes, transposed once (a view at R = 1); plane p
    # then fills rows pB .. pB + B - 1 of its lane. The passes run over flat
    # (C, 8, B R) arrays, so that the inner loop is B R bytes long even at
    # R = 1.
    packed = words.astype("<u8", copy=False).view(np.uint8)[..., :width]
    packed = packed.transpose(0, 2, 1).reshape(lanes, 1, -1)
    bits = packed >> _PLANES
    bits &= 1
    return bits.reshape(lanes, 8 * width, replicas)[:, :n]


class RngStreams:
    """R parallel xorshift streams advanced in lockstep.

    next_block(n) returns the next n output words of every stream as an
    (n, R) array: entry [i, k] is draw i of stream k. With low_bit=True it
    returns bit 0 of each of those words as a C-ordered uint8 array, without
    forming the words. With lanes=C it returns the same n draws as C
    consecutive lanes of L = n / C draws, a (C, L, R) array whose lane c is
    draws cL .. cL + L - 1; each low-bit lane is a C-ordered (L, R) plane.
    """

    def __init__(self, seed: int, n_streams: int):
        self.states = stream_seeds(seed, n_streams)
        self.n_streams = n_streams

    def next_block(self, n: int, low_bit: bool = False, lanes: int | None = None) -> np.ndarray:
        count = 1 if lanes is None else lanes
        if count < 1 or n % count:
            raise ValueError(f"{n} draws do not split into {lanes} equal lanes")
        length, states = n // count, self.states
        if not low_bit:
            words = _draws(states, n)
            return words if lanes is None else words.reshape(count, length, -1)
        # Lane c starts from T^(cL) s; one gather then packs every lane's bits.
        starts = _apply(_lane_tables(count, length), states).reshape(-1) if count > 1 else states
        out = _apply(_low_bit_table(length)[None], starts)[0]  # (C R, words + 1)
        states[:] = out[-len(states):, -1]  # the end words of lane C - 1
        bits = _unpack_planes(out.reshape(count, len(states), -1), length)
        return bits[0] if lanes is None else bits

    def next_bipolar(self, n: int) -> np.ndarray:
        """(n, R) int64 array of +-1 noise bits (low bit of each word)."""
        return 2 * self.next_block(n, low_bit=True).astype(np.int64) - 1

    def next_uniform(self, n: int) -> np.ndarray:
        """(n, R) array of uniforms in [-1, 1)."""
        words = self.next_block(n)
        return (words >> np.uint64(1)).astype(np.float64) / (2.0**62) - 1.0

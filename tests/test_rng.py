"""Unit tests for the xorshift64 generator and per-replica streams."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ssqa.rng import (
    GOLDEN,
    MASK64,
    RngStreams,
    XorShift64,
    _BASIS,
    _apply,
    _lane_tables,
    _low_bit_table,
    splitmix64,
    stream_seeds,
    xorshift_next,
)

# First five outputs of the (13, 7, 17) L/R/L xorshift for three seeds,
# computed with an independent straight-line implementation.
GOLDEN_SEQUENCES = {
    0x1: [
        0x40822041,
        0x100041060C011441,
        0x9B1E842F6E862629,
        0xF554F503555D8025,
        0x860C1FB090599265,
    ],
    0x123456789ABCDEF: [
        0x3F2800D6569E01B4,
        0x606F949A3CEBD0B7,
        0xC69BBA40DDDCCAD6,
        0xBDC162A6BF8906C3,
        0xACCCFEE2B873C40E,
    ],
    88172645463325252: [
        0x79690975FBDE15B0,
        0x2A337357AE2CC59B,
        0x2FEF107A27529AD0,
        0xE4093DF8432A8BE5,
        0x71DD0913271687B2,
    ],
}

# Reference first outputs of splitmix64 for inputs 0, 1, 2.
SPLITMIX_GOLDEN = [0xE220A8397B1DCDAF, 0x910A2DEC89025CC1, 0x975835DE1C9756CE]


@pytest.mark.parametrize("seed", sorted(GOLDEN_SEQUENCES))
def test_xorshift_golden_sequence(seed):
    gen = XorShift64(seed)
    assert [gen.next_word() for _ in range(5)] == GOLDEN_SEQUENCES[seed]


@pytest.mark.parametrize("x,expect", list(enumerate(SPLITMIX_GOLDEN)))
def test_splitmix64_golden(x, expect):
    assert splitmix64(x) == expect


def test_xorshift_rejects_zero_state():
    with pytest.raises(ValueError):
        xorshift_next(0)
    with pytest.raises(ValueError):
        XorShift64(0)


def test_state_never_zero_long_run():
    gen = XorShift64(0xDEADBEEF)
    for _ in range(10_000):
        gen.next_word()
        assert gen.state != 0


def test_state_never_zero_million_steps_from_seed_one():
    # The state update is a bijection on nonzero 64-bit words, so the output
    # word equals the next state; a zero output would mean a dead generator.
    streams = RngStreams.__new__(RngStreams)
    streams.states = np.array([1], dtype=np.uint64)
    words = streams.next_block(1_000_000)
    assert not np.any(words == 0)


def test_outputs_stay_in_64_bits():
    gen = XorShift64(3)
    for _ in range(1000):
        assert 0 < gen.next_word() <= MASK64


def test_stream_seeds_distinct_and_nonzero():
    seeds = stream_seeds(42, 64)
    assert len(set(seeds.tolist())) == 64
    assert all(s != 0 for s in seeds.tolist())
    # Different run seeds give different stream seeds.
    assert set(seeds.tolist()).isdisjoint(stream_seeds(43, 64).tolist())


def test_streams_match_scalar_generator():
    """Block generation must equal running each scalar stream independently."""
    seed, r, n = 7, 5, 32
    streams = RngStreams(seed, r)
    block = streams.next_block(n)
    scalars = [XorShift64(int(s)) for s in stream_seeds(seed, r)]
    for k in range(r):
        expect = [scalars[k].next_word() for _ in range(n)]
        assert block[:, k].tolist() == expect


def test_bipolar_is_low_bit():
    streams_a = RngStreams(11, 3)
    streams_b = RngStreams(11, 3)
    words = streams_a.next_block(64)
    bits = streams_b.next_bipolar(64)
    assert np.array_equal(bits, np.where(words & np.uint64(1), 1, -1))
    assert set(np.unique(bits)) <= {-1, 1}


def test_uniform_range_and_mean():
    streams = RngStreams(5, 4)
    u = streams.next_uniform(5000)
    assert u.min() >= -1.0 and u.max() < 1.0
    assert abs(u.mean()) < 0.02


def test_blocks_are_contiguous():
    """Two blocks of n equal one block of 2n."""
    a = RngStreams(9, 2)
    b = RngStreams(9, 2)
    two = np.vstack([a.next_block(10), a.next_block(10)])
    assert np.array_equal(two, b.next_block(20))


def test_golden_ratio_constant():
    assert GOLDEN == 0x9E3779B97F4A7C15


def test_numpy_fallback_matches_block_kernel():
    """The lane-parallel block kernel equals the scalar generator, block by block."""
    streams = RngStreams(17, 6)
    scalars = [XorShift64(int(s)) for s in stream_seeds(17, 6)]
    for n in (40, 1, 7, 40):
        expect = [[g.next_word() for g in scalars] for _ in range(n)]
        assert streams.next_block(n).tolist() == expect


# 1, primes, and any size up to 300 (17 lanes of 18 draws).
BLOCK_SIZES = st.one_of(
    st.sampled_from([1, 2, 3, 5, 7, 11, 13, 31, 97, 101, 257]),
    st.integers(0, 300),
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, MASK64), r=st.integers(1, 24),
       sizes=st.lists(BLOCK_SIZES, min_size=1, max_size=6))
# 16 is below the 17 lanes of a 300-word block; 290 is not a multiple of its
# 17 lanes, so its last lane is 2 draws long where the others are 18.
@example(seed=1, r=24, sizes=[300, 16, 1, 290, 97, 3])
def test_blocks_match_scalar_streams(seed, r, sizes):
    """Concatenated blocks of any sizes equal the R scalar streams."""
    streams = RngStreams(seed, r)
    got = np.vstack([streams.next_block(n) for n in sizes])
    scalars = [XorShift64(int(s)) for s in stream_seeds(seed, r)]
    expect = [[g.next_word() for g in scalars] for _ in range(sum(sizes))]
    assert got.tolist() == expect


# (2, 0) is the identity; 129 and 300 draws cross the low-bit table's 128-draw chunks.
@pytest.mark.parametrize("lanes,length", [(1, 5), (2, 0), (2, 1), (2, 64), (17, 18), (28, 29),
                                          (63, 64), (2, 129), (4, 300)])
def test_lane_tables_equal_scalar_steps(lanes, length):
    """Lane table c applied to a state is the state after c * length scalar draws."""
    tables = _lane_tables(lanes, length)
    assert tables.shape == (lanes, 16, 16) and tables.flags.c_contiguous
    assert not tables.flags.writeable
    gen = XorShift64(0x123456789ABCDEF)
    jumped = _apply(tables, np.array([gen.state], dtype=np.uint64))[:, 0]
    for c in range(lanes):
        assert int(jumped[c]) == gen.state, c
        for _ in range(length):
            gen.next_word()


DRAWS = ("block", "low_bit", "bipolar", "uniform")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, MASK64), r=st.integers(1, 24),
       calls=st.lists(st.tuples(st.sampled_from(DRAWS), BLOCK_SIZES), min_size=1,
                      max_size=8))
@example(seed=1, r=20, calls=[("low_bit", 800), ("bipolar", 0), ("uniform", 17),
                              ("low_bit", 1), ("block", 290), ("bipolar", 97)])
# The word boundaries of the packed low-bit table, at one and many streams.
@example(seed=1, r=1, calls=[("low_bit", 63), ("low_bit", 64), ("low_bit", 65),
                             ("low_bit", 128), ("bipolar", 65)])
@example(seed=1, r=24, calls=[("low_bit", 63), ("low_bit", 64), ("low_bit", 65),
                              ("low_bit", 128), ("bipolar", 65)])
def test_low_bits_equal_the_full_word_path(seed, r, calls):
    """Parity-mask draws of any kind and size, interleaved with full-word
    draws, equal bit 0 of the words of a twin stream and leave the same state."""
    words_only, mixed = RngStreams(seed, r), RngStreams(seed, r)
    for kind, n in calls:
        words = words_only.next_block(n)
        if kind == "block":
            assert np.array_equal(mixed.next_block(n), words)
        elif kind == "low_bit":
            bits = mixed.next_block(n, low_bit=True)
            assert bits.dtype == np.uint8 and bits.shape == (n, r)
            assert np.array_equal(bits, words & np.uint64(1))
        elif kind == "bipolar":
            bits = mixed.next_bipolar(n)
            assert bits.dtype == np.int64
            assert np.array_equal(bits, np.where(words & np.uint64(1), 1, -1))
        else:
            expect = (words >> np.uint64(1)).astype(np.float64) / 2.0**62 - 1.0
            assert np.array_equal(mixed.next_uniform(n), expect)
        assert np.array_equal(mixed.states, words_only.states)


def test_low_bit_tables_are_cached_and_read_only():
    table = _low_bit_table(800)
    assert _low_bit_table(800) is table and table.shape == (16, 16, 14)
    for n, words in ((0, 0), (63, 1), (64, 1), (65, 2), (128, 2)):
        assert _low_bit_table(n).shape == (16, 16, words + 1)
    with pytest.raises(ValueError):
        table[0, 0, 0] = 0
    # The last word maps a state to the state after 800 scalar draws.
    gen = XorShift64(0x123456789ABCDEF)
    last = _apply(table[..., -1][None], np.array([gen.state], dtype=np.uint64))
    for _ in range(800):
        gen.next_word()
    assert int(last[0, 0]) == gen.state


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 300])
def test_low_bit_table_entries_are_scalar_draws(n):
    """Entry [j, v] packs bit 0 of the n scalar draws from v << 4j by bit
    plane, draw i in bit i // B of byte i % B with B = ceil(n / 8), the
    bytes little-endian 8 a word, then holds the state after them."""
    table = _low_bit_table(n)
    width = -(-n // 8)
    for j, v in ((0, 1), (0, 15), (3, 6), (8, 9), (15, 1), (15, 15)):
        gen = XorShift64(v << 4 * j)
        packed = [0] * (8 * -(-n // 64))
        for i in range(n):
            packed[i % width] |= (gen.next_word() & 1) << (i // width)
        words = [int.from_bytes(bytes(packed[w:w + 8]), "little")
                 for w in range(0, len(packed), 8)]
        assert table[j, v].tolist() == words + [gen.state], (j, v)


@pytest.mark.parametrize("replicas", [1, 3, 20, 480])
def test_low_bit_block_is_c_ordered_spin_major_low_bits(replicas):
    """next_block(n, low_bit=True) is a C-ordered (n, R) uint8 array equal to
    bit 0 of the full words, at every n around a byte, word and bit-plane
    boundary, an empty block included, and leaves the states the words do."""
    bits_rng, words_rng = RngStreams(11, replicas), RngStreams(11, replicas)
    for n in (0, 1, 7, 8, 9, 63, 64, 65, 4000, 4096):
        bits = bits_rng.next_block(n, low_bit=True)
        assert bits.dtype == np.uint8 and bits.shape == (n, replicas)
        assert bits.flags.c_contiguous
        assert np.array_equal(bits, words_rng.next_block(n) & np.uint64(1))
        assert np.array_equal(bits_rng.states, words_rng.states)


def test_low_bit_table_build_stays_within_its_heap_budget():
    """Each 128-draw chunk is packed straight into its bit-plane bytes: the
    build of the n = 4000 table peaks at no more heap than the draw-order
    packing it replaced (379,520 bytes under numpy 2.4)."""
    _low_bit_table.__wrapped__(4000)  # the lane tables are cached, as in a run
    tracemalloc.start()
    try:
        _low_bit_table.__wrapped__(4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 379_520


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, MASK64), r=st.sampled_from([1, 2, 3, 20]), lanes=st.integers(1, 20),
       length=st.sampled_from([1, 7, 8, 9, 63, 64, 65, 800, 4000, 4095]))
@example(seed=1, r=1, lanes=20, length=4000)  # an R = 1 G11 block: 20 lanes of 5 steps
@example(seed=1, r=3, lanes=6, length=4095)
def test_lane_blocks_equal_consecutive_blocks(seed, r, lanes, length):
    """next_block(C L, low_bit=True, lanes=C) is C C-ordered (L, R) lanes
    equal to C consecutive next_block(L, low_bit=True) calls of a twin
    stream, and leaves the states they leave."""
    lane_rng, twin = RngStreams(seed, r), RngStreams(seed, r)
    bits = lane_rng.next_block(lanes * length, low_bit=True, lanes=lanes)
    assert bits.dtype == np.uint8 and bits.shape == (lanes, length, r)
    for c in range(lanes):
        assert bits[c].flags.c_contiguous
        assert np.array_equal(bits[c], twin.next_block(length, low_bit=True)), c
    assert np.array_equal(lane_rng.states, twin.states)


def test_word_lanes_and_uneven_splits():
    """Full-word lanes are the block cut into consecutive lanes; a block that
    does not split into whole lanes raises."""
    lane_rng, twin = RngStreams(5, 3), RngStreams(5, 3)
    words = lane_rng.next_block(12, lanes=4)
    assert words.shape == (4, 3, 3)
    assert np.array_equal(words.reshape(12, 3), twin.next_block(12))
    for n, lanes in ((10, 3), (4, 0), (4, -2)):
        for low_bit in (False, True):
            with pytest.raises(ValueError, match="equal lanes"):
                lane_rng.next_block(n, low_bit, lanes)
    assert np.array_equal(lane_rng.states, twin.states)


def test_lane_table_build_stays_within_its_heap_budget():
    """T^L is read off the cached low-bit table of L draws, whose basis is
    drawn in 128-draw chunks, so an uncached _lane_tables(20, 4000) build
    holds no (4000, 64) word array (2 MB). Under numpy 2.4 its tracemalloc
    peak was 129,256 bytes with the low-bit table cached."""
    _lane_tables.__wrapped__(20, 4000)  # the low-bit tables are cached, as in a run
    tracemalloc.start()
    try:
        _lane_tables.__wrapped__(20, 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 200_000


def test_second_lane_count_at_a_length_draws_nothing(monkeypatch):
    """T^L is the last word of the cached _low_bit_table(L): once that table
    is built, lane tables of any lane count at L are table applications
    only, with no basis chunk drawn, and equal the tables a fresh low-bit
    table gives."""
    import ssqa.rng

    _low_bit_table(777)
    draws, draw = [], ssqa.rng._draws

    def spy(states, n):
        draws.append(n)
        return draw(states, n)

    monkeypatch.setattr(ssqa.rng, "_draws", spy)
    tables = {lanes: _lane_tables.__wrapped__(lanes, 777) for lanes in (1, 2, 3, 5, 20)}
    assert draws == []
    monkeypatch.undo()
    fresh = _low_bit_table.__wrapped__(777)
    assert np.array_equal(fresh, _low_bit_table(777))
    # Row c: the images of the basis states under T^(777 c), by the fresh T^777.
    expect = [_BASIS]
    for _ in range(1, 20):
        expect.append(_apply(fresh[None, ..., -1], expect[-1])[0])
    for lanes, table in tables.items():
        assert np.array_equal(_apply(table, _BASIS), np.stack(expect[:lanes])), lanes

import itertools

import numpy as np
import pytest

import thzlink.mdpc as mdpc_module
from helpers import traced_peak
from reference_codecs import MdpcBlock, mdpc_decode, mdpc_encode
from thzlink.mdpc import MdpcCodec
from thzlink.rs import ReedSolomonCodec


def all_lines_even(cells: np.ndarray) -> bool:
    return all(not np.bitwise_xor.reduce(cells, axis=a).any()
               for a in range(cells.ndim))


def encode_cube(codec, data_bits):
    """Coded cube of one word through the batched encoder."""
    coded = codec.encode_batch(np.asarray(data_bits, dtype=np.uint8)[None, :])
    return coded[0].reshape((codec.m + 1,) * codec.n)


def single_flips(cube):
    """One received word per cell, with that cell flipped."""
    rx = np.tile(cube.reshape(-1), (cube.size, 1))
    rx[np.arange(cube.size), np.arange(cube.size)] ^= 1
    return rx


def test_encode_hand_example_2x2():
    cells = encode_cube(MdpcCodec(2, 2), [1, 0, 0, 0])
    assert list(cells[:2, 2]) == [1, 0]  # row parities
    assert list(cells[2, :2]) == [1, 0]  # column parities
    assert cells[2, 2] == 1  # parity on parity
    assert all_lines_even(cells)


def test_all_zero_data_gives_zero_parity():
    codec = MdpcCodec(2, 2)
    assert not encode_cube(codec, np.zeros(4)).any()
    assert codec.r_bits == 5


def test_parity_count_formula():
    assert MdpcCodec(2, 2).r_bits == 5
    assert MdpcCodec(3, 2).r_bits == 7
    assert MdpcCodec(2, 3).r_bits == 19
    assert MdpcCodec(2, 2).t == 1
    assert MdpcCodec(2, 3).t == 3


@pytest.mark.parametrize("m,n", [(2, 2), (5, 2), (16, 2), (2, 3), (3, 3), (2, 4)])
def test_encoder_line_parity_invariant(m, n, rng):
    codec = MdpcCodec(m, n)
    data = rng.integers(0, 2, (5, m ** n)).astype(np.uint8)
    coded = codec.encode_batch(data)
    assert coded.shape == (5, (m + 1) ** n)
    for row, bits in zip(coded, data):
        cells = row.reshape((m + 1,) * n)
        assert all_lines_even(cells)
        assert np.array_equal(cells[(slice(0, m),) * n].reshape(-1), bits)
        assert np.array_equal(row, mdpc_encode(bits, m, n).to_bits())


@pytest.mark.parametrize("codec,k,n", [
    (MdpcCodec(3, 2), 9, 16),
    (MdpcCodec(2, 3), 8, 27),
    (ReedSolomonCodec(4, 2), 4 * 5, 5 + 2),  # symbols out
], ids=["mdpc-3-2", "mdpc-2-3", "rs-4-2"])
def test_encode_takes_an_empty_block(codec, k, n):
    # MDPC reshaped its cubes with -1, which numpy cannot resolve at 0 rows.
    assert codec.encode_batch(np.zeros((0, k), np.uint8)).shape == (0, n)


def test_encode_parameter_errors():
    codec = MdpcCodec(2, 2)
    with pytest.raises(ValueError):
        codec.encode_batch(np.zeros((1, 3), dtype=np.uint8))  # wrong length
    with pytest.raises(ValueError):
        MdpcCodec(1, 2)  # m too small
    with pytest.raises(ValueError):
        codec.decode_batch(np.zeros((1, 8), dtype=np.uint8))
    # Set bits are placed modulo the block width, so a wrong width must be
    # caught before they are: two words' worth in one row, and a bare row.
    with pytest.raises(ValueError, match=r"\(B, 9\)"):
        codec.decode_batch(np.ones((1, 18), dtype=np.uint8))
    with pytest.raises(ValueError, match=r"\(B, 9\)"):
        codec.decode_batch(np.ones(9, dtype=np.uint8))


@pytest.mark.parametrize("max_iterations", [0, -1])
def test_codec_rejects_max_iterations_below_one(max_iterations):
    # With -1 the decoder ran no round and flagged clean words as failed.
    with pytest.raises(ValueError, match="max_iterations must be >= 1"):
        MdpcCodec(3, 2, max_iterations=max_iterations)


def test_decode_clean_block_is_idempotent(rng):
    codec = MdpcCodec(6, 2)
    data = rng.integers(0, 2, (1, 36)).astype(np.uint8)
    dec, iters, flips, ok = codec.decode_batch(codec.encode_batch(data))
    assert ok[0] and iters[0] == 0 and flips[0] == 0
    assert np.array_equal(dec, data)


@pytest.mark.parametrize("m", [2, 4, 7])
def test_single_bit_errors_all_positions_2d(m, rng):
    codec = MdpcCodec(m, 2)
    data = rng.integers(0, 2, m * m).astype(np.uint8)
    dec, iters, flips, ok = codec.decode_batch(single_flips(encode_cube(codec, data)))
    assert ok.all() and (iters == 1).all() and (flips == 1).all()
    assert (dec == data).all()


def test_single_bit_error_3d(rng):
    codec = MdpcCodec(3, 3)
    data = rng.integers(0, 2, 27).astype(np.uint8)
    dec, _, flips, ok = codec.decode_batch(single_flips(encode_cube(codec, data)))
    assert ok.all() and (flips > 0).all()
    assert (dec == data).all()


def test_double_errors_2d_always_flagged_uncorrectable(rng):
    # With n=2 the guarantee is t=1; every 2-bit pattern either stalls
    # (same line, max FDM 1) or oscillates to the iteration cap. Neither
    # may come back as a clean block.
    m = 4
    codec = MdpcCodec(m, 2)
    data = rng.integers(0, 2, m * m).astype(np.uint8)
    clean = encode_cube(codec, data).reshape(-1)
    pairs = list(itertools.combinations(range(clean.size), 2))
    rx = np.tile(clean, (len(pairs), 1))
    for bad, (p1, p2) in zip(rx, pairs):
        bad[p1] ^= 1
        bad[p2] ^= 1
    _, _, _, ok = codec.decode_batch(rx)
    assert not ok.any()


def test_two_errors_same_row_stall_without_flips(rng):
    codec = MdpcCodec(4, 2)
    bad = encode_cube(codec, rng.integers(0, 2, 16))
    bad[1, 0] ^= 1
    bad[1, 3] ^= 1
    _, iters, flips, ok = codec.decode_batch(bad.reshape(1, -1))
    assert not ok[0]
    assert flips[0] == 0 and iters[0] == 0


def test_iteration_cap_bounds_oscillation(rng):
    codec = MdpcCodec(4, 2, max_iterations=6)
    bad = encode_cube(codec, rng.integers(0, 2, 16))
    bad[0, 0] ^= 1
    bad[2, 2] ^= 1  # diagonal pair flips back and forth
    _, iters, _, ok = codec.decode_batch(bad.reshape(1, -1))
    assert not ok[0]
    assert iters[0] == 6


def test_three_in_a_row_recovered(rng):
    # Beyond the guarantee, but the iterative decoder fixes collinear triples.
    codec = MdpcCodec(4, 2)
    data = rng.integers(0, 2, 16).astype(np.uint8)
    bad = encode_cube(codec, data)
    for c in (0, 2, 4):
        bad[1, c] ^= 1
    dec, _, flips, ok = codec.decode_batch(bad.reshape(1, -1))
    assert ok[0] and flips[0] > 0
    assert np.array_equal(dec[0], data)


def test_codec_batch_matches_scalar(rng):
    codec = MdpcCodec(6, 2)
    data = rng.integers(0, 2, (300, 36)).astype(np.uint8)
    tx = codec.encode_batch(data)
    rx = tx ^ (rng.random(tx.shape) < 0.03).astype(np.uint8)
    dec, iters, flips, ok = codec.decode_batch(rx)
    for i in range(300):
        res = mdpc_decode(MdpcBlock.from_bits(rx[i], 6, 2))
        assert (res.iterations, res.flipped, res.ok) == (iters[i], flips[i], ok[i])
        assert np.array_equal(res.data, dec[i])
    # batch encode equals scalar encode
    for i in range(20):
        assert np.array_equal(tx[i], mdpc_encode(data[i], 6, 2).to_bits())


def test_codec_batch_matches_scalar_3d(rng):
    codec = MdpcCodec(3, 3)
    data = rng.integers(0, 2, (50, 27)).astype(np.uint8)
    tx = codec.encode_batch(data)
    rx = tx ^ (rng.random(tx.shape) < 0.02).astype(np.uint8)
    dec, iters, flips, ok = codec.decode_batch(rx)
    for i in range(50):
        res = mdpc_decode(MdpcBlock.from_bits(rx[i], 3, 3))
        assert (res.iterations, res.flipped, res.ok) == (iters[i], flips[i], ok[i])
        assert np.array_equal(res.data, dec[i])


def test_decode_leaves_its_input_unchanged(rng):
    # Rows that settle, stall and oscillate flip data and parity cells; the
    # decoded data is a buffer of its own, and the received block is only read.
    codec = MdpcCodec(5, 3, max_iterations=4)
    rx = (rng.random((300, 216)) < 0.03).astype(np.uint8)
    before = rx.copy()
    dec, iters, flips, ok = codec.decode_batch(rx)
    assert np.array_equal(rx, before)
    assert not np.shares_memory(dec, rx)
    assert ok.any() and not ok.all() and (flips > 0).any() and (iters == 4).any()


def test_decode_allocates_under_3_5_bytes_per_bit(rng):
    # The codec-sweep geometry at its own p_e, on the all-zero word: one
    # copy of the data cells, and per round a one-byte marker and its mask
    # over the rows still live; the cube itself is never reduced again.
    codec = MdpcCodec(30, 2)
    rx = (rng.random((2000, 961)) < 1 / 961).astype(np.uint8)
    codec.decode_batch(rx)
    peak, _ = traced_peak(codec.decode_batch, rx)
    assert peak <= 3.5 * rx.size


def test_sliced_decode_matches_one_slice(monkeypatch):
    # A row decodes the same in any slice: a budget of a few rows, or of
    # one bit (one row a slice), gives the one-slice outcome of every row,
    # in the same dtypes, on rows from clean to half flipped.
    rng = np.random.default_rng(93)
    for _ in range(200):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, {2: 13, 3: 6}[n]))
        codec = MdpcCodec(m, n, max_iterations=int(rng.integers(1, 9)))
        rx = (rng.random((int(rng.integers(1, 40)), (m + 1) ** n))
              < 0.5 * rng.random() ** 2).astype(np.uint8)
        rx[rng.random(rx.shape[0]) < 0.2] = 0
        monkeypatch.setattr(mdpc_module, "DECODE_SLICE_BITS", rx.size)
        whole = codec.decode_batch(rx)
        monkeypatch.setattr(mdpc_module, "DECODE_SLICE_BITS", int(rng.integers(1, rx.size + 1)))
        sliced = codec.decode_batch(rx)
        assert [a.dtype for a in sliced] == [np.uint8, np.int64, np.int64, bool]
        for a, b in zip(whole, sliced):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_dense_block_decodes_in_a_bounded_workspace(monkeypatch):
    # Past the budget, a block decodes a slice at a time into outputs
    # allocated once: the data bits and three per-row outcomes beside one
    # slice's workspace (16 B per bit measured at p_e 0.2). Decoded whole,
    # this block peaked at 14.4 B per bit of the block.
    budget = 2 ** 18
    monkeypatch.setattr(mdpc_module, "DECODE_SLICE_BITS", budget)
    codec = MdpcCodec(30, 2)
    rx = (np.random.default_rng(94).random((2000, 961)) < 0.2).astype(np.uint8)
    assert rx.size > 7 * budget
    codec.decode_batch(rx)
    peak, (data, *_) = traced_peak(codec.decode_batch, rx)
    assert peak <= data.nbytes + 17 * rx.shape[0] + 20 * budget

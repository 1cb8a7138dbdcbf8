import itertools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thzlink.rs as rs_module
from helpers import traced_peak
from reference_codecs import RsCodeword, ScalarRsCodec, longdiv_parity, pack_symbols
from thzlink.rs import PACK_SLICE, ReedSolomonCodec, bits_to_symbols, symbols_to_bits

VECTORS = Path(__file__).parent / "vectors" / "rs_vectors.txt"


def syms_to_bit_array(syms, s):
    return symbols_to_bits(np.asarray(syms, dtype=np.int64), s)


def encode_one(codec, data_bits):
    """Transmitted symbols of one word through the batched encoder."""
    return codec.encode_batch(np.asarray(data_bits)[None, :])[0]


# -- encoding ---------------------------------------------------------------


def test_parity_matches_frozen_hand_vector():
    # data symbols 1,2,3,4 over GF(16) with two parity symbols
    codec = ReedSolomonCodec(4, 2)
    tx = encode_one(codec, syms_to_bit_array([1, 2, 3, 4], 4))
    assert list(tx) == [1, 2, 3, 4, 0xC, 0x3]


def test_parity_matches_fixture_vectors():
    width = {4: 1, 8: 2}
    n_cases = 0
    for line in VECTORS.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        s_txt, r_txt, data_hex, parity_hex = line.split()
        s, r = int(s_txt), int(r_txt)
        w = width[s]
        data = [int(data_hex[i:i + w], 16) for i in range(0, len(data_hex), w)]
        parity = [int(parity_hex[i:i + w], 16) for i in range(0, len(parity_hex), w)]
        tx = encode_one(ReedSolomonCodec(s, r), syms_to_bit_array(data, s))
        assert list(tx) == data + parity, line
        assert longdiv_parity(data, s, r) == parity, line
        n_cases += 1
    assert n_cases >= 10


# Every symbol size with r in {2, 4, 8} where the code fits, at short k, plus
# longer words at a few geometries.
ORACLE_GEOMETRIES = [(s, r, min(6, (1 << s) - 1 - r)) for s in range(2, 13)
                     for r in (2, 4, 8) if r <= (1 << s) - 2]
ORACLE_GEOMETRIES += [(3, 2, 4), (4, 2, 10), (4, 4, 9), (5, 2, 20), (8, 2, 28), (8, 4, 40)]


@pytest.mark.parametrize("s,r,k_symbols", ORACLE_GEOMETRIES)
def test_encode_matches_longdiv_oracle(s, r, k_symbols, rng):
    codec = ReedSolomonCodec(s, r)
    data = rng.integers(0, 1 << s, (20, k_symbols))
    tx = codec.encode_batch(symbols_to_bits(data, s))
    for row, syms in zip(tx, data):
        assert list(row[k_symbols:]) == longdiv_parity(syms, s, r)


def test_all_zero_data_gives_all_zero_parity():
    for s, r in [(3, 2), (4, 2), (4, 4), (8, 2)]:
        tx = ReedSolomonCodec(s, r).encode_batch(np.zeros((1, s * 5), dtype=np.uint8))
        assert not tx.any()


def test_paper_geometry_k224_s8():
    codec = ReedSolomonCodec(8, 2)
    tx = codec.encode_batch(np.zeros((1, 224), dtype=np.uint8))
    assert tx.shape == (1, 30)  # 28 data + 2 parity symbols
    assert codec.t == 1
    word = RsCodeword.from_bits(symbols_to_bits(tx[0], 8), 8, 28, 2)
    assert word.zero_pad == 225
    assert word.k_bits == 224 and word.r_bits == 16


def test_systematic_prefix_is_the_data(rng):
    data = rng.integers(0, 2, 224).astype(np.uint8)
    tx = encode_one(ReedSolomonCodec(8, 2), data)
    assert np.array_equal(symbols_to_bits(tx, 8)[:224], data)


def test_parity_is_linear_in_the_data(rng):
    codec = ReedSolomonCodec(8, 2)
    d1 = rng.integers(0, 2, (10, 224)).astype(np.uint8)
    d2 = rng.integers(0, 2, (10, 224)).astype(np.uint8)
    p1 = codec.encode_batch(d1)[:, 28:]
    p2 = codec.encode_batch(d2)[:, 28:]
    p12 = codec.encode_batch(d1 ^ d2)[:, 28:]
    assert np.array_equal(p12, p1 ^ p2)


def test_encode_parameter_errors():
    codec = ReedSolomonCodec(4, 2)
    with pytest.raises(ValueError):
        codec.encode_batch(np.zeros((1, 10), dtype=np.uint8))  # K not divisible by s
    with pytest.raises(ValueError):
        codec.encode_batch(np.zeros((1, 4 * 14), dtype=np.uint8))  # 14 + 2 > 15 symbols
    with pytest.raises(ValueError):
        ReedSolomonCodec(4, 0)


def test_bit_symbol_packing_roundtrip(rng):
    # Odd symbol counts leave a part-filled byte group at the end.
    for lead, s in itertools.product([(), (5,), (3, 2)], (*range(2, 13), 16)):
        bits = rng.integers(0, 2, lead + (s * 7,)).astype(np.uint8)
        symbols = bits_to_symbols(bits, s)
        assert symbols.dtype == np.uint16 and symbols.shape == lead + (7,)
        words = bits.reshape(-1, s).astype(str)
        oracle = [int("".join(word), 2) for word in words]
        assert symbols.reshape(-1).tolist() == oracle
        unpacked = symbols_to_bits(symbols, s)
        assert unpacked.dtype == np.uint8
        assert np.array_equal(unpacked, bits)
    with pytest.raises(ValueError):
        bits_to_symbols(np.zeros(10, dtype=np.uint8), 4)
    for s in (0, 17):
        with pytest.raises(ValueError):
            bits_to_symbols(np.zeros(34, dtype=np.uint8), s)
        with pytest.raises(ValueError):
            symbols_to_bits(np.zeros(2, dtype=np.int64), s)


@st.composite
def bit_blocks(draw):
    """(bits, s): 0/1 blocks of whole s-bit symbols, in every layout packed."""
    s = draw(st.integers(1, 16))
    lead = draw(st.one_of(st.just(()), st.tuples(st.integers(0, 50)),
                          st.tuples(st.integers(0, 7), st.integers(0, 7))))
    shape = lead + (s * draw(st.integers(0, 40)),)
    dtype = draw(st.sampled_from([np.bool_, np.uint8]))
    layout = draw(st.sampled_from(["contiguous", "column slice", "broadcast zero"]))
    if layout == "broadcast zero":
        return np.broadcast_to(np.zeros(1, dtype), shape), s
    density = draw(st.sampled_from([0.0, 0.01, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    wide = shape[:-1] + (shape[-1] + 5,)
    bits = (rng.random(wide) < density).astype(dtype)
    return (bits[..., 2:shape[-1] + 2] if layout == "column slice"
            else np.ascontiguousarray(bits[..., :shape[-1]])), s


@settings(max_examples=300, deadline=None, derandomize=True)
@given(block=bit_blocks(), pack_slice=st.integers(1, 2048))
def test_bits_to_symbols_matches_the_shift_loop(block, pack_slice):
    # A small slice size splits the block into many slices, most of which
    # end inside a group of eight symbols.
    bits, s = block
    with mock.patch.object(rs_module, "PACK_SLICE", pack_slice):
        symbols = bits_to_symbols(bits, s)
    assert symbols.dtype == np.uint16
    assert symbols.shape == bits.shape[:-1] + (bits.shape[-1] // s,)
    assert np.array_equal(symbols, pack_symbols(bits, s))
    assert np.array_equal(symbols_to_bits(symbols, s), bits)


@pytest.mark.parametrize("s,shape", [(3, (576_000, 21)), (12, (250, 49140))])
def test_packing_allocates_the_output_and_one_slice(s, shape):
    # About 12 Mbit each, in short RS(21,3) rows and long RS(49116,12) rows.
    # The 32-bit windows of a slice, gathered and shifted, take 8/s bytes
    # per bit, so packed whole, the s = 3 block would need 32 MB beside its
    # 8 MB output; one PACK_SLICE-bit slice needs under 4 bytes per bit.
    bits = (np.random.default_rng(63).random(shape) < 0.5).astype(np.uint8)
    bits_to_symbols(bits, s)
    peak, symbols = traced_peak(bits_to_symbols, bits, s)
    assert peak <= symbols.nbytes + 4 * PACK_SLICE


# -- decoding ---------------------------------------------------------------


def decode_data(codec, rx, k_symbols):
    """Batched decode; returns (data bits, corrected counts, ok flags)."""
    out, corrected, ok = codec.decode_symbols_batch(rx)
    return symbols_to_bits(out[:, :k_symbols], codec.s), corrected, ok


@pytest.mark.parametrize("s,r,k_bits", [(2, 2, 2), (3, 2, 9), (4, 2, 40),
                                        (4, 4, 36), (8, 2, 224), (8, 4, 320),
                                        (12, 2, 1200)])
def test_roundtrip_without_errors(s, r, k_bits, rng):
    codec = ReedSolomonCodec(s, r)
    data = rng.integers(0, 2, (5, k_bits)).astype(np.uint8)
    decoded, corrected, ok = decode_data(codec, codec.encode_batch(data), k_bits // s)
    assert ok.all() and not corrected.any()
    assert np.array_equal(decoded, data)


@pytest.mark.parametrize("s,r", [(2, 2), (3, 2), (4, 2)])
def test_single_symbol_errors_exhaustive_small_fields(s, r, rng):
    codec = ReedSolomonCodec(s, r)
    k_symbols = (1 << s) - 1 - r  # full-length code
    data = rng.integers(0, 2, s * k_symbols).astype(np.uint8)
    tx = encode_one(codec, data)
    patterns = list(itertools.product(range(len(tx)), range(1, 1 << s)))
    rx = np.tile(tx, (len(patterns), 1))
    for row, (pos, val) in enumerate(patterns):
        rx[row, pos] ^= val
    decoded, corrected, ok = decode_data(codec, rx, k_symbols)
    assert ok.all() and (corrected == 1).all()
    assert (decoded == data).all()


def test_two_symbol_errors_randomized_t2_gf256(rng):
    # 10^4 random double errors on a t=2 code over GF(256): all corrected.
    codec = ReedSolomonCodec(8, 4)
    data = rng.integers(0, 2, 8 * 60).astype(np.uint8)
    tx = encode_one(codec, data)
    n = len(tx)
    rx = np.tile(tx, (10_000, 1))
    for bad in rx:
        p1, p2 = rng.choice(n, size=2, replace=False)
        bad[p1] ^= int(rng.integers(1, 256))
        bad[p2] ^= int(rng.integers(1, 256))
    decoded, corrected, ok = decode_data(codec, rx, 60)
    assert ok.all() and (corrected == 2).all()
    assert (decoded == data).all()


def test_beyond_capability_never_reported_clean(rng):
    # Two errors on a t=1 code: either flagged uncorrectable or misdecoded
    # with corrected == 1; never accepted as an error-free word.
    codec = ReedSolomonCodec(8, 2)
    data = rng.integers(0, 2, 224).astype(np.uint8)
    tx = encode_one(codec, data)
    pairs = list(itertools.combinations(range(30), 2))
    rx = np.tile(tx, (len(pairs), 1))
    for bad, (p1, p2) in zip(rx, pairs):
        bad[p1] ^= int(rng.integers(1, 256))
        bad[p2] ^= int(rng.integers(1, 256))
    decoded, corrected, ok = decode_data(codec, rx, 28)
    outcomes = {"uncorrectable": 0, "misdecode": 0}
    for row in range(len(pairs)):
        if not ok[row]:
            outcomes["uncorrectable"] += 1
            continue
        # A t=1 decoder can never return the original word from 2 errors.
        assert corrected[row] == 1
        assert not np.array_equal(decoded[row], data)
        outcomes["misdecode"] += 1
    assert outcomes["uncorrectable"] + outcomes["misdecode"] == 435
    # The 225 implied pad symbols catch most wrong locators.
    assert outcomes["uncorrectable"] > outcomes["misdecode"]


def test_decode_batch_matches_scalar(rng):
    codec = ReedSolomonCodec(8, 2)
    data = rng.integers(0, 2, (400, 224)).astype(np.uint8)
    tx = codec.encode_batch(data)
    noise = rng.integers(0, 256, tx.shape) * (rng.random(tx.shape) < 0.02)
    rx = tx ^ noise
    out, corrected, ok = codec.decode_symbols_batch(rx)
    oracle = ScalarRsCodec(8, 2)
    template = oracle.encode(data[0])
    for i in range(400):
        res = oracle.decode(template.with_symbols(rx[i]))
        assert res.ok == ok[i]
        assert res.corrected == corrected[i]
        assert np.array_equal(res.data, symbols_to_bits(out[i, :28], 8))


def test_decode_batch_matches_scalar_t2(rng):
    codec = ReedSolomonCodec(4, 4)
    data = rng.integers(0, 2, (200, 36)).astype(np.uint8)
    tx = codec.encode_batch(data)
    noise = rng.integers(0, 16, tx.shape) * (rng.random(tx.shape) < 0.08)
    rx = tx ^ noise
    out, corrected, ok = codec.decode_symbols_batch(rx)
    oracle = ScalarRsCodec(4, 4)
    template = oracle.encode(data[0])
    for i in range(200):
        res = oracle.decode(template.with_symbols(rx[i]))
        assert (res.ok, res.corrected) == (ok[i], corrected[i])
        assert np.array_equal(res.data, symbols_to_bits(out[i, :9], 4))


def edge_block(kind, tx, scalar, rng):
    """A received block with no rows, with only clean rows, or whose rows are
    all dirty and all rejected before re-verification: each row's locator
    has a degree of 0 or above t, fewer roots than its degree, or a root
    among the zero-pad positions."""
    if kind == "empty":
        return tx[:0]
    if kind == "clean":
        return tx
    rx = tx ^ rng.integers(0, 1 << scalar.s, tx.shape, dtype=np.uint16)
    rejected = []
    for row in rx:
        lam = scalar._berlekamp_massey(scalar.syndromes(row))
        positions = scalar._chien_search(lam)
        rejected.append(not 1 <= len(lam) - 1 <= scalar.t or len(positions) != len(lam) - 1
                        or any(p >= len(row) for p in positions))
    assert sum(rejected) >= 50
    return rx[rejected]


@pytest.mark.parametrize("s,r,k_bits,block", [
    pytest.param(8, 2, 224, "noisy", id="8-2-224"),
    pytest.param(4, 4, 36, "noisy", id="4-4-36"),
    pytest.param(12, 6, 1200, "noisy", id="12-6-1200"),
    *(pytest.param(s, r, k_bits, block, id=f"{block}-{s}-{r}-{k_bits}")
      for block in ("empty", "clean", "failing") for s, r, k_bits in [(8, 2, 224), (4, 4, 36)]),
])
def test_symbols_stay_in_the_element_type(s, r, k_bits, block, rng):
    # Packed symbols are uint16, the field's element type, from encoding
    # through decoding, on the closed-form (r == 2) and staged paths; an
    # int64 copy of the same received block decodes to the same outcome.
    # The edge blocks take the same path as any other, and every row decodes
    # as the scalar decoder decodes it.
    codec = ReedSolomonCodec(s, r)
    tx = codec.encode_batch(rng.integers(0, 2, (300, k_bits), dtype=np.uint8))
    noise = rng.integers(0, 1 << s, tx.shape, dtype=np.uint16)
    rx = tx ^ noise * (rng.random(tx.shape) < 0.05)
    scalar = ScalarRsCodec(s, r)
    if block != "noisy":
        rx = edge_block(block, tx, scalar, rng)
    out, corrected, ok = codec.decode_symbols_batch(rx)
    assert tx.dtype == rx.dtype == out.dtype == np.uint16
    assert codec.syndromes_batch(rx).dtype == np.uint16
    if block == "noisy":
        assert ok.any() and not ok.all() and corrected.any()
    else:
        assert out.shape == rx.shape and corrected.dtype == np.int64 and ok.dtype == bool
        for i, row in enumerate(rx):
            word, n_errors, row_ok = scalar.correct(row)
            assert np.array_equal(out[i], word)
            assert (corrected[i], ok[i]) == (n_errors, row_ok)
        assert np.array_equal(ok, np.full(len(rx), block != "failing"))
    out64, corrected64, ok64 = codec.decode_symbols_batch(rx.astype(np.int64))
    assert np.array_equal(out64, out)
    assert np.array_equal(corrected64, corrected) and np.array_equal(ok64, ok)


def test_degree_zero_locator_fails_before_reverification():
    # At (s, r) = (4, 4) the syndromes (0, 7, 0, 0) are nonzero, but their
    # Berlekamp-Massey locator is lam = 1, of degree 0, so no correction
    # explains them. The row fails as the scalar decoder fails it, at the
    # degree check: re-verification sees only the row with one error.
    codec = ReedSolomonCodec(4, 4)
    scalar = ScalarRsCodec(4, 4)
    block = np.zeros((3, 15), dtype=np.uint16)
    # Parity symbols H_p^-1 S, and no data, make a word whose syndromes are S.
    block[0, 11:] = codec.gf.dot_logs(np.array([[0, 7, 0, 0]], dtype=np.uint16),
                                      codec._parity_inv_logs)[0]
    block[1, 4] = 9
    assert scalar.syndromes(block[0]) == [0, 7, 0, 0]
    assert scalar._berlekamp_massey([0, 7, 0, 0]) == [1]
    checked = []
    syndromes_batch = ReedSolomonCodec.syndromes_batch

    def record(self, symbols):
        checked.append(symbols.copy())
        return syndromes_batch(self, symbols)

    with mock.patch.object(ReedSolomonCodec, "syndromes_batch", record):
        out, corrected, ok = codec.decode_symbols_batch(block)
    for i, row in enumerate(block):
        word, n_errors, row_ok = scalar.correct(row)
        assert np.array_equal(out[i], word)
        assert (corrected[i], ok[i]) == (n_errors, row_ok)
    assert ok.tolist() == [False, True, True]
    assert len(checked) == 2
    assert np.array_equal(checked[1], np.zeros((1, 15), dtype=np.uint16))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(s=st.integers(2, 12), t=st.integers(1, 3), batch=st.integers(0, 30),
       density=st.sampled_from([0.0, 0.05, 0.2, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_uint16_and_intp_operands_give_the_same_values(s, t, batch, density, seed):
    # Table gathers index with intp on numpy's fast path and with uint16
    # through a casting path; both give the same values, and every output
    # has the dtype its docstring states: uint16 elements, and a decoded
    # block in the dtype it came in.
    rng = np.random.default_rng(seed)
    codec = ReedSolomonCodec(s, min(2 * t, 2 ** s - 2))
    gf, r = codec.gf, codec.r_symbols
    length = int(rng.integers(r + 1, min(gf.order - 1, 40) + 1))
    sent = codec.encode_batch(rng.integers(0, 2, (batch, s * (length - r)), dtype=np.uint8))
    errors = rng.integers(1, gf.order, sent.shape) * (rng.random(sent.shape) < density)
    block = sent ^ errors.astype(np.uint16)
    other = rng.integers(0, gf.order, block.shape, dtype=np.uint16)
    nonzero = rng.integers(1, gf.order, block.shape, dtype=np.uint16)
    log_mat = gf.log[rng.integers(0, gf.order, (3, length))]
    wide = block.astype(np.intp)
    for narrow_out, wide_out in [
            (gf.mul_vec(block, other), gf.mul_vec(wide, other.astype(np.intp))),
            (gf.div_vec(block, nonzero), gf.div_vec(wide, nonzero.astype(np.intp))),
            (gf.dot_logs(block, log_mat), gf.dot_logs(wide, log_mat))]:
        assert narrow_out.dtype == wide_out.dtype == np.uint16
        assert np.array_equal(narrow_out, wide_out)
    narrow_decoded = codec.decode_symbols_batch(block)
    wide_decoded = codec.decode_symbols_batch(wide)
    assert narrow_decoded[0].dtype == np.uint16 and wide_decoded[0].dtype == np.intp
    for got, want in zip(narrow_decoded, wide_decoded):
        assert np.array_equal(got, want)
    assert narrow_decoded[1].dtype == np.int64 and narrow_decoded[2].dtype == bool


def test_codeword_from_bits_roundtrip(rng):
    # The reference codeword type that the differential tests build on.
    data = rng.integers(0, 2, 224).astype(np.uint8)
    cw = ScalarRsCodec(8, 2).encode(data)
    assert np.array_equal(cw.symbols, encode_one(ReedSolomonCodec(8, 2), data))
    rebuilt = RsCodeword.from_bits(cw.to_bits(), 8, cw.k_symbols, cw.r_symbols)
    assert np.array_equal(rebuilt.symbols, cw.symbols)
    assert rebuilt.zero_pad == cw.zero_pad
    with pytest.raises(ValueError):
        RsCodeword.from_bits(cw.to_bits(), 8, 10, 2)


@pytest.mark.parametrize("s,r", [(3, 2), (3, 4), (4, 2), (4, 4)])
def test_one_codec_serves_every_length(s, r, rng):
    # One instance's syndrome table serves every length, in any order, as a
    # fresh instance's does.
    codec = ReedSolomonCodec(s, r)
    lengths = list(range(r + 1, 2 ** s))
    for length in lengths + lengths[::-1]:
        data = rng.integers(0, 2, (8, s * (length - r)), dtype=np.uint8)
        sent = codec.encode_batch(data)
        received = sent ^ (rng.random(sent.shape) < 0.2) * rng.integers(
            1, 2 ** s, sent.shape, dtype=np.uint16)
        fresh = ReedSolomonCodec(s, r)
        assert np.array_equal(sent, fresh.encode_batch(data))
        for got, want in zip(codec.decode_symbols_batch(received),
                             fresh.decode_symbols_batch(received)):
            assert np.array_equal(got, want)


def test_decode_rejects_wrong_length():
    codec = ReedSolomonCodec(4, 2)
    with pytest.raises(ValueError):
        codec.decode_symbols_batch(np.zeros((1, 16), dtype=np.int64))  # > 2^4 - 1
    with pytest.raises(ValueError):
        codec.decode_symbols_batch(np.zeros((1, 2), dtype=np.int64))  # parity only


def test_syndromes_of_a_dense_block_allocate_little():
    # The product takes the block DOT_SLICE elements at a time, so a block
    # of RS(49116,12) words whose symbols are almost all nonzero needs no
    # int64 log field of its own size. The bound is what the dense product
    # (`reference_codecs.dot_logs`) allocates, 18 B per element: int64 logs,
    # their int64 sums and the uint16 products. Through syndromes_batch it
    # peaked at 7,372,152 B on this block; the sliced product at 2,899,536 B.
    codec = ReedSolomonCodec(12, 2)
    rng = np.random.default_rng(62)
    shape = (100, 4095)
    block = (rng.integers(1, 4096, shape) * (rng.random(shape) < 0.92)).astype(np.uint16)
    codec.syndromes_batch(block)
    peak, _ = traced_peak(codec.syndromes_batch, block)
    assert peak <= 18 * block.size

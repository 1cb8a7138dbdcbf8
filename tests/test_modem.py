import math
import tracemalloc

import numpy as np
import pytest

from thzlink.modem import (DEFAULT_DATA_RATES_GBPS, FLIP_CHUNK, MODULATIONS,
                           SPARSE_FLIP_THRESHOLD, BerTable, Modulation,
                           sample_flip_mask, symbol_error_prob, transmit)


def make_table(values_by_mod=None, distances=(1.0, 2.0, 3.0)):
    n = len(distances)
    values = {mod: [0.0] * n for mod in MODULATIONS}
    if values_by_mod:
        values.update(values_by_mod)
    return BerTable(distances, values)


def test_modulation_labels_and_rates():
    assert [m.label for m in MODULATIONS] == ["BPSK", "QPSK", "8PSK", "16QAM"]
    assert [m.bits_per_symbol for m in MODULATIONS] == [1, 2, 3, 4]
    assert DEFAULT_DATA_RATES_GBPS[Modulation.BPSK] == 7.04
    assert DEFAULT_DATA_RATES_GBPS[Modulation.QPSK] == 14.08
    assert DEFAULT_DATA_RATES_GBPS[Modulation.PSK8] == 21.12
    assert DEFAULT_DATA_RATES_GBPS[Modulation.QAM16] == 28.16
    assert Modulation.from_label("16qam") is Modulation.QAM16
    with pytest.raises(ValueError):
        Modulation.from_label("64QAM")


def test_lookup_exact_and_nearest():
    table = make_table({Modulation.QPSK: [0.1, 0.2, 0.3]})
    assert table.lookup(2.0, Modulation.QPSK) == 0.2
    assert table.lookup(1.2, Modulation.QPSK) == 0.1
    assert table.lookup(2.8, Modulation.QPSK) == 0.3
    # Exact midpoints snap to the larger distance.
    assert table.lookup(1.5, Modulation.QPSK) == 0.2
    assert table.lookup(2.5, Modulation.QPSK) == 0.3


def test_lookup_rejects_out_of_range():
    table = make_table()
    with pytest.raises(ValueError):
        table.lookup(0.5, Modulation.BPSK)
    with pytest.raises(ValueError):
        table.lookup(3.5, Modulation.BPSK)
    # NaN compares false both ways; searchsorted put it past the last row.
    with pytest.raises(ValueError, match="outside table range"):
        table.lookup(float("nan"), Modulation.BPSK)


def test_lookup_zero_table_is_zero():
    table = make_table()
    for mod in MODULATIONS:
        assert table.lookup(2.2, mod) == 0.0


def test_table_invariants_enforced():
    with pytest.raises(ValueError):
        make_table({Modulation.BPSK: [0.2, 0.1, 0.3]})  # not monotone
    with pytest.raises(ValueError):
        make_table({Modulation.BPSK: [0.0, 0.1, 0.6]})  # above 0.5
    with pytest.raises(ValueError):
        BerTable([1.0, 1.0], {mod: [0.0, 0.0] for mod in MODULATIONS})
    with pytest.raises(ValueError):
        BerTable([1.0, 2.0], {Modulation.BPSK: [0.0, 0.0]})  # missing columns


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_table_rejects_non_finite_ber(bad):
    # NaN passes both the range and the monotonicity comparison, and a table
    # holding it used to fail only later, inside estimate_distance.
    with pytest.raises(ValueError, match="QPSK.*finite"):
        make_table({Modulation.QPSK: [0.1, bad, 0.3]})
    with pytest.raises(ValueError, match="finite"):
        make_table(distances=(1.0, float("nan"), 3.0))


def test_table_csv_rejects_duplicate_row(tmp_path, default_table):
    path = tmp_path / "dup.csv"
    default_table.to_csv(path)
    lines = path.read_text().splitlines()
    lines.append(lines[3])  # a second (distance, modulation) row for line 4
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"dup.csv:{len(lines)}: duplicate"):
        BerTable.from_csv(path)


def test_table_csv_roundtrip(tmp_path, default_table):
    path = tmp_path / "t.csv"
    default_table.to_csv(path)
    loaded = BerTable.from_csv(path)
    assert np.array_equal(loaded.distances, default_table.distances)
    for mod in MODULATIONS:
        assert np.array_equal(loaded.column(mod), default_table.column(mod))
    header = path.read_text().splitlines()[0]
    assert header == "distance_m,modulation,ber"


@pytest.mark.parametrize("row,message", [
    ("1.0,BPSK", "expected 3 columns"),
    ("abc,BPSK,0.0", "could not convert string to float: 'abc'"),
    ("1.0,BPSK,x1", "could not convert string to float: 'x1'"),
    ("1.0,QAM64,0.0", "unknown modulation 'QAM64'"),
    ("nan,BPSK,0.0", "distance nan must be finite"),
    ("inf,BPSK,0.0", "distance inf must be finite"),
    ("1.0,BPSK,nan", "BER nan must be finite"),
    ("1.0,BPSK,-inf", "BER -inf must be finite"),
])
def test_table_csv_row_errors_name_file_and_line(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"distance_m,modulation,ber\n1.0,QPSK,0.0\n\n{row}\n")
    with pytest.raises(ValueError, match=f"bad.csv:4: {message}"):
        BerTable.from_csv(path)


def test_table_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("distance,mod,ber\n1.0,BPSK,0.0\n")
    with pytest.raises(ValueError):
        BerTable.from_csv(path)


def test_symbol_error_prob_values():
    assert symbol_error_prob(0.0, 8) == 0.0
    assert symbol_error_prob(1.0, 3) == 1.0
    assert symbol_error_prob(0.01, 8) == pytest.approx(0.0772553, abs=1e-6)
    assert symbol_error_prob(0.3, 1) == pytest.approx(0.3)


def test_symbol_error_prob_monotonicity():
    probs = [symbol_error_prob(p, 8) for p in (0.001, 0.01, 0.1, 0.3)]
    assert probs == sorted(probs)
    sizes = [symbol_error_prob(0.05, s) for s in (1, 2, 4, 8, 12)]
    assert sizes == sorted(sizes)
    with pytest.raises(ValueError):
        symbol_error_prob(1.5, 8)
    with pytest.raises(ValueError):
        symbol_error_prob(0.1, 0)


def test_transmit_degenerate_probabilities(rng):
    bits = rng.integers(0, 2, 1000).astype(np.uint8)
    state = rng.bit_generator.state
    assert np.array_equal(transmit(bits, 0.0, rng), bits)
    assert np.array_equal(transmit(bits, 1.0, rng), bits ^ 1)
    assert rng.bit_generator.state == state  # no random numbers drawn


def test_transmit_rejects_non_bit_dtypes(rng):
    # Casting symbols to uint8 would keep their low byte: 300 would come
    # back as 44 at p_e = 0.
    for values in (np.array([300, 2, 7]), np.array([1, 0], dtype=np.int8),
                   np.array([1, 0], dtype=np.uint16), np.array([1.0, 0.0])):
        with pytest.raises(TypeError, match=str(values.dtype)):
            transmit(values, 0.0, rng)
    assert transmit(np.array([True, False]), 1.0, rng).tolist() == [0, 1]


@pytest.mark.parametrize("p_e", [float("nan"), -1e-9, -0.5, 1.0 + 1e-9, 2.0,
                                 float("inf"), float("-inf")])
def test_transmit_rejects_p_e_outside_unit_interval(rng, p_e):
    # NaN and negative values used to return an all-zero mask, values above
    # 1 an all-ones mask.
    with pytest.raises(ValueError, match="p_e"):
        transmit(np.zeros(100_000, dtype=np.uint8), p_e, rng)


def test_transmit_flip_rate_within_3_sigma():
    rng = np.random.default_rng(99)
    bits = np.zeros(1_000_000, dtype=np.uint8)
    flips = int(transmit(bits, 0.1, rng).sum())
    assert abs(flips - 100_000) <= 3 * 300  # sigma = sqrt(n p (1-p)) = 300


def test_transmit_deterministic_for_fixed_seed():
    bits = np.zeros(10_000, dtype=np.uint8)
    out1 = transmit(bits, 0.05, np.random.default_rng(7))
    out2 = transmit(bits, 0.05, np.random.default_rng(7))
    assert np.array_equal(out1, out2)


def test_sparse_flip_mask_statistics():
    # Far fewer expected flips than bits: most masks draw one short chunk.
    rng = np.random.default_rng(5)
    total = 0
    for _ in range(200):
        mask = sample_flip_mask((100, 500), 1e-6, rng)
        total += int(mask.sum())
    # 200 trials * 5e4 bits * 1e-6 = 10 expected flips overall
    assert 0 < total < 40
    assert sample_flip_mask((10,), 0.0, rng).sum() == 0
    assert sample_flip_mask((10,), 1.0, rng).sum() == 10


def _geometric_gap_mask(shape, p_e, rng):
    """Flips at cumulative `rng.geometric` gaps, drawn in the sampler's chunks."""
    size = math.prod(shape)
    mean = p_e * size
    n = min(FLIP_CHUNK, int(mean + 4.0 * math.sqrt(mean)) + 16)
    flat = np.zeros(size, dtype=np.uint8)
    last = -1
    while last < size:
        pos = last + np.cumsum(rng.geometric(p_e, n))
        last = int(pos[-1])
        flat[pos[pos < size]] = 1
    return flat.reshape(shape)


@pytest.mark.parametrize("shape", [
    (FLIP_CHUNK - 1,), (FLIP_CHUNK,), (FLIP_CHUNK + 1,), (3 * FLIP_CHUNK + 5,),
    (3, FLIP_CHUNK + 7), (5, 3 * FLIP_CHUNK + 5)])
def test_dense_flip_mask_matches_one_field(shape):
    # Below p = 1/3 numpy draws a geometric gap from one standard
    # exponential, as the sampler does, so the mask is the scatter of a twin
    # generator's geometric gaps, and both generators are left in the same
    # state. The last shape draws several chunks.
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    mask = sample_flip_mask(shape, 0.186, rng)
    assert mask.dtype == np.uint8 and mask.shape == shape
    assert np.array_equal(mask, _geometric_gap_mask(shape, 0.186, twin))
    assert rng.bit_generator.state == twin.bit_generator.state


def test_dense_flip_mask_allocates_about_one_byte_per_bit(rng):
    # The gaps go through cache-sized buffers, not a field of 8 bytes per bit
    # or one array of every flip.
    shape = (100, 49140)
    sample_flip_mask(shape, 0.186, rng)
    tracemalloc.start()
    try:
        sample_flip_mask(shape, 0.186, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * shape[0] * shape[1]


@pytest.mark.parametrize("shape,p_e", [
    ((100, 3177), 3.1e-4), ((100, 49140), 0.05), ((7, FLIP_CHUNK + 3), 0.12),
    ((7, FLIP_CHUNK + 3), 0.186), ((100, 49140), 0.35), ((64, 4099), 0.5),
    ((100, 49140), 1e-5)])
def test_gap_flip_mask_is_reproducible(shape, p_e):
    # Twin generators give equal masks and are left in equal states; the
    # second case draws several chunks of gaps, the last about 49 flips.
    rng, twin = np.random.default_rng(21), np.random.default_rng(21)
    mask = sample_flip_mask(shape, p_e, rng)
    assert mask.dtype == np.uint8 and mask.shape == shape
    assert np.array_equal(mask, sample_flip_mask(shape, p_e, twin))
    assert rng.random() == twin.random()


@pytest.mark.parametrize("shape,p_e,seed", [
    ((100, 49140), 6e-5, 31), ((100, 3177), 3.1e-4, 32),
    ((100, 49140), 0.05, 33), ((40, 4095), 0.12, 34),
    ((100, 49140), 0.186, 35), ((100, 49140), 0.35, 36),
    ((100, 49140), 0.5, 37), ((100, 49140), 1e-5, 38)])
def test_gap_flip_count_within_4_sigma(shape, p_e, seed):
    # Most shapes expect more than FLIP_CHUNK flips, so their gaps come in
    # several chunks.
    size = math.prod(shape)
    flips = int(sample_flip_mask(shape, p_e, np.random.default_rng(seed)).sum())
    assert abs(flips - size * p_e) <= 4 * math.sqrt(size * p_e * (1 - p_e))


def _chi_square_within_4_sigma(counts, p_e):
    # Each count sums Bernoulli(p_e) bits, so its variance is its mean times
    # 1 - p_e. For df this large the statistic is close to normal with mean
    # df and variance 2 df.
    expected = counts.mean()
    chi2 = float(((counts - expected) ** 2).sum() / (expected * (1 - p_e)))
    df = counts.size - 1
    return abs(chi2 - df) <= 4 * math.sqrt(2 * df)


@pytest.mark.parametrize("shape,p_e,draws", [
    ((50, 997), 0.02, 40), ((64, 4099), 0.1, 20), ((64, 4099), 0.186, 20),
    ((64, 4099), 0.35, 20), ((64, 4099), 0.5, 20), ((50, 997), 1e-3, 400)])
def test_gap_flip_positions_are_uniform(shape, p_e, draws):
    # Flips summed over fixed-seed masks spread evenly over columns and over
    # rows; the (64, 4099) shapes draw several chunks per mask, so a position
    # carried wrongly from one chunk to the next would skew the rows. The
    # last case expects about 50 flips per mask, and 20 per column summed.
    rng = np.random.default_rng(41)
    total = np.zeros(shape, dtype=np.int64)
    for _ in range(draws):
        total += sample_flip_mask(shape, p_e, rng)
    assert _chi_square_within_4_sigma(total.sum(axis=0), p_e)
    assert _chi_square_within_4_sigma(total.sum(axis=1), p_e)


def test_gap_flip_mask_flips_first_and_last_bit_at_p_e():
    # Positions are 0-based: the first gap lands on bit 0 with probability
    # p_e, and the last bit is reachable. At 0.05 the mask expects 35 flips.
    shape, draws = (1, 700), 4000
    rng = np.random.default_rng(71)
    for p_e in (0.1, 0.186, 0.35, 0.5, 0.05):
        ends = np.zeros(2, dtype=np.int64)
        for _ in range(draws):
            ends += sample_flip_mask(shape, p_e, rng)[0, [0, -1]]
        sigma = math.sqrt(draws * p_e * (1 - p_e))
        assert np.all(np.abs(ends - draws * p_e) <= 4 * sigma), p_e


@pytest.mark.parametrize("draw", [
    lambda bits, p_e, rng: sample_flip_mask(bits.shape, p_e, rng), transmit],
    ids=["sample_flip_mask", "transmit"])
def test_gap_flip_mask_allocates_about_one_byte_per_bit(draw):
    # Gaps are drawn one chunk at a time next to the uint8 mask, not as one
    # int64 array of every flip (about 2 MB here), and transmit XORs the
    # bits into the mask rather than into a second mask-sized array.
    shape, p_e = (100, 49140), 0.05
    rng = np.random.default_rng(51)
    bits = np.zeros(shape, dtype=np.uint8)
    draw(bits, p_e, rng)
    tracemalloc.start()
    try:
        draw(bits, p_e, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * shape[0] * shape[1]


def test_sparse_flip_mask_is_xored_in_place_by_transmit():
    # A mask the benchmark's tracer counts as sparse owns its buffer, as a
    # dense one does, so transmit's `bits ^ mask` writes into it instead of
    # allocating a second mask-sized array.
    shape, p_e = (100, 49140), 1e-5
    assert p_e * math.prod(shape) <= SPARSE_FLIP_THRESHOLD
    rng = np.random.default_rng(52)
    bits = np.zeros(shape, dtype=np.uint8)
    transmit(bits, p_e, rng)
    tracemalloc.start()
    try:
        transmit(bits, p_e, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * shape[0] * shape[1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p_e", [1e-300, 5e-324])
def test_flip_mask_at_tiny_p_e_has_no_flip(p_e):
    # A gap near size / p_e would overflow the division, or the int64 cast
    # into a negative index; capped, it lands past the end of the mask.
    mask = sample_flip_mask((100, 49140), p_e, np.random.default_rng(81))
    assert mask.shape == (100, 49140) and not mask.any()

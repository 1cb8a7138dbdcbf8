"""Differential tests: the batched codecs against the per-word references.

Words are drawn with a fixed number of error units, from none up to two past
the code's guarantee, so decoding failures and misdecodes are exercised as
well as corrections. Every output must match the reference exactly.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_codecs import (MdpcBlock, ScalarRsCodec, _fdm, codeword_outcomes,
                              codeword_residual_stats, mdpc_decode)
from thzlink.control import SCHEME_MDPC, SCHEME_RS, LinkConfig
from thzlink.mdpc import MdpcCodec
from thzlink.modem import DEFAULT_DATA_RATES_GBPS, Modulation
from thzlink.rs import ReedSolomonCodec
from thzlink.sim import _carry, residual_error_experiment

ROWS = 12
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


def with_errors(rng, words, weight, n_values):
    """Copy of `words` with `weight` distinct positions per row changed."""
    rx = words.copy()
    for row in rx:
        pos = rng.choice(row.size, size=weight, replace=False)
        row[pos] ^= rng.integers(1, n_values, size=weight, dtype=row.dtype)
    return rx


@st.composite
def rs_cases(draw):
    s = draw(st.integers(3, 8))
    full = 2 ** s - 1
    r = draw(st.sampled_from([r for r in (2, 4, 6, 8) if r < full]))
    length = draw(st.one_of(st.just(full), st.integers(r + 1, full)))
    weight = draw(st.integers(0, min(r // 2 + 2, length)))
    return s, r, length, weight, draw(st.integers(0, 2 ** 32 - 1))


@SETTINGS
@given(rs_cases())
def test_rs_batch_matches_reference(case):
    s, r, length, weight, seed = case
    rng = np.random.default_rng(seed)
    codec = ReedSolomonCodec(s, r)
    data = rng.integers(0, 2, (ROWS, s * (length - r)), dtype=np.uint8)
    rx = with_errors(rng, codec.encode_batch(data), weight, 2 ** s)
    out, corrected, ok = codec.decode_symbols_batch(rx)
    oracle = ScalarRsCodec(s, r)
    for i in range(ROWS):
        word, n_err, row_ok = oracle.correct(rx[i])
        assert (n_err, row_ok) == (corrected[i], ok[i]), (i, rx[i])
        assert np.array_equal(word, out[i]), (i, rx[i])


@st.composite
def mdpc_cases(draw):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(2, {2: 8, 3: 5, 4: 3}[n]))
    weight = draw(st.integers(0, min(2 ** (n - 1) + 2, (m + 1) ** n)))
    max_iterations = draw(st.integers(1, 10))
    return m, n, weight, max_iterations, draw(st.integers(0, 2 ** 32 - 1))


@SETTINGS
@given(mdpc_cases())
def test_mdpc_batch_matches_reference(case):
    m, n, weight, max_iterations, seed = case
    rng = np.random.default_rng(seed)
    codec = MdpcCodec(m, n, max_iterations=max_iterations)
    data = rng.integers(0, 2, (ROWS, m ** n), dtype=np.uint8)
    rx = with_errors(rng, codec.encode_batch(data), weight, 2)
    dec, iters, flips, ok = codec.decode_batch(rx)
    for i in range(ROWS):
        res = mdpc_decode(MdpcBlock.from_bits(rx[i], m, n), max_iterations)
        assert (res.iterations, res.flipped, res.ok) == (iters[i], flips[i], ok[i])
        assert np.array_equal(res.data, dec[i])


def test_mdpc_iteration_cap_matches_reference(rng):
    # Rows that oscillate until the cap sit in one batch with rows that
    # settle early, so live and finished rows are tracked apart.
    codec = MdpcCodec(4, 3, max_iterations=3)
    data = rng.integers(0, 2, (400, 64), dtype=np.uint8)
    rx = codec.encode_batch(data)
    rx ^= (rng.random(rx.shape) < 0.05).astype(np.uint8)
    dec, iters, flips, ok = codec.decode_batch(rx)
    assert (iters == 3).any() and (iters < 3).any()
    for i in range(len(rx)):
        res = mdpc_decode(MdpcBlock.from_bits(rx[i], 4, 3), 3)
        assert (res.iterations, res.flipped, res.ok) == (iters[i], flips[i], ok[i])
        assert np.array_equal(res.data, dec[i])


def assert_mdpc_matches_reference(codec, rx):
    """Every row of `codec.decode_batch(rx)` equals the per-word decode."""
    dec, iters, flips, ok = codec.decode_batch(rx)
    assert dec.shape == (len(rx), codec.k_bits)
    for i, row in enumerate(rx):
        res = mdpc_decode(MdpcBlock.from_bits(row, codec.m, codec.n), codec.max_iterations)
        assert (res.iterations, res.flipped, res.ok) == (iters[i], flips[i], ok[i]), (
            i, np.flatnonzero(row))
        assert np.array_equal(res.data, dec[i]), (i, np.flatnonzero(row))
    return dec, iters, flips, ok


def zero_word_block(width, rows):
    """The all-zero codeword received with each row's set of cells flipped."""
    block = np.zeros((len(rows), width), dtype=np.uint8)
    for bits, cells in zip(block, rows):
        bits[list(cells)] = 1
    return block


@st.composite
def zero_word_cases(draw):
    """Geometry, cap and per-row error cells, up to 2^n + 2 per row."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(2, {2: 8, 3: 5, 4: 3}[n]))
    width = (m + 1) ** n
    cells = st.sets(st.integers(0, width - 1), max_size=min(2 ** n + 2, width))
    return m, n, draw(st.integers(1, 10)), draw(st.lists(cells, max_size=ROWS))


@SETTINGS
@given(zero_word_cases())
@example((4, 2, 10, []))
@example((3, 3, 4, [set()] * 5))
# MDPC(4,2): clean, corrected, stalled (two on one line) and oscillating
# (a diagonal pair) rows in one block.
@example((4, 2, 7, [set(), {7}, {5, 8}, {0, 12}, set(), {0, 12}, {6}]))
def test_mdpc_zero_word_matches_reference(case):
    # The experiment's real input: the all-zero codeword plus the flips.
    m, n, max_iterations, rows = case
    codec = MdpcCodec(m, n, max_iterations=max_iterations)
    assert_mdpc_matches_reference(codec, zero_word_block((m + 1) ** n, rows))


@pytest.mark.parametrize("m,n", [(30, 2), (10, 3)])
def test_mdpc_sweep_geometries_match_reference(m, n, rng):
    # codec-sweep's geometries at its p_e, where t errors are expected per word.
    width = (m + 1) ** n
    rx = (rng.random((300, width)) < (2 ** (n - 1) - 1) / width).astype(np.uint8)
    _, _, flips, ok = assert_mdpc_matches_reference(MdpcCodec(m, n), rx)
    assert ok.any() and (flips > 0).any() and not ok.all()


def live_syndromes(cells, rounds):
    """The line parities before each reference round, while the word is live."""
    cube, out = cells.copy(), []
    for _ in range(rounds):
        fdm = _fdm(cube)
        if fdm.max() < 2:
            break
        out.append(np.concatenate([np.bitwise_xor.reduce(cube, axis=a).reshape(-1)
                                   for a in range(cube.ndim)]))
        cube ^= fdm == fdm.max()
    return out


@pytest.mark.parametrize("max_iterations", range(1, 11))
def test_mdpc_fixed_point_exit_matches_reference(max_iterations, rng):
    # A diagonal pair flips the same four cells every round: the syndrome
    # never changes, so the row runs to the cap, ending on the received
    # data at even caps and four cells off it at odd caps.
    codec = MdpcCodec(4, 2, max_iterations=max_iterations)
    rx = zero_word_block(25, [{0, 12}])
    dec, iters, flips, ok = assert_mdpc_matches_reference(codec, rx)
    assert not ok[0] and iters[0] == max_iterations and flips[0] == 4 * max_iterations
    wrong = np.count_nonzero(dec[0] != rx[0].reshape(5, 5)[:4, :4].reshape(-1))
    assert wrong == 4 * (max_iterations % 2)

    # Rows whose syndrome alternates between two values (period 2) take
    # the ordinary rounds to the cap, beside rows that settle or stall.
    codec = MdpcCodec(4, 3, max_iterations=max_iterations)
    rx = (rng.random((400, 125)) < 0.05).astype(np.uint8)
    period_2 = [i for i, row in enumerate(rx)
                if len(syn := live_syndromes(row.reshape(5, 5, 5), 10)) == 10
                and not np.array_equal(syn[-1], syn[-2])
                and np.array_equal(syn[-1], syn[-3])]
    assert period_2
    _, iters, _, _ = assert_mdpc_matches_reference(codec, rx)
    assert (iters[period_2] == max_iterations).all()


@st.composite
def interval_cases(draw):
    """A codec, its data and coded bits per word, and per-row flip counts:
    clean rows mixed with rows of 1 to 2t + 3 flipped bits."""
    if draw(st.booleans()):
        s = draw(st.integers(3, 12))
        r = draw(st.sampled_from([2, 4]))
        length = draw(st.integers(r + 1, min(2 ** s - 1, 255)))
        codec, k, n_bits = ReedSolomonCodec(s, r), s * (length - r), s * length
    else:
        n = draw(st.sampled_from([2, 3]))
        codec = MdpcCodec(draw(st.integers(2, {2: 6, 3: 4}[n])), n)
        k, n_bits = codec.k_bits, codec.k_bits + codec.r_bits
    flipped = draw(st.lists(st.integers(1, min(2 * codec.t + 3, n_bits)), max_size=10))
    clean = draw(st.integers(0 if flipped else 1, 4))
    return codec, k, n_bits, [0] * clean + flipped, draw(st.integers(0, 2 ** 32 - 1))


@SETTINGS
@given(interval_cases())
def test_interval_outcomes_match_codeword_path(case):
    # The simulator sends the all-zero codeword on the flipped rows only;
    # every row sent as a random codeword must give the same counts.
    codec, k, n_bits, weights, seed = case
    rng = np.random.default_rng(seed)
    mask = np.zeros((len(weights), n_bits), dtype=np.uint8)
    for row, weight in zip(mask, rng.permutation(weights)):
        row[rng.choice(n_bits, size=weight, replace=False)] = 1
    expected = codeword_outcomes(codec, k, mask, np.random.default_rng([seed, 1]))
    assert _carry(codec, k, codec.units(mask)) == expected


@st.composite
def dense_interval_cases(draw):
    """A codec, its data and coded bits per word, a p_e up to 0.2 and a row
    count: hundreds of flipped bits per row, so most rows miscorrect or
    fail and most decoded units are nonzero."""
    if draw(st.booleans()):
        s = draw(st.integers(8, 12))
        r = draw(st.sampled_from([2, 4]))
        length = draw(st.integers(200, min(2 ** s - 1, 600)))
        codec, k, n_bits = ReedSolomonCodec(s, r), s * (length - r), s * length
    else:
        n = draw(st.sampled_from([2, 3]))
        codec = MdpcCodec(draw(st.integers(*{2: (20, 30), 3: (8, 10)}[n])), n)
        k, n_bits = codec.k_bits, codec.k_bits + codec.r_bits
    p_e = draw(st.sampled_from([0.2, 0.1, 0.05]))
    return codec, k, n_bits, p_e, draw(st.integers(1, 6)), draw(st.integers(0, 2 ** 32 - 1))


@SETTINGS
@given(dense_interval_cases())
# RS(49116,12) at the p_e of its stale intervals at 5 m.
@example((ReedSolomonCodec(12, 2), 49116, 49140, 0.186, 3, 7))
def test_dense_interval_outcomes_match_codeword_path(case):
    codec, k, n_bits, p_e, rows, seed = case
    rng = np.random.default_rng(seed)
    mask = (rng.random((rows, n_bits)) < p_e).astype(np.uint8)
    expected = codeword_outcomes(codec, k, mask, np.random.default_rng([seed, 1]))
    assert _carry(codec, k, codec.units(mask)) == expected


@st.composite
def experiment_cases(draw):
    """A configuration, a p_e up to 3t / (units per word), and a generation
    count split into several batches."""
    rate = DEFAULT_DATA_RATES_GBPS[Modulation.BPSK]
    if draw(st.booleans()):
        s, r = draw(st.integers(3, 6)), draw(st.integers(2, 6))
        length = draw(st.integers(r + 1, 2 ** s - 1))
        config = LinkConfig(SCHEME_RS, Modulation.BPSK, s * (length - r), s * r,
                            rate, s=s)
        n_units, t = length, r // 2
    else:
        n, m = draw(st.integers(2, 3)), draw(st.integers(2, 5))
        config = LinkConfig(SCHEME_MDPC, Modulation.BPSK, m ** n,
                            MdpcCodec(m, n).r_bits, rate, m=m, n=n)
        n_units, t = (m + 1) ** n, 2 ** (n - 1) - 1
    p_e = min(0.5, 3 * t / n_units) * draw(st.integers(0, 16)) / 16
    generations = draw(st.integers(2, 60))
    batch_size = draw(st.integers(1, generations - 1))
    return (config, p_e, generations, draw(st.integers(0, 2 ** 32 - 1)), batch_size,
            draw(st.integers(1, 10)))


@SETTINGS
@given(experiment_cases())
def test_residual_experiment_matches_codeword_path(case):
    # The experiment sends the all-zero codeword; by linearity every field
    # must equal the codeword path's, which sends random data.
    assert residual_error_experiment(*case) == codeword_residual_stats(*case)

"""Exact outcome laws of the two shortest RS codes, and the simulator held to them.

RS(9,3) and RS(15,3) send 15 and 21 bits as 3-bit symbols with 2 parity
symbols, so every error pattern can be decoded once. Grouping the patterns
by weight gives each outcome class's probability at a bit error rate p_e
exactly, as a polynomial in p_e. The simulator sends the all-zero codeword,
so its decoder sees the channel's error patterns themselves, and its counts
must follow these laws.
"""

from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import pytest

from reference_codecs import RsCodeword, ScalarRsCodec
from thzlink import sim as sim_module
from thzlink.config import RunSpec
from thzlink.rs import ReedSolomonCodec
from thzlink.sim import LinkSimulation, MobilityTrace, TracePhase

S, R = 3, 2  # both codes: 3-bit symbols, 2 parity symbols
CLEAN, CORRECTED, MISCORRECTED, FAILED = range(4)
CHUNK = 1 << 17  # patterns decoded per batch while a law is built
# A chi-square statistic with 3 degrees of freedom exceeds this with
# probability 0.001.
CHI2_3DOF_999 = 16.266


def classify(ok, changed, wrong):
    """Outcome class per word. `wrong` marks decoded data that differs from
    the sent data; a word with zero syndromes and wrong data counts as
    miscorrected."""
    return np.select([~ok, wrong, changed], [FAILED, MISCORRECTED, CORRECTED],
                     CLEAN).astype(np.int8)


@dataclass(frozen=True)
class Law:
    n_bits: int
    classes: np.ndarray  # per pattern, the pattern read as an integer, MSB sent first
    counts: np.ndarray   # (class, pattern weight) -> number of patterns

    def probs(self, p_e: float) -> np.ndarray:
        w = np.arange(self.n_bits + 1)
        return self.counts @ (p_e ** w * (1.0 - p_e) ** (self.n_bits - w))


def build_law(k_bits: int) -> Law:
    """Every error pattern of RS(k_bits, 3) through the batched decoder."""
    codec = ReedSolomonCodec(S, R)
    n_bits = k_bits + S * R
    size = 1 << n_bits
    shifts = np.arange(n_bits - 1, -1, -1, dtype=np.uint32)
    classes = np.empty(size, np.int8)
    for start in range(0, size, CHUNK):
        patterns = np.arange(start, min(start + CHUNK, size), dtype=np.uint32)
        bits = ((patterns[:, None] >> shifts) & 1).astype(np.uint8)
        decoded, ok, changed = codec.decode_units(codec.units(bits))
        classes[start:start + patterns.size] = classify(ok, changed, decoded.any(axis=1))
    weights = np.bitwise_count(np.arange(size, dtype=np.uint32))
    counts = np.bincount(classes * (n_bits + 1) + weights, minlength=4 * (n_bits + 1))
    return Law(n_bits, classes, counts.reshape(4, n_bits + 1))


@pytest.fixture(scope="session")
def laws():
    return {k_bits: build_law(k_bits) for k_bits in (9, 15)}


@pytest.mark.parametrize("k_bits", [9, 15])
def test_law_matches_scalar_decoder(laws, k_bits):
    law = laws[k_bits]
    n_bits = law.n_bits
    assert law.counts.sum() == 1 << n_bits
    # Only the zero pattern is clean, and every one-bit pattern is corrected.
    assert law.counts[CLEAN].tolist() == [1] + [0] * n_bits
    assert law.counts[CORRECTED, 1] == n_bits
    assert law.probs(0.05).sum() == pytest.approx(1.0)
    # Sampled patterns: channel-like ones, and nonzero codewords, whose
    # syndromes are zero.
    rng = np.random.default_rng(k_bits)
    scalar = ScalarRsCodec(S, R)
    noise = (rng.random((300, n_bits)) < 0.12).astype(np.uint8)
    codewords = [scalar.encode(rng.integers(0, 2, k_bits, dtype=np.uint8)).to_bits()
                 for _ in range(40)]
    sample = np.vstack([noise, *codewords])
    got = law.classes[sample @ (1 << np.arange(n_bits - 1, -1, -1))].tolist()
    assert got == [_scalar_class(scalar, bits, k_bits) for bits in sample]
    assert set(got) == {CLEAN, CORRECTED, MISCORRECTED, FAILED}


def _scalar_class(scalar, bits, k_bits):
    res = scalar.decode(RsCodeword.from_bits(bits, S, k_bits // S, R))
    if not res.ok:
        return FAILED
    if res.data.any():
        return MISCORRECTED
    return CORRECTED if res.corrected else CLEAN


def test_dwell_outcomes_follow_the_exact_law(laws, default_table, monkeypatch):
    # 9.0 m runs RS(15,3)/16QAM at p_e 0.0398 and 10.0 m RS(9,3)/16QAM at
    # 0.0600, once the controller has left its boot configuration. Each
    # (code, p_e) group's class counts are held to its law: the clean rows
    # of each channel draw, and the simulator's own error-free, corrected
    # and failed counts of each decoded segment, split by the miscorrected
    # rows that the decoder returns.
    spec = RunSpec(table_path="unused", seed=1, duration_s=600.0)
    trace = MobilityTrace((TracePhase("dwell", 0.0, 300.0, 9.0, 9.0),
                           TracePhase("dwell", 300.0, 600.0, 10.0, 10.0)))
    sim = LinkSimulation(spec, default_table, trace)
    observed = defaultdict(lambda: np.zeros(4, np.int64))
    miscorrected = []  # per decoded block: (changed, unchanged) wrong rows
    drawn = []  # per channel draw: (config, p_e)

    sample = sim_module.sample_flip_mask

    def sample_spy(shape, p_e, rng):
        mask = sample(shape, p_e, rng)
        drawn.append((sim.active_config.describe(), p_e))
        observed[drawn[-1]][CLEAN] += int(np.count_nonzero(~mask.any(axis=1)))
        return mask

    decode = ReedSolomonCodec.decode_symbols_batch

    def decode_spy(codec, symbols):
        out, counts, ok = decode(codec, symbols)
        wrong = ok & out[:, :symbols.shape[1] - codec.r_symbols].any(axis=1)
        miscorrected.append((int(np.count_nonzero(wrong & (counts > 0))),
                             int(np.count_nonzero(wrong & (counts == 0)))))
        return out, counts, ok

    carry = sim_module._carry

    def carry_spy(codec, k, flip_mask):
        miscorrected.clear()
        got = carry(codec, k, flip_mask)
        mis_changed = sum(changed for changed, _ in miscorrected)
        mis_zero = sum(zero for _, zero in miscorrected)
        # A segment is one dwell under one config, and it is decoded before
        # any later draw, so the last draw was the segment's own.
        observed[drawn[-1]] += (got.error_free - mis_zero, got.corrected - mis_changed,
                                mis_changed + mis_zero, got.failed)
        return got

    monkeypatch.setattr(sim_module, "sample_flip_mask", sample_spy)
    monkeypatch.setattr(ReedSolomonCodec, "decode_symbols_batch", decode_spy)
    monkeypatch.setattr(sim_module, "_carry", carry_spy)
    records = sim.run()
    assert sum(observed.values()).sum() == sum(r.generations_sent for r in records)

    for label, k_bits, p_e in (("RS(15,3)/16QAM", 15, 0.0398),
                               ("RS(9,3)/16QAM", 9, 0.0600)):
        (key,) = [key for key in observed
                  if key[0] == label and key[1] == pytest.approx(p_e, abs=5e-5)]
        counts = observed[key]
        assert counts.sum() >= 50_000
        expected = counts.sum() * laws[k_bits].probs(key[1])
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_3DOF_999, (label, counts.tolist(), expected.round(1).tolist())

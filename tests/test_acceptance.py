"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each test prints a single `ACCEPTANCE n: PASS` line on success (run with
`pytest -v -s tests/test_acceptance.py` to see them); a failing criterion
fails its test.
"""

import itertools

import numpy as np
import pytest

from helpers import brute_force_selection, tail_sigma
from thzlink.config import RunSpec
from thzlink.control import (SCHEME_MDPC, SCHEME_RS, AdaptiveController,
                             BerMessage, OptimizerParams, candidates,
                             complexity_units, select_config)
from thzlink.mdpc import MdpcCodec
from thzlink.modem import DEFAULT_DATA_RATES_GBPS, MODULATIONS, Modulation
from thzlink.rs import ReedSolomonCodec, symbols_to_bits
from thzlink.sim import (LinkSimulation, MobilityTrace, TracePhase,
                         residual_error_experiment, run_simulation)

SEED = 20260811
PEAK_RATE_GBPS = 28.16


def test_criterion_1_mdpc_single_error_correction(rng):
    total = 0
    for m in range(2, 17):
        codec = MdpcCodec(m, 2)
        data = rng.integers(0, 2, m * m).astype(np.uint8)
        block = codec.encode_batch(data[None, :])[0]
        n_bits = (m + 1) ** 2
        bad = np.tile(block, (n_bits, 1))
        bad[np.arange(n_bits), np.arange(n_bits)] ^= 1  # row pos flips bit pos
        decoded, _, flipped, ok = codec.decode_batch(bad)
        corrected = ok & (flipped > 0)
        assert corrected.all(), (m, np.nonzero(~corrected)[0])
        wrong = np.any(decoded != data, axis=1)
        assert not wrong.any(), (m, np.nonzero(wrong)[0])
        total += n_bits
    print(f"\nACCEPTANCE 1: PASS - MDPC n=2 single-error correction, "
          f"{total} exhaustive cases over m in [2,16], 0 failures")


def error_patterns(word, patterns):
    """One received word per pattern; a pattern is ((pos, val), ...)."""
    rx = np.tile(word, (len(patterns), 1))
    for row, pattern in zip(rx, patterns):
        for pos, val in pattern:
            row[pos] ^= val
    return rx


def test_criterion_2_rs_correction_guarantee(rng):
    # t=1 code over GF(256) at the boot geometry: every single-symbol error.
    codec = ReedSolomonCodec(8, 2)
    data = rng.integers(0, 2, 224).astype(np.uint8)
    word = codec.encode_batch(data[None, :])[0]
    singles = [((pos, val),) for pos in range(30) for val in range(1, 256)]
    out, corrected, ok = codec.decode_symbols_batch(error_patterns(word, singles))
    assert (ok & (corrected == 1)).all(), np.nonzero(~ok | (corrected != 1))[0]
    assert (symbols_to_bits(out[:, :28], 8) == data).all()
    n_single = len(singles)
    assert n_single == 30 * 255

    # t=2 code over GF(16), full length: every 1- and 2-symbol error pattern.
    codec2 = ReedSolomonCodec(4, 4)
    data2 = rng.integers(0, 2, 44).astype(np.uint8)
    word2 = codec2.encode_batch(data2[None, :])[0]
    singles2 = [((pos, val),) for pos in range(15) for val in range(1, 16)]
    out, corrected, ok = codec2.decode_symbols_batch(error_patterns(word2, singles2))
    assert (ok & (corrected == 1)).all()
    assert (symbols_to_bits(out[:, :11], 4) == data2).all()
    doubles = [((p1, v1), (p2, v2))
               for p1, p2 in itertools.combinations(range(15), 2)
               for v1 in range(1, 16) for v2 in range(1, 16)]
    out, corrected, ok = codec2.decode_symbols_batch(error_patterns(word2, doubles))
    failed = ~ok | (corrected != 2)
    assert not failed.any(), [doubles[i] for i in np.nonzero(failed)[0][:5]]
    wrong = np.any(symbols_to_bits(out[:, :11], 4) != data2, axis=1)
    assert not wrong.any(), [doubles[i] for i in np.nonzero(wrong)[0][:5]]
    n_double = len(doubles)
    print(f"\nACCEPTANCE 2: PASS - RS guarantee: {n_single} single-symbol "
          f"cases (s=8,t=1) and {n_double} double-symbol cases (s=4,t=2), "
          f"100% corrected")


def test_criterion_3_optimizer_oracle_equivalence(default_table):
    params = OptimizerParams()
    rates = DEFAULT_DATA_RATES_GBPS
    for distance in default_table.distances:
        p_by_mod = {mod: default_table.lookup(distance, mod) for mod in MODULATIONS}
        cands = candidates(p_by_mod, rates, params)
        chosen = select_config(cands.values(), rates)
        expected = brute_force_selection(default_table, distance, rates, params)
        got = (chosen.scheme, chosen.modulation, chosen.k_bits, chosen.r_bits)
        assert got == expected, f"divergence at d={distance}"
    print(f"\nACCEPTANCE 3: PASS - optimizer equals brute-force enumeration at "
          f"all {len(default_table.distances)} grid distances "
          f"(exact scheme/modulation/K/R match)")


def test_criterion_4_code_rate_bound_reproduction(full_run):
    _, records = full_run
    assert len(records) >= 10
    for rec in records:
        assert 0.25 <= rec.code_rate <= 1.0, rec
        assert 0.0 <= rec.overhead <= 0.75, rec
    print(f"\nACCEPTANCE 4: PASS - {len(records)} dwell records from the "
          f"default 6060 s scenario, R_F in [0.25, 1] and overhead in "
          f"[0, 0.75] for every record")


def test_criterion_5_maximum_throughput_at_short_range(default_table, table_csv,
                                                       full_run, tmp_path):
    # Dedicated stationary dwell at the shortest grid distance.
    spec = RunSpec(table_path=str(table_csv), seed=1, duration_s=60.0)
    trace = MobilityTrace((TracePhase("dwell", 0.0, 60.0, 0.5, 0.5),))
    records = LinkSimulation(spec, default_table, trace=trace).run()
    rec = records[-1]
    assert rec.modulation == "16QAM"
    assert rec.th_theoretical_gbps >= 0.98 * PEAK_RATE_GBPS
    assert rec.th_theoretical_gbps <= PEAK_RATE_GBPS
    # And every short-distance dwell of the full scenario agrees.
    _, full_records = full_run
    short = [r for r in full_records if r.distance_m <= 2.0]
    assert short, "fixed-seed scenario never dwelt at a short distance"
    for r in short:
        assert r.modulation == "16QAM"
        assert r.th_theoretical_gbps >= 0.98 * PEAK_RATE_GBPS
    print(f"\nACCEPTANCE 5: PASS - 16QAM selected at the shortest distances, "
          f"TH={rec.th_theoretical_gbps:.3f} Gbps within 2% of "
          f"{PEAK_RATE_GBPS} Gbps ({len(short)} short dwells checked)")


def test_criterion_6_8psk_never_selected(default_table, full_run):
    _, records = full_run
    assert all(rec.modulation != "8PSK" for rec in records)
    # Structural reason: the calibrated table keeps 8PSK at or above the
    # 16QAM error probability, so 16QAM dominates it at every distance.
    p8 = default_table.column(Modulation.PSK8)
    p16 = default_table.column(Modulation.QAM16)
    assert np.all(p8 >= p16)
    print(f"\nACCEPTANCE 6: PASS - 0 of {len(records)} records select 8PSK; "
          f"table keeps p(8PSK) >= p(16QAM) at all 40 distances")


def test_criterion_7_state_machine_conformance(default_table):
    ctl = AdaptiveController(default_table)
    eps = ctl.epsilon[ctl.current_config.modulation]
    assert ctl.buffer == [0.0]  # boot state

    # Clear on movement (a jump of at least epsilon against any entry).
    a = ctl.on_ber_update(BerMessage(0.0579, 0.0))
    assert a.kind == "cleared" and a.config is None and ctl.buffer == [0.0579]

    # Small drifts below epsilon buffer up; the filling insert emits exactly
    # one configuration.
    drift = [0.0579 + 0.1 * eps, 0.0579 + 0.2 * eps, 0.0579 + 0.3 * eps]
    assert ctl.on_ber_update(BerMessage(drift[0], 0.5)).kind == "buffered"
    assert ctl.on_ber_update(BerMessage(drift[1], 1.0)).kind == "buffered"
    filled = ctl.on_ber_update(BerMessage(drift[2], 1.5))
    assert filled.kind == "config" and filled.config is not None
    assert ctl.buffer == [0.0579] + drift

    # Full and stable: evict the oldest, never emit a configuration.
    again = ctl.on_ber_update(BerMessage(drift[2], 2.0))
    assert again.kind == "buffered-stable" and again.config is None
    assert ctl.buffer == drift + [drift[2]]
    assert ctl.generations == 1

    # Movement clears even a full buffer.
    moved = ctl.on_ber_update(BerMessage(0.5, 2.5))
    assert moved.kind == "cleared" and ctl.buffer == [0.5]
    assert ctl.generations == 1
    print("\nACCEPTANCE 7: PASS - scripted sequences: boot buffer [0], "
          "clear-on-move, config exactly on fill, stable-full eviction")


def test_criterion_8_complexity_counter(default_table):
    assert complexity_units(4, 4, 2) == 32
    ctl = AdaptiveController(default_table)
    v = default_table.lookup(10.0, Modulation.QAM16)
    ctl.on_ber_update(BerMessage(v, 0.0))  # cleared
    ctl.on_ber_update(BerMessage(v, 0.5))
    ctl.on_ber_update(BerMessage(v, 1.0))
    assert ctl.total_units == 0
    ctl.on_ber_update(BerMessage(v, 1.5))  # fills: one generation
    assert ctl.last_generation_units == 32
    assert ctl.total_units == 32
    print("\nACCEPTANCE 8: PASS - one default configuration generation "
          "accumulates exactly 32 units (N=4, M=4, C=2)")


def test_criterion_9_residual_error_property(default_table):
    params = OptimizerParams()
    distance = 16.0
    p_e = default_table.lookup(distance, Modulation.BPSK)
    p_by_mod = {mod: p_e for mod in MODULATIONS}
    rates = {mod: DEFAULT_DATA_RATES_GBPS[Modulation.BPSK] for mod in MODULATIONS}
    cands = candidates(p_by_mod, rates, params)
    lines = []
    for codec_kind in (SCHEME_RS, SCHEME_MDPC):
        config = select_config([cands[codec_kind, Modulation.BPSK]], rates)
        assert config.scheme == codec_kind
        stats = residual_error_experiment(config, p_e, generations=1_000_000,
                                          seed=SEED)
        # Everything within the correction budget decodes, zero tolerance.
        assert stats.within_budget_failures == 0
        # Failures happen only beyond the budget ...
        assert stats.data_failures <= stats.exceed_injected
        # ... and the over-budget fraction matches the binomial tail.
        gap = abs(stats.empirical_exceed_rate - stats.theoretical_tail)
        assert gap <= 3 * tail_sigma(stats), (codec_kind, stats)
        # The failure rate never exceeds that tail; it runs slightly below
        # it when surplus errors hit only parity cells, and (for MDPC) when
        # the iterative decoder rescues collinear over-budget patterns.
        failure_rate = stats.data_failures / stats.generations
        assert failure_rate <= stats.theoretical_tail + 3 * tail_sigma(stats)
        lines.append(f"{config.describe()}: tail {stats.theoretical_tail:.5f}, "
                     f"exceed {stats.empirical_exceed_rate:.5f}, "
                     f"failures {failure_rate:.5f}")
    print(f"\nACCEPTANCE 9: PASS - 2x10^6 generations at p_e={p_e:.5f}; "
          f"0 within-budget failures; {'; '.join(lines)} (3-sigma)")


def test_criterion_10_run_determinism(default_table, table_csv, tmp_path):
    digests = []
    for tag in ("first", "second"):
        m = tmp_path / f"{tag}_metrics.csv"
        e = tmp_path / f"{tag}_events.log"
        spec = RunSpec(table_path=str(table_csv), seed=17, duration_s=600.0,
                       metrics_path=str(m), events_path=str(e))
        run_simulation(spec, default_table)
        digests.append((m.read_bytes(), e.read_bytes()))
    assert digests[0][0] == digests[1][0]
    assert digests[0][1] == digests[1][1]
    print("\nACCEPTANCE 10: PASS - identical spec and seed give byte-identical "
          "metrics CSV (and event log)")

import math
import tracemalloc

import numpy as np
import pytest

from helpers import distance_at, table_between, tail_sigma
from thzlink import sim as sim_module
from thzlink.config import RunSpec, SpecError
from thzlink.control import (SCHEME_MDPC, SCHEME_RS, LinkConfig, OptimizerParams,
                             initial_link_config, optimize_for_distance)
from thzlink.mdpc import MdpcCodec
from thzlink.modem import (DEFAULT_DATA_RATES_GBPS, MODULATIONS, BerTable, Modulation,
                           sample_flip_mask, symbol_error_prob)
from thzlink.rs import ReedSolomonCodec, bits_to_symbols, symbols_to_bits
from thzlink.sim import (DWELL_CHOICES_S, LinkSimulation,
                         MobilityTrace, Outcomes, TracePhase, _carry,
                         binomial_tail_above, generate_trace,
                         residual_error_experiment, run_simulation)


def spec_for(table_csv, **kwargs):
    defaults = dict(table_path=str(table_csv), seed=1, duration_s=120.0)
    defaults.update(kwargs)
    return RunSpec(**defaults)


def stationary_trace(distance, duration):
    return MobilityTrace((TracePhase("dwell", 0.0, duration, distance, distance),))


# -- mobility trace -----------------------------------------------------------


def test_trace_is_deterministic(default_table):
    a = generate_trace(42, 3600, default_table.distances)
    b = generate_trace(42, 3600, default_table.distances)
    assert a.phases == b.phases


def test_trace_short_duration_single_segment(default_table):
    trace = generate_trace(1, 50, default_table.distances)
    assert len(trace.phases) == 1
    assert trace.phases[0].kind == "dwell"


def test_trace_structure(default_table):
    trace = generate_trace(9, 7200, default_table.distances)
    grid = set(float(d) for d in default_table.distances)
    last_pos = None
    for i, phase in enumerate(trace.phases):
        if phase.kind == "dwell":
            assert phase.d0 == phase.d1
            assert phase.d0 in grid
            assert phase.t1 - phase.t0 in DWELL_CHOICES_S
            assert phase.d0 != last_pos  # consecutive dwells differ
            last_pos = phase.d0
        else:
            assert phase.t1 - phase.t0 == pytest.approx(abs(phase.d1 - phase.d0))
        if i:
            assert phase.t0 == trace.phases[i - 1].t1
    kinds = [p.kind for p in trace.phases]
    assert all(k1 != k2 for k1, k2 in zip(kinds, kinds[1:]))  # alternating


def test_trace_segment_count_for_long_scenario(default_table):
    trace = generate_trace(3, 60600, default_table.distances)
    n = sum(phase.kind == "dwell" for phase in trace.phases)
    # Segment time ranges over [180.5, 439.5] s, bounding the count.
    assert 60600 // 440 <= n <= 60600 // 180 + 1


def test_trace_distance_interpolation():
    trace = MobilityTrace((TracePhase("dwell", 0.0, 10.0, 4.0, 4.0),
                           TracePhase("walk", 10.0, 14.0, 4.0, 8.0),
                           TracePhase("dwell", 14.0, 20.0, 8.0, 8.0)))
    assert distance_at(trace, 5.0) == 4.0
    assert distance_at(trace, 11.0) == pytest.approx(5.0)
    assert distance_at(trace, 13.0) == pytest.approx(7.0)
    assert distance_at(trace, 15.0) == 8.0


def test_trace_rejects_bad_duration(default_table):
    # NaN gave an empty trace and inf never ended the dwell/walk loop.
    for duration in (0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            generate_trace(1, duration, default_table.distances)


@pytest.mark.parametrize("grid", [[20.0], [20.0, 20.0], []])
def test_trace_rejects_grid_without_two_distances(grid):
    # A walk redraws its target until it moves, which on such a grid used to
    # loop forever.
    with pytest.raises(ValueError, match="two distinct distances"):
        generate_trace(1, 1000.0, grid=grid)


# -- simulation ---------------------------------------------------------------


@pytest.mark.parametrize("fields,keys", [
    # 9.7e9 generations in 6060 s, so 3.9e10 bits per RS(49116,12) interval.
    (dict(generations_per_interval=800_000), "generations_per_interval: "),
    # MDPC(100000000)/16QAM at 0.5 m, 1e10 bits per interval.
    (dict(m_max=10000), "generations_per_interval and m_max"),
], ids=["generations_per_interval", "m_max"])
def test_interval_too_large_is_rejected(default_table, fields, keys):
    spec = RunSpec(table_path="unused", **fields)
    with pytest.raises(SpecError, match=keys):
        LinkSimulation(spec, default_table)


def test_interval_bound_admits_t_mdpc_3(default_table):
    # A static m_max ** n bound would ask 1.1e11 bits of three-dimensional
    # MDPC, but on the default table the largest word stays RS(49116,12).
    spec = RunSpec(table_path="unused", t_mdpc=3, t_rs=4)
    LinkSimulation(spec, default_table)


def test_table_must_span_the_trace(default_table):
    # A given trace is not redrawn on the table's grid. The seed-1 trace
    # over 0.5-20 m leaves 2-10 m within 600 s; the run used to stop there
    # with a ValueError after writing part of events.log.
    spec = RunSpec(table_path="near.csv", duration_s=600.0)
    with pytest.raises(SpecError, match="table_path: near.csv spans 2-10 m"):
        LinkSimulation(spec, table_between(default_table, 2.0, 10.0),
                       generate_trace(1, 600.0, default_table.distances))
    with pytest.raises(SpecError, match="table_path: .* the trace has no phases"):
        LinkSimulation(spec, default_table, MobilityTrace(()))
    # A walk counts whole although the run ends before it reaches 10.5 m.
    walk = MobilityTrace((TracePhase("walk", 0.0, 100.0, 2.0, 10.5),))
    with pytest.raises(SpecError, match="reaches 2-10.5 m"):
        LinkSimulation(RunSpec(table_path="near.csv", duration_s=1.0),
                       table_between(default_table, 2.0, 10.0), walk)


def test_one_codec_per_rs_geometry(default_table, monkeypatch):
    # RS(15,3) at 9 m and RS(9,3) at 10 m share s = 3 and r = 2 symbols.
    built = []
    init = ReedSolomonCodec.__init__

    def spy(codec, s, r_symbols):
        built.append((s, r_symbols))
        init(codec, s, r_symbols)

    monkeypatch.setattr(ReedSolomonCodec, "__init__", spy)
    trace = MobilityTrace((TracePhase("dwell", 0.0, 10.0, 9.0, 9.0),
                           TracePhase("dwell", 10.0, 20.0, 10.0, 10.0)))
    sim = LinkSimulation(RunSpec(table_path="unused", duration_s=20.0),
                         default_table, trace)
    sim.run()
    active = {label for _, label, _ in sim.interval_log}
    assert {"RS(15,3)/16QAM", "RS(9,3)/16QAM"} <= active
    assert built.count((3, 2)) == 1


def all_zero_table(distances):
    return BerTable(distances, {mod: [0.0] * len(distances) for mod in MODULATIONS})


def test_error_free_channel_runs_clean(default_table, table_csv):
    table = all_zero_table(default_table.distances)
    spec = spec_for(table_csv, duration_s=60.0)
    sim = LinkSimulation(spec, table, trace=stationary_trace(10.0, 60.0))
    records = sim.run()
    assert len(records) == 1
    rec = records[0]
    assert rec.p_re_empirical == 0.0
    assert rec.generations_failed == 0
    assert rec.generations_error_free == rec.generations_sent
    # With p_e identically zero the optimizer lands on the max-rate config.
    assert rec.modulation == "16QAM"
    assert rec.code_rate > 0.999
    assert rec.th_theoretical_gbps == pytest.approx(28.16 * rec.code_rate)


def test_stationary_receiver_changes_config_exactly_once(default_table, table_csv):
    # Dwell at a distance whose optimal modulation is the boot modulation, so
    # the BER stream stays comparable across the switch: the buffer fills
    # once, one new configuration is applied, then the buffer only rotates.
    spec = spec_for(table_csv, duration_s=120.0)
    sim = LinkSimulation(spec, default_table, trace=stationary_trace(6.0, 120.0))
    sim.run()
    labels = [label for _, label, _ in sim.interval_log]
    changes = [(a, b) for a, b in zip(labels, labels[1:]) if a != b]
    assert len(changes) == 1
    _, expected = optimize_for_distance(default_table, 6.0,
                                        DEFAULT_DATA_RATES_GBPS, OptimizerParams())
    assert labels[-1] == expected.describe()
    kinds = [k for _, _, k in sim.interval_log]
    assert kinds[0] == "cleared"  # arrival at a new distance
    assert kinds.count("config") == 1
    assert set(kinds[kinds.index("config") + 1:]) == {"buffered-stable"}


def test_config_takes_effect_next_interval(default_table, table_csv):
    spec = spec_for(table_csv, duration_s=60.0)
    sim = LinkSimulation(spec, default_table, trace=stationary_trace(6.0, 60.0))
    sim.run()
    log = sim.interval_log
    boot = initial_link_config().describe()
    idx = [i for i, (_, _, kind) in enumerate(log) if kind == "config"]
    assert idx, "no configuration was generated"
    first = idx[0]
    assert log[first][1] == boot  # emitting interval still ran the old config
    assert log[first + 1][1] != boot  # applied at the next interval


def test_walk_clears_buffer_on_each_ber_jump(default_table, table_csv):
    # Walking across 0.5 m grid cells in the lossy region: every interval's
    # table BER differs from the buffered ones by far more than epsilon.
    trace = MobilityTrace((TracePhase("dwell", 0.0, 30.0, 12.0, 12.0),
                           TracePhase("walk", 30.0, 36.0, 12.0, 18.0),
                           TracePhase("dwell", 36.0, 60.0, 18.0, 18.0)))
    spec = spec_for(table_csv, duration_s=60.0)
    sim = LinkSimulation(spec, default_table, trace=trace)
    sim.run()
    walk_kinds = [kind for now, _, kind in sim.interval_log if 30.0 <= now < 36.0]
    # The first walk interval still sits on the dwell's grid cell; every
    # following step lands on a new cell and must clear the buffer.
    assert walk_kinds[0] == "buffered-stable"
    assert walk_kinds[1:] == ["cleared"] * 11


def test_walk_intervals_draw_the_channel_only(default_table, table_csv, monkeypatch):
    # No output reports a walk interval's outcomes, so it draws its flips,
    # which the controller's BER and the channel stream need, and stages
    # nothing. Every flipped row drawn in a dwell is decoded, in fewer
    # decoder calls than the dwells have intervals.
    trace = MobilityTrace((TracePhase("dwell", 0.0, 10.0, 12.0, 12.0),
                           TracePhase("walk", 10.0, 16.0, 12.0, 18.0),
                           TracePhase("dwell", 16.0, 30.0, 18.0, 18.0)))
    spec = spec_for(table_csv, duration_s=30.0)
    sim = LinkSimulation(spec, default_table, trace=trace)
    flipped = []  # per channel draw: (interval index, rows with a flip)
    staged = []   # per interval: rows staged when it ends
    decoded = []  # per decoder call: rows

    sample = sim_module.sample_flip_mask

    def sample_spy(*args):
        mask = sample(*args)
        flipped.append((len(sim.interval_log), int(np.count_nonzero(mask.any(axis=1)))))
        return mask

    transmit = sim._transmit_interval

    def transmit_spy(*args):
        ber_m = transmit(*args)
        staged.append(sum(rows.shape[0] for rows in sim._staged))
        return ber_m

    carry = sim_module._carry

    def carry_spy(codec, k, flip_mask):
        decoded.append(flip_mask.shape[0])
        return carry(codec, k, flip_mask)

    monkeypatch.setattr(sim_module, "sample_flip_mask", sample_spy)
    monkeypatch.setattr(sim, "_transmit_interval", transmit_spy)
    monkeypatch.setattr(sim_module, "_carry", carry_spy)
    sim.run()

    walk = {i for i, (now, _, _) in enumerate(sim.interval_log) if 10.0 <= now < 16.0}
    assert len(walk) == 12
    assert [i for i, _ in flipped] == list(range(len(sim.interval_log)))
    assert sum(n for i, n in flipped if i in walk) > 0
    assert all(staged[i] == 0 for i in walk)
    dwell_rows = sum(n for i, n in flipped if i not in walk)
    assert dwell_rows > 0 and sum(decoded) == dwell_rows
    assert len(decoded) < len(sim.interval_log) - len(walk)


def test_staging_leaves_outputs_unchanged(default_table, table_csv, tmp_path,
                                         monkeypatch):
    # Flushing every interval, as decoding each interval on its own did, and
    # flushing once per (dwell, config) segment give the default's bytes.
    # The trace has stale intervals after mid-dwell config changes, a walk
    # and an 18 m MDPC(4)/QPSK dwell, at t_rs = 2 on the sampled estimator;
    # loose movement thresholds and a two-report buffer let its noisy
    # reports re-plan.
    trace = MobilityTrace((TracePhase("dwell", 0.0, 60.0, 12.0, 12.0),
                           TracePhase("walk", 60.0, 66.0, 12.0, 18.0),
                           TracePhase("dwell", 66.0, 120.0, 18.0, 18.0)))
    epsilon = {mod: 0.03 for mod in MODULATIONS} | {Modulation.QPSK: 0.005}
    carry = sim_module._carry
    calls = []

    def carry_spy(*args):
        calls[-1] += 1
        return carry(*args)

    monkeypatch.setattr(sim_module, "_carry", carry_spy)

    def outputs(tag):
        calls.append(0)
        paths = (tmp_path / f"metrics_{tag}.csv", tmp_path / f"events_{tag}.log")
        spec = spec_for(table_csv, seed=3, duration_s=120.0, t_rs=2,
                        ber_estimator="sampled", buffer_size=2, epsilon=epsilon,
                        metrics_path=str(paths[0]), events_path=str(paths[1]))
        sim = LinkSimulation(spec, default_table, trace=trace)
        sim.run(*paths)
        labels = [label for _, label, _ in sim.interval_log]
        assert labels[:2] == ["RS(224,8)/16QAM"] * 2 and labels[2] == "RS(252,6)/QPSK"
        assert labels.count("MDPC(4)/QPSK") > 50
        return [path.read_bytes() for path in paths]

    default = outputs("default")
    for stage_bits in (1, 2 ** 40):
        monkeypatch.setattr(sim_module, "STAGE_BITS", stage_bits)
        assert outputs(stage_bits) == default
    # Each setting batches differently: the default flushes mid-segment.
    assert calls[1] > calls[0] > calls[2]


def test_staged_rows_stay_within_stage_bits(default_table, table_csv):
    # A 5 m dwell on RS(3159,9)/16QAM stages about 62 flipped rows of 3177
    # bits per interval. A flush once STAGE_BITS wait bounds the peak by
    # STAGE_BITS plus one interval's mask (4.6 times their sum measured),
    # however long the dwell.
    spec = spec_for(table_csv, duration_s=1000.0)
    sim = LinkSimulation(spec, default_table, trace=stationary_trace(5.0, 1000.0))
    sim.active_config = sim.controller.plan[5.0]
    assert sim.active_config.describe() == "RS(3159,9)/16QAM"
    mask_bits = spec.generations_per_interval * (sim.active_config.k_bits
                                                 + sim.active_config.r_bits)

    def peak(intervals):
        tracemalloc.start()
        try:
            outcomes = Outcomes()
            for _ in range(intervals):
                sim._transmit_interval(5.0, outcomes)
            sim._flush()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)
    for intervals in (20, 200):
        assert peak(intervals) <= 6 * (sim_module.STAGE_BITS + mask_bits)


@pytest.mark.parametrize("t_rs", [1, 2])
def test_dwell_decodes_uint16_symbol_blocks(default_table, table_csv, monkeypatch, t_rs):
    # The data plane hands the RS decoder its packed uint16 blocks, with no
    # upcast on the way; at t_rs = 2 the staged decoder path runs too.
    spec = spec_for(table_csv, duration_s=30.0, t_rs=t_rs)
    sim = LinkSimulation(spec, default_table, trace=stationary_trace(5.0, 30.0))
    decode = ReedSolomonCodec.decode_symbols_batch
    seen = []

    def spy(codec, symbols):
        seen.append((symbols.dtype, codec.r_symbols))
        return decode(codec, symbols)

    monkeypatch.setattr(ReedSolomonCodec, "decode_symbols_batch", spy)
    sim.run()
    assert {dtype for dtype, _ in seen} == {np.dtype(np.uint16)}
    assert {r for _, r in seen} == {2, 2 * t_rs}


def test_records_conserve_generation_counts(default_table, table_csv):
    spec = spec_for(table_csv, seed=11, duration_s=900.0)
    records = LinkSimulation(spec, default_table).run()
    assert records
    for rec in records:
        total = (rec.generations_error_free + rec.generations_corrected
                 + rec.generations_failed)
        assert total == rec.generations_sent
        assert rec.overhead == pytest.approx(1.0 - rec.code_rate)
        assert rec.th_theoretical_gbps == pytest.approx(
            rec.code_rate * DEFAULT_DATA_RATES_GBPS[Modulation.from_label(rec.modulation)])


def test_run_is_deterministic_to_the_byte(default_table, table_csv, tmp_path):
    paths = []
    for tag in ("a", "b"):
        m = tmp_path / f"metrics_{tag}.csv"
        e = tmp_path / f"events_{tag}.log"
        spec = spec_for(table_csv, seed=5, duration_s=300.0,
                        metrics_path=str(m), events_path=str(e))
        run_simulation(spec, default_table)
        paths.append((m, e))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_sampled_estimator_reports_measured_ber(default_table, table_csv):
    spec = spec_for(table_csv, duration_s=10.0, ber_estimator="sampled")
    sim = LinkSimulation(spec, default_table, trace=stationary_trace(19.0, 10.0))
    stats = Outcomes()
    ber_m = sim._transmit_interval(19.0, stats)
    sim._flush()
    p_e = default_table.lookup(19.0, Modulation.QAM16)
    n_bits = spec.generations_per_interval * 240
    sigma = (p_e * (1 - p_e) / n_bits) ** 0.5
    assert abs(ber_m - p_e) < 5 * sigma
    assert stats.sent == spec.generations_per_interval
    assert (stats.error_free + stats.corrected + stats.failed) == stats.sent


def test_exact_estimator_reports_table_value(default_table, table_csv):
    spec = spec_for(table_csv, duration_s=10.0, ber_estimator="exact")
    sim = LinkSimulation(spec, default_table, trace=stationary_trace(19.0, 10.0))
    ber_m = sim._transmit_interval(19.0)
    assert ber_m == default_table.lookup(19.0, Modulation.QAM16)


def test_metrics_csv_columns(default_table, table_csv, tmp_path):
    m = tmp_path / "metrics.csv"
    spec = spec_for(table_csv, duration_s=60.0, metrics_path=str(m),
                    events_path=str(tmp_path / "events.log"))
    run_simulation(spec, default_table)
    header = m.read_text().splitlines()[0]
    assert header == ("time_s,distance_m,scheme,modulation,k_bits,r_bits,"
                      "code_rate,overhead,th_theoretical_gbps,p_re_empirical,"
                      "generations_sent,generations_error_free,"
                      "generations_corrected,generations_failed")


def test_event_log_format(default_table, table_csv, tmp_path):
    e = tmp_path / "events.log"
    spec = spec_for(table_csv, duration_s=30.0,
                    metrics_path=str(tmp_path / "m.csv"), events_path=str(e))
    run_simulation(spec, default_table)
    lines = e.read_text().splitlines()
    assert lines
    for line in lines:
        time_s, event, detail = line.split(",", 2)
        float(time_s)
        assert event in {"dwell_start", "walk_start", "cleared", "buffered",
                         "buffered-stable", "config", "set_demodulation",
                         "set_decoding"}
    # Applying a configuration is logged as the two actuation messages.
    events = [line.split(",")[1] for line in lines]
    if "config" in events:
        assert "set_demodulation" in events and "set_decoding" in events


def test_mdpc_configuration_runs_in_the_loop(default_table, table_csv):
    # Around 18 m the QPSK error probability makes every RS symbol size
    # infeasible while the smallest parity cube still fits the budget, so
    # the controller actuates MDPC and the data plane must run it.
    spec = spec_for(table_csv, duration_s=120.0)
    sim = LinkSimulation(spec, default_table, trace=stationary_trace(18.0, 120.0))
    records = sim.run()
    rec = records[-1]
    assert rec.scheme == "MDPC"
    assert rec.k_bits == 4 and rec.r_bits == 5
    total = (rec.generations_error_free + rec.generations_corrected
             + rec.generations_failed)
    assert total == rec.generations_sent
    assert rec.generations_corrected > 0
    assert 0.0 < rec.p_re_empirical < 0.5


# -- fault-tolerance experiment ----------------------------------------------


def _codec_id(codec):
    if isinstance(codec, ReedSolomonCodec):
        return f"rs-s{codec.s}-r{codec.r_symbols}"
    return f"mdpc-n{codec.n}"


@pytest.mark.parametrize("codec", [
    *[ReedSolomonCodec(s, r) for s in (4, 8, 12) for r in (2, 4)],
    *[MdpcCodec(3, n) for n in (2, 3)],
], ids=_codec_id)
def test_deliver_counts_wrong_data_bits(codec):
    # `decode_units` returns data units (RS symbols, MDPC bits); the wrong bits
    # counted on them equal the count on the unpacked data bits.
    rs = isinstance(codec, ReedSolomonCodec)
    k_bits = 6 * codec.s if rs else codec.k_bits
    rng = np.random.default_rng(11)
    batch = 300
    data = rng.integers(0, 2, size=(batch, k_bits), dtype=np.uint8)
    # Row i gets i % (2t + 4) flipped bits: clean, correctable and
    # beyond-t rows in every block.
    flips = np.arange(batch) % (2 * codec.t + 4)

    def flip_bits(bits):
        out = bits.copy()
        for row, count in enumerate(flips):
            out[row, rng.choice(bits.shape[1], size=count, replace=False)] ^= 1
        return out

    sent = codec.encode_batch(data)
    # The channel gets the sent units; RS symbols are flipped bitwise.
    if rs:
        received = bits_to_symbols(flip_bits(symbols_to_bits(sent, codec.s)), codec.s)
        sent_data = sent[:, : k_bits // codec.s]
        out, _, _ = codec.decode_symbols_batch(received)
        decoded_bits = symbols_to_bits(out[:, : k_bits // codec.s], codec.s)
    else:
        received = flip_bits(sent)
        sent_data = data
        decoded_bits = codec.decode_batch(received)[0]
    decoded, ok, _ = codec.decode_units(received)
    wrong = np.bitwise_count(decoded ^ sent_data).sum(axis=1)
    assert np.array_equal(wrong, np.count_nonzero(decoded_bits != data, axis=1))
    assert not ok.all() and wrong.any()


@pytest.mark.parametrize("codec", [ReedSolomonCodec(4, 4), MdpcCodec(3, 3)],
                         ids=_codec_id)
def test_codec_units_wrap_the_batch_decoder(codec):
    # `units` and `decode_units` are the codec's own packing and batched
    # decoder, with the data units cut out and the corrected flag derived.
    rs = isinstance(codec, ReedSolomonCodec)
    n_bits = 12 * codec.s if rs else codec.k_bits + codec.r_bits
    bits = (np.random.default_rng(4).random((200, n_bits)) < 0.08).astype(np.uint8)
    units = codec.units(bits)
    decoded, ok, changed = codec.decode_units(units)
    if rs:
        assert np.array_equal(units, bits_to_symbols(bits, codec.s))
        out, counts, want_ok = codec.decode_symbols_batch(units)
        want = out[:, :12 - codec.r_symbols]
        assert codec.unit_error_prob(0.03) == symbol_error_prob(0.03, codec.s)
    else:
        assert units is bits
        want, _, counts, want_ok = codec.decode_batch(bits)
        assert codec.unit_error_prob(0.03) == 0.03
    assert np.array_equal(decoded, want) and np.array_equal(ok, want_ok)
    assert np.array_equal(changed, counts > 0)
    assert changed.any() and not ok.all()


def test_deliver_allocates_few_bytes_per_channel_bit():
    # One interval of the longest RS words on a dense channel: packing,
    # the zero word's encode and decode of the flipped rows together stay well
    # below the 8 bytes per bit of a float64 field. The mask is drawn
    # before tracing starts.
    codec = ReedSolomonCodec(12, 2)
    batch, n_bits = 100, 12 * 4095
    rng = np.random.default_rng(6)

    def carry():
        mask = sample_flip_mask((batch, n_bits), 0.186, rng)
        tracemalloc.start()
        try:
            _carry(codec, n_bits - 24, mask)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    carry()
    assert carry() <= 6.5 * batch * n_bits


def test_residual_experiment_allocates_few_bytes_per_channel_bit():
    # One batch of the longest RS words on a dense channel: the flip mask
    # and the packed symbols, with no zero block (transmit XORs a broadcast
    # zero into the mask, 2.08 B/bit with a zero block), payload, encode or
    # unpacked copy of the sent words.
    batch, n_bits = 100, 12 * 4095
    config = LinkConfig(SCHEME_RS, Modulation.BPSK, n_bits - 24, 24,
                        DEFAULT_DATA_RATES_GBPS[Modulation.BPSK], s=12)

    def experiment():
        residual_error_experiment(config, 0.186, generations=batch, seed=6)

    experiment()
    tracemalloc.start()
    try:
        experiment()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.95 * batch * n_bits


def test_binomial_tail():
    assert binomial_tail_above(10, 0.0, 1) == 0.0
    assert binomial_tail_above(10, 1.0, 1) == 1.0
    # P[X > 1] for X ~ Binomial(4, 0.5) = 1 - (1 + 4) / 16
    assert binomial_tail_above(4, 0.5, 1) == pytest.approx(1 - 5 / 16)


def test_residual_experiment_small(default_table):
    p_e = default_table.lookup(16.0, Modulation.BPSK)
    _, config = optimize_for_distance(
        default_table, 16.0,
        {mod: DEFAULT_DATA_RATES_GBPS[Modulation.BPSK] for mod in MODULATIONS},
        OptimizerParams())
    stats = residual_error_experiment(config, p_e, generations=20_000, seed=4)
    assert stats.within_budget_failures == 0
    # Failures only happen beyond the budget; a few over-budget generations
    # survive when the surplus errors fall on parity symbols only.
    assert stats.data_failures <= stats.exceed_injected
    assert abs(stats.empirical_exceed_rate - stats.theoretical_tail) < 3 * tail_sigma(stats)
    assert abs(stats.data_failures / stats.generations
               - stats.theoretical_tail) < 3 * tail_sigma(stats)


@pytest.mark.parametrize("p_e", [float("nan"), -0.01, 1.5])
def test_residual_experiment_rejects_p_e_outside_unit_interval(p_e):
    # MDPC(3,2) at p_e = nan used to report 0 failures in 100 generations,
    # since a NaN p_e drew an all-zero flip mask.
    config = LinkConfig(SCHEME_MDPC, Modulation.BPSK, 9, 7,
                        DEFAULT_DATA_RATES_GBPS[Modulation.BPSK], m=3, n=2)
    with pytest.raises(ValueError, match="p_e"):
        residual_error_experiment(config, p_e, generations=100, seed=1)


def test_residual_experiment_rejects_negative_seed():
    # numpy raised "expected non-negative integer", naming no parameter.
    config = LinkConfig(SCHEME_MDPC, Modulation.BPSK, 9, 7,
                        DEFAULT_DATA_RATES_GBPS[Modulation.BPSK], m=3, n=2)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        residual_error_experiment(config, 0.01, generations=100, seed=-1)


@pytest.mark.parametrize("name", ["generations", "batch_size"])
def test_residual_experiment_rejects_counts_below_one(name):
    # batch_size = 0 used to loop forever, and generations = 0 divided by
    # zero after the loop.
    config = LinkConfig(SCHEME_MDPC, Modulation.BPSK, 9, 7,
                        DEFAULT_DATA_RATES_GBPS[Modulation.BPSK], m=3, n=2)
    counts = {"generations": 100, "batch_size": 10, name: 0}
    with pytest.raises(ValueError, match=f"{name} must be >= 1"):
        residual_error_experiment(config, 0.01, seed=1, **counts)

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_candidates, brute_force_selection
from thzlink.control import (DEFAULT_EPSILON, AdaptiveController, BerMessage,
                             LinkConfig, OptimizerParams, SCHEME_MDPC,
                             SCHEME_RS, candidates, complexity_units,
                             estimate_distance, fallback_config,
                             initial_link_config, optimize_for_distance,
                             rs_code_for_symbol_size, select_config)
from thzlink.modem import (DEFAULT_DATA_RATES_GBPS, MODULATIONS, BerTable,
                           Modulation, symbol_error_prob)

PARAMS = OptimizerParams()


def flat(p):
    return {mod: p for mod in MODULATIONS}


def scheme_candidates(scheme, p, params=PARAMS):
    """One scheme's candidates at error probability p on every modulation,
    in modulation order."""
    cands = candidates(flat(p), DEFAULT_DATA_RATES_GBPS, params)
    return [cands[scheme, mod] for mod in MODULATIONS]


def code_rate(cand):
    return 0.0 if cand is None else cand.code_rate


# -- distance estimation ------------------------------------------------------


def test_estimate_distance_paper_anchor(default_table):
    assert estimate_distance(0.0579, Modulation.BPSK, default_table) == 20.0


def test_estimate_distance_exact_hit(default_table):
    target = default_table.lookup(5.0, Modulation.QPSK)
    assert estimate_distance(target, Modulation.QPSK, default_table) == 5.0


def test_estimate_distance_tie_goes_to_larger_distance():
    values = {mod: [0.0, 0.0, 0.0] for mod in MODULATIONS}
    values[Modulation.QAM16] = [0.125, 0.375, 0.5]
    table = BerTable([5.0, 5.5, 6.0], values)
    # 0.25 is exactly midway between the 5.0 m and 5.5 m entries.
    assert estimate_distance(0.25, Modulation.QAM16, table) == 5.5
    assert estimate_distance(0.375, Modulation.QAM16, table) == 5.5  # exact hit
    assert estimate_distance(0.49, Modulation.QAM16, table) == 6.0


@pytest.mark.parametrize("ber_m", [float("nan"), float("inf"), float("-inf")])
def test_estimate_distance_rejects_non_finite(default_table, ber_m):
    # NaN matched no row and raised IndexError; +inf matched the largest
    # distance without complaint.
    with pytest.raises(ValueError, match=repr(ber_m)):
        estimate_distance(ber_m, Modulation.BPSK, default_table)


# -- MDPC candidates ----------------------------------------------------------


def mdpc_scan_oracle(p, t, n, m_max):
    best = None
    for m in range(2, m_max + 1):
        if (m + 1) ** n * p <= t:
            best = m
    return best


def test_mdpc_candidates_worked_examples():
    cands = scheme_candidates(SCHEME_MDPC, 1e-4)
    for c in cands:
        assert c is not None and (c.m, c.k_bits, c.r_bits) == (99, 9801, 199)
    assert all(c is None for c in scheme_candidates(SCHEME_MDPC, 0.2))
    zero = scheme_candidates(SCHEME_MDPC, 0.0)
    assert all(c.m == PARAMS.m_max for c in zero)
    # t / p_e overflows to inf at a subnormal p_e, and int(inf) raised.
    tiny = scheme_candidates(SCHEME_MDPC, 5e-324)
    assert all(c.m == PARAMS.m_max for c in tiny)


def test_mdpc_candidates_match_scan_oracle(rng):
    for _ in range(60):
        p = float(10 ** rng.uniform(-6, -0.3))
        got = scheme_candidates(SCHEME_MDPC, p)[0]
        want = mdpc_scan_oracle(p, PARAMS.t_mdpc, 2, PARAMS.m_max)
        if want is None:
            assert got is None
        else:
            assert got is not None and got.m == want


def test_mdpc_candidates_satisfy_constraint(rng):
    for _ in range(40):
        p = float(10 ** rng.uniform(-6, -0.5))
        for c in scheme_candidates(SCHEME_MDPC, p):
            if c is not None:
                assert (c.m + 1) ** c.n * p <= PARAMS.t_mdpc
                assert c.k_bits == c.m ** c.n


def test_mdpc_dims_from_correction_budget():
    assert OptimizerParams(t_mdpc=1).mdpc_dims() == 2
    assert OptimizerParams(t_mdpc=3).mdpc_dims() == 3
    assert OptimizerParams(t_mdpc=7).mdpc_dims() == 4
    with pytest.raises(ValueError):
        OptimizerParams(t_mdpc=2).mdpc_dims()


@pytest.mark.parametrize("kwargs,key", [
    ({"t_mdpc": 0}, "t_mdpc"),  # n = 1: no MDPC code has a single dimension
    ({"t_mdpc": -1}, "t_mdpc"),
    ({"t_mdpc": 2}, "t_mdpc"),
    ({"t_rs": 0}, "t_rs"),
    ({"s_min": 1}, "s_min"),
    ({"s_max": 13}, "s_max"),  # no field, so no codec, past s = 12
    ({"s_min": 5, "s_max": 4}, "s_min"),
    ({"m_max": 1}, "m_max"),
])
def test_optimizer_params_reject_bad_values(kwargs, key):
    with pytest.raises(ValueError, match=f"invalid {key}"):
        OptimizerParams(**kwargs)


def test_optimizer_params_are_frozen():
    params = OptimizerParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.t_mdpc = 0


# -- selection against a full enumeration --------------------------------------


@st.composite
def optimizer_cases(draw):
    """A random monotone table (zeros included), a grid distance, rates with
    ties, and random valid optimizer parameters."""
    rows = draw(st.integers(1, 3))
    ber = st.one_of(st.just(0.0), st.floats(0.0, 0.5))
    columns = {mod: sorted(draw(st.lists(ber, min_size=rows, max_size=rows)))
               for mod in MODULATIONS}
    table = BerTable([float(d) for d in range(1, rows + 1)], columns)
    distance = float(draw(st.integers(1, rows)))
    rates = {mod: draw(st.sampled_from([7.04, 14.08, 28.16])) for mod in MODULATIONS}
    s_min = draw(st.integers(2, 12))
    params = OptimizerParams(t_mdpc=draw(st.sampled_from([1, 3, 7])),
                             t_rs=draw(st.integers(1, 8)),
                             s_min=s_min, s_max=draw(st.integers(s_min, 12)),
                             m_max=draw(st.integers(2, 1024)))
    return table, distance, rates, params


@settings(max_examples=100, deadline=None, derandomize=True)
@given(optimizer_cases())
def test_optimize_for_distance_matches_full_enumeration(case):
    table, distance, rates, params = case
    cands, chosen = optimize_for_distance(table, distance, rates, params)
    want_cands = brute_force_candidates(table, distance, rates, params)
    assert list(cands) == list(want_cands)  # same pairs, same order
    for (scheme, mod), cand in cands.items():
        if cand is None:
            assert want_cands[scheme, mod] is None, (scheme, mod)
            continue
        assert (cand.scheme, cand.modulation) == (scheme, mod)
        assert cand.data_rate_gbps == rates[mod]
        assert (cand.k_bits, cand.r_bits, cand.s, cand.m,
                cand.n) == want_cands[scheme, mod], (scheme, mod)
    want = brute_force_selection(table, distance, rates, params)
    if want is None:
        assert chosen == fallback_config(rates)
    else:
        assert (chosen.scheme, chosen.modulation, chosen.k_bits,
                chosen.r_bits) == want


def geometry(cands):
    """(scheme, modulation, k_bits, r_bits, s, m, n) per feasible candidate,
    (scheme, modulation) per infeasible one."""
    return [(c.scheme, c.modulation, c.k_bits, c.r_bits, c.s, c.m, c.n)
            if c is not None else pair for pair, c in cands.items()]


def test_optimize_for_distance_at_huge_side_cap():
    # A side cap far past any float. The search may not walk to m_max one
    # step at a time, and (m + 1) ** 2 has no float value past about 2^512.
    params = OptimizerParams(m_max=10 ** 200)
    rates = DEFAULT_DATA_RATES_GBPS

    def optimize(p_e):
        table = BerTable([1.0], {mod: [p_e] for mod in MODULATIONS})
        return optimize_for_distance(table, 1.0, rates, params)

    big = 10 ** 200
    mdpc_big = (big ** 2, 2 * big + 1, None, big, 2)
    rs_12 = (49116, 24, 12, None, None)
    cands, chosen = optimize(0.0)
    assert geometry(cands) == (
        [(SCHEME_MDPC, mod, *mdpc_big) for mod in MODULATIONS]
        + [(SCHEME_RS, mod, *rs_12) for mod in MODULATIONS])
    assert chosen == LinkConfig(SCHEME_MDPC, Modulation.QAM16, big ** 2, 2 * big + 1,
                                rates[Modulation.QAM16], m=big, n=2)
    cands, chosen = optimize(1e-2)
    assert geometry(cands) == (
        [(SCHEME_MDPC, mod, 81, 19, None, 9, 2) for mod in MODULATIONS]
        + [(SCHEME_RS, mod, 90, 10, 5, None, None) for mod in MODULATIONS])
    assert chosen == LinkConfig(SCHEME_RS, Modulation.QAM16, 90, 10,
                                rates[Modulation.QAM16], s=5)
    # Every side fits at a subnormal p_e, up to the largest whose (m + 1) ** 2
    # is a finite float: 2^1024 - 2^970 rounds up to 2^1024.
    top = math.isqrt(2 ** 1024 - 2 ** 970 - 1) - 1
    cands, chosen = optimize(5e-324)
    assert geometry(cands) == (
        [(SCHEME_MDPC, mod, top ** 2, 2 * top + 1, None, top, 2) for mod in MODULATIONS]
        + [(SCHEME_RS, mod, *rs_12) for mod in MODULATIONS])
    assert chosen == cands[SCHEME_MDPC, Modulation.QAM16]
    # The step-by-step search never ended here.
    cands, _ = optimize(1e-300)
    m = cands[SCHEME_MDPC, Modulation.BPSK].m
    assert (m + 1) ** 2 * 1e-300 <= 1 < (m + 2) ** 2 * 1e-300


# -- RS candidates ------------------------------------------------------------


def rs_scan_oracle(p, t, s_min, s_max):
    best = None
    for s in range(s_min, s_max + 1):
        p_sym = symbol_error_prob(p, s)
        for length in range(2 ** (s - 1), 2 ** s):
            if length * p_sym > t or length < 2 * t + 1:
                continue
            k_bits = s * (length - 2 * t)
            r_bits = 2 * s * t
            rate = k_bits / (k_bits + r_bits)
            if best is None or rate > best[0]:
                best = (rate, s, k_bits, r_bits)
    return best


def test_rs_code_worked_examples():
    assert rs_code_for_symbol_size(0.0, 1, 8) == (2024, 16)
    k, r = rs_code_for_symbol_size(0.0, 1, 8)
    assert k / (k + r) == pytest.approx(0.9922, abs=1e-4)
    assert rs_code_for_symbol_size(0.01, 1, 8) is None  # L <= 12 < 2^7


def test_rs_candidates_match_scan_oracle(rng):
    probs = [1e-5] + [float(10 ** rng.uniform(-7, -0.5)) for _ in range(40)]
    for p in probs:
        got = scheme_candidates(SCHEME_RS, p)[0]
        want = rs_scan_oracle(p, PARAMS.t_rs, PARAMS.s_min, PARAMS.s_max)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert (got.s, got.k_bits, got.r_bits) == want[1:]


def test_rs_candidates_satisfy_constraints(rng):
    for _ in range(40):
        p = float(10 ** rng.uniform(-7, -0.5))
        for c in scheme_candidates(SCHEME_RS, p):
            if c is None:
                continue
            length = (c.k_bits + c.r_bits) // c.s
            assert length * symbol_error_prob(p, c.s) <= PARAMS.t_rs
            assert 2 ** (c.s - 1) <= length <= 2 ** c.s - 1
            assert c.k_bits % c.s == 0 and c.r_bits == 2 * c.s * PARAMS.t_rs


def test_code_rate_monotone_in_error_probability(rng):
    # For a fixed scheme the emitted code rate never improves as p_e grows.
    probs = sorted(float(10 ** rng.uniform(-7, -0.5)) for _ in range(25))
    # An infeasible candidate reads as code rate 0.0.
    mdpc_rates = [code_rate(scheme_candidates(SCHEME_MDPC, p)[0]) for p in probs]
    rs_rates = [code_rate(scheme_candidates(SCHEME_RS, p)[0]) for p in probs]
    assert all(a >= b for a, b in zip(mdpc_rates, mdpc_rates[1:]))
    assert all(a >= b for a, b in zip(rs_rates, rs_rates[1:]))


# -- selection ----------------------------------------------------------------


def test_select_single_feasible_candidate():
    cand = LinkConfig(SCHEME_RS, Modulation.QPSK, 40, 8,
                      DEFAULT_DATA_RATES_GBPS[Modulation.QPSK], s=4)
    cfg = select_config([None, cand], DEFAULT_DATA_RATES_GBPS)
    assert cfg is cand
    assert cfg.scheme == SCHEME_RS and cfg.modulation is Modulation.QPSK
    assert cfg.k_bits == 40 and cfg.s == 4


def test_select_prefers_higher_data_rate_at_equal_code_rate():
    rates = DEFAULT_DATA_RATES_GBPS
    low = LinkConfig(SCHEME_RS, Modulation.BPSK, 40, 8, rates[Modulation.BPSK], s=4)
    high = LinkConfig(SCHEME_RS, Modulation.QAM16, 40, 8, rates[Modulation.QAM16], s=4)
    cfg = select_config([low, high], rates)
    assert cfg.modulation is Modulation.QAM16


def test_select_tie_breaks():
    rates = {mod: 1.0 for mod in MODULATIONS}  # equal throughput everywhere
    mdpc = LinkConfig(SCHEME_MDPC, Modulation.BPSK, 4, 5, 1.0, m=2, n=2)
    rs_same = LinkConfig(SCHEME_RS, Modulation.BPSK, 4, 5, 1.0, s=1)
    # equal TH and R_F: RS wins over MDPC
    assert select_config([mdpc, rs_same], rates).scheme == SCHEME_RS
    # equal TH, different R_F: higher code rate wins
    rates_th = {Modulation.BPSK: 1.0, Modulation.QPSK: (9 / 16) / (4 / 9),
                Modulation.PSK8: 1.0, Modulation.QAM16: 1.0}
    better = LinkConfig(SCHEME_MDPC, Modulation.BPSK, 9, 7,
                        rates_th[Modulation.BPSK], m=3, n=2)
    low_rate = LinkConfig(SCHEME_MDPC, Modulation.QPSK, 4, 5,
                          rates_th[Modulation.QPSK], m=2, n=2)
    chosen = select_config([better, low_rate], rates_th)
    assert chosen.k_bits == 9
    # equal everything except modulation order: higher-order modulation wins
    a = LinkConfig(SCHEME_RS, Modulation.QPSK, 4, 5, 1.0, s=1)
    b = LinkConfig(SCHEME_RS, Modulation.QAM16, 4, 5, 1.0, s=1)
    assert select_config([a, b], rates).modulation is Modulation.QAM16


def test_select_fallback_when_nothing_feasible():
    cfg = select_config([None] * len(MODULATIONS), DEFAULT_DATA_RATES_GBPS)
    assert cfg == fallback_config(DEFAULT_DATA_RATES_GBPS)
    assert cfg.scheme == SCHEME_MDPC and cfg.modulation is Modulation.BPSK
    assert (cfg.m, cfg.n, cfg.k_bits, cfg.r_bits) == (2, 2, 4, 5)


def test_optimize_for_distance_zero_table():
    table = BerTable([1.0, 2.0], {mod: [0.0, 0.0] for mod in MODULATIONS})
    cands, cfg = optimize_for_distance(table, 1.5, DEFAULT_DATA_RATES_GBPS, PARAMS)
    assert len(cands) == 8
    assert cfg.scheme == SCHEME_RS and cfg.modulation is Modulation.QAM16
    assert cfg.s == 12 and cfg.code_rate > 0.999


# -- config type --------------------------------------------------------------


def test_link_config_derived_values():
    cfg = initial_link_config()
    assert cfg.label() == "RS(224,8)"
    assert cfg.describe() == "RS(224,8)/16QAM"
    assert cfg.code_rate == pytest.approx(224 / 240)
    assert cfg.overhead == pytest.approx(1 - 224 / 240)
    assert cfg.throughput_gbps == pytest.approx(28.16 * 224 / 240)
    mdpc = fallback_config(DEFAULT_DATA_RATES_GBPS)
    assert mdpc.label() == "MDPC(4)"


def test_link_config_validation():
    with pytest.raises(ValueError):
        LinkConfig(SCHEME_RS, Modulation.BPSK, 10, 4, 1.0, s=4)
    with pytest.raises(ValueError):
        LinkConfig(SCHEME_MDPC, Modulation.BPSK, 5, 5, 1.0, m=2, n=2)
    with pytest.raises(ValueError):
        LinkConfig("LDPC", Modulation.BPSK, 4, 5, 1.0)


# -- complexity ---------------------------------------------------------------


def test_complexity_units_formula():
    assert complexity_units(4, 4, 2) == 32
    assert complexity_units(1, 1, 1) == 5
    assert complexity_units(4, 4, 1) == 20


# -- controller state machine -------------------------------------------------


def make_controller(default_table, **kwargs):
    return AdaptiveController(default_table, **kwargs)


def test_controller_boot_state(default_table):
    ctl = make_controller(default_table)
    assert ctl.buffer == [0.0]
    assert ctl.current_config == initial_link_config()


@pytest.mark.parametrize("kwargs,message", [
    # A partial epsilon raised KeyError on the first update under 16QAM.
    ({"epsilon": {Modulation.BPSK: 1e-3}}, "epsilon.qpsk: missing"),
    # An empty map silently meant the defaults.
    ({"epsilon": {}}, "epsilon.bpsk: missing"),
    # A partial rates map raised KeyError while building the boot config.
    ({"rates": {Modulation.QAM16: 28.16}}, "rates.bpsk: missing"),
    ({"epsilon": {**DEFAULT_EPSILON, Modulation.PSK8: float("nan")}},
     "epsilon.8psk: must be finite"),
    ({"rates": {**DEFAULT_DATA_RATES_GBPS, Modulation.QAM16: 0.0}},
     "rates.16qam: must be positive"),
])
def test_controller_rejects_bad_maps_when_built(default_table, kwargs, message):
    with pytest.raises(ValueError, match=f"invalid {message}".replace(".", "\\.")):
        make_controller(default_table, **kwargs)


def test_controller_clear_on_movement(default_table):
    ctl = make_controller(default_table)
    action = ctl.on_ber_update(BerMessage(0.0579, 0.0))
    assert action.kind == "cleared" and action.config is None
    assert ctl.buffer == [0.0579]


@pytest.mark.parametrize("ber_m", [float("nan"), float("inf"), float("-inf")])
def test_controller_rejects_non_finite_report(default_table, ber_m):
    # A NaN in the buffer never counts as movement and later crashed
    # estimate_distance with IndexError.
    ctl = make_controller(default_table)
    ctl.on_ber_update(BerMessage(1e-3, 0.0))
    with pytest.raises(ValueError, match=repr(ber_m)):
        ctl.on_ber_update(BerMessage(ber_m, 0.5))
    assert ctl.buffer == [1e-3]


def test_controller_emits_config_exactly_on_fill(default_table):
    ctl = make_controller(default_table)
    v = default_table.lookup(20.0, Modulation.QAM16)
    assert ctl.on_ber_update(BerMessage(v, 0.0)).kind == "cleared"
    assert ctl.on_ber_update(BerMessage(v, 0.5)).kind == "buffered"
    assert ctl.on_ber_update(BerMessage(v, 1.0)).kind == "buffered"
    action = ctl.on_ber_update(BerMessage(v, 1.5))
    assert action.kind == "config" and action.config is not None
    assert ctl.generations == 1
    # Stable afterwards: rotation only, no further configs.
    for i in range(5):
        follow = ctl.on_ber_update(BerMessage(v, 2.0 + 0.5 * i))
        assert follow.kind == "buffered-stable" and follow.config is None
    assert len(ctl.buffer) == 4
    assert ctl.generations == 1


def test_controller_counts_complexity_units(default_table):
    ctl = make_controller(default_table)
    v = default_table.lookup(10.0, Modulation.QAM16)
    ctl.on_ber_update(BerMessage(v, 0.0))
    ctl.on_ber_update(BerMessage(v, 0.5))
    ctl.on_ber_update(BerMessage(v, 1.0))
    assert ctl.total_units == 0  # nothing until a generation happens
    ctl.on_ber_update(BerMessage(v, 1.5))
    assert ctl.total_units == 32


def first_config(ctl, ber_m):
    """The first config action while `ber_m` is reported at every update."""
    for i in range(ctl.capacity + 1):
        action = ctl.on_ber_update(BerMessage(ber_m, 0.5 * i))
        if action.kind == "config":
            return action
    raise AssertionError("no config action")


def test_controller_config_matches_one_shot_optimizer(default_table):
    boot = initial_link_config().modulation
    for params in (PARAMS, OptimizerParams(t_rs=2)):
        for d in default_table.distances:
            ctl = make_controller(default_table, params=params)
            v = default_table.lookup(d, boot)
            _, expected = optimize_for_distance(
                default_table, estimate_distance(v, boot, default_table),
                DEFAULT_DATA_RATES_GBPS, params)
            assert first_config(ctl, v).config == expected, (params, d)


def test_controller_generation_runs_no_optimizer(default_table, monkeypatch):
    # The plan is built with the controller; a generation only reads it.
    ctl = make_controller(default_table)

    def optimizer_called(*args, **kwargs):
        raise AssertionError("optimize_for_distance called after __init__")

    monkeypatch.setattr("thzlink.control.optimize_for_distance", optimizer_called)
    v = default_table.lookup(10.0, Modulation.QAM16)
    assert first_config(ctl, v).config == ctl.plan[10.0]


def test_controller_epsilon_follows_current_modulation(default_table):
    # Thresholds differ per modulation; a delta between the BPSK and 16QAM
    # epsilons must be judged by the configured modulation's value.
    epsilon = {Modulation.BPSK: 1e-3, Modulation.QPSK: 1e-3,
               Modulation.PSK8: 1e-3, Modulation.QAM16: 1e-6}
    ctl = make_controller(default_table, epsilon=epsilon)
    assert ctl.current_config.modulation is Modulation.QAM16
    action = ctl.on_ber_update(BerMessage(1e-5, 0.0))
    assert action.kind == "cleared"  # 1e-5 >= 1e-6 under 16QAM
    bpsk_cfg = LinkConfig(SCHEME_RS, Modulation.BPSK, 224, 16, 7.04, s=8)
    ctl2 = make_controller(default_table, epsilon=epsilon)
    ctl2.current_config = bpsk_cfg
    action = ctl2.on_ber_update(BerMessage(1e-5, 0.0))
    assert action.kind == "buffered"  # same delta is below the BPSK threshold


def test_default_epsilon_values():
    assert DEFAULT_EPSILON[Modulation.BPSK] == pytest.approx(7.646e-8)
    assert DEFAULT_EPSILON[Modulation.QPSK] == pytest.approx(6.649e-9)
    assert DEFAULT_EPSILON[Modulation.PSK8] == pytest.approx(9.375e-7)
    assert DEFAULT_EPSILON[Modulation.QAM16] == pytest.approx(2.992e-7)

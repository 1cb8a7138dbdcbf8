"""Golden outputs: every byte the data plane produces, pinned by value.

A change to the codecs, the channel or the simulator loop that is meant to
preserve behaviour must leave the hashes and statistics below exactly as they
are; a change that alters outputs on purpose re-freezes them and says so.
"""

import hashlib
from pathlib import Path

import pytest

from thzlink.config import RunSpec
from thzlink.control import SCHEME_MDPC, SCHEME_RS, LinkConfig
from thzlink.modem import DEFAULT_DATA_RATES_GBPS, Modulation
from thzlink.sim import (LinkSimulation, generate_trace,
                         residual_error_experiment, run_simulation)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_default_table_is_golden(default_table, tmp_path):
    # Every run's p_e comes from this table; its calibration and floor are
    # part of the data plane.
    default_table.to_csv(tmp_path / "table.csv")
    assert sha256(tmp_path / "table.csv") == (
        "fcae7de47d1dada545ff55af6aad4a95d694feb9691ad9fee9f68c6fa795c655")


def test_full_run_outputs_are_golden(full_run):
    spec, _ = full_run
    assert sha256(spec.metrics_path) == (
        "31bb4a4e803c1d20b4e2c88c484477175e9f1d69696b955d4d17dce281282455")
    assert sha256(spec.events_path) == (
        "6c8dd27940d4c6f800d10cad91ac6fc5f36d395b832c6c43022c48b7f1d63275")


def test_lossy_t2_run_outputs_are_golden(default_table, tmp_path):
    # 300 s over 5-20 m with t_rs = 2: MDPC at 17.5 m, a walk, then RS(26
    # symbols, r = 4) at 7.5 m with thousands of dirty and failing words.
    grid = default_table.distances[default_table.distances >= 5.0]
    spec = RunSpec(table_path="unused", seed=1, duration_s=300.0, t_rs=2,
                   metrics_path=str(tmp_path / "metrics.csv"),
                   events_path=str(tmp_path / "events.log"))
    trace = generate_trace(3, 300.0, grid=grid)
    LinkSimulation(spec, default_table, trace).run(spec.metrics_path,
                                                   spec.events_path)
    assert sha256(spec.metrics_path) == (
        "890e4164001376c8f29a5f958f44f974b6153eb8f3d2ded52f01e382bf844f52")
    assert sha256(spec.events_path) == (
        "e12d3db3a335eb73474a5f91d7e60c9bf70f094e3646fab3d6562b3d48d4f791")


def _run_hashes(table, tmp_path, **spec_fields) -> tuple:
    spec = RunSpec(table_path="unused",
                   metrics_path=str(tmp_path / "metrics.csv"),
                   events_path=str(tmp_path / "events.log"), **spec_fields)
    run_simulation(spec, table)
    return sha256(spec.metrics_path), sha256(spec.events_path)


def test_seed_1_default_run_outputs_are_golden(default_table, tmp_path):
    # The default 6060 s spec on its own seed-1 trace.
    assert _run_hashes(default_table, tmp_path, seed=1) == (
        "984d15b09110f35f437bfb70fc9ea840cbc7c96b8f100d844d1bec133e511f0a",
        "5e2dc621c2bdad639f276f1362655eae925d36ca518e917e692c8648c5a9e6b9")


def test_seed_2022_default_run_outputs_are_golden(default_table, tmp_path):
    # The default 6060 s spec on the seed-2022 trace, the slowest seed
    # measured: it dwells where long RS words meet flips.
    assert _run_hashes(default_table, tmp_path, seed=2022) == (
        "98ff88c3ffbe8f2d9ea65554dfbb245b68f77da323014a0cf44485464df3884a",
        "77aae9ae30e447fbf1080a4347310398e4992d6325c244325432f4e3880814d6")


def test_sampled_estimator_run_outputs_are_golden(default_table, tmp_path):
    # The event log holds repr(ber_m) of all 600 intervals, so it pins every
    # flip mask's mean, not only the decoder outcomes.
    assert _run_hashes(default_table, tmp_path, seed=1, duration_s=300.0,
                       ber_estimator="sampled") == (
        "c4d80e7360c2e8922477c65904c0b5130c0cb867c6cebdeb5ea9fd176dc9a07a",
        "b4ce332d59061d433e24388cf195d93038760e8ebf85d9c144d540aed89a0643")


def _rs_config(s, r):
    length = 2 ** s - 1
    config = LinkConfig(SCHEME_RS, Modulation.BPSK, s * (length - r), s * r,
                        DEFAULT_DATA_RATES_GBPS[Modulation.BPSK], s=s)
    # Full-length code at the p_e where expected symbol errors equal t.
    return config, 1.0 - (1.0 - (r // 2) / length) ** (1.0 / s)


def _mdpc_config(m, n):
    config = LinkConfig(SCHEME_MDPC, Modulation.BPSK, m ** n,
                        (m + 1) ** n - m ** n,
                        DEFAULT_DATA_RATES_GBPS[Modulation.BPSK], m=m, n=n)
    return config, (2 ** (n - 1) - 1) / (m + 1) ** n


# (config and p_e, generations, batch, seed) -> every ResidualStats field:
# (generations, t_budget, within_budget_failures, exceed_injected,
#  data_failures, empirical_exceed_rate, theoretical_tail)
GOLDEN_RESIDUALS = [
    (_rs_config(12, 2), 200, 100, 10,
     (200, 1, 0, 46, 46, 0.23, 0.26424111582782894)),
    (_rs_config(8, 4), 1000, 500, 11,
     (1000, 2, 0, 338, 338, 0.338, 0.32332218533507784)),
    (_rs_config(4, 2), 20000, 2000, 12,
     (20000, 1, 0, 5312, 5303, 0.2656, 0.26409524083355773)),
    (_mdpc_config(30, 2), 4000, 2000, 13,
     (4000, 1, 0, 1026, 1024, 0.2565, 0.26424108442720606)),
    (_mdpc_config(10, 3), 1000, 500, 14,
     (1000, 3, 0, 349, 0, 0.349, 0.3527680161542437)),
]


@pytest.mark.parametrize("geometry,generations,batch,seed,expected",
                         GOLDEN_RESIDUALS,
                         ids=["RS(12,2)", "RS(8,4)", "RS(4,2)", "MDPC(30,2)",
                              "MDPC(10,3)"])
def test_residual_stats_are_golden(geometry, generations, batch, seed,
                                   expected):
    config, p_e = geometry
    st = residual_error_experiment(config, p_e, generations, seed=seed,
                                   batch_size=batch)
    got = (st.generations, st.t_budget, st.within_budget_failures,
           st.exceed_injected, st.data_failures, st.empirical_exceed_rate,
           st.theoretical_tail)
    assert got == expected

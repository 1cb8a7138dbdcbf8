"""The counters the benchmark's traced self-checks read stay live.

`perfbench/spans.py` patches names in `thzlink` from outside and counts the
calls; `perfbench/run.py` fails a traced run whose counters read zero, or
whose flip and update counts differ from the interval count. A change that
drops or renames one of those calls fails here, not only in a traced run.
The untraced benchmark calls the control plane directly, and the last test
keeps that surface working.
"""

import importlib.util
from pathlib import Path

import pytest

from thzlink.config import RunSpec
from thzlink.control import SCHEME_MDPC, SCHEME_RS, AdaptiveController, LinkConfig
from thzlink.modem import DEFAULT_DATA_RATES_GBPS, Modulation
from thzlink.sim import LinkSimulation, MobilityTrace, TracePhase, residual_error_experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return load("spans")


def test_scenario_counters(spans, default_table):
    # At 3 m flips are rare (the sparse regime); a 6 m dwell runs short RS
    # words with flips in most intervals.
    trace = MobilityTrace((TracePhase("dwell", 0.0, 5.0, 3.0, 3.0),
                           TracePhase("dwell", 5.0, 10.0, 6.0, 6.0)))
    sim = LinkSimulation(RunSpec(table_path="t.csv", duration_s=10.0),
                         default_table, trace)
    tracer = spans.Tracer()
    with tracer.install():
        sim.run()
    counts = tracer.counts
    intervals = len(sim.interval_log)
    assert intervals == 20
    assert counts["modem.flip_calls"] == counts["control.updates"] == intervals
    assert counts["modem.intervals_sparse"] > 0
    assert counts["rs.encode_rows"] > 0
    assert counts["rs.pack_mbit"] > 0
    assert counts["rs.decode_rows"] > 0


def test_codec_experiment_counters(spans):
    rate = DEFAULT_DATA_RATES_GBPS[Modulation.BPSK]
    rs = LinkConfig(SCHEME_RS, Modulation.BPSK, 4 * 13, 4 * 2, rate, s=4)
    mdpc = LinkConfig(SCHEME_MDPC, Modulation.BPSK, 9, 7, rate, m=3, n=2)
    tracer = spans.Tracer()
    with tracer.install():
        residual_error_experiment(rs, 0.02, generations=500, seed=1)
        residual_error_experiment(mdpc, 0.05, generations=500, seed=1)
    counts = tracer.counts
    assert counts["rs.decode_rows"] == counts["mdpc.decode_rows"] == 500
    assert counts["mdpc.iterations"] > 0
    assert counts["modem.flip_calls"] == 2  # one transmit per batch
    assert tracer.self_s["modem.transmit"] > 0


def test_untraced_benchmark_control_plane_surface(default_table):
    # The untraced benchmark reaches the control plane through
    # `RunSpec.optimizer_params`, `optimize_for_distance`,
    # `initial_link_config` and `LinkConfig.describe`; a change to one of
    # them fails here, not only as a failed benchmark run.
    run = load("run")
    sizes = run.codeword_bits_by_label(RunSpec(table_path=""), default_table)
    assert sizes
    assert all(bits > 0 for bits in sizes.values())


@pytest.mark.parametrize("t_rs", [1, 2])
def test_benchmark_labels_match_controller_plan(default_table, t_rs):
    # The benchmark sizes the interval log from its own copy of the
    # controller's reachable configs; it must name the same ones.
    spec = RunSpec(table_path="", t_rs=t_rs)
    ctl = AdaptiveController(default_table, rates=spec.rate_gbps,
                             params=spec.optimizer_params())
    sizes = load("run").codeword_bits_by_label(spec, default_table)
    assert set(sizes) == {c.describe() for c in [ctl.current_config,
                                                 *ctl.plan.values()]}

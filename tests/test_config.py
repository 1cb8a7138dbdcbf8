import copy
import dataclasses
import pickle

import pytest

from helpers import emit_spec, within_seconds
from thzlink.config import (ENV_PREFIX, MAX_DURATION_S, RunSpec, SpecError,
                            build_spec, env_overrides, load_spec, parse_pairs,
                            parse_spec)
from thzlink.control import DEFAULT_EPSILON
from thzlink.modem import DEFAULT_DATA_RATES_GBPS, Modulation


def test_defaults_match_evaluation_setup():
    spec = RunSpec(table_path="t.csv")
    assert spec.buffer_size == 4
    assert spec.update_interval_s == 0.5
    assert spec.t_mdpc == 1 and spec.t_rs == 1
    assert spec.epsilon == DEFAULT_EPSILON
    assert spec.rate_gbps == DEFAULT_DATA_RATES_GBPS
    assert spec.s_min == 3 and spec.s_max == 12
    assert spec.m_max == 1024
    assert spec.generations_per_interval == 100


def test_parse_minimal_spec():
    spec = parse_spec("table_path = table.csv\n")
    assert spec == RunSpec(table_path="table.csv")


def test_round_trip_default_spec():
    spec = RunSpec(table_path="some/table.csv")
    assert parse_spec(emit_spec(spec)) == spec


def test_round_trip_custom_spec():
    eps = dict(DEFAULT_EPSILON)
    eps[Modulation.QAM16] = 5e-4
    rates = dict(DEFAULT_DATA_RATES_GBPS)
    rates[Modulation.BPSK] = 3.52
    spec = RunSpec(table_path="x.csv", seed=99, duration_s=123.5,
                   buffer_size=6, epsilon=eps, rate_gbps=rates, s_min=4,
                   s_max=10, m_max=64, generations_per_interval=7,
                   ber_estimator="sampled", metrics_path="m.csv",
                   events_path="e.log", t_mdpc=3, t_rs=2,
                   mdpc_max_iterations=5, update_interval_s=0.25)
    assert parse_spec(emit_spec(spec)) == spec


def test_unknown_key_rejected():
    with pytest.raises(SpecError, match="unknown key: epsilom.bpsk"):
        parse_spec("table_path = t.csv\nepsilom.bpsk = 1e-6\n")


def test_missing_table_path_rejected():
    with pytest.raises(SpecError, match="table_path"):
        parse_spec("seed = 3\n")


def test_comments_and_blank_lines_ignored():
    spec = parse_spec("# a comment\n\ntable_path = t.csv\nseed = 3\n")
    assert spec.seed == 3


def test_malformed_line_rejected():
    with pytest.raises(SpecError, match=":2"):
        parse_spec("table_path = t.csv\njust some words\n")


def test_duplicate_key_rejected():
    with pytest.raises(SpecError, match="duplicate key seed"):
        parse_pairs("seed = 1\nseed = 2\n")


@pytest.mark.parametrize("line,key", [
    ("seed = x", "seed"),
    ("seed = -1", "seed"),
    ("duration_s = -5", "duration_s"),
    ("buffer_size = 0", "buffer_size"),
    ("t_mdpc = 2", "t_mdpc"),
    ("t_mdpc = 0", "t_mdpc"),
    ("t_mdpc = -1", "t_mdpc"),
    ("ber_estimator = fuzzy", "ber_estimator"),
    ("epsilon.16qam = 0", "epsilon.16qam"),
    ("rate_gbps.bpsk = -1", "rate_gbps.bpsk"),
    ("s_min = 1", "s_min"),
    ("generations_per_interval = 0", "generations_per_interval"),
])
def test_invalid_values_name_the_key(line, key):
    with pytest.raises(SpecError, match=key.replace(".", "\\.")):
        parse_spec(f"table_path = t.csv\n{line}\n")


@pytest.mark.parametrize("key", ["duration_s", "update_interval_s",
                                 "epsilon.bpsk", "epsilon.16qam",
                                 "rate_gbps.qpsk", "rate_gbps.8psk"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_values_name_the_key(key, value):
    # float() parses all three; "epsilon.bpsk = nan" would silently turn off
    # movement detection, since no BER jump compares >= nan.
    with pytest.raises(SpecError, match=key.replace(".", "\\.")):
        parse_spec(f"table_path = t.csv\n{key} = {value}\n")


@pytest.mark.parametrize("interval", ["1e-300", "1e-320"])
def test_unbounded_generation_count_names_the_keys(interval):
    # Parsed only, never run: 1e-300 asks for ~6e303 intervals and 1e-320
    # makes the ratio inf, where round() raised OverflowError.
    with pytest.raises(SpecError) as err:
        parse_spec(f"table_path = t.csv\nupdate_interval_s = {interval}\n")
    for key in ("duration_s", "update_interval_s", "generations_per_interval"):
        assert key in str(err.value)


def test_spec_built_in_code_is_validated():
    # Built only, never run: the spec asks for ~1.2e304 generations.
    with pytest.raises(SpecError) as err:
        RunSpec(table_path="t.csv", update_interval_s=1e-300)
    for key in ("duration_s", "update_interval_s", "generations_per_interval"):
        assert key in str(err.value)


@pytest.mark.parametrize("duration,interval", [(1e9, 1e8), (1e300, 1e300)])
def test_unbounded_trace_names_duration(duration, interval):
    # Built only, never run: ten generations, but the trace is drawn whole
    # before the first interval, and 1e9 s of it is about 6.5e6 phases.
    with within_seconds(1), pytest.raises(SpecError, match="invalid duration_s"):
        RunSpec(table_path="t.csv", duration_s=duration, update_interval_s=interval,
                generations_per_interval=1)
    # The longest run MAX_GENERATIONS admits at the default interval and
    # generations stays allowed, and so does the bound at a longer interval.
    RunSpec(table_path="t.csv", duration_s=5e7)
    RunSpec(table_path="t.csv", duration_s=MAX_DURATION_S, update_interval_s=1.0)


def test_single_dimension_mdpc_budget_rejected_when_built():
    # Built only, never run: t_mdpc = 0 gives n = 1, which the optimizer
    # chose at 0.5 m and MdpcCodec then refused mid-run.
    with pytest.raises(SpecError, match="t_mdpc"):
        RunSpec(table_path="t.csv", t_mdpc=0, t_rs=8)


@pytest.mark.parametrize("name", ["epsilon", "rate_gbps"])
def test_partial_map_built_in_code_names_the_missing_key(name):
    with pytest.raises(SpecError, match=f"{name}\\.qpsk"):
        RunSpec(table_path="t.csv", **{name: {Modulation.BPSK: 1e-6}})


def test_spec_is_immutable_after_checks():
    spec = RunSpec(table_path="t.csv")
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.update_interval_s = 1e-300
    with pytest.raises(TypeError):
        spec.epsilon[Modulation.BPSK] = float("nan")
    with pytest.raises(TypeError):
        spec.rate_gbps[Modulation.BPSK] = 0.0
    with pytest.raises(SpecError, match="update_interval_s"):
        dataclasses.replace(spec, update_interval_s=1e-300)
    with pytest.raises(SpecError, match="epsilon\\.bpsk"):
        dataclasses.replace(spec, epsilon={**spec.epsilon, Modulation.BPSK: -1.0})
    # Read-only maps still pickle and deep-copy, as the plain dicts did.
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert copy.deepcopy(spec) == spec


def test_env_overrides():
    environ = {f"{ENV_PREFIX}SEED": "77",
               f"{ENV_PREFIX}EPSILON__16QAM": "1.5e-4",
               "UNRELATED": "x"}
    overrides = env_overrides(environ)
    assert overrides == {"seed": "77", "epsilon.16qam": "1.5e-4"}
    pairs = parse_pairs("table_path = t.csv\nseed = 1\n")
    pairs.update(overrides)
    spec = build_spec(pairs)
    assert spec.seed == 77
    assert spec.epsilon[Modulation.QAM16] == 1.5e-4


def test_unknown_env_override_rejected():
    with pytest.raises(SpecError, match="THZLINK_SPEED"):
        env_overrides({f"{ENV_PREFIX}SPEED": "3"})


def test_load_spec_applies_file_env_and_extra(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("table_path = t.csv\nseed = 1\nduration_s = 100\n")
    spec = load_spec(path, extra_pairs={"seed": "9"},
                     environ={f"{ENV_PREFIX}DURATION_S": "50"})
    assert spec.seed == 9  # explicit overrides beat the environment
    assert spec.duration_s == 50.0


def known_keys() -> list[str]:
    """Every key a spec file may set, as `emit_spec` writes them."""
    return list(parse_pairs(emit_spec(RunSpec(table_path="t.csv"))))


def test_known_keys_cover_dataclass():
    keys = known_keys()
    assert "table_path" in keys
    assert "epsilon.8psk" in keys and "rate_gbps.16qam" in keys
    assert len(keys) == len(set(keys))

"""Run specification: flat key-value config files with strict key checking.

The format is one `key = value` pair per line, `#` comments, and dotted keys
for the per-modulation maps (e.g. ``epsilon.16qam``). Unknown keys are
rejected rather than ignored so a typo cannot silently fall back to a
default. Every value can also be overridden through the environment using
the ``THZLINK_`` prefix (dots become double underscores, case-insensitive),
e.g. ``THZLINK_SEED=9`` or ``THZLINK_EPSILON__16QAM=1e-6``.
"""

import functools
import math
import os
import types
from collections.abc import Mapping
from dataclasses import dataclass, field, fields

from .control import (DEFAULT_BUFFER_SIZE, DEFAULT_EPSILON, OptimizerParams,
                      checked_per_modulation, map_key)
from .mdpc import DEFAULT_MAX_ITERATIONS
from .modem import DEFAULT_DATA_RATES_GBPS, MODULATIONS, Modulation

ENV_PREFIX = "THZLINK_"

BER_ESTIMATORS = ("sampled", "exact")

# Most generations (duration_s / update_interval_s * generations_per_interval)
# one run may ask for: 8250 times the default spec's 1.212e6, which take
# about 20 s on a 2-core Xeon, so about two days of simulation. A tiny
# update_interval_s asks for far more (6e303 at 1e-300, inf at 1e-320), and
# such a run would never end.
MAX_GENERATIONS = 1e10

# Longest run, in simulated seconds: twice what MAX_GENERATIONS admits at the
# default interval and generations. The trace is drawn whole before the first
# interval, about 15 us and 0.24 KB per phase, so a longer duration with few
# generations (a huge update_interval_s) could take hours or never finish.
MAX_DURATION_S = 1e8


class SpecError(ValueError):
    """Raised for malformed, unknown, or out-of-range spec entries."""


@dataclass(frozen=True)
class RunSpec:
    """Everything a simulation run needs; defaults match the evaluation setup.

    A spec checks its values when it is built, in code or from a file, and
    raises `SpecError` naming the key of the first bad one. It is immutable
    afterwards, its per-modulation maps included (read-only copies), so no
    value can skip the checks; `dataclasses.replace` builds a checked copy.
    """

    table_path: str
    seed: int = 1
    duration_s: float = 6060.0
    update_interval_s: float = 0.5
    buffer_size: int = DEFAULT_BUFFER_SIZE
    epsilon: Mapping = field(default_factory=lambda: dict(DEFAULT_EPSILON))
    t_mdpc: int = OptimizerParams.t_mdpc
    t_rs: int = OptimizerParams.t_rs
    rate_gbps: Mapping = field(default_factory=lambda: dict(DEFAULT_DATA_RATES_GBPS))
    s_min: int = OptimizerParams.s_min
    s_max: int = OptimizerParams.s_max
    m_max: int = OptimizerParams.m_max
    mdpc_max_iterations: int = DEFAULT_MAX_ITERATIONS
    generations_per_interval: int = 100
    # "exact" feeds the controller the table's p_e at the current distance
    # (a noiseless estimator, matching the movement thresholds' assumption);
    # "sampled" feeds the flip fraction actually measured on the interval's
    # bits, whose sampling noise dwarfs the default epsilon values.
    ber_estimator: str = "exact"
    metrics_path: str = "metrics.csv"
    events_path: str = "events.log"

    def __post_init__(self) -> None:
        for name in _MAP_NAMES:
            object.__setattr__(self, name,
                               types.MappingProxyType(dict(getattr(self, name))))
        _validate(self)

    def __reduce__(self):
        # A mappingproxy cannot be pickled or deep-copied, so a spec is
        # rebuilt (and checked again) from plain dicts.
        values = {name: getattr(self, name) for name in _FIELDS}
        values.update((name, dict(values[name])) for name in _MAP_NAMES)
        return functools.partial(RunSpec, **values), ()

    def optimizer_params(self) -> OptimizerParams:
        return OptimizerParams(**{f.name: getattr(self, f.name)
                                  for f in fields(OptimizerParams)})


_FIELDS = {f.name: f for f in fields(RunSpec)}
# The per-modulation maps.
_MAP_NAMES = [name for name, f in _FIELDS.items() if f.type is Mapping]


def _key_types() -> dict:
    """Every spec key and the type of its value, in field order.

    A map field gives one float key per modulation, e.g. ``epsilon.16qam``.
    """
    key_types = {}
    for f in _FIELDS.values():
        if f.name in _MAP_NAMES:
            key_types.update((map_key(f.name, mod), float) for mod in MODULATIONS)
        else:
            key_types[f.name] = f.type
    return key_types


_KEY_TYPES = _key_types()


def _coerce(key: str, raw: str):
    try:
        return _KEY_TYPES[key](raw)
    except ValueError as exc:
        raise SpecError(f"invalid value for {key}: {raw!r}") from exc


def parse_pairs(text: str, source: str = "<config>") -> dict:
    """Parse the flat key-value format into a {key: raw string} dict."""
    pairs: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise SpecError(f"{source}:{line_no}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in pairs:
            raise SpecError(f"{source}:{line_no}: duplicate key {key}")
        pairs[key] = value
    return pairs


def env_overrides(environ=None) -> dict:
    """Spec overrides taken from THZLINK_* environment variables."""
    environ = os.environ if environ is None else environ
    out = {}
    for name, value in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        key = name[len(ENV_PREFIX):].lower().replace("__", ".")
        if key not in _KEY_TYPES:
            raise SpecError(f"unknown key in environment override {name}")
        out[key] = value
    return out


def build_spec(pairs: dict) -> RunSpec:
    """Validate raw key/value pairs and produce a RunSpec."""
    kwargs = {}
    for key, raw in pairs.items():
        if key not in _KEY_TYPES:
            raise SpecError(f"unknown key: {key}")
        value = _coerce(key, raw)
        name, dot, label = key.partition(".")
        if dot:
            kwargs.setdefault(name, _FIELDS[name].default_factory())[
                Modulation.from_label(label)] = value
        else:
            kwargs[name] = value
    if not kwargs.get("table_path"):
        raise SpecError("missing required key: table_path")
    return RunSpec(**kwargs)


def _validate(spec: RunSpec) -> None:
    def bad(key, why):
        raise SpecError(f"invalid {key}: {why}")

    def positive(key, value):
        if not math.isfinite(value):
            bad(key, "must be finite")
        if value <= 0:
            bad(key, "must be positive")

    if spec.seed < 0:
        bad("seed", "must be >= 0")
    positive("duration_s", spec.duration_s)
    if spec.duration_s > MAX_DURATION_S:
        bad("duration_s", f"must be at most {MAX_DURATION_S:.0e} s, got {spec.duration_s:.3g}")
    positive("update_interval_s", spec.update_interval_s)
    if spec.buffer_size < 1:
        bad("buffer_size", "must be >= 1")
    try:
        spec.optimizer_params()
    except ValueError as exc:  # names the key already
        raise SpecError(str(exc)) from exc
    if spec.mdpc_max_iterations < 1:
        bad("mdpc_max_iterations", "must be >= 1")
    if spec.generations_per_interval < 1:
        bad("generations_per_interval", "must be >= 1")
    generations = (spec.duration_s / spec.update_interval_s
                   * spec.generations_per_interval)
    if generations > MAX_GENERATIONS:
        bad("duration_s / update_interval_s * generations_per_interval",
            f"asks for {generations:.3g} generations, more than {MAX_GENERATIONS:.0e}")
    if spec.ber_estimator not in BER_ESTIMATORS:
        bad("ber_estimator", f"must be one of {', '.join(BER_ESTIMATORS)}")
    try:
        for name in _MAP_NAMES:
            checked_per_modulation(name, getattr(spec, name))
    except ValueError as exc:  # names the key already
        raise SpecError(str(exc)) from exc


def parse_spec(text: str, source: str = "<config>") -> RunSpec:
    return build_spec(parse_pairs(text, source))


def load_spec(path=None, extra_pairs: dict | None = None, environ=None) -> RunSpec:
    """Load a spec file, if any, then apply environment and explicit overrides."""
    pairs = {}
    if path is not None:
        with open(path) as fh:
            pairs = parse_pairs(fh.read(), source=str(path))
    pairs.update(env_overrides(environ))
    if extra_pairs:
        pairs.update(extra_pairs)
    return build_spec(pairs)


def emit_spec(spec: RunSpec) -> str:
    """Serialize a RunSpec back into the flat key-value format."""
    lines = []
    for key in _KEY_TYPES:
        name, _, label = key.partition(".")
        value = getattr(spec, name)
        if label:
            value = value[Modulation.from_label(label)]
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"

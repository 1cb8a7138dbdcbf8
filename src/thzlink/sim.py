"""Discrete-time link simulation.

Every update interval draws the binary symmetric channel's flips for a batch
of generations under the active configuration at the current distance,
measures the pre-decode bit error rate, and reports it to the controller.
The flips are one mask from `modem.sample_flip_mask`, scattered at
cumulative geometric gaps, one draw per flip, which is a Bernoulli field. A
configuration returned by the controller takes effect at the start of the
next interval, never retroactively. One metrics row is emitted per dwell
segment; every interval additionally appends a row to the event log.

No output reports a walk, so a walk interval draws the channel and stops.
In a dwell interval the generations without a flipped bit are counted clean
at once, and the flipped ones are staged. Each (dwell, config) segment's
staged rows are decoded together when the segment ends, or sooner, once
`STAGE_BITS` of them wait. A row decodes the same in any batch and the
outcome counts are sums, so no output depends on the staging. Both codes
are linear and both decoders see a word only through their syndromes or
parities, so every generation, here and in the residual-error experiment,
sends the all-zero codeword: a generation without flips arrives clean, and
a decoded word's data units are its wrong data.
Each codec packs its own units and decodes them (`units`, `decode_units`).
"""

import contextlib
import math
from dataclasses import dataclass, fields

import numpy as np

from .config import RunSpec, SpecError
from .control import (AdaptiveController, BerMessage, LinkConfig, SCHEME_MDPC,
                      SCHEME_RS)
from .mdpc import DEFAULT_MAX_ITERATIONS, MdpcCodec
from .modem import BerTable, sample_flip_mask, transmit
# Nothing here calls bits_to_symbols or symbols_to_bits; perfbench/spans.py
# patches both by name.
from .rs import ReedSolomonCodec, bits_to_symbols, symbols_to_bits

# Only perfbench/run.py reads this, by name; a run walks its table's distances.
DISTANCE_GRID_M = 0.5 + 0.5 * np.arange(40)  # 0.5 .. 20.0 m
DWELL_CHOICES_S = (180.0, 240.0, 300.0, 360.0, 420.0)
WALK_SPEED_MPS = 1.0

# Most codeword bits one interval may draw (generations_per_interval times
# the largest word the controller can activate): 55 times the default
# spec's largest interval, RS(49116,12) at 100 generations, 4.9e6 bits.
MAX_INTERVAL_BITS = 2 ** 28

# Staged mask bits (one byte each) that trigger a decode before the segment
# ends. Cache-sized: one decoder call on 40 RS(3159,9) intervals ran 2.4x
# slower than forty on one each.
STAGE_BITS = 2 ** 18


@dataclass(frozen=True)
class TracePhase:
    kind: str  # "dwell" | "walk"
    t0: float
    t1: float
    d0: float
    d1: float

    def distance_at(self, now: float) -> float:
        if self.kind == "dwell":
            return self.d0
        frac = (now - self.t0) / (self.t1 - self.t0)
        return self.d0 + (self.d1 - self.d0) * frac


@dataclass(frozen=True)
class MobilityTrace:
    phases: tuple

    def phase_index_at(self, now: float, start: int = 0) -> int:
        i = start
        while i < len(self.phases) - 1 and now >= self.phases[i].t1:
            i += 1
        return i


def generate_trace(seed: int, duration_s: float, grid) -> MobilityTrace:
    """Alternating dwell/walk trace over the distances in `grid`, 1 m/s walks."""
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ValueError(f"duration must be positive and finite, got {duration_s!r}")
    grid = np.asarray(grid, dtype=float)
    # A walk redraws its target until it differs from where it starts.
    if len(set(grid.tolist())) < 2:
        raise ValueError("grid must hold at least two distinct distances")
    rng = np.random.default_rng(seed)
    phases = []
    t = 0.0
    pos = float(rng.choice(grid))
    while t < duration_s:
        dwell = float(rng.choice(DWELL_CHOICES_S))
        phases.append(TracePhase("dwell", t, t + dwell, pos, pos))
        t += dwell
        if t >= duration_s:
            break
        nxt = pos
        while nxt == pos:
            nxt = float(rng.choice(grid))
        walk = abs(nxt - pos) / WALK_SPEED_MPS
        phases.append(TracePhase("walk", t, t + walk, pos, nxt))
        t += walk
        pos = nxt
    return MobilityTrace(tuple(phases))


@dataclass
class MetricsRecord:
    """Per-dwell summary row; the configuration is the one active at dwell end."""

    time_s: float
    distance_m: float
    scheme: str
    modulation: str
    k_bits: int
    r_bits: int
    code_rate: float
    overhead: float
    th_theoretical_gbps: float
    p_re_empirical: float
    generations_sent: int
    generations_error_free: int
    generations_corrected: int
    generations_failed: int

    def to_csv_row(self) -> str:
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            parts.append(repr(value) if isinstance(value, float) else str(value))
        return ",".join(parts)


def write_metrics_csv(fh, records) -> None:
    """Write the header and one row per record to the open text file `fh`."""
    fh.write(",".join(f.name for f in fields(MetricsRecord)) + "\n")
    for rec in records:
        fh.write(rec.to_csv_row() + "\n")


def _open_output(key: str, path):
    """`path` opened for writing, or a null context when it is None."""
    if path is None:
        return contextlib.nullcontext()
    try:
        return open(path, "w")
    except OSError as exc:
        raise SpecError(f"invalid {key}: cannot write {path}: {exc.strerror}") from None


@dataclass
class Outcomes:
    """Generation outcome counts of one interval, or summed over a dwell."""

    sent: int = 0
    error_free: int = 0
    corrected: int = 0
    failed: int = 0
    wrong_bits: int = 0
    data_bits: int = 0

    def add(self, other: "Outcomes") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def _dwell_record(phase: TracePhase, outcomes: Outcomes,
                  config: LinkConfig) -> MetricsRecord:
    p_re = outcomes.wrong_bits / outcomes.data_bits if outcomes.data_bits else 0.0
    return MetricsRecord(
        time_s=phase.t0,
        distance_m=phase.d0,
        scheme=config.scheme,
        modulation=config.modulation.label,
        k_bits=config.k_bits,
        r_bits=config.r_bits,
        code_rate=config.code_rate,
        overhead=config.overhead,
        th_theoretical_gbps=config.throughput_gbps,
        p_re_empirical=p_re,
        generations_sent=outcomes.sent,
        generations_error_free=outcomes.error_free,
        generations_corrected=outcomes.corrected,
        generations_failed=outcomes.failed,
    )


def _build_codec(config: LinkConfig, mdpc_max_iterations: int):
    """The codec that carries `config`'s generations."""
    if config.scheme == SCHEME_RS:
        return ReedSolomonCodec(config.s, config.r_bits // config.s)
    return MdpcCodec(config.m, config.n, max_iterations=mdpc_max_iterations)


def _carry(codec, k: int, flip_mask: np.ndarray) -> Outcomes:
    """Outcomes of a (B, n) block of k-data-bit generations flipped by `flip_mask`.

    Every generation sends the all-zero codeword. A row with no flipped bit
    decodes clean, so only the flipped rows are sent and decoded; a decoded
    row's data units are its wrong data.
    """
    batch = flip_mask.shape[0]
    # A mask holds only 0 and 1, so its bool view reduces exactly, and
    # without the cast that reducing uint8 costs.
    hit = np.flatnonzero(flip_mask.view(bool).any(axis=1))
    outcomes = Outcomes(sent=batch, error_free=batch - hit.size, data_bits=batch * k)
    if hit.size == 0:
        return outcomes
    received = codec.units(flip_mask[hit])
    # The zero word's encode and this XOR change nothing. They stay while
    # the benchmark's traced self-check `rs.encode_rows > 0` needs an
    # encode; once it no longer does, both lines go.
    np.bitwise_xor(received, codec.encode_batch(np.zeros((hit.size, k), np.uint8)),
                   out=received)
    decoded, ok, changed = codec.decode_units(received)
    outcomes.error_free += int(np.count_nonzero(ok & ~changed))
    outcomes.corrected = int(np.count_nonzero(ok & changed))
    outcomes.failed = int(np.count_nonzero(~ok))
    outcomes.wrong_bits = int(np.bitwise_count(decoded).sum())
    return outcomes


class LinkSimulation:
    """One deterministic run: trace, data plane, controller, metrics."""

    def __init__(self, spec: RunSpec, table: BerTable,
                 trace: MobilityTrace | None = None):
        self.spec = spec
        self.table = table
        if trace is None and len(table.distances) < 2:
            raise SpecError(f"invalid table_path: {spec.table_path} holds one distance; "
                            "the trace walks between two or more")
        self.trace = trace or generate_trace(spec.seed, spec.duration_s, table.distances)
        # Every phase counts whole, even one the run's end cuts short.
        ends = [d for p in self.trace.phases for d in (p.d0, p.d1)]
        lo, hi = table.distances[0], table.distances[-1]
        if not ends or not lo <= min(ends) <= max(ends) <= hi:
            reach = f"reaches {min(ends):g}-{max(ends):g} m" if ends else "has no phases"
            raise SpecError(f"invalid table_path: {spec.table_path} spans "
                            f"{lo:g}-{hi:g} m but the trace {reach}")
        self.rng_channel = np.random.default_rng([spec.seed, 2])
        self.controller = AdaptiveController(
            table,
            epsilon=spec.epsilon,
            rates=spec.rate_gbps,
            buffer_size=spec.buffer_size,
            params=spec.optimizer_params(),
        )
        self.active_config = self.controller.current_config
        word = max([self.active_config, *self.controller.plan.values()],
                   key=lambda c: c.k_bits + c.r_bits)
        bits = (word.k_bits + word.r_bits) * spec.generations_per_interval
        if bits > MAX_INTERVAL_BITS:
            keys = "generations_per_interval"
            if word.scheme == SCHEME_MDPC:
                keys += " and m_max"
            raise SpecError(
                f"invalid {keys}: one interval of {word.describe()} words "
                f"asks for {bits:.3g} bits, more than {MAX_INTERVAL_BITS:.3g}")
        self._pending: LinkConfig | None = None
        self._codecs: dict = {}
        # Flipped rows of the open segment awaiting one decode, their mask
        # bits, and the dwell counts and config they belong to.
        self._staged: list[np.ndarray] = []
        self._staged_bits = 0
        self._staged_for: tuple[Outcomes, LinkConfig] | None = None
        # One (time, active config label, controller action) tuple per
        # interval; cheap, and lets tests check actuation timing.
        self.interval_log: list[tuple[float, str, str]] = []

    def _codec_for(self, config: LinkConfig):
        # One codec serves every length of its (s, r), or its (m, n).
        key = (config.scheme, config.s, config.r_bits, config.m, config.n)
        codec = self._codecs.get(key)
        if codec is None:
            codec = _build_codec(config, self.spec.mdpc_max_iterations)
            self._codecs[key] = codec
        return codec

    def _transmit_interval(self, distance_m: float,
                           outcomes: Outcomes | None = None) -> float:
        """Draw one interval's channel and return ber_m.

        The generations are carried only when `outcomes`, the open dwell's
        counts, is given: the clean ones are added at once, and the flipped
        ones are staged until `_flush` adds their decoded outcomes. A walk
        interval's outcomes reach no output, so it only draws the channel.
        """
        config = self.active_config
        p_e = self.table.lookup(distance_m, config.modulation)
        batch = self.spec.generations_per_interval
        flip_mask = sample_flip_mask((batch, config.k_bits + config.r_bits), p_e,
                                     self.rng_channel)
        ber_m = p_e if self.spec.ber_estimator == "exact" else float(flip_mask.mean())
        if outcomes is None:
            return ber_m
        # At p_e 0 the sampler draws nothing, so no row needs the scan. A
        # mask holds only 0 and 1, so its bool view reduces exactly.
        hit = flip_mask.view(bool).any(axis=1) if p_e else np.zeros(batch, bool)
        if not hit.all():
            # Rebinding frees the whole mask before a flush can decode.
            flip_mask = flip_mask[hit]
        clean = batch - flip_mask.shape[0]
        outcomes.add(Outcomes(sent=clean, error_free=clean,
                              data_bits=clean * config.k_bits))
        if flip_mask.size:
            self._staged_for = (outcomes, config)
            self._staged.append(flip_mask)
            self._staged_bits += flip_mask.size
            if self._staged_bits >= STAGE_BITS:
                self._flush()
        return ber_m

    def _flush(self) -> None:
        """Decode the staged rows in one `_carry` call and add their outcomes."""
        if not self._staged:
            return
        outcomes, config = self._staged_for
        # concatenate would copy a lone block too.
        rows = self._staged[0] if len(self._staged) == 1 else np.concatenate(self._staged)
        self._staged.clear()
        self._staged_bits = 0
        outcomes.add(_carry(self._codec_for(config), config.k_bits, rows))

    def run(self, metrics_path=None, events_path=None) -> list:
        spec = self.spec
        dt = spec.update_interval_s
        n_intervals = int(round(spec.duration_s / dt))
        records: list[MetricsRecord] = []
        phase_idx = -1
        # The open dwell's phase and its running outcome counts.
        dwell: tuple[TracePhase, Outcomes] | None = None
        # Both outputs open before the first interval, so a bad path fails
        # before anything is simulated.
        with (_open_output("metrics_path", metrics_path) as metrics,
              _open_output("events_path", events_path) as events):

            def log(now: float, event: str, detail: str) -> None:
                if events is not None:
                    events.write(f"{now:g},{event},{detail}\n")

            for i in range(n_intervals):
                now = i * dt
                if self._pending is not None:
                    self._flush()
                    self.active_config = self._pending
                    self._pending = None
                    log(now, "set_demodulation", self.active_config.modulation.label)
                    log(now, "set_decoding", self.active_config.label())
                new_idx = self.trace.phase_index_at(now, max(phase_idx, 0))
                if new_idx != phase_idx:
                    phase_idx = new_idx
                    phase = self.trace.phases[phase_idx]
                    if dwell is not None:
                        self._flush()
                        records.append(_dwell_record(*dwell, self.active_config))
                        dwell = None
                    if phase.kind == "dwell":
                        dwell = (phase, Outcomes())
                        log(now, "dwell_start", f"d={phase.d0:g}")
                    else:
                        log(now, "walk_start", f"d0={phase.d0:g};d1={phase.d1:g}")
                phase = self.trace.phases[phase_idx]
                distance = phase.distance_at(now)
                ber_m = self._transmit_interval(distance,
                                                None if dwell is None else dwell[1])
                action = self.controller.on_ber_update(BerMessage(ber_m, now))
                self.interval_log.append((now, self.active_config.describe(),
                                          action.kind))
                if action.kind == "config":
                    self._pending = action.config
                    log(now, "config",
                        f"{action.config.describe()};ber_m={ber_m!r}")
                else:
                    log(now, action.kind, f"ber_m={ber_m!r};d={distance:g}")
            if dwell is not None:
                self._flush()
                records.append(_dwell_record(*dwell, self.active_config))
            if metrics is not None:
                write_metrics_csv(metrics, records)
        return records


def run_simulation(spec: RunSpec, table: BerTable) -> list:
    """Run the full scenario on `table` and write both outputs."""
    sim = LinkSimulation(spec, table)
    return sim.run(metrics_path=spec.metrics_path, events_path=spec.events_path)


# -- fault-tolerance experiment --------------------------------------------


@dataclass
class ResidualStats:
    """Outcome of a fixed-configuration bulk transmission experiment."""

    generations: int
    t_budget: int
    within_budget_failures: int
    exceed_injected: int
    data_failures: int
    empirical_exceed_rate: float
    theoretical_tail: float


def binomial_tail_above(n: int, p: float, t: int) -> float:
    """P[X > t] for X ~ Binomial(n, p)."""
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0 if t < n else 0.0
    acc = 0.0
    for i in range(t + 1):
        acc += math.comb(n, i) * (p ** i) * ((1.0 - p) ** (n - i))
    return max(0.0, 1.0 - acc)


def residual_error_experiment(config: LinkConfig, p_e: float, generations: int,
                              seed: int, batch_size: int = 2000,
                              mdpc_max_iterations: int = DEFAULT_MAX_ITERATIONS
                              ) -> ResidualStats:
    """Transmit many generations at one fixed configuration and p_e.

    Sends the all-zero codeword, which by linearity gives every codeword's
    outcome (Richardson & Urbanke, Modern Coding Theory, 2008, 4.1): the
    received word is the error pattern. Counts, per generation, the nonzero
    received units (symbols for RS, bits for MDPC) and whether a decoded
    data unit is nonzero, and compares the exceed rate against the binomial
    tail for the unit error process.
    """
    for name, value in (("generations", generations), ("batch_size", batch_size)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    rng_channel = np.random.default_rng([seed, 2])
    n_bits = config.k_bits + config.r_bits
    codec = _build_codec(config, mdpc_max_iterations)
    t_budget = codec.t

    within_failures = 0
    exceed = 0
    failures = 0
    done = 0
    while done < generations:
        batch = min(batch_size, generations - done)
        # transmit's XOR with a broadcast zero writes into the flip mask.
        received = codec.units(transmit(np.broadcast_to(np.uint8(0), (batch, n_bits)),
                                        p_e, rng_channel))
        decoded, _, _ = codec.decode_units(received)
        injected = np.count_nonzero(received, axis=1)
        wrong = decoded.any(axis=1)
        within_failures += int(np.count_nonzero(wrong & (injected <= t_budget)))
        exceed += int(np.count_nonzero(injected > t_budget))
        failures += int(np.count_nonzero(wrong))
        done += batch

    return ResidualStats(
        generations=generations,
        t_budget=t_budget,
        within_budget_failures=within_failures,
        exceed_injected=exceed,
        data_failures=failures,
        empirical_exceed_rate=exceed / generations,
        theoretical_tail=binomial_tail_above(received.shape[1],
                                             codec.unit_error_prob(p_e), t_budget),
    )

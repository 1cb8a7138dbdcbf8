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
In a dwell interval only the generations with a flipped bit are encoded,
sent and decoded: both codes are linear and both decoders see a word only
through its syndromes or parities, so a generation without flips arrives
clean. So the residual-error experiment sends the all-zero codeword, and
both paths decode through `_decode`.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .config import RunSpec
from .control import AdaptiveController, BerMessage, LinkConfig, SCHEME_RS
from .mdpc import DEFAULT_MAX_ITERATIONS, MdpcCodec
from .modem import BerTable, sample_flip_mask, symbol_error_prob, transmit
# Nothing here calls symbols_to_bits; perfbench/spans.py patches it by name.
from .rs import ReedSolomonCodec, bits_to_symbols, symbols_to_bits

DISTANCE_GRID_M = 0.5 + 0.5 * np.arange(40)  # 0.5 .. 20.0 m
DWELL_CHOICES_S = (180.0, 240.0, 300.0, 360.0, 420.0)
WALK_SPEED_MPS = 1.0


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


def generate_trace(seed: int, duration_s: float, grid=DISTANCE_GRID_M) -> MobilityTrace:
    """Alternating dwell/walk trace over the distance grid, 1 m/s walks."""
    if duration_s <= 0:
        raise ValueError("duration must be positive")
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


def write_metrics_csv(path, records) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(f.name for f in fields(MetricsRecord)) + "\n")
        for rec in records:
            fh.write(rec.to_csv_row() + "\n")


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


def _payload(rng: np.random.Generator, batch: int, k: int) -> np.ndarray:
    """A (batch, k) block of fair iid data bits, drawn as bytes.

    Both codes are linear and both decoders see a word only through its
    syndromes or parities, so no output depends on which bits are drawn.
    """
    return np.unpackbits(rng.integers(0, 256, (batch, -(-k // 8)), dtype=np.uint8),
                         axis=1, count=k)


def _decode(codec, received: np.ndarray) -> tuple:
    """Decode a (B, units) received block: (decoded data units, ok, changed).

    Units are what the correction budget counts: symbols for RS, bits for
    MDPC. RS words start with their L - r data symbols, so RS data is never
    unpacked; MDPC data units are the data bits. A row is changed when the
    decoder corrected it.
    """
    if isinstance(codec, ReedSolomonCodec):
        out, counts, ok = codec.decode_symbols_batch(received)
        return out[:, :received.shape[1] - codec.r_symbols], ok, counts > 0
    decoded, _, flips, ok = codec.decode_batch(received)
    return decoded, ok, flips > 0


def _carry(codec, k: int, flip_mask: np.ndarray, rng: np.random.Generator) -> Outcomes:
    """Outcomes of a (B, n) block of k-data-bit generations flipped by `flip_mask`.

    A row with no flipped bit decodes clean, so only the flipped rows get a
    payload, an encode and a decode; their flips are added to the sent
    units in place: the received block reuses the flips' buffer. RS packs
    the flips before the payload is drawn, so no payload bits are held
    while the word decodes.
    """
    batch = flip_mask.shape[0]
    # A mask holds only 0 and 1, so its bool view reduces exactly, and
    # without the cast that reducing uint8 costs.
    hit = np.flatnonzero(flip_mask.view(bool).any(axis=1))
    outcomes = Outcomes(sent=batch, error_free=batch - hit.size, data_bits=batch * k)
    if hit.size == 0:
        return outcomes
    flips = flip_mask[hit]
    if isinstance(codec, ReedSolomonCodec):
        flips = bits_to_symbols(flips, codec.s)
        sent = codec.encode_batch(_payload(rng, hit.size, k))
        sent_data = sent[:, :k // codec.s]
    else:
        sent_data = _payload(rng, hit.size, k)
        sent = codec.encode_batch(sent_data)
    decoded, ok, changed = _decode(codec, np.bitwise_xor(sent, flips, out=flips))
    outcomes.error_free += int(np.count_nonzero(ok & ~changed))
    outcomes.corrected = int(np.count_nonzero(ok & changed))
    outcomes.failed = int(np.count_nonzero(~ok))
    outcomes.wrong_bits = int(np.bitwise_count(decoded ^ sent_data).sum())
    return outcomes


class LinkSimulation:
    """One deterministic run: trace, data plane, controller, metrics."""

    def __init__(self, spec: RunSpec, table: BerTable,
                 trace: MobilityTrace | None = None):
        self.spec = spec
        self.table = table
        self.trace = trace or generate_trace(spec.seed, spec.duration_s)
        self.rng_data = np.random.default_rng([spec.seed, 1])
        self.rng_channel = np.random.default_rng([spec.seed, 2])
        self.controller = AdaptiveController(
            table,
            epsilon=spec.epsilon,
            rates=spec.rate_gbps,
            buffer_size=spec.buffer_size,
            params=spec.optimizer_params(),
        )
        self.active_config = self.controller.current_config
        self._pending: LinkConfig | None = None
        self._codecs: dict = {}
        # One (time, active config label, controller action) tuple per
        # interval; cheap, and lets tests check actuation timing.
        self.interval_log: list[tuple[float, str, str]] = []

    def _codec_for(self, config: LinkConfig):
        key = (config.scheme, config.k_bits, config.r_bits, config.s,
               config.m, config.n)
        codec = self._codecs.get(key)
        if codec is None:
            codec = _build_codec(config, self.spec.mdpc_max_iterations)
            self._codecs[key] = codec
        return codec

    def _transmit_interval(self, distance_m: float,
                           outcomes: Outcomes | None = None) -> float:
        """Draw one interval's channel and return ber_m.

        The generations are carried, and their outcomes added to `outcomes`,
        only when it is given: the open dwell's counts. A walk interval's
        outcomes reach no output, so it only draws the channel.
        """
        config = self.active_config
        p_e = self.table.lookup(distance_m, config.modulation)
        batch = self.spec.generations_per_interval
        flip_mask = sample_flip_mask((batch, config.k_bits + config.r_bits), p_e,
                                     self.rng_channel)
        ber_m = p_e if self.spec.ber_estimator == "exact" else float(flip_mask.mean())
        if outcomes is not None:
            outcomes.add(_carry(self._codec_for(config), config.k_bits, flip_mask,
                                self.rng_data))
        return ber_m

    def run(self, metrics_path=None, events_path=None) -> list:
        spec = self.spec
        dt = spec.update_interval_s
        n_intervals = int(round(spec.duration_s / dt))
        records: list[MetricsRecord] = []
        events = open(events_path, "w") if events_path else None

        def log(now: float, event: str, detail: str) -> None:
            if events is not None:
                events.write(f"{now:g},{event},{detail}\n")

        phase_idx = -1
        # The open dwell's phase and its running outcome counts.
        dwell: tuple[TracePhase, Outcomes] | None = None
        try:
            for i in range(n_intervals):
                now = i * dt
                if self._pending is not None:
                    self.active_config = self._pending
                    self._pending = None
                    log(now, "set_demodulation", self.active_config.modulation.label)
                    log(now, "set_decoding", self.active_config.label())
                new_idx = self.trace.phase_index_at(now, max(phase_idx, 0))
                if new_idx != phase_idx:
                    phase_idx = new_idx
                    phase = self.trace.phases[phase_idx]
                    if dwell is not None:
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
                records.append(_dwell_record(*dwell, self.active_config))
        finally:
            if events is not None:
                events.close()
        if metrics_path is not None:
            write_metrics_csv(metrics_path, records)
        return records


def run_simulation(spec: RunSpec, table: BerTable | None = None) -> list:
    """Load the table if needed, run the full scenario, write both outputs."""
    if table is None:
        table = BerTable.from_csv(spec.table_path)
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
    rng_channel = np.random.default_rng([seed, 2])
    n_bits = config.k_bits + config.r_bits
    codec = _build_codec(config, mdpc_max_iterations)
    t_budget = codec.t
    rs = config.scheme == SCHEME_RS
    if rs:
        n_units = n_bits // config.s
        unit_p = symbol_error_prob(p_e, config.s)
    else:
        n_units = n_bits
        unit_p = p_e

    within_failures = 0
    exceed = 0
    failures = 0
    done = 0
    while done < generations:
        batch = min(batch_size, generations - done)
        received = transmit(np.zeros((batch, n_bits), np.uint8), p_e, rng_channel)
        if rs:
            received = bits_to_symbols(received, config.s)
        decoded, _, _ = _decode(codec, received)
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
        theoretical_tail=binomial_tail_above(n_units, unit_p, t_budget),
    )

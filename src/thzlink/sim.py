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
staged rows are packed, their masks dropped, and decoded together when the
segment ends, or sooner, once `STAGE_BITS` of them wait. A row decodes the
same in any batch and the outcome counts are sums, so no output depends on
the staging. Both codes are linear and both decoders see a word only
through their syndromes or parities, so every generation, here and in the
residual-error experiment, sends the all-zero codeword: a generation
without flips arrives clean, and a decoded word's data units are its wrong
data.
Each codec packs its own units and decodes them (`units`, `decode_units`).
"""

import contextlib
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .config import MAX_DURATION_S, RunSpec, SpecError
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
    if not 0 < duration_s <= MAX_DURATION_S:
        raise ValueError(f"duration_s must be positive and finite, at most "
                         f"{MAX_DURATION_S:.0e}, got {duration_s!r}")
    grid = np.asarray(grid, dtype=float)
    # A walk redraws its target until it differs from where it starts.
    if len(set(grid.tolist())) < 2:
        raise ValueError("grid must hold at least two distinct distances")
    bad = grid[~np.isfinite(grid)]
    if bad.size:
        raise ValueError(f"grid must hold finite distances, got {bad[0]}")
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


def write_metrics_csv(fh, records) -> None:
    """Write the header and one row per record to the open text file `fh`."""
    names = [f.name for f in fields(MetricsRecord)]
    fh.write(",".join(names) + "\n")
    for rec in records:
        row = (getattr(rec, name) for name in names)
        fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


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
        self.sent += other.sent
        self.error_free += other.error_free
        self.corrected += other.corrected
        self.failed += other.failed
        self.wrong_bits += other.wrong_bits
        self.data_bits += other.data_bits


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


def _carry(codec, k: int, received: np.ndarray) -> Outcomes:
    """Outcomes of a (B, L) block of k-data-bit generations' received units.

    Every generation sends the all-zero codeword, so `received` is
    `codec.units` of the rows' flip masks; it is written in place. Every
    row is decoded: a row with no flipped bit decodes clean, and a decoded
    row's data units are its wrong data. The simulator packs only flipped
    rows, and drops their masks before the call.
    """
    batch = received.shape[0]
    # The zero word's encode and this XOR change nothing. One word is
    # encoded per call and broadcast over the rows, only while the
    # benchmark's traced self-check `rs.encode_rows > 0` needs an encode;
    # once it no longer does, both lines go.
    np.bitwise_xor(received, codec.encode_batch(np.zeros((1, k), np.uint8)),
                   out=received)
    decoded, ok, changed = codec.decode_units(received)
    return Outcomes(sent=batch, error_free=int(np.count_nonzero(ok & ~changed)),
                    corrected=int(np.count_nonzero(ok & changed)),
                    failed=int(np.count_nonzero(~ok)),
                    # Only nonzero units hold wrong bits, and most decoded
                    # blocks are nearly all zero.
                    wrong_bits=int(np.bitwise_count(decoded[decoded != 0]).sum()),
                    data_bits=batch * k)


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
        # Each endpoint on its own: min and max skip a NaN that is not first.
        outside = [d for d in ends if not lo <= d <= hi]
        if not ends or outside:
            reach = f"reaches {outside[0]:g} m" if ends else "has no phases"
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
        self._codecs: dict = {}
        # Flipped rows of the open dwell, all drawn under the active config,
        # awaiting one decode, and their mask bits.
        self._staged: list[np.ndarray] = []
        self._staged_bits = 0
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
        outcomes.sent += clean
        outcomes.error_free += clean
        outcomes.data_bits += clean * config.k_bits
        if flip_mask.size:
            self._staged.append(flip_mask)
            self._staged_bits += flip_mask.size
        # The stage holds the only reference, so a flush can free the mask.
        del flip_mask
        if self._staged_bits >= STAGE_BITS:
            self._flush(outcomes)
        return ber_m

    def _flush(self, outcomes: Outcomes) -> None:
        """Decode the staged rows in one `_carry` call; add their outcomes to `outcomes`.

        The masks are packed into the codec's units and dropped before the
        decode, so an RS block decodes beside its symbols, not its mask.
        MDPC's units are the mask itself.
        """
        if not self._staged:
            return
        config = self.active_config
        codec = self._codec_for(config)
        # concatenate would copy a lone block too.
        rows = self._staged[0] if len(self._staged) == 1 else np.concatenate(self._staged)
        self._staged.clear()
        self._staged_bits = 0
        received = codec.units(rows)
        del rows
        outcomes.add(_carry(codec, config.k_bits, received))

    def run(self, metrics_path=None, events_path=None) -> list:
        spec = self.spec
        dt = spec.update_interval_s
        n_intervals = int(round(spec.duration_s / dt))
        records: list[MetricsRecord] = []
        phase_idx = -1
        pending: LinkConfig | None = None  # emitted, active from the next interval
        # The open dwell's phase and its running outcome counts.
        dwell: tuple[TracePhase, Outcomes] | None = None
        active_label = self.active_config.describe()  # for interval_log
        # Both outputs open before the first interval, so a bad path fails
        # before anything is simulated.
        with (_open_output("metrics_path", metrics_path) as metrics,
              _open_output("events_path", events_path) as events):

            def log(now: float, event: str, detail: str) -> None:
                if events is not None:
                    # The fewest %g digits, 6 or more, that read back as `now`.
                    text = f"{now:.6g}"
                    if float(text) != now:
                        text = next(t for d in range(7, 18)
                                    if float(t := f"{now:.{d}g}") == now)
                    events.write(f"{text},{event},{detail}\n")

            for i in range(n_intervals):
                now = i * dt
                if pending is not None:
                    if dwell is not None:
                        self._flush(dwell[1])
                    self.active_config, pending = pending, None
                    active_label = self.active_config.describe()
                    log(now, "set_demodulation", self.active_config.modulation.label)
                    log(now, "set_decoding", self.active_config.label())
                new_idx = self.trace.phase_index_at(now, max(phase_idx, 0))
                if new_idx != phase_idx:
                    phase_idx = new_idx
                    phase = self.trace.phases[phase_idx]
                    if dwell is not None:
                        self._flush(dwell[1])
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
                self.interval_log.append((now, active_label, action.kind))
                if action.kind == "config":
                    pending = action.config
                    log(now, "config",
                        f"{action.config.describe()};ber_m={ber_m!r}")
                else:
                    log(now, action.kind, f"ber_m={ber_m!r};d={distance:g}")
            if dwell is not None:
                self._flush(dwell[1])
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
    """P[X > t] for X ~ Binomial(n, p).

    One minus the terms up to t, while that is at least 0.01: the
    subtraction then costs at most two of a float's 16 digits. A smaller
    tail would cancel to a few digits, or to 0, so it is summed from its
    own terms instead, t + 1 upward until they stop adding to it.
    """
    if p <= 0.0 or t >= n:
        return 0.0
    if p >= 1.0:
        return 1.0
    log_q = math.log1p(-p)

    def pmf(i: int, q_power: float) -> float:
        """C(n, i) p^i q_power, q_power being (1 - p)^(n - i); through logs
        where C(n, i) overflows a float or p^i or q_power is not normal."""
        comb, p_power = math.comb(n, i), p ** i
        if comb <= sys.float_info.max and min(p_power, q_power) >= sys.float_info.min:
            return comb * p_power * q_power
        return math.exp(math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                        + i * math.log(p) + (n - i) * log_q)

    acc = 0.0
    for i in range(t + 1):
        acc += pmf(i, (1.0 - p) ** (n - i))
    if 1.0 - acc >= 0.01:
        return 1.0 - acc
    tail = 0.0
    term = pmf(t + 1, math.exp((n - t - 1) * log_q))
    for i in range(t + 1, n + 1):
        if tail + term == tail:
            break
        tail += term
        term *= (n - i) / (i + 1) * p / (1.0 - p)
    return tail


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
    for done in range(0, generations, batch_size):
        batch = min(batch_size, generations - done)
        # transmit's XOR with a broadcast zero writes into the flip mask if p_e > 0.
        received = codec.units(transmit(np.broadcast_to(np.uint8(0), (batch, n_bits)),
                                        p_e, rng_channel))
        decoded, _, _ = codec.decode_units(received)
        # Exact counts through an int32 accumulator: a row of 2^31 units
        # would take 2 GB on its own.
        injected = np.einsum("ij->i", received != 0, dtype=np.int32)
        # An OR in the units' own dtype: `any` casts every unit to bool first.
        wrong = np.bitwise_or.reduce(decoded, axis=1) != 0
        within_failures += int(np.count_nonzero(wrong & (injected <= t_budget)))
        exceed += int(np.count_nonzero(injected > t_budget))
        failures += int(np.count_nonzero(wrong))
        width = received.shape[1]
        # The next batch's flip mask is drawn without this batch's blocks.
        del received, decoded

    return ResidualStats(
        generations=generations,
        t_budget=t_budget,
        within_budget_failures=within_failures,
        exceed_injected=exceed,
        data_failures=failures,
        empirical_exceed_rate=exceed / generations,
        theoretical_tail=binomial_tail_above(width,
                                             codec.unit_error_prob(p_e), t_budget),
    )

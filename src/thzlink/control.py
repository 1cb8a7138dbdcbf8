"""Adaptive configuration module.

Buffers receiver BER reports, detects receiver movement from jumps in the
buffered values, and, once the buffer fills with stable readings, estimates
the transmission distance and emits the coding/modulation configuration with
the highest throughput that still keeps the expected error count within the
correction capability of the chosen code.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gf import PRIMITIVE_POLYS
from .modem import (DEFAULT_DATA_RATES_GBPS, MODULATIONS, BerTable, Modulation,
                    symbol_error_prob)

SCHEME_MDPC = "MDPC"
SCHEME_RS = "RS"
SCHEMES = (SCHEME_MDPC, SCHEME_RS)

# Per-modulation movement-detection thresholds: the smallest BER change that
# is treated as evidence the receiver changed position.
DEFAULT_EPSILON = {
    Modulation.BPSK: 7.646e-8,
    Modulation.QPSK: 6.649e-9,
    Modulation.PSK8: 9.375e-7,
    Modulation.QAM16: 2.992e-7,
}

DEFAULT_BUFFER_SIZE = 4


@dataclass(frozen=True)
class BerMessage:
    """One receiver-side BER report."""

    ber_m: float
    timestamp: float


@dataclass(frozen=True)
class LinkConfig:
    """One actuated link state: coding scheme, geometry and modulation."""

    scheme: str
    modulation: Modulation
    k_bits: int
    r_bits: int
    data_rate_gbps: float
    s: int | None = None  # RS symbol size
    m: int | None = None  # MDPC side length
    n: int | None = None  # MDPC dimension count

    def __post_init__(self):
        if self.scheme == SCHEME_RS:
            if self.s is None or self.k_bits % self.s or self.r_bits % self.s:
                raise ValueError("RS config needs k/r divisible by the symbol size")
        elif self.scheme == SCHEME_MDPC:
            if self.m is None or self.n is None:
                raise ValueError("MDPC config needs m and n")
            if self.m ** self.n != self.k_bits:
                raise ValueError("MDPC config has k_bits != m^n")
            if (self.m + 1) ** self.n - self.m ** self.n != self.r_bits:
                raise ValueError("MDPC config has inconsistent r_bits")
        else:
            raise ValueError(f"unknown scheme {self.scheme!r}")

    @property
    def code_rate(self) -> float:
        return self.k_bits / (self.k_bits + self.r_bits)

    @property
    def overhead(self) -> float:
        return 1.0 - self.code_rate

    @property
    def throughput_gbps(self) -> float:
        """Useful-bit rate assuming residual errors are negligible."""
        return self.code_rate * self.data_rate_gbps

    def label(self) -> str:
        if self.scheme == SCHEME_RS:
            return f"RS({self.k_bits},{self.s})"
        return f"MDPC({self.k_bits})"

    def describe(self) -> str:
        return f"{self.label()}/{self.modulation.label}"


@dataclass(frozen=True)
class OptimizerParams:
    """Correction budgets and geometry ranges of the optimizer.

    Checked when built: a bad value raises ``ValueError("invalid <key>: ...")``.
    The RS symbol sizes are those the codec has a field for.
    """

    t_mdpc: int = 1
    t_rs: int = 1
    s_min: int = 3
    s_max: int = 12
    m_max: int = 1024

    def __post_init__(self) -> None:
        def bad(key, why):
            raise ValueError(f"invalid {key}: {why}")

        # t_mdpc + 1 must be a power of two of at least 2, so n >= 2.
        if self.t_mdpc < 1 or self.t_mdpc & (self.t_mdpc + 1):
            bad("t_mdpc", f"{self.t_mdpc} is not of the form 2^(n-1) - 1 with n >= 2")
        if self.t_rs < 1:
            bad("t_rs", "must be >= 1")
        if not min(PRIMITIVE_POLYS) <= self.s_min <= self.s_max:
            bad("s_min", f"need {min(PRIMITIVE_POLYS)} <= s_min <= s_max, "
                f"got {self.s_min} and {self.s_max}")
        if self.s_max > max(PRIMITIVE_POLYS):
            bad("s_max", f"must be <= {max(PRIMITIVE_POLYS)}")
        if self.m_max < 2:
            bad("m_max", "must be >= 2")

    def mdpc_dims(self) -> int:
        """Dimension count n with 2^(n-1) - 1 == t_mdpc."""
        return (self.t_mdpc + 1).bit_length()


def map_key(name: str, mod: Modulation) -> str:
    """The spec key of one entry of a per-modulation map, e.g. ``epsilon.16qam``."""
    return f"{name}.{mod.label.lower()}"


def checked_per_modulation(name: str, values: dict) -> dict:
    """A copy of a per-modulation map, checked: every modulation present with
    a finite positive value. Raises ``ValueError("invalid <key>: ...")``
    naming the ``map_key``."""
    for mod in MODULATIONS:
        key = map_key(name, mod)
        if mod not in values:
            raise ValueError(f"invalid {key}: missing")
        if not math.isfinite(values[mod]):
            raise ValueError(f"invalid {key}: must be finite")
        if values[mod] <= 0:
            raise ValueError(f"invalid {key}: must be positive")
    return dict(values)


def estimate_distance(ber_m: float, mod: Modulation, table: BerTable) -> float:
    """Grid distance whose table BER is nearest to the measured value.

    Ties are broken toward the larger distance: assuming the worse channel
    keeps the downstream error-budget constraints satisfied.
    """
    if not math.isfinite(ber_m):
        raise ValueError(f"measured BER must be finite, got {ber_m!r}")
    col = table.column(mod)
    diffs = np.abs(col - ber_m)
    hits = np.nonzero(diffs == diffs.min())[0]
    return float(table.distances[hits[-1]])


def _largest_fitting(lo: int, hi: int, fits) -> int | None:
    """Largest x in [lo, hi] with fits(x), for a fits that holds up to some x
    and fails past it; None when fits(lo) fails or the range is empty."""
    if lo > hi or not fits(lo):
        return None
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _mdpc_side(p_e: float, params: OptimizerParams) -> int | None:
    """Largest side m in [2, m_max] with (m+1)^n * p_e <= t_mdpc, or None."""
    n = params.mdpc_dims()

    def fits(m):
        try:
            return (m + 1) ** n * p_e <= params.t_mdpc
        except OverflowError:  # (m+1)^n has no float, so the product is inf
            return False

    # A huge (m+1)^n overflows even against 0.0, where every side fits.
    return params.m_max if p_e == 0.0 else _largest_fitting(2, params.m_max, fits)


def rs_code_for_symbol_size(p_e: float, t_symbols: int, s: int) -> tuple[int, int] | None:
    """(k_bits, r_bits) of the longest feasible RS code with this symbol size.

    Requires the codeword length L to satisfy L * P_s <= t, stay within
    [2^(s-1), 2^s - 1], and leave room for at least one data symbol.
    """
    p_sym = symbol_error_prob(p_e, s)
    length = _largest_fitting(max(2 ** (s - 1), 2 * t_symbols + 1), 2 ** s - 1,
                              lambda n_sym: n_sym * p_sym <= t_symbols)
    if length is None:
        return None
    return s * (length - 2 * t_symbols), 2 * s * t_symbols


def candidates(p_by_mod: dict, rates: dict,
               params: OptimizerParams) -> dict[tuple, LinkConfig | None]:
    """Best configuration per (scheme, modulation), None where none is
    feasible: MDPC first, then RS, each in ``MODULATIONS`` order."""
    n = params.mdpc_dims()
    out = {}
    for mod in MODULATIONS:
        m = _mdpc_side(p_by_mod[mod], params)
        out[SCHEME_MDPC, mod] = None if m is None else LinkConfig(
            SCHEME_MDPC, mod, m ** n, (m + 1) ** n - m ** n, rates[mod], m=m, n=n)
    for mod in MODULATIONS:
        codes = [LinkConfig(SCHEME_RS, mod, *code, rates[mod], s=s)
                 for s in range(params.s_min, params.s_max + 1)
                 if (code := rs_code_for_symbol_size(p_by_mod[mod], params.t_rs, s))]
        # The highest code rate; ties go to the smaller symbol size.
        out[SCHEME_RS, mod] = max(codes, key=lambda c: c.code_rate, default=None)
    return out


def fallback_config(rates: dict) -> LinkConfig:
    """Maximum-redundancy configuration used when nothing is feasible."""
    return LinkConfig(SCHEME_MDPC, Modulation.BPSK, 4, 5,
                      rates[Modulation.BPSK], m=2, n=2)


def select_config(configs, rates: dict) -> LinkConfig:
    """Pick the feasible candidate (not None) with the highest throughput.

    Ties fall back to, in order: higher code rate, RS over MDPC, and the
    higher-order modulation.
    """
    feasible = [c for c in configs if c is not None]
    if not feasible:
        return fallback_config(rates)
    return max(feasible, key=lambda c: (c.throughput_gbps, c.code_rate,
                                        c.scheme == SCHEME_RS,
                                        c.modulation.bits_per_symbol))


def optimize_for_distance(table: BerTable, distance_m: float, rates: dict,
                          params: OptimizerParams) -> tuple[dict, LinkConfig]:
    """The candidate set and selection for one distance; the one-shot surface."""
    p_by_mod = {mod: table.lookup(distance_m, mod) for mod in MODULATIONS}
    cands = candidates(p_by_mod, rates, params)
    return cands, select_config(cands.values(), rates)


def complexity_units(n_buffer: int, n_modulations: int, n_schemes: int) -> int:
    """Bookkeeping units consumed by one configuration generation."""
    return n_buffer + n_modulations * (1 + 3 * n_schemes)


def initial_link_config(rates: dict | None = None) -> LinkConfig:
    """Boot configuration: a short high-rate RS code on the fastest modulation."""
    rates = rates or DEFAULT_DATA_RATES_GBPS
    return LinkConfig(SCHEME_RS, Modulation.QAM16, 224, 16,
                      rates[Modulation.QAM16], s=8)


@dataclass(frozen=True)
class ControlAction:
    """Outcome of one BER update: what the controller did with it."""

    kind: str  # cleared | buffered | config | buffered-stable
    config: LinkConfig | None = None


class AdaptiveController:
    """Single-actor feedback controller; process one message at a time.

    The buffer starts seeded with a single 0.0 reading. A new configuration
    is generated exactly when an insertion fills the buffer; movement clears
    it, and updates on a full, stable buffer only rotate the oldest entry out.
    """

    def __init__(self, table: BerTable, epsilon: dict | None = None,
                 rates: dict | None = None,
                 buffer_size: int = DEFAULT_BUFFER_SIZE,
                 params: OptimizerParams | None = None):
        if buffer_size < 1:
            raise ValueError("buffer size must be >= 1")
        self.table = table
        # Movement threshold per modulation; the current modulation's applies.
        self.epsilon = checked_per_modulation(
            "epsilon", DEFAULT_EPSILON if epsilon is None else epsilon)
        self.rates = checked_per_modulation(
            "rates", DEFAULT_DATA_RATES_GBPS if rates is None else rates)
        self.params = params or OptimizerParams()
        # The config a generation emits at each distance estimate_distance returns.
        self.plan = {d: optimize_for_distance(table, d, self.rates, self.params)[1]
                     for d in map(float, table.distances)}
        self.capacity = buffer_size
        self.current_config = initial_link_config(self.rates)
        self.buffer: list[float] = [0.0]
        self.total_units = 0
        self.generations = 0

    def on_ber_update(self, msg: BerMessage) -> ControlAction:
        if not math.isfinite(msg.ber_m):
            raise ValueError(f"BER report must be finite, got {msg.ber_m!r}")
        eps = self.epsilon[self.current_config.modulation]
        n_compares = len(self.buffer)
        if any(abs(msg.ber_m - buffered) >= eps for buffered in self.buffer):
            self.buffer = [msg.ber_m]
            return ControlAction("cleared")
        if len(self.buffer) < self.capacity:
            self.buffer.append(msg.ber_m)
            if len(self.buffer) == self.capacity:
                config = self._generate(msg.ber_m, n_compares)
                self.current_config = config
                return ControlAction("config", config)
            return ControlAction("buffered")
        self.buffer.pop(0)
        self.buffer.append(msg.ber_m)
        return ControlAction("buffered-stable")

    def _generate(self, ber_m: float, n_compares: int) -> LinkConfig:
        config = self.plan[estimate_distance(ber_m, self.current_config.modulation,
                                             self.table)]
        self.total_units += complexity_units(n_compares + 1, len(MODULATIONS),
                                             len(SCHEMES))
        self.generations += 1
        return config

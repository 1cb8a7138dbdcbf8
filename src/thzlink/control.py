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
class Candidate:
    """One optimizer candidate: a scheme/modulation pair with its geometry."""

    scheme: str
    modulation: Modulation
    feasible: bool
    k_bits: int = 0
    r_bits: int = 0
    s: int | None = None
    m: int | None = None
    n: int | None = None

    @property
    def code_rate(self) -> float:
        if not self.feasible:
            return 0.0
        return self.k_bits / (self.k_bits + self.r_bits)


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


def _max_mdpc_side(p_e: float, t_bits: int, n: int, m_max: int) -> int | None:
    """Largest m with (m+1)^n * p_e <= t_bits, or None when even m=2 fails."""
    if p_e <= 0.0:
        return m_max
    # t_bits / p_e overflows to inf for a subnormal p_e; min() caps it first.
    m = int(min((t_bits / p_e) ** (1.0 / n), m_max + 1)) - 1
    while m < m_max and (m + 2) ** n * p_e <= t_bits:
        m += 1
    while m >= 2 and (m + 1) ** n * p_e > t_bits:
        m -= 1
    return m if m >= 2 else None


def mdpc_candidates(p_by_mod: dict, params: OptimizerParams) -> list[Candidate]:
    """Best MDPC geometry per modulation for the given error probabilities."""
    n = params.mdpc_dims()
    out = []
    for mod in MODULATIONS:
        m = _max_mdpc_side(p_by_mod[mod], params.t_mdpc, n, params.m_max)
        if m is None:
            out.append(Candidate(SCHEME_MDPC, mod, False))
        else:
            k = m ** n
            out.append(Candidate(SCHEME_MDPC, mod, True, k_bits=k,
                                 r_bits=(m + 1) ** n - k, m=m, n=n))
    return out


def rs_code_for_symbol_size(p_e: float, t_symbols: int, s: int) -> tuple[int, int] | None:
    """(k_bits, r_bits) of the longest feasible RS code with this symbol size.

    Requires the codeword length L to satisfy L * P_s <= t, stay within
    [2^(s-1), 2^s - 1], and leave room for at least one data symbol.
    """
    r_bits = 2 * s * t_symbols
    p_sym = symbol_error_prob(p_e, s)
    l_max = 2 ** s - 1
    l_min = 2 ** (s - 1)
    if p_sym <= 0.0:
        length = l_max
    else:
        length = min(l_max, int(t_symbols / p_sym))
        while length < l_max and (length + 1) * p_sym <= t_symbols:
            length += 1
        while length > 0 and length * p_sym > t_symbols:
            length -= 1
    if length < l_min or length < 2 * t_symbols + 1:
        return None
    return s * (length - 2 * t_symbols), r_bits


def rs_candidates(p_by_mod: dict, params: OptimizerParams) -> list[Candidate]:
    """Best RS symbol size per modulation, maximizing the code rate."""
    out = []
    for mod in MODULATIONS:
        best = None
        for s in range(params.s_min, params.s_max + 1):
            code = rs_code_for_symbol_size(p_by_mod[mod], params.t_rs, s)
            if code is None:
                continue
            k_bits, r_bits = code
            rate = k_bits / (k_bits + r_bits)
            if best is None or rate > best[0]:
                best = (rate, s, k_bits, r_bits)
        if best is None:
            out.append(Candidate(SCHEME_RS, mod, False))
        else:
            _, s, k_bits, r_bits = best
            out.append(Candidate(SCHEME_RS, mod, True, k_bits=k_bits,
                                 r_bits=r_bits, s=s))
    return out


def fallback_config(rates: dict) -> LinkConfig:
    """Maximum-redundancy configuration used when nothing is feasible."""
    return LinkConfig(SCHEME_MDPC, Modulation.BPSK, 4, 5,
                      rates[Modulation.BPSK], m=2, n=2)


def select_config(candidates: list[Candidate], rates: dict) -> LinkConfig:
    """Pick the candidate with the highest throughput.

    Ties fall back to, in order: higher code rate, RS over MDPC, and the
    higher-order modulation.
    """
    feasible = [c for c in candidates if c.feasible]
    if not feasible:
        return fallback_config(rates)

    def key(c: Candidate):
        rate = c.code_rate
        return (rate * rates[c.modulation], rate,
                1 if c.scheme == SCHEME_RS else 0,
                c.modulation.bits_per_symbol)

    best = max(feasible, key=key)
    return LinkConfig(best.scheme, best.modulation, best.k_bits, best.r_bits,
                      rates[best.modulation], s=best.s, m=best.m, n=best.n)


def optimize_for_distance(table: BerTable, distance_m: float, rates: dict,
                          params: OptimizerParams) -> tuple[list[Candidate], LinkConfig]:
    """The candidate set and selection for one distance; the one-shot surface."""
    p_by_mod = {mod: table.lookup(distance_m, mod) for mod in MODULATIONS}
    candidates = mdpc_candidates(p_by_mod, params) + rs_candidates(p_by_mod, params)
    return candidates, select_config(candidates, rates)


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
        self.epsilon = dict(epsilon or DEFAULT_EPSILON)
        self.rates = dict(rates or DEFAULT_DATA_RATES_GBPS)
        self.params = params or OptimizerParams()
        self.capacity = buffer_size
        self.current_config = initial_link_config(self.rates)
        self.buffer: list[float] = [0.0]
        self.total_units = 0
        self.last_generation_units = 0
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
        distance = estimate_distance(ber_m, self.current_config.modulation, self.table)
        _, config = optimize_for_distance(self.table, distance, self.rates, self.params)
        units = complexity_units(n_compares + 1, len(MODULATIONS), len(SCHEMES))
        self.last_generation_units = units
        self.total_units += units
        self.generations += 1
        return config

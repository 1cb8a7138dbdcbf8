"""Modulation abstraction, BER lookup table, and binary symmetric channel.

Modulation only affects two things here: the bit error probability read from
the table and the raw data rate. No waveform-level processing is modeled.
"""

import enum
import math

import numpy as np


class Modulation(enum.Enum):
    BPSK = ("BPSK", 1)
    QPSK = ("QPSK", 2)
    PSK8 = ("8PSK", 3)
    QAM16 = ("16QAM", 4)

    def __init__(self, label: str, bits_per_symbol: int):
        self.label = label
        self.bits_per_symbol = bits_per_symbol

    @classmethod
    def from_label(cls, label: str) -> "Modulation":
        for mod in cls:
            if mod.label == label.upper():
                return mod
        raise ValueError(f"unknown modulation {label!r}")


MODULATIONS = tuple(Modulation)

# Raw data rate per modulation, Gbps.
DEFAULT_DATA_RATES_GBPS = {
    Modulation.BPSK: 7.04,
    Modulation.QPSK: 14.08,
    Modulation.PSK8: 21.12,
    Modulation.QAM16: 28.16,
}

CSV_HEADER = "distance_m,modulation,ber"


class BerTable:
    """Bit error probability per (distance, modulation) on a fixed distance grid.

    Immutable after construction; lookups snap to the nearest grid distance
    (ties go to the larger, i.e. worse, distance).
    """

    def __init__(self, distances, values: dict):
        self.distances = np.asarray(distances, dtype=float)
        if self.distances.ndim != 1 or len(self.distances) == 0:
            raise ValueError("distances must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(self.distances)):
            raise ValueError("distances must be finite")
        if np.any(np.diff(self.distances) <= 0):
            raise ValueError("distances must be strictly ascending")
        self._values = {}
        for mod in MODULATIONS:
            if mod not in values:
                raise ValueError(f"missing BER column for {mod.label}")
            col = np.asarray(values[mod], dtype=float)
            if col.shape != self.distances.shape:
                raise ValueError(f"BER column for {mod.label} has wrong length")
            if not np.all(np.isfinite(col)):
                raise ValueError(f"BER values for {mod.label} must be finite")
            if np.any((col < 0) | (col > 0.5)):
                raise ValueError(f"BER values for {mod.label} outside [0, 0.5]")
            if np.any(np.diff(col) < 0):
                raise ValueError(f"BER for {mod.label} must be non-decreasing in distance")
            self._values[mod] = col

    def column(self, mod: Modulation) -> np.ndarray:
        return self._values[mod]

    def nearest_index(self, distance: float) -> int:
        d = self.distances
        if not (d[0] <= distance and distance <= d[-1]):  # also rejects NaN
            raise ValueError(
                f"distance {distance} m outside table range [{d[0]}, {d[-1]}] m")
        i = int(np.searchsorted(d, distance))
        if i == 0:
            return 0
        # Ties snap to the larger distance (the more pessimistic channel).
        return i if (d[i] - distance) <= (distance - d[i - 1]) else i - 1

    def lookup(self, distance: float, mod: Modulation) -> float:
        """p_e at the grid distance nearest to the requested one."""
        return float(self._values[mod][self.nearest_index(distance)])

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for i, d in enumerate(self.distances):
                for mod in MODULATIONS:
                    fh.write(f"{d:g},{mod.label},{float(self._values[mod][i])!r}\n")

    @classmethod
    def from_csv(cls, path) -> "BerTable":
        rows: dict[Modulation, dict[float, float]] = {mod: {} for mod in MODULATIONS}
        with open(path) as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise ValueError(f"unexpected BER table header {header!r}")
            for line_no, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                try:
                    if len(parts) != 3:
                        raise ValueError("expected 3 columns")
                    d, mod, ber = float(parts[0]), Modulation.from_label(parts[1]), float(parts[2])
                    for name, value in (("distance", d), ("BER", ber)):
                        if not math.isfinite(value):
                            raise ValueError(f"{name} {value} must be finite")
                    if d in rows[mod]:
                        raise ValueError(f"duplicate row for {d:g} m, {mod.label}")
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: {exc}") from None
                rows[mod][d] = ber
        distances = sorted(rows[MODULATIONS[0]])
        try:
            for mod in MODULATIONS:
                if sorted(rows[mod]) != distances:
                    raise ValueError(f"distance grid for {mod.label} does not match")
            return cls(distances, {mod: [rows[mod][d] for d in distances]
                                   for mod in MODULATIONS})
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def symbol_error_prob(p_e: float, s: int) -> float:
    """Probability that an s-bit symbol sees at least one bit error."""
    if not 0.0 <= p_e <= 1.0:
        raise ValueError("p_e must be within [0, 1]")
    if s < 1:
        raise ValueError("s must be >= 1")
    return 1.0 - (1.0 - p_e) ** s


# The benchmark's tracer (perfbench/spans.py) sorts sampler calls into sparse
# and dense by this many expected flips; the sampler itself has one regime.
SPARSE_FLIP_THRESHOLD = 64.0

# Flip masks draw at most this many gaps at a time, through one float64 and
# one int64 buffer (128 KiB each, cache-sized), never a field of 8 bytes per
# bit.
FLIP_CHUNK = 1 << 14


def sample_flip_mask(shape, p_e: float, rng: np.random.Generator) -> np.ndarray:
    """Bit-flip indicator array for a BSC with crossover probability p_e.

    Flips are scattered at cumulative geometric gaps, one draw per flip in
    place of one per bit; this is the Bernoulli field at any p_e (Devroye,
    Non-Uniform Random Variate Generation, 1986). A gap is
    ceil(E / -log1p(-p_e)) for a standard exponential E, divided as numpy's
    `Generator.geometric` divides below p = 1/3, so the gaps are its values.

    Raises `ValueError` unless p_e is a number within [0, 1].
    """
    if not 0.0 <= p_e <= 1.0:  # also rejects NaN
        raise ValueError(f"p_e must be within [0, 1], got {p_e!r}")
    if p_e >= 1.0:
        return np.ones(shape, dtype=np.uint8)
    # The mask owns its buffer (numpy reuses only temporaries that own their
    # data), so `bits ^ mask` in transmit writes into it.
    mask = np.zeros(shape, dtype=np.uint8)
    if p_e == 0.0:
        return mask
    flat = mask.reshape(-1)
    size = flat.size
    # Chunks cover the mean flip count plus four sigmas, so one chunk
    # usually reaches the end of the mask.
    mean = p_e * size
    gaps = np.empty(min(FLIP_CHUNK, int(mean + 4.0 * math.sqrt(mean)) + 16))
    pos = np.empty(gaps.size, dtype=np.int64)
    scale = -math.log1p(-p_e)
    # Capping E at the end of the mask keeps every gap that lands in it, and
    # keeps a tiny p_e from overflowing the division or the int64 cast.
    cap = (size + 1) * scale
    last = -1
    while last < size:
        rng.standard_exponential(out=gaps)
        np.minimum(gaps, cap, out=gaps)
        gaps /= scale
        np.ceil(gaps, out=gaps)
        np.cumsum(gaps, dtype=np.int64, out=pos)
        pos += last
        last = int(pos[-1])
        flat[pos[: np.searchsorted(pos, size)]] = 1
    return mask


def transmit(bits: np.ndarray, p_e: float, rng: np.random.Generator) -> np.ndarray:
    """Binary symmetric channel: flip each bit independently with probability p_e.

    Takes bool or uint8 bits of any shape and returns uint8; deterministic
    for a fixed generator state. Any other dtype raises `TypeError`, since
    casting it to bits would silently truncate symbols.
    """
    bits = np.asarray(bits)
    if bits.dtype not in (np.bool_, np.uint8):
        raise TypeError(f"transmit takes bool or uint8 bits, not {bits.dtype}")
    return bits ^ sample_flip_mask(bits.shape, p_e, rng)

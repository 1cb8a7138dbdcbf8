"""Synthetic default BER table.

Real channel measurements for the target band are not shipped with this
package, so experiments run against a documented parametric stand-in: an
AWGN-style BER curve per modulation, driven by an SNR that falls off with
log-distance plus a linear absorption term,

    snr_db(d) = snr_ref_db - 10 * path_loss_exp * log10(d) - absorption_db_per_m * d.

The reference level is calibrated so that BPSK at ``anchor_distance_m``
hits ``anchor_ber`` exactly. The 8PSK curve reuses the 16QAM formula with a
small SNR penalty: the two curves are nearly coincident, with 8PSK on the
worse side at every grid point, so 16QAM strictly dominates it (same or
better error rate at a higher data rate). Any run that needs real channel
data can substitute its own CSV; nothing downstream depends on this model.
"""

import math
import statistics
from dataclasses import dataclass, fields

import numpy as np

from .modem import BerTable, Modulation

# Probabilities below this are stored as exact zeros: at desk scale no run
# pushes enough bits for them to matter, and the CSV stays readable.
BER_FLOOR = 1e-15

# Linear SNR factor of the 8PSK curve; keeps 8PSK at/above 16QAM.
PSK8_SNR_PENALTY = 0.97

# Most distances a generated table may hold: 250 times the default grid's 40.
MAX_TABLE_DISTANCES = 10_000


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


@dataclass
class TableModel:
    """Parameters of the synthetic BER model."""

    d_min_m: float = 0.5
    d_max_m: float = 20.0
    d_step_m: float = 0.5
    path_loss_exp: float = 2.0
    absorption_db_per_m: float = 0.3
    anchor_distance_m: float = 20.0
    anchor_ber: float = 0.0579

    def __post_init__(self) -> None:
        def bad(key, why):
            raise ValueError(f"invalid {key}: {why}")

        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                bad(f.name, f"must be finite, got {getattr(self, f.name)!r}")
        for key in ("d_min_m", "d_step_m", "anchor_distance_m"):
            if getattr(self, key) <= 0:
                bad(key, f"must be > 0, got {getattr(self, key)!r}")
        if self.d_max_m < self.d_min_m:
            bad("d_max_m", f"must be >= d_min_m = {self.d_min_m!r}, got {self.d_max_m!r}")
        count = (self.d_max_m - self.d_min_m) / self.d_step_m + 1
        if count > MAX_TABLE_DISTANCES:
            bad("d_step_m", f"{self.d_step_m!r} gives {count:.3g} distances from "
                f"{self.d_min_m:g} to {self.d_max_m:g} m, more than {MAX_TABLE_DISTANCES}")
        if not 0.0 < self.anchor_ber < 0.5:
            bad("anchor_ber", f"must lie in (0, 0.5), got {self.anchor_ber!r}")

    def distances(self) -> np.ndarray:
        count = int(round((self.d_max_m - self.d_min_m) / self.d_step_m)) + 1
        return self.d_min_m + self.d_step_m * np.arange(count)


def _ber_from_snr(mod: Modulation, snr: float) -> float:
    if mod is Modulation.BPSK:
        return q_function(math.sqrt(2.0 * snr))
    if mod is Modulation.QPSK:
        return q_function(math.sqrt(snr))
    if mod is Modulation.QAM16:
        return 0.75 * q_function(math.sqrt(snr / 5.0))
    if mod is Modulation.PSK8:
        return 0.75 * q_function(math.sqrt(PSK8_SNR_PENALTY * snr / 5.0))
    raise ValueError(mod)


def _calibrate_snr_ref_db(model: TableModel) -> float:
    """Choose snr_ref_db so the BPSK curve passes through the anchor point."""
    # Q(x) = anchor_ber at x = sqrt(2*snr), the normal quantile up to sign.
    snr_at_anchor = 0.5 * statistics.NormalDist().inv_cdf(model.anchor_ber) ** 2
    d = model.anchor_distance_m
    return (10.0 * math.log10(snr_at_anchor)
            + 10.0 * model.path_loss_exp * math.log10(d)
            + model.absorption_db_per_m * d)


def generate_table(model: TableModel | None = None) -> BerTable:
    """Build the synthetic default BerTable for the configured grid."""
    model = model or TableModel()
    snr_ref_db = _calibrate_snr_ref_db(model)
    distances = model.distances()
    values = {mod: np.empty(len(distances)) for mod in Modulation}
    for i, d in enumerate(distances):
        snr_db = (snr_ref_db
                  - 10.0 * model.path_loss_exp * math.log10(d)
                  - model.absorption_db_per_m * d)
        snr = 10.0 ** (snr_db / 10.0)
        for mod in Modulation:
            ber = min(_ber_from_snr(mod, snr), 0.5)
            values[mod][i] = 0.0 if ber < BER_FLOOR else ber
    return BerTable(distances, values)

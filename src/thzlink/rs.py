"""Systematic Reed-Solomon codec over GF(2^s) with shortened-code support.

A codeword carries K data bits and R redundant bits as (K+R)/s symbols.
The code is shortened from the full length 2^s - 1 by Z zero-pad symbols
that sit in front of the data symbols; they are never transmitted but are
implied (as zeros) during decoding.

The code is defined by its parity-check matrix H: row i (i = 1..r) holds
a^(i*p) at the position that carries x^p. The syndromes of a word are H
times the word, and encoding solves H c = 0 for the r parity symbols.
Decoding works on a batch of words: syndromes of every word, then, for the
words with nonzero syndromes together, the error-locator polynomial
(Berlekamp-Massey), error locations (Chien search), error values (Forney),
correction and re-verification. Single-error-correcting codes (r == 2) skip
the staged pipeline for a closed form.
"""

import functools
import math

import numpy as np

from .gf import get_field
from .modem import symbol_error_prob


# `bits_to_symbols` packs at most this many bits at a time (or one row).
PACK_SLICE = 1 << 19


def _check_symbol_size(s: int) -> None:
    # Symbols are built and split in uint16, so s is at most 16.
    if not 1 <= s <= 16:
        raise ValueError(f"symbol size s={s} outside 1..16")


def bits_to_symbols(bits: np.ndarray, s: int) -> np.ndarray:
    """Pack a bit array (MSB first within each symbol) into s-bit symbols.

    Returns uint16, the field's element type. Each row holds whole symbols,
    so a slice of whole rows is one stream of s-bit fields. It is packed
    into bytes once (`np.packbits`, MSB first), and eight symbols span s
    bytes: symbol j of a group is the big-endian 32-bit window at byte
    j*s // 8, shifted right by 32 - s - j*s % 8 and masked to s bits (it
    and its offset take at most s + 7 <= 23 of the 32). Rows are taken
    `PACK_SLICE` bits at a time (or one row), so the temporaries stay
    bounded whatever the block.
    """
    bits = np.asarray(bits)
    _check_symbol_size(s)
    n = bits.shape[-1]
    if n % s != 0:
        raise ValueError(f"bit length {n} not divisible by s={s}")
    rows = bits.reshape(math.prod(bits.shape[:-1]), n)
    per_row = n // s
    total = rows.shape[0] * per_row
    # A slice writes whole groups of eight symbols: up to 7 past its end,
    # which the next slice, or this padding, takes.
    out = np.empty(total + 7, dtype=np.uint16)
    j = np.arange(8)
    windows = j * s // 8
    shifts = (32 - s - j * s % 8).astype(np.uint32)
    step = max(1, PACK_SLICE // max(n, 1))
    for r0 in range(0, rows.shape[0], step):
        part = rows[r0:r0 + step]
        groups = -(-part.shape[0] * per_row // 8)
        packed = np.packbits(part)
        # Zero padding to whole groups, and 3 bytes more for the last window.
        buf = np.zeros(groups * s + 3, dtype=np.uint8)
        buf[:packed.size] = packed
        grid = np.ndarray((groups, s), dtype=">u4", buffer=buf, strides=(s, 1))
        first = r0 * per_row
        np.bitwise_and(grid[:, windows] >> shifts, (1 << s) - 1,
                       out=out[first:first + 8 * groups].reshape(groups, 8),
                       casting="unsafe")
    return out[:total].reshape(bits.shape[:-1] + (per_row,))


def symbols_to_bits(symbols: np.ndarray, s: int) -> np.ndarray:
    """Unpack s-bit symbols into a bit array (MSB first).

    Each bit position is shifted out of the symbols, as uint16, straight
    into its uint8 column, and one mask keeps the low bits.
    """
    _check_symbol_size(s)
    words = np.asarray(symbols, dtype=np.uint16)
    bits = np.empty(words.shape + (s,), dtype=np.uint8)
    for i in range(s):
        # The unsafe cast keeps the low byte; the mask below keeps its low bit.
        np.right_shift(words, s - 1 - i, out=bits[..., i], casting="unsafe")
    bits &= 1
    return bits.reshape(words.shape[:-1] + (words.shape[-1] * s,))


class ReedSolomonCodec:
    """Encoder/decoder for a fixed symbol size and parity budget.

    Instances precompute log H of the full-length code and the inverse of
    its parity-position block, and are immutable after construction, so one
    codec can serve any number of threads.
    """

    def __init__(self, s: int, r_symbols: int):
        if r_symbols < 1:
            raise ValueError("need at least one parity symbol")
        self.gf = get_field(s)
        self.s = s
        self.r_symbols = r_symbols
        self.t = r_symbols // 2
        qm1 = self.gf.order - 1
        if r_symbols >= qm1:
            raise ValueError("parity cannot fill the whole codeword")
        # log H at the full length, x-powers falling to 0. A word of L
        # symbols uses the last L columns, so the parity symbols carry
        # x^(r-1)..x^0 at every length and the last r columns serve them all.
        powers = np.arange(qm1 - 1, -1, -1, dtype=np.int64)
        i = np.arange(1, r_symbols + 1, dtype=np.int64)
        self._syndrome_logs = (i[:, None] * powers[None, :]) % qm1
        parity_block = self.gf.exp[self._syndrome_logs[:, qm1 - r_symbols:]]
        self._parity_inv_logs = self.gf.log[self.gf.inv_matrix(parity_block)]

    def _syndrome_log_matrix(self, k_symbols: int) -> np.ndarray:
        """log H of a word of k data symbols: a view of the full table."""
        qm1 = self.gf.order - 1
        length = k_symbols + self.r_symbols
        if not self.r_symbols < length <= qm1:
            raise ValueError(
                f"a word of {length} symbols does not fit a code with "
                f"{self.r_symbols} parity symbols over s={self.s}: need "
                f"{self.r_symbols} < length <= {qm1}")
        return self._syndrome_logs[:, qm1 - length:]

    # -- encoding ---------------------------------------------------------

    def encode_batch(self, data_bits: np.ndarray) -> np.ndarray:
        """Encode a (B, K) bit block; returns (B, K/s + r) transmitted symbols.

        With H = [H_d | H_p], parity is H_p^-1 H_d d: the data symbols'
        syndromes mapped to the parity that cancels them.
        """
        data_syms = bits_to_symbols(data_bits, self.s)
        k_symbols = data_syms.shape[-1]
        data_logs = self._syndrome_log_matrix(k_symbols)[:, :k_symbols]
        data_syn = self.gf.dot_logs(data_syms, data_logs)
        parity = self.gf.dot_logs(data_syn, self._parity_inv_logs)
        return np.concatenate([data_syms, parity], axis=-1)

    # -- decoding ---------------------------------------------------------

    def units(self, bits: np.ndarray) -> np.ndarray:
        """Bits as the units the correction budget counts: s-bit symbols."""
        return bits_to_symbols(bits, self.s)

    def decode_units(self, received: np.ndarray) -> tuple:
        """(decoded data symbols, ok, corrected) per row of a (B, L) block."""
        out, counts, ok = self.decode_symbols_batch(received)
        return out[:, :received.shape[1] - self.r_symbols], ok, counts > 0

    def unit_error_prob(self, p_e: float) -> float:
        return symbol_error_prob(p_e, self.s)

    def syndromes_batch(self, symbols: np.ndarray) -> np.ndarray:
        """Syndromes S_1..S_r for each row of a (B, k+r) symbol block."""
        mat = self._syndrome_log_matrix(symbols.shape[-1] - self.r_symbols)
        return self.gf.dot_logs(symbols, mat)

    def decode_symbols_batch(self, symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode a (B, k+r) symbol block, all dirty rows together.

        Returns (corrected symbols, per-row corrected count, per-row ok flag).
        Rows with zero syndromes are clean. Single-error-correcting codes
        (r == 2) solve the dirty rows in closed form; every other r runs the
        staged pipeline over them. A row that fails keeps its received
        symbols, except after a failed re-verification, where it keeps the
        rejected correction. The block keeps the dtype given, uint16 when
        packed. Each stage converts its operands to intp where it starts, so
        every table gather takes numpy's fast path, and dirty rows are found
        by ORing the r syndrome columns, not by a reduction along each row.
        """
        out = np.array(symbols, order="C")
        batch = out.shape[0]
        syn = self.syndromes_batch(out)
        corrected = np.zeros(batch, dtype=np.int64)
        ok = np.ones(batch, dtype=bool)
        idx = np.flatnonzero(_or_columns(syn))
        if self.r_symbols == 2:
            self._decode_single_error_rows(out, syn, idx, corrected, ok)
        else:
            self._decode_rows(out, syn, idx, corrected, ok)
        return out, corrected, ok

    def _decode_rows(self, out: np.ndarray, syn: np.ndarray, idx: np.ndarray,
                     corrected: np.ndarray, ok: np.ndarray) -> None:
        """Berlekamp-Massey, Chien, Forney and re-verification of rows `idx`.

        A row fails when its locator degree is 0 (nonzero syndromes that no
        error pattern of weight <= t explains) or exceeds t, when the locator
        has fewer roots among the L sent positions than its degree (a root in
        the zero-pad region counts as missing), when an error value comes
        out zero, or when the corrected word still has nonzero syndromes.
        Each stage gathers from the tables with intp operands.
        """
        gf = self.gf
        qm1 = gf.order - 1
        t = self.t
        length = out.shape[-1]
        ok[idx] = False
        syn = syn[idx].astype(np.intp)
        lam = self._berlekamp_massey(syn)
        degree = np.zeros(idx.size, dtype=np.int64)
        for k in range(1, lam.shape[1]):
            degree[lam[:, k] != 0] = k
        fits = (degree > 0) & (degree <= t)
        idx, syn, lam, degree = idx[fits], syn[fits], lam[fits, : t + 1], degree[fits]

        # Chien search: lam(alpha^-p) at every sent x-power p, one term
        # lam_k alpha^(-kp) at a time, from the logs of lam_k and alpha^-p.
        powers = -np.arange(length) % qm1
        lam_logs = gf.log[lam]
        acc = np.ones((lam.shape[0], length), dtype=gf.exp.dtype)
        for k in range(1, t + 1):
            acc ^= gf.exp[lam_logs[:, k:k + 1] + k * powers % qm1]
        roots = np.flatnonzero(acc == 0)
        row = roots // length
        pos = roots - row * length
        bad = np.bincount(row, minlength=idx.size) != degree

        # Forney: e = omega(X^-1) / lam'(X^-1), omega = S(x) lam(x) mod x^r.
        r = self.r_symbols
        omega = np.zeros((lam.shape[0], r), dtype=np.intp)
        for k in range(t + 1):
            omega[:, k:] ^= gf.mul_vec(syn[:, : r - k], lam[:, k:k + 1])
        deriv = np.where(np.arange(1, t + 1) % 2 == 1, lam[:, 1:], 0)
        x_inv = gf.exp[powers[pos]].astype(np.intp)
        num = self._eval_rows(omega[row], x_inv)
        den = self._eval_rows(deriv[row], x_inv)
        value = gf.div_vec(num, den)
        value[den == 0] = 0
        bad[row[value == 0]] = True
        keep = ~bad[row]
        # out is a C-ordered copy, so its flat view takes the corrections.
        out.reshape(-1)[idx[row[keep]] * length + length - 1 - pos[keep]] ^= value[keep]
        idx, degree = idx[~bad], degree[~bad]
        clean = _or_columns(self.syndromes_batch(out[idx])) == 0
        corrected[idx[clean]] = degree[clean]
        ok[idx[clean]] = True

    def _eval_rows(self, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Row i of ascending intp `coeffs` evaluated at intp x[i], by Horner."""
        acc = np.zeros(x.shape, dtype=np.intp)
        for k in range(coeffs.shape[1] - 1, -1, -1):
            acc = self.gf.mul_vec(acc, x) ^ coeffs[:, k]
        return acc

    def _berlekamp_massey(self, syn: np.ndarray) -> np.ndarray:
        """Error-locator polynomial of each row of intp syndromes, in lockstep.

        Returns ascending intp coefficients, (rows, r + 1), with lam[:, 0] == 1.
        `shifted` carries x^m B(x): the locator saved at the last length
        change, times x once per step since. The discrepancy is summed one
        coefficient column at a time.
        """
        gf = self.gf
        rows, r = syn.shape
        lam = np.zeros((rows, r + 1), dtype=np.intp)
        lam[:, 0] = 1
        shifted = np.zeros_like(lam)
        shifted[:, 1] = 1
        reg_len = np.zeros(rows, dtype=np.int64)
        b = np.ones(rows, dtype=np.intp)
        for n in range(r):
            d = syn[:, n].copy()
            for k in range(1, n + 1):
                d ^= gf.mul_vec(lam[:, k], syn[:, n - k])
            coef = gf.div_vec(d, b).astype(np.intp)
            grow = (d != 0) & (2 * reg_len <= n)
            saved = np.where(grow[:, None], lam, shifted)
            lam = lam ^ gf.mul_vec(coef[:, None], shifted)
            reg_len = np.where(grow, n + 1 - reg_len, reg_len)
            b = np.where(grow, d, b)
            shifted = np.zeros_like(saved)
            shifted[:, 1:] = saved[:, :-1]
        return lam

    def _decode_single_error_rows(self, out: np.ndarray, syn: np.ndarray,
                                  idx: np.ndarray, corrected: np.ndarray,
                                  ok: np.ndarray) -> None:
        """Closed form for r == 2: locator a^i = S2/S1, magnitude S1^2/S2."""
        gf = self.gf
        qm1 = gf.order - 1
        length = out.shape[-1]
        s1 = syn[:, 0][idx].astype(np.intp)
        s2 = syn[:, 1][idx].astype(np.intp)
        log1, log2 = gf.log[s1], gf.log[s2]
        pos = (log2 - log1) % qm1
        in_range = (s1 != 0) & (s2 != 0) & (pos < length)
        value = gf.exp[(2 * log1 - log2) % qm1]
        good = idx[in_range]
        # out is a C-ordered copy, so its flat view takes the corrections.
        out.reshape(-1)[good * length + length - 1 - pos[in_range]] ^= value[in_range]
        corrected[good] = 1
        ok[idx[~in_range]] = False


def _or_columns(block: np.ndarray) -> np.ndarray:
    """OR of a (B, m) block's columns, nonzero on its nonzero rows: m vector
    ORs, where a reduction along rows of m elements pays numpy's per-row cost."""
    return functools.reduce(np.bitwise_or, block.T)

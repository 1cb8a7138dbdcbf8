"""Per-word reference codecs: the oracles for the batched codecs in `thzlink`.

Each codec here handles one word at a time in plain Python, the way the
algorithms are written in textbooks. Beyond GF arithmetic and bit packing
they share no code with the library: RS encodes by long division by the
generator polynomial, where the library solves the parity-check equations,
and computes syndromes by Horner's rule. Differential tests hold the batched
codecs to these results exactly. `dot_logs` is the dense block product the
library used before its product followed the nonzero elements, and
`pack_symbols` the bit-by-bit packing it used before it packed bytes.
"""

from dataclasses import dataclass

import numpy as np

from thzlink.control import SCHEME_RS
from thzlink.gf import get_field
from thzlink.mdpc import DEFAULT_MAX_ITERATIONS
from thzlink.modem import symbol_error_prob, transmit
from thzlink.rs import ReedSolomonCodec, symbols_to_bits
from thzlink.sim import Outcomes, ResidualStats, _build_codec, binomial_tail_above

# -- GF(2^s) arithmetic on the library's log/antilog tables -------------------


def gf_mul(gf, a: int, b: int) -> int:
    return int(gf.exp[gf.log[a] + gf.log[b]])


def gf_div(gf, a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(2^s)")
    return int(gf.exp[gf.log[a] - gf.log[b] + gf.order - 1])


def gf_pow_alpha(gf, k: int) -> int:
    """alpha^k for the fixed primitive element alpha (k may be negative)."""
    return int(gf.exp[k % (gf.order - 1)])


def gf_pow(gf, a: int, k: int) -> int:
    if a == 0:
        return 0 if k > 0 else 1
    return int(gf.exp[(gf.log[a] * k) % (gf.order - 1)])


def dot_logs(gf, a: np.ndarray, log_mat: np.ndarray) -> np.ndarray:
    """Product a @ M.T of a (B, n) element block and M given as (m, n) logs.

    Returns (B, m) elements, uint16. It is built one output column at a
    time, so the largest temporary is (B, n), not (B, m, n).
    """
    logs = gf.log[a]
    out = np.empty((logs.shape[0], log_mat.shape[0]), dtype=gf.exp.dtype)
    for j, row in enumerate(log_mat):
        out[:, j] = np.bitwise_xor.reduce(gf.exp[logs + row], axis=1)
    return out


# -- bit packing --------------------------------------------------------------


def pack_symbols(bits, s: int) -> np.ndarray:
    """s-bit symbols (MSB first) of a bit array, as uint16.

    One bit position per pass: the accumulator is shifted left and the
    next bit of every symbol ORed in.
    """
    bits = np.asarray(bits)
    shaped = bits.reshape(bits.shape[:-1] + (bits.shape[-1] // s, s))
    out = shaped[..., 0].astype(np.uint16)
    for i in range(1, s):
        out <<= 1
        out |= shaped[..., i]
    return out


# -- Reed-Solomon -------------------------------------------------------------


def _poly_mul(gf, a: list, b: list) -> list:
    """Product of two polynomials given as coefficient lists, highest power first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] ^= gf_mul(gf, ca, cb)
    return out


def generator_poly(gf, r_symbols: int) -> list:
    """g(x) = (x - a^1)(x - a^2)...(x - a^r), coefficients highest power first."""
    g = [1]
    for i in range(1, r_symbols + 1):
        g = _poly_mul(gf, g, [1, gf_pow_alpha(gf, i)])
    return g


def longdiv_parity(data_syms, s, r):
    """Schoolbook long division of x^r * M(x) by g(x); returns the r parity symbols."""
    gf = get_field(s)
    g = generator_poly(gf, r)
    work = [int(v) for v in data_syms] + [0] * r
    for i in range(len(data_syms)):
        lead = work[i]
        if lead == 0:
            continue
        for j, gc in enumerate(g):
            work[i + j] ^= gf_mul(gf, lead, gc)
    return work[-r:]


@dataclass(frozen=True, eq=False)
class RsCodeword:
    """Transmitted symbols (data first, then parity) plus code geometry."""

    symbols: np.ndarray
    s: int
    k_symbols: int
    r_symbols: int
    zero_pad: int

    @property
    def k_bits(self) -> int:
        return self.k_symbols * self.s

    @property
    def r_bits(self) -> int:
        return self.r_symbols * self.s

    def to_bits(self) -> np.ndarray:
        return symbols_to_bits(self.symbols, self.s)

    def with_symbols(self, symbols: np.ndarray) -> "RsCodeword":
        return RsCodeword(np.asarray(symbols, dtype=np.int64), self.s,
                          self.k_symbols, self.r_symbols, self.zero_pad)

    @classmethod
    def from_bits(cls, bits: np.ndarray, s: int, k_symbols: int,
                  r_symbols: int) -> "RsCodeword":
        symbols = pack_symbols(np.asarray(bits), s)
        if symbols.shape[-1] != k_symbols + r_symbols:
            raise ValueError("bit length does not match the configured code")
        zero_pad = (1 << s) - 1 - (k_symbols + r_symbols)
        return cls(symbols, s, k_symbols, r_symbols, zero_pad)


@dataclass(frozen=True, eq=False)
class RsDecodeResult:
    data: np.ndarray
    corrected: int
    ok: bool

    @property
    def status(self) -> str:
        if not self.ok:
            return "uncorrectable"
        return "error-free" if self.corrected == 0 else "corrected"


class ScalarRsCodec:
    """One word at a time: long-division encoder and the staged decoder."""

    def __init__(self, s: int, r_symbols: int):
        self.gf = get_field(s)
        self.s = s
        self.r_symbols = r_symbols
        self.t = r_symbols // 2

    def encode(self, data_bits: np.ndarray) -> RsCodeword:
        data_syms = pack_symbols(np.asarray(data_bits), self.s)
        parity = longdiv_parity(data_syms, self.s, self.r_symbols)
        symbols = np.concatenate([data_syms, np.asarray(parity, dtype=np.int64)])
        zero_pad = self.gf.order - 1 - len(symbols)
        return RsCodeword(symbols, self.s, len(data_syms), self.r_symbols,
                          zero_pad)

    def syndromes(self, word: np.ndarray) -> list:
        """S_i = word(alpha^i) for i = 1..r, first symbol the highest power."""
        gf = self.gf
        out = []
        for i in range(1, self.r_symbols + 1):
            x = gf_pow_alpha(gf, i)
            acc = 0
            for sym in word:
                acc = gf_mul(gf, acc, x) ^ int(sym)
            out.append(acc)
        return out

    def decode(self, word: RsCodeword) -> RsDecodeResult:
        """Decode one received codeword, correcting up to r/2 symbol errors."""
        received = np.asarray(word.symbols, dtype=np.int64)
        if received.shape[-1] != word.k_symbols + self.r_symbols:
            raise ValueError("received word length does not match the code")
        corrected, n_err, ok = self.correct(received)
        data_bits = symbols_to_bits(corrected[: word.k_symbols], self.s)
        return RsDecodeResult(data_bits, n_err, ok)

    def correct(self, received: np.ndarray) -> tuple[np.ndarray, int, bool]:
        """(corrected word, corrected count, ok flag) for one received word."""
        received = np.asarray(received, dtype=np.int64)
        return self._correct_from_syndromes(received.copy(), self.syndromes(received))

    def _correct_from_syndromes(self, word: np.ndarray,
                                syndromes: list) -> tuple[np.ndarray, int, bool]:
        syn = [int(v) for v in syndromes]
        if not any(syn):
            return word, 0, True

        lam = self._berlekamp_massey(syn)
        n_errors = len(lam) - 1
        if n_errors > self.t:
            return word, 0, False

        positions = self._chien_search(lam)
        if len(positions) != n_errors:
            return word, 0, False
        length = word.shape[-1]
        if any(p >= length for p in positions):
            # An error in the zero-pad region is impossible: pads are not sent.
            return word, 0, False

        values = self._forney(syn, lam, positions)
        if any(v == 0 for v in values):
            return word, 0, False
        for pos, val in zip(positions, values):
            word[length - 1 - pos] ^= val

        if any(self.syndromes(word)):
            return word, 0, False
        return word, n_errors, True

    def _berlekamp_massey(self, syn: list) -> list:
        """Error-locator polynomial, ascending coefficients, lam[0] == 1."""
        gf = self.gf
        lam = [1]
        prev = [1]
        l = 0
        m = 1
        b = 1
        for n in range(len(syn)):
            d = syn[n]
            for i in range(1, l + 1):
                d ^= gf_mul(gf, lam[i], syn[n - i])
            if d == 0:
                m += 1
                continue
            coef = gf_div(gf, d, b)
            shifted = [0] * m + [gf_mul(gf, coef, c) for c in prev]
            if 2 * l <= n:
                old = lam[:]
                lam = [a ^ b2 for a, b2 in
                       zip(lam + [0] * (len(shifted) - len(lam)),
                           shifted + [0] * (len(lam) - len(shifted)))]
                l = n + 1 - l
                prev = old
                b = d
                m = 1
            else:
                lam = [a ^ b2 for a, b2 in
                       zip(lam + [0] * (len(shifted) - len(lam)),
                           shifted + [0] * (len(lam) - len(shifted)))]
                m += 1
        while len(lam) > 1 and lam[-1] == 0:
            lam.pop()
        return lam

    def _chien_search(self, lam: list) -> list:
        """x-powers i where lam(alpha^-i) == 0, i.e. the error positions."""
        gf = self.gf
        positions = []
        for i in range(gf.order - 1):
            acc = 0
            x = gf_pow_alpha(gf, -i)
            for k in range(len(lam) - 1, -1, -1):
                acc = gf_mul(gf, acc, x) ^ lam[k]
            if acc == 0:
                positions.append(i)
        return positions

    def _forney(self, syn: list, lam: list, positions: list) -> list:
        gf = self.gf
        # omega(x) = S(x) * lam(x) mod x^r, all ascending.
        omega = [0] * self.r_symbols
        for i, sv in enumerate(syn):
            if sv == 0:
                continue
            for j, lv in enumerate(lam):
                if i + j < self.r_symbols and lv != 0:
                    omega[i + j] ^= gf_mul(gf, sv, lv)
        # Formal derivative keeps odd-power terms only (characteristic 2).
        deriv = [lam[k] if k % 2 == 1 else 0 for k in range(1, len(lam))]
        values = []
        for pos in positions:
            x_inv = gf_pow_alpha(gf, -pos)
            num = self._eval_ascending(omega, x_inv)
            den = self._eval_ascending(deriv, x_inv)
            if den == 0:
                values.append(0)
            else:
                values.append(gf_div(gf, num, den))
        return values

    def _eval_ascending(self, poly: list, x: int) -> int:
        acc = 0
        for c in reversed(poly):
            acc = gf_mul(self.gf, acc, x) ^ c
        return acc


# -- MDPC ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MdpcBlock:
    """Coded hypercube of shape (m+1,) * n, dtype uint8."""

    cells: np.ndarray

    @property
    def n(self) -> int:
        return self.cells.ndim

    @property
    def m(self) -> int:
        return self.cells.shape[0] - 1

    @property
    def k_bits(self) -> int:
        return self.m ** self.n

    @property
    def r_bits(self) -> int:
        return (self.m + 1) ** self.n - self.m ** self.n

    def data_bits(self) -> np.ndarray:
        m = self.m
        return self.cells[(slice(0, m),) * self.n].reshape(-1).copy()

    def to_bits(self) -> np.ndarray:
        return self.cells.reshape(-1).copy()

    @classmethod
    def from_bits(cls, bits: np.ndarray, m: int, n: int) -> "MdpcBlock":
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.size != (m + 1) ** n:
            raise ValueError(f"expected {(m + 1) ** n} bits for m={m}, n={n}")
        return cls(bits.reshape((m + 1,) * n))


@dataclass(frozen=True, eq=False)
class MdpcDecodeResult:
    data: np.ndarray
    iterations: int
    flipped: int
    ok: bool

    @property
    def status(self) -> str:
        if not self.ok:
            return "uncorrectable"
        return "error-free" if self.flipped == 0 else "corrected"


def mdpc_encode(data_bits: np.ndarray, m: int, n: int) -> MdpcBlock:
    """Fill the data sub-cube and derive every parity cell.

    Parity cells are written one axis at a time; the reduction over each new
    axis already includes the previously written parities, which makes the
    parity-on-parity corners consistent (every line ends up even).
    """
    if m < 2 or n < 2:
        raise ValueError("need m >= 2 and n >= 2")
    data_bits = np.asarray(data_bits, dtype=np.uint8)
    if data_bits.size != m ** n:
        raise ValueError(f"expected {m ** n} data bits for m={m}, n={n}")
    cube = np.zeros((m + 1,) * n, dtype=np.uint8)
    cube[(slice(0, m),) * n] = data_bits.reshape((m,) * n)
    for axis in range(n):
        src = [slice(None)] * n
        src[axis] = slice(0, m)
        dst = [slice(None)] * n
        dst[axis] = m
        cube[tuple(dst)] = np.bitwise_xor.reduce(cube[tuple(src)], axis=axis)
    return MdpcBlock(cube)


def _fdm(cube: np.ndarray) -> np.ndarray:
    """Per-cell count of failing lines through that cell."""
    n = cube.ndim
    fdm = np.zeros(cube.shape, dtype=np.int16)
    for axis in range(n):
        line_parity = np.bitwise_xor.reduce(cube, axis=axis)
        fdm += np.expand_dims(line_parity, axis=axis)
    return fdm


def mdpc_decode(block: MdpcBlock,
                max_iterations: int = DEFAULT_MAX_ITERATIONS) -> MdpcDecodeResult:
    """Iterative decode: flip all max-FDM cells while the max is >= 2.

    Stops as soon as the maximum marker drops below 2 (a lone failing line
    cannot localize an error) or the iteration cap is hit. The result is
    error-free/corrected only when every line checks out at the end; the
    returned data always reflects the final cube state.
    """
    cube = block.cells.copy()
    iterations = 0
    flipped = 0
    while True:
        fdm = _fdm(cube)
        fmax = int(fdm.max())
        if fmax < 2:
            ok = fmax == 0
            break
        if iterations >= max_iterations:
            ok = False
            break
        mask = fdm == fmax
        cube ^= mask
        flipped += int(mask.sum())
        iterations += 1
    data = MdpcBlock(cube).data_bits()
    return MdpcDecodeResult(data, iterations, flipped, ok)


# -- one interval, every codeword sent -----------------------------------------


def codeword_outcomes(codec, k: int, flip_mask: np.ndarray,
                      rng: np.random.Generator) -> Outcomes:
    """Outcomes of a (B, n) block sent the long way, as the simulator once did.

    Every row carries fresh random data and is encoded; its coded bits are
    XORed with its row of `flip_mask` (RS symbols unpacked to bits and back)
    and decoded. Wrong data bits are counted on the decoded data bits.
    """
    batch = flip_mask.shape[0]
    data = rng.integers(0, 2, (batch, k), dtype=np.uint8)
    sent = codec.encode_batch(data)
    if isinstance(codec, ReedSolomonCodec):
        s = codec.s
        received = pack_symbols(symbols_to_bits(sent, s) ^ flip_mask, s)
        out, changed, ok = codec.decode_symbols_batch(received)
        decoded = symbols_to_bits(out[:, : k // s], s)
    else:
        decoded, _, changed, ok = codec.decode_batch(sent ^ flip_mask)
    changed = changed > 0
    return Outcomes(sent=batch,
                    error_free=int(np.count_nonzero(ok & ~changed)),
                    corrected=int(np.count_nonzero(ok & changed)),
                    failed=int(np.count_nonzero(~ok)),
                    wrong_bits=int(np.count_nonzero(decoded != data)),
                    data_bits=batch * k)


# -- the residual-error experiment, every codeword carrying data ----------------


def codeword_residual_stats(config, p_e: float, generations: int, seed: int,
                            batch_size: int = 2000,
                            mdpc_max_iterations: int = DEFAULT_MAX_ITERATIONS
                            ) -> ResidualStats:
    """`residual_error_experiment` sent the long way, as it once ran.

    Each batch carries random data from its own stream and is encoded; the
    coded bits (RS symbols unpacked) pass through the channel, are packed
    again and decoded. A generation is wrong when its decoded data differs
    from the sent data, and its injected units are the received units that
    differ from the sent ones.
    """
    rng_data = np.random.default_rng([seed, 1])
    rng_channel = np.random.default_rng([seed, 2])
    k = config.k_bits
    codec = _build_codec(config, mdpc_max_iterations)
    t_budget = codec.t
    s = config.s
    rs = config.scheme == SCHEME_RS
    if rs:
        n_units = (k + config.r_bits) // s
        unit_p = symbol_error_prob(p_e, s)
    else:
        n_units = k + config.r_bits
        unit_p = p_e

    within_failures = 0
    exceed = 0
    failures = 0
    done = 0
    while done < generations:
        batch = min(batch_size, generations - done)
        data = rng_data.integers(0, 2, (batch, k), dtype=np.uint8)
        sent = codec.encode_batch(data)
        if rs:
            received = pack_symbols(
                transmit(symbols_to_bits(sent, s), p_e, rng_channel), s)
            out, _, _ = codec.decode_symbols_batch(received)
            wrong = np.any(out[:, : k // s] != sent[:, : k // s], axis=1)
        else:
            received = transmit(sent, p_e, rng_channel)
            wrong = np.any(codec.decode_batch(received)[0] != data, axis=1)
        injected = np.count_nonzero(received != sent, axis=1)
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

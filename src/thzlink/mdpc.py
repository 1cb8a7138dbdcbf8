"""Multidimensional parity-check code: hypercube encoder and iterative decoder.

Data bits fill an n-dimensional cube of side m; every axis-aligned line gets
one even-parity bit, so the coded block is a cube of side m+1 carrying
(m+1)^n - m^n redundant bits. The decoder counts, per cell, how many of the
n lines through it fail (the failed-dimension marker) and repeatedly flips
all cells holding the maximum count while that maximum is at least 2.
"""

import numpy as np

DEFAULT_MAX_ITERATIONS = 10


def parity_bits_for(m: int, n: int) -> int:
    return (m + 1) ** n - m ** n


def correctable_bits_for(n: int) -> int:
    """Guaranteed correction capability: 2^(n-1) - 1 bit errors."""
    return 2 ** (n - 1) - 1


def _fdm(cubes: np.ndarray) -> np.ndarray:
    """Per-cell count of failing lines through that cell, for each cube.

    Axis 0 indexes the cubes. The per-axis line parities are summed by
    broadcasting, so no full-size accumulator is filled first.
    """
    fdm = 0
    for axis in range(1, cubes.ndim):
        line_parity = np.bitwise_xor.reduce(cubes, axis=axis).astype(np.int16)
        fdm = fdm + np.expand_dims(line_parity, axis=axis)
    return fdm


class MdpcCodec:
    """Fixed-geometry wrapper with batched encode/decode for the simulator."""

    def __init__(self, m: int, n: int, max_iterations: int = DEFAULT_MAX_ITERATIONS):
        if m < 2 or n < 2:
            raise ValueError("need m >= 2 and n >= 2")
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations!r}")
        self.m = m
        self.n = n
        self.max_iterations = max_iterations
        self.t = correctable_bits_for(n)
        self.k_bits = m ** n
        self.r_bits = parity_bits_for(m, n)

    def encode_batch(self, data_bits: np.ndarray) -> np.ndarray:
        """Encode (B, m^n) data bits into (B, (m+1)^n) transmitted bits.

        Parity cells are written one axis at a time; the reduction over each
        new axis already includes the previously written parities, which
        makes the parity-on-parity corners consistent (every line ends up
        even).
        """
        data_bits = np.asarray(data_bits, dtype=np.uint8)
        batch = data_bits.shape[0]
        m, n = self.m, self.n
        cubes = np.zeros((batch,) + (m + 1,) * n, dtype=np.uint8)
        cubes[(slice(None),) + (slice(0, m),) * n] = data_bits.reshape((batch,) + (m,) * n)
        for axis in range(1, n + 1):
            src = [slice(None)] * (n + 1)
            src[axis] = slice(0, m)
            dst = [slice(None)] * (n + 1)
            dst[axis] = m
            cubes[tuple(dst)] = np.bitwise_xor.reduce(cubes[tuple(src)], axis=axis)
        return cubes.reshape(batch, -1)

    def units(self, bits: np.ndarray) -> np.ndarray:
        """Bits as the units the correction budget counts: bits."""
        return bits

    def decode_units(self, received: np.ndarray) -> tuple:
        """(decoded data bits, ok, corrected) per row of a (B, n) block."""
        decoded, _, flips, ok = self.decode_batch(received)
        return decoded, ok, flips > 0

    def unit_error_prob(self, p_e: float) -> float:
        return p_e

    def decode_batch(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Decode (B, (m+1)^n) received bits, all rows together.

        Returns (data bits (B, m^n), iterations, flipped counts, ok flags).
        Each round recomputes the markers of the rows still live and flips,
        in each, every cell holding that row's maximum, while the maximum is
        at least 2 and the row is under the iteration cap. A row is ok only
        when every line checks out; its data is the final cube state either
        way.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        batch = bits.shape[0]
        m, n = self.m, self.n
        cells = tuple(range(1, n + 1))
        cubes = sub = bits.reshape((batch,) + (m + 1,) * n).copy()
        iters = np.zeros(batch, dtype=np.int64)
        flips = np.zeros(batch, dtype=np.int64)
        ok = np.zeros(batch, dtype=bool)
        idx = np.arange(batch)  # the rows still decoding; sub holds their cubes
        for round_no in range(self.max_iterations + 1):
            fdm = _fdm(sub)
            fmax = fdm.max(axis=cells)
            done = fmax < 2
            ok[idx[done]] = fmax[done] == 0
            live = ~done
            idx, sub, fdm, fmax = idx[live], sub[live], fdm[live], fmax[live]
            if idx.size == 0 or round_no == self.max_iterations:
                break  # at the cap the live rows' ok stays False
            mask = fdm == fmax.reshape((-1,) + (1,) * n)
            sub ^= mask
            cubes[idx] = sub
            flips[idx] += mask.sum(axis=cells)
            iters[idx] += 1
        data = cubes[(slice(None),) + (slice(0, m),) * n].reshape(batch, -1)
        return data, iters, flips, ok

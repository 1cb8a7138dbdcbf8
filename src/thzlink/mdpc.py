"""Multidimensional parity-check code: hypercube encoder and iterative decoder.

Data bits fill an n-dimensional cube of side m; every axis-aligned line gets
one even-parity bit, so the coded block is a cube of side m+1 carrying
(m+1)^n - m^n redundant bits. The decoder counts, per cell, how many of the
n lines through it fail (the failed-dimension marker) and repeatedly flips
all cells holding the maximum count while that maximum is at least 2. It
keeps the line parities, the syndrome, rather than the cube: they are counted
once from the set bits, and each round's flips toggle them.
"""

import numpy as np

DEFAULT_MAX_ITERATIONS = 10


def _line_parities(rows: np.ndarray, cells: np.ndarray, n_rows: int,
                   side: int, n: int) -> np.ndarray:
    """(n, side^(n-1), n_rows) parities of the lines through the (row, cell)
    pairs: per axis, a cell's line is its cube coordinates without that axis,
    laid out as `np.bitwise_xor.reduce` over the axis lays them out. Rows
    are the last axis, so the marker sums run over contiguous rows."""
    lines = side ** (n - 1)
    parity = np.empty((n, lines, n_rows), dtype=np.uint8)
    for axis in range(n):
        stride = side ** (n - 1 - axis)
        line = cells // (stride * side) * stride + cells % stride
        parity[axis] = (np.bincount(line * n_rows + rows, minlength=lines * n_rows) & 1).reshape(lines, n_rows)
    return parity


class MdpcCodec:
    """Fixed-geometry wrapper with batched encode/decode for the simulator."""

    # Most received bits the data plane hands `decode_units` at once (or one
    # row). The decoder's workspace takes 12-29 B per bit at p_e 0.05-0.5,
    # so a slice stays within about 60 MB; codec-sweep's (2000, 961)
    # MDPC(30,2) batches still decode as one slice.
    slice_bits = 2 ** 21

    def __init__(self, m: int, n: int, max_iterations: int = DEFAULT_MAX_ITERATIONS):
        if m < 2 or n < 2:
            raise ValueError("need m >= 2 and n >= 2")
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations!r}")
        self.m = m
        self.n = n
        self.max_iterations = max_iterations
        self.t = 2 ** (n - 1) - 1  # guaranteed correction capability, in bits
        self.k_bits = m ** n
        self.r_bits = (m + 1) ** n - m ** n
        # Cell -> its index among the data cells, -1 on a parity cell.
        inside = (np.indices((m + 1,) * n).reshape(n, -1) < m).all(axis=0)
        self._data_index = np.full(inside.size, -1, dtype=np.intp)
        self._data_index[inside] = np.arange(self.k_bits)

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
        return cubes.reshape(batch, (m + 1) ** n)

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
        """Decode (B, (m+1)^n) received bits.

        Returns (data bits (B, m^n), iterations, flipped counts, ok flags).
        Each round a cell's marker is the sum of the carried parities of its
        n lines; every row still live flips each cell holding the row's
        maximum, while that maximum is at least 2 and the row is under the
        iteration cap. A row whose flips toggle no parity would flip the same
        cells every round, so it ends at once with the result of the cap. A
        row is ok only when every line checks out; its data is the final
        cube state either way. Rows with no set bit finish at once: when the
        zero word is sent, only the rows with a flip are decoded.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        m, n, cap = self.m, self.n, self.max_iterations
        side = m + 1
        width = side ** n
        if bits.ndim != 2 or bits.shape[1] != width:
            raise ValueError(f"MDPC({m},{n}) decodes (B, {width}) blocks, got shape {bits.shape}")
        batch, k = bits.shape[0], self.k_bits
        # The data cells, copied once: the output. Flips that land on them
        # are XORed in below; `bits` itself is never written.
        inside = (slice(None),) + (slice(0, m),) * n
        data = np.empty((batch, k), dtype=np.uint8)
        data.reshape((batch,) + (m,) * n)[...] = bits.reshape((batch,) + (side,) * n)[inside]
        iters = np.zeros(batch, dtype=np.int64)
        flips = np.zeros(batch, dtype=np.int64)
        ok = np.ones(batch, dtype=bool)
        rows, cells = np.divmod(np.flatnonzero(bits.view(bool)), width)
        first = np.ones(rows.size, dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        idx = rows[first]  # the rows still decoding; parities holds their lines
        ok[idx] = False
        parities = _line_parities(np.cumsum(first) - 1, cells, idx.size, side, n)
        for round_no in range(cap + 1):
            if idx.size == 0:
                break
            per_axis = parities.reshape((n,) + (side,) * (n - 1) + (idx.size,))
            marker = sum(np.expand_dims(p, axis) for axis, p in enumerate(per_axis))
            marker = marker.reshape(width, idx.size)
            fmax = marker.max(axis=0)
            done = fmax < 2
            ok[idx[done]] = fmax[done] == 0
            if round_no == cap:
                break  # the live rows' ok stays False
            fmax[done] = n + 1  # above any marker: finished rows flip nothing
            hit_cells, hit_rows = np.divmod(np.flatnonzero(marker == fmax), idx.size)
            del marker
            toggles = _line_parities(hit_rows, hit_cells, idx.size, side, n)
            moved = toggles.any(axis=(0, 1))
            # A row whose flips toggle no parity repeats this round up to the cap.
            steps = np.where(done, 0, np.where(moved, 1, cap - round_no))
            flips[idx] += np.bincount(hit_rows, minlength=idx.size) * steps
            iters[idx] += steps
            odd = steps[hit_rows] % 2 == 1
            cell = self._data_index[hit_cells[odd]]
            on_data = cell >= 0
            data.reshape(-1)[idx[hit_rows[odd][on_data]] * k + cell[on_data]] ^= 1
            idx, parities = idx[moved], np.compress(moved, parities ^ toggles, axis=2)
        return data, iters, flips, ok

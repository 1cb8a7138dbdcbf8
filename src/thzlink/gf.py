"""Finite field arithmetic for GF(2^s) with precomputed log/antilog tables."""

import functools

import numpy as np

# One fixed primitive polynomial per symbol size, written with the x^s term
# included (e.g. s=8 is x^8 + x^4 + x^3 + x^2 + 1 = 0x11d).
PRIMITIVE_POLYS = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
}


class GF:
    """GF(2^s): addition is XOR, multiplication via log/antilog tables.

    Elements are integers in [0, 2^s - 1], held as uint16, the dtype of
    `exp`; only logs are int64. The tables are built once at construction;
    instances are immutable afterwards and safe to share between threads.
    """

    def __init__(self, s: int):
        if s not in PRIMITIVE_POLYS:
            raise ValueError(f"no primitive polynomial configured for s={s}")
        self.s = s
        self.order = 1 << s
        self.poly = PRIMITIVE_POLYS[s]
        q = self.order
        # log(0) is a sentinel past every sum of two real logs, and exp is
        # zero from the sentinel on, so a table product with a zero operand
        # (or a quotient of zero) is zero without a mask. Below the sentinel
        # exp runs through the cycle twice, so a sum of two real logs never
        # needs a mod.
        zero_log = 2 * (q - 1)
        # exp is uint16 (s <= 12), so a table product is 2 bytes per element;
        # log stays int64, so sums of logs cannot wrap.
        exp = np.zeros(2 * zero_log + 1, dtype=np.uint16)
        log = np.full(q, zero_log, dtype=np.int64)
        x = 1
        for i in range(q - 1):
            exp[i] = exp[i + q - 1] = x
            log[x] = i
            x <<= 1
            if x & q:
                x ^= self.poly
        self.exp = exp
        self.log = log

    def __repr__(self) -> str:
        return f"GF(2^{self.s})"

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of two arrays of field elements, as uint16.

        Operands of any integer dtype give the same values; intp operands
        take numpy's fast gather, so callers convert them where a stage starts.
        """
        return self.exp[self.log[a] + self.log[b]]

    def div_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise quotient a / b of field elements, b nonzero, as uint16.

        The log sum stays below the sentinel for a nonzero and past it for a zero.
        """
        return self.exp[self.log[a] + (self.order - 1 - self.log[b])]

    def dot_logs(self, a: np.ndarray, log_mat: np.ndarray) -> np.ndarray:
        """Product a @ M.T of a (B, n) element block and M given as (m, n) logs.

        Returns (B, m) elements, uint16. Only nonzero elements are multiplied.
        """
        batch, n = a.shape
        out = np.zeros((batch, log_mat.shape[0]), dtype=self.exp.dtype)
        flat_a = a.ravel()
        # A bool mask and intp indices take numpy's fast paths.
        flat = np.flatnonzero(flat_a != 0)
        if flat.size == 0:
            return out
        rows = flat // n
        cols = flat - rows * n
        logs = self.log[flat_a[flat].astype(np.intp)]
        # Each row's run of nonzeros starts where its row index changes.
        starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
        hit = rows[starts]
        for j, row in enumerate(log_mat):
            out[:, j][hit] = np.bitwise_xor.reduceat(self.exp[logs + row[cols]], starts)
        return out

    def inv_matrix(self, mat: np.ndarray) -> np.ndarray:
        """Inverse of a square matrix of field elements, by Gauss-Jordan."""
        mat = np.asarray(mat, dtype=self.exp.dtype)
        n = mat.shape[0]
        if mat.shape != (n, n):
            raise ValueError(f"matrix of shape {mat.shape} is not square")
        aug = np.concatenate([mat, np.eye(n, dtype=mat.dtype)], axis=1)
        for col in range(n):
            nonzero = np.flatnonzero(aug[col:, col])
            if nonzero.size == 0:
                raise ValueError("matrix is singular over GF(2^s)")
            pivot = col + nonzero[0]
            aug[[col, pivot]] = aug[[pivot, col]]
            aug[col] = self.div_vec(aug[col], aug[col, col])
            factors = aug[:, col].copy()
            factors[col] = 0
            aug ^= self.mul_vec(factors[:, None], aug[col][None, :])
        return aug[:, n:]


@functools.lru_cache(maxsize=None)
def get_field(s: int) -> GF:
    """Shared GF(2^s) instance (tables are built once per symbol size)."""
    return GF(s)

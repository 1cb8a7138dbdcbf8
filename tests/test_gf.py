import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import rs_config
from reference_codecs import dot_logs, gf_div, gf_mul, gf_pow, gf_pow_alpha
from thzlink.gf import GF, PRIMITIVE_POLYS, get_field
from thzlink.rs import ReedSolomonCodec, symbols_to_bits
from thzlink.sim import _carry


def slow_mul(a: int, b: int, s: int) -> int:
    """Independent oracle: carry-less multiply, then reduce mod the primitive poly."""
    poly = PRIMITIVE_POLYS[s]
    prod = 0
    for i in range(s):
        if (b >> i) & 1:
            prod ^= a << i
    for deg in range(2 * s - 2, s - 1, -1):
        if (prod >> deg) & 1:
            prod ^= poly << (deg - s)
    return prod


@pytest.mark.parametrize("s", [2, 3, 4])
def test_mul_matches_slow_oracle_exhaustive(s):
    gf = get_field(s)
    q = 1 << s
    for a in range(q):
        for b in range(q):
            assert gf_mul(gf, a, b) == slow_mul(a, b, s)


def test_mul_matches_slow_oracle_random_gf256(rng):
    gf = get_field(8)
    for _ in range(2000):
        a, b = int(rng.integers(0, 256)), int(rng.integers(0, 256))
        assert gf_mul(gf, a, b) == slow_mul(a, b, 8)


@pytest.mark.parametrize("s", [3, 4, 8])
def test_field_axioms(s, rng):
    gf = get_field(s)
    q = gf.order
    for _ in range(500):
        a, b, c = (int(x) for x in rng.integers(0, q, 3))
        assert gf_mul(gf, a, b) == gf_mul(gf, b, a)
        assert gf_mul(gf, a, gf_mul(gf, b, c)) == gf_mul(gf, gf_mul(gf, a, b), c)
        assert gf_mul(gf, a, b ^ c) == gf_mul(gf, a, b) ^ gf_mul(gf, a, c)
        assert a ^ a == 0  # addition is self-inverse
        assert gf_mul(gf, a, 1) == a
        assert 0 <= gf_mul(gf, a, b) < q


@pytest.mark.parametrize("s", [2, 3, 4, 8, 12])
def test_every_nonzero_element_has_inverse(s):
    gf = get_field(s)
    for a in range(1, gf.order):
        inv = gf.inv_matrix([[a]])
        assert inv.shape == (1, 1)
        assert gf_mul(gf, a, int(inv[0, 0])) == 1


def test_log_exp_consistency():
    gf = get_field(8)
    seen = set()
    for k in range(255):
        v = gf_pow_alpha(gf, k)
        assert gf.log[v] == k
        seen.add(v)
    assert len(seen) == 255  # alpha generates all nonzero elements


def test_div_and_inv_reject_zero():
    gf = get_field(4)
    with pytest.raises(ZeroDivisionError):
        gf_div(gf, 3, 0)
    with pytest.raises(ValueError, match="singular"):
        gf.inv_matrix([[0]])
    assert all(gf_div(gf, 0, b) == 0 for b in range(1, 16))


def test_pow():
    gf = get_field(4)
    for a in range(1, 16):
        acc = 1
        for k in range(1, 6):
            acc = gf_mul(gf, acc, a)
            assert gf_pow(gf, a, k) == acc
    assert gf_pow(gf, 0, 3) == 0
    assert gf_pow(gf, 0, 0) == 1


def test_mul_vec_matches_scalar(rng):
    gf = get_field(8)
    a = rng.integers(0, 256, 300)
    b = rng.integers(0, 256, 300)
    a[:20] = 0
    b[10:30] = 0  # zero a, zero b, and both zero
    out = gf.mul_vec(a, b)
    assert not out[:30].any()
    for i in range(300):
        assert out[i] == gf_mul(gf, int(a[i]), int(b[i]))


@pytest.mark.parametrize("s", [2, 3, 4, 8])
def test_div_vec_matches_scalar_exhaustive(s):
    # Every dividend, zero included, over every nonzero divisor.
    gf = get_field(s)
    a, b = np.meshgrid(np.arange(gf.order), np.arange(1, gf.order), indexing="ij")
    out = gf.div_vec(a, b)
    assert out.dtype == np.uint16
    assert out.tolist() == [[gf_div(gf, x, y) for y in range(1, gf.order)]
                            for x in range(gf.order)]


@pytest.mark.parametrize("s", [2, 3, 8, 12])
def test_dot_logs_matches_scalar_sums(s, rng):
    gf = get_field(s)
    a = rng.integers(0, gf.order, (6, 9))
    mat = rng.integers(0, gf.order, (4, 9))
    a[0] = 0
    a[1:, 2] = 0
    mat[1] = 0
    mat[:, 5] = 0
    out = gf.dot_logs(a, gf.log[mat])
    assert out.shape == (6, 4)
    for b in range(6):
        for j in range(4):
            acc = 0
            for i in range(9):
                acc ^= gf_mul(gf, int(a[b, i]), int(mat[j, i]))
            assert out[b, j] == acc


def _block(gf, shape, density, rng):
    """Random elements, each nonzero with probability `density`."""
    return rng.integers(1, gf.order, shape) * (rng.random(shape) < density)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(s=st.integers(2, 12), batch=st.integers(0, 40), n=st.integers(1, 40),
       m=st.integers(1, 6), density=st.sampled_from([0.0, 0.05, 0.5, 0.92, 1.0]),
       dtype=st.sampled_from([np.int64, np.uint16]), seed=st.integers(0, 2 ** 32 - 1))
@example(s=8, batch=0, n=5, m=3, density=1.0, dtype=np.uint16, seed=0)
@example(s=12, batch=9, n=1, m=2, density=0.5, dtype=np.int64, seed=1)
def test_dot_logs_matches_dense_reference(s, batch, n, m, density, dtype, seed):
    gf = get_field(s)
    rng = np.random.default_rng(seed)
    a = _block(gf, (batch, n), density, rng).astype(dtype)
    log_mat = gf.log[rng.integers(0, gf.order, (m, n))]
    out = gf.dot_logs(a, log_mat)
    assert out.dtype == np.uint16 and out.shape == (batch, m)
    assert np.array_equal(out, dot_logs(gf, a, log_mat))


@pytest.mark.parametrize("s,shape,density", [
    (12, (40, 4095), 0.92), (12, (40, 4095), 1.0), (12, (40, 4095), 0.0),
    (12, (40, 4095), 1e-3), (4, (9000, 15), 0.5), (8, (300, 255), 1.0)])
def test_dot_logs_matches_dense_reference_over_several_slices(s, shape, density, flush,
                                                               monkeypatch):
    # Full-length RS words received as these symbols. Each block holds more
    # than `slice_bits`, and no row count fills a slice exactly, so the
    # simulator's entry hands the decoder several slices, the last one
    # short. Its outcomes equal the whole block's on the dense product.
    gf = get_field(s)
    rng = np.random.default_rng(61)
    mask = symbols_to_bits(_block(gf, shape, density, rng), s)
    slice_bits = ReedSolomonCodec.slice_bits
    assert mask.size > slice_bits and slice_bits % mask.shape[1]
    codec = ReedSolomonCodec(s, 2)
    with monkeypatch.context() as patch:
        patch.setattr(GF, "dot_logs", dot_logs)
        whole = _carry(codec, s * (shape[1] - 2), codec.units(mask))
    assert flush(rs_config(s, 2, shape[1]), mask) == whole


@pytest.mark.parametrize("s", [2, 3, 4, 8, 12])
def test_inv_matrix_times_matrix_is_identity(s, rng):
    gf = get_field(s)
    for n in (1, 2, 3, 5):
        while True:
            mat = rng.integers(0, gf.order, (n, n))
            try:
                inv = gf.inv_matrix(mat)
                break
            except ValueError:
                continue  # singular draw
        # (inv @ mat)[i, j] = sum_k inv[i, k] mat[k, j]
        assert np.array_equal(gf.dot_logs(inv, gf.log[mat.T]), np.eye(n, dtype=np.int64))


def test_inv_matrix_rejects_singular_and_non_square():
    gf = get_field(4)
    with pytest.raises(ValueError, match="singular"):
        gf.inv_matrix([[1, 2], [2, gf_mul(gf, 2, 2)]])  # second row = 2 * first
    with pytest.raises(ValueError, match="square"):
        gf.inv_matrix([[1, 2, 3], [4, 5, 6]])


def test_unknown_symbol_size_rejected():
    with pytest.raises(ValueError):
        GF(13)


def test_get_field_is_cached():
    assert get_field(8) is get_field(8)

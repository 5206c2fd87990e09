import numpy as np
import pytest

from noisekey.gf import PRIMITIVE_POLYS, build_field


def shift_reduce_mul(a, b, poly, m):
    """Independent carry-less multiply with polynomial reduction."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & (1 << m):
            a ^= poly
    return out


def test_tables_are_a_permutation(gf256):
    assert sorted(gf256.exp_ext[:255].tolist()) == list(range(1, 256))
    for i in range(255):
        assert gf256.log_ext[gf256.exp_ext[i]] == i


def test_degree_two_field():
    fld = build_field(2, 0x7)
    assert fld.order == 4
    assert sorted(fld.exp_ext[:3].tolist()) == [1, 2, 3]


def test_reducible_polynomial_rejected():
    with pytest.raises(ValueError):
        build_field(8, 0x101)  # x^8 + 1 factors, cycle collapses


def test_fields_are_built_once_and_bad_polynomials_raise_every_time():
    assert build_field(5, 0x25) is build_field(5, 0x25)
    for _ in range(3):
        with pytest.raises(ValueError, match="not primitive"):
            build_field(8, 0x101)
        with pytest.raises(ValueError, match="degree"):
            build_field(8, 0xB)


def test_wrong_degree_rejected():
    with pytest.raises(ValueError):
        build_field(8, 0xB)
    with pytest.raises(ValueError):
        build_field(1, 0x3)


@pytest.mark.parametrize("m", sorted(PRIMITIVE_POLYS))
def test_default_polys_are_primitive(m):
    fld = build_field(m)
    assert sorted(fld.exp_ext[: (1 << m) - 1].tolist()) == list(range(1, 1 << m))


def test_add_examples():
    assert 0x57 ^ 0x57 == 0x00
    assert 0xA3 ^ 0 == 0xA3
    assert 0x57 ^ 0x83 == 0xD4


def test_mul_examples(gf256):
    rng = np.random.default_rng(1)
    for a in rng.integers(0, 256, size=20):
        assert gf256.mul(int(a), 1) == int(a)
        assert gf256.mul(int(a), 0) == 0
    assert gf256.mul(0x02, 0x80) == shift_reduce_mul(0x02, 0x80, 0x11D, 8) == 0x1D


@pytest.mark.parametrize("m", [2, 3])
def test_mul_matches_shift_reduce_exhaustively(m):
    fld = build_field(m)
    for a in range(fld.order):
        for b in range(fld.order):
            assert fld.mul(a, b) == shift_reduce_mul(a, b, fld.primitive_poly, m)


def test_mul_matches_shift_reduce_sampled(gf256):
    rng = np.random.default_rng(2)
    for _ in range(2000):
        a, b = int(rng.integers(0, 256)), int(rng.integers(0, 256))
        assert gf256.mul(a, b) == shift_reduce_mul(a, b, 0x11D, 8)


def table_inverse(fld, a):
    """a^-1 = alpha^(-log a), read off the field's exp/log tables."""
    return int(fld.exp_ext[-fld.log_ext[a] % fld.mul_order])


def test_inv_examples(gf256):
    assert table_inverse(gf256, 1) == 1
    assert table_inverse(gf256, 0x02) == 0x8E
    assert gf256.mul(0x02, 0x8E) == 1


@pytest.mark.parametrize("m", [2, 3, 8])
def test_inverse_exhaustive(m):
    fld = build_field(m)
    for a in range(1, fld.order):
        assert fld.mul(a, table_inverse(fld, a)) == 1


def test_field_axioms_sampled(gf256):
    rng = np.random.default_rng(3)
    triples = rng.integers(0, 256, size=(100_000, 3))
    for a, b, c in triples[:2000]:
        a, b, c = int(a), int(b), int(c)
        assert gf256.mul(a, b) == gf256.mul(b, a)
        assert gf256.mul(a, gf256.mul(b, c)) == gf256.mul(gf256.mul(a, b), c)
        assert gf256.mul(a, b ^ c) == gf256.mul(a, b) ^ gf256.mul(a, c)
    # the full batch, vectorized
    a, b, c = triples[:, 0], triples[:, 1], triples[:, 2]
    assert (gf256.mul_vec(a, b) == gf256.mul_vec(b, a)).all()
    assert (gf256.mul_vec(a, gf256.mul_vec(b, c)) == gf256.mul_vec(gf256.mul_vec(a, b), c)).all()
    assert (gf256.mul_vec(a, b ^ c) == (gf256.mul_vec(a, b) ^ gf256.mul_vec(a, c))).all()


def test_add_self_inverse():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a, b = int(rng.integers(0, 256)), int(rng.integers(0, 256))
        assert (a ^ b) ^ b == a


def test_poly_eval_vectorized_matches_horner():
    for m in (3, 5, 8):
        fld = build_field(m)
        rng = np.random.default_rng(5 * m)
        logs = np.arange(fld.mul_order)
        polys = [[], [0], [0, 0, 0], [1], [0, 3]]
        polys += [[int(v) for v in rng.integers(0, fld.order, size=size)] for size in (2, 5, 12)]
        polys += [[int(v) if i % 3 else 0 for i, v in enumerate(rng.integers(1, fld.order, size=9))]]
        powers = np.arange(12)[:, None] * logs % fld.mul_order     # [d, j]: log of x_j^d
        for coeffs in polys:
            vec = fld.eval_poly_at_powers(coeffs, powers)
            assert vec.shape == logs.shape
            for i, lg in enumerate(logs):
                x = fld.pow_alpha(int(lg))
                acc = 0
                for c in reversed(coeffs):
                    acc = shift_reduce_mul(acc, x, fld.primitive_poly, m) ^ c
                assert vec[i] == acc


@pytest.mark.parametrize("m", [3, 8, 10])
def test_a_stack_of_polynomials_evaluates_as_its_rows(m):
    fld = build_field(m)
    rng = np.random.default_rng(7 * m)
    powers = (np.arange(9)[:, None] * rng.integers(0, fld.mul_order, 20) % fld.mul_order).astype(np.uint16)
    for count in (0, 1, 4, 9):
        stack = rng.integers(0, fld.order, (2, 3, count))
        stack[0, 1] = 0
        values = fld.eval_poly_at_powers(stack, powers)
        assert values.shape == (2, 3, 20)
        for index in np.ndindex(2, 3):
            assert np.array_equal(values[index], fld.eval_poly_at_powers(stack[index], powers))
            assert np.array_equal(values[index], fld.eval_poly_at_powers(stack[index].tolist(), powers))


@pytest.mark.parametrize("m", [2, 4, 8])
def test_sentinel_tables_multiply_and_divide_every_pair(m):
    fld = build_field(m)
    a = np.arange(fld.order)[:, None]
    b = np.arange(fld.order)[None, :]
    product = np.array([[shift_reduce_mul(x, y, fld.primitive_poly, m) for y in range(fld.order)]
                        for x in range(fld.order)])
    assert np.array_equal(fld.exp_ext[fld.log_ext[a] + fld.log_ext[b]], product)
    # a / b for b != 0: the q with q * b = a.
    quotient = fld.exp_ext[fld.log_ext[a] - fld.log_ext[b[:, 1:]] + fld.mul_order]
    assert np.array_equal(product[quotient, b[:, 1:]], np.broadcast_to(a, quotient.shape))
    assert len(fld.exp_ext) == 4 * fld.mul_order + 1 and fld.log_ext[0] == 2 * fld.mul_order
    assert fld.exp_list == tuple(fld.exp_ext.tolist()) and fld.log_list == tuple(fld.log_ext.tolist())

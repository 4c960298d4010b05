"""Slice-matrix algebra and coefficient-store tests against independent
expansion/evaluation oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bishopdiscs.errors import ParameterDimensionMismatch
from bishopdiscs.series import (
    BidegreeSeries, ComplexParam, ParamPoly, compose_w, conv_trunc, eval_matrix,
    imag_part_matrix, matrix_derivative_z, matrix_derivative_zbar,
    quadric_matrix, real_part_matrix,
)

NO_PARAMS = np.zeros(0)


def M(values, max_degree=10):
    """Slice matrix of a dict of z^j zbar^k coefficients."""
    mat = np.zeros((max_degree + 1, max_degree + 1), dtype=complex)
    for (j, k), c in values.items():
        mat[j, k] = c
    return mat


def entries(mat):
    """Nonzero entries of a slice matrix as a {(j, k): value} dict."""
    return {(int(j), int(k)): mat[j, k] for j, k in zip(*np.nonzero(mat))}


# --------------------------------------------------------------------------
# independent oracles
# --------------------------------------------------------------------------

def brute_force_product(a_vals, b_vals, max_degree):
    """Dense convolution of complex coefficient dicts, then truncation."""
    out = {}
    for (j1, k1), c1 in a_vals.items():
        for (j2, k2), c2 in b_vals.items():
            j, k = j1 + j2, k1 + k2
            if j + k <= max_degree:
                out[(j, k)] = out.get((j, k), 0.0) + c1 * c2
    return {jk: c for jk, c in out.items() if c != 0.0}


def horner_evaluate(values, z):
    """Row-by-row Horner evaluation, independent of eval_matrix."""
    max_j = max(j for j, _ in values)
    max_k = max(k for _, k in values)
    total = 0.0 + 0.0j
    for j in range(max_j, -1, -1):
        row = 0.0 + 0.0j
        for k in range(max_k, -1, -1):
            row = row * np.conj(z) + values.get((j, k), 0.0)
        total = total * z + row
    return total


# --------------------------------------------------------------------------
# multiply
# --------------------------------------------------------------------------

def test_multiply_monomials():
    prod = conv_trunc(M({(1, 0): 1.0}), M({(0, 1): 1.0}))
    assert entries(prod) == {(1, 1): 1.0}


def test_multiply_difference_of_squares():
    a = M({(1, 0): 1.0, (0, 1): 1.0})
    b = M({(1, 0): 1.0, (0, 1): -1.0})
    assert entries(conv_trunc(a, b)) == {(2, 0): 1.0, (0, 2): -1.0}


def test_multiply_quadric_square_against_expansion():
    # q = z zbar + 0.25 (z^2 + zbar^2); q*q expanded by hand:
    # 0.0625 z^4 + 0.5 z^3 zbar + 1.125 z^2 zbar^2 + 0.5 z zbar^3 + 0.0625 zbar^4
    q_vals = {(1, 1): 1.0, (2, 0): 0.25, (0, 2): 0.25}
    q = quadric_matrix(0.25, 11)
    got = entries(conv_trunc(q, q))
    expected = {(4, 0): 0.0625, (3, 1): 0.5, (2, 2): 1.125,
                (1, 3): 0.5, (0, 4): 0.0625}
    assert got == expected
    assert got == brute_force_product(q_vals, q_vals, 10)


def test_multiply_truncates_to_min_degree():
    # size 5 keeps total degree <= 4: z^3 * zbar^3 is cut, z^3 * zbar kept
    a = M({(3, 0): 1.0}, max_degree=4)
    assert not np.any(conv_trunc(a, M({(0, 3): 1.0}, max_degree=4)))
    assert entries(conv_trunc(a, M({(0, 1): 1.0}, max_degree=4))) == {(3, 1): 1.0}


def test_stacked_product_and_composition_are_bitwise_per_matrix():
    # a stack whose members have different supports, one of them all zero:
    # each member must come out exactly as it does alone
    rng = np.random.default_rng(5)

    def random_matrix(support):
        return M({jk: complex(rng.normal(), rng.normal()) for jk in support})

    a = np.stack([random_matrix([(1, 1), (2, 0), (0, 2)]), M({}),
                  random_matrix([(3, 0), (1, 2), (0, 1), (4, 4)]),
                  random_matrix([(0, 0), (5, 1)])])
    b = np.stack([random_matrix([(1, 0), (0, 3)]), random_matrix([(2, 2), (1, 1)]),
                  M({}), random_matrix([(0, 1), (4, 0), (2, 3)])])
    prod = conv_trunc(a, b)
    poly = {(1, 0): rng.normal(size=4) + 1j * rng.normal(size=4),
            (0, 2): rng.normal(size=4), (3, 1): np.array([0.0, 1.5, 0.0, -2j])}
    comp = compose_w(poly, b)
    for i in range(len(a)):
        assert np.array_equal(prod[i], conv_trunc(a[i], b[i]))
        assert prod[i].tobytes() == conv_trunc(a[i], b[i]).tobytes()
        alone = compose_w({jk: v[i] for jk, v in poly.items()}, b[i])
        assert comp[i].tobytes() == alone.tobytes()


def test_parameter_dimension_mismatch():
    s = BidegreeSeries.from_complex_dict({(1, 0): 1.0}, nvars=2, max_degree=4)
    with pytest.raises(ParameterDimensionMismatch):
        s.fix_parameters(np.zeros(1))


# --------------------------------------------------------------------------
# evaluate
# --------------------------------------------------------------------------

def test_evaluate_quadric_points():
    assert eval_matrix(quadric_matrix(0.0, 11), 0.5) == pytest.approx(0.25, abs=1e-15)
    assert eval_matrix(quadric_matrix(0.25, 11), 1.0) == pytest.approx(1.5, abs=1e-15)


def test_evaluate_against_horner_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        vals = {}
        for j in range(5):
            for k in range(5):
                if rng.random() < 0.6:
                    vals[(j, k)] = complex(rng.normal(), rng.normal())
        if not vals:
            continue
        z = complex(rng.normal(), rng.normal()) * 0.4
        ours = eval_matrix(M(vals, max_degree=8), z)
        ref = horner_evaluate(vals, z)
        assert abs(ours - ref) < 1e-13 * (1.0 + abs(ref))


def dense_eval(mat, z):
    """Every entry of the matrix, j then k, with powers up to its size."""
    z = np.asarray(z, dtype=complex)
    d = mat.shape[0]
    zp, zbp = [np.ones_like(z)], [np.ones_like(z)]
    for _ in range(d - 1):
        zp.append(zp[-1] * z)
        zbp.append(zbp[-1] * np.conj(z))
    total = np.zeros_like(z)
    for j in range(d):
        for k in range(d):
            if mat[j, k] != 0.0:
                total = total + mat[j, k] * zp[j] * zbp[k]
    return total


def test_nonzero_term_evaluation_is_bit_identical_to_the_dense_loop():
    rng = np.random.default_rng(11)
    z = 0.3 * (rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16)))
    sparse = M({(0, 3): 0.5, (2, 1): -1j, (4, 0): 0.25 + 0.1j, (4, 5): 2.0})
    for mat in (quadric_matrix(0.3, 11), matrix_derivative_z(sparse), sparse):
        assert np.array_equal(eval_matrix(mat, z), dense_eval(mat, z))
    zero = eval_matrix(np.zeros((11, 11), dtype=complex), z)
    assert zero.shape == z.shape and np.array_equal(zero, np.zeros_like(z))


def test_evaluate_with_parameters():
    # coefficient (1,1) equal to 1 + x2: value at x2=0.5, z=2 is 1.5*4 = 6
    one_plus_x = ComplexParam(
        ParamPoly(2, 2, {(0, 0): 1.0, (1, 0): 1.0}), ParamPoly.zero(2, 2))
    s = BidegreeSeries(2, 4, 2, {(1, 1): one_plus_x})
    mat = s.fix_parameters(np.array([0.5, 0.0]))
    assert eval_matrix(mat, 2.0) == pytest.approx(6.0, abs=1e-14)


def test_eval_matrix_matches_series_evaluate():
    rng = np.random.default_rng(3)
    vals = {(j, k): complex(rng.normal(), rng.normal())
            for j in range(4) for k in range(4)}
    s = BidegreeSeries.from_complex_dict(vals, 0, 6)
    z = rng.normal(size=8) * 0.3 + 1j * rng.normal(size=8) * 0.3
    direct = np.array([horner_evaluate(vals, zi) for zi in z])
    fast = eval_matrix(s.fix_parameters(NO_PARAMS), z)
    assert np.max(np.abs(direct - fast)) < 1e-13


# --------------------------------------------------------------------------
# derivatives
# --------------------------------------------------------------------------

def test_parameter_derivative():
    # d/dx2 of 1 + 3 x2 - 2 x2 y2 + 5 y2^2 is 3 - 2 y2; d/dy2 is -2 x2 + 10 y2
    p = ParamPoly(2, 2, {(0, 0): 1.0, (1, 0): 3.0, (1, 1): -2.0, (0, 2): 5.0})
    assert p.derivative(0) == ParamPoly(2, 2, {(0, 0): 3.0, (0, 1): -2.0})
    assert p.derivative(1) == ParamPoly(2, 2, {(1, 0): -2.0, (0, 1): 10.0})
    assert ParamPoly.const(4.0, 2).derivative(0).is_zero()
    s = BidegreeSeries(2, 4, 2, {(1, 2): ComplexParam(p, -p), (0, 3): ComplexParam.const(1.0, 2)})
    ds = s.derivative(1)
    assert set(ds.coeffs) == {(1, 2)}
    x, h = np.array([0.3, -0.2]), 1e-3
    fd = (s.fix_parameters(x + [0.0, h]) - s.fix_parameters(x - [0.0, h])) / (2 * h)
    assert np.max(np.abs(ds.fix_parameters(x) - fd)) < 1e-12


def test_derivative_zbar_monomial():
    assert entries(matrix_derivative_zbar(M({(1, 1): 1.0}))) == {(1, 0): 1.0}


def test_derivative_z_quadric():
    lam = 0.3
    d = matrix_derivative_z(quadric_matrix(lam, 11))
    assert entries(d) == {(0, 1): 1.0, (1, 0): 2 * lam}


def test_derivative_against_finite_differences():
    rng = np.random.default_rng(11)
    vals = {}
    for j in range(4):
        for k in range(j, 4):
            c = complex(rng.normal(), rng.normal())
            vals[(j, k)] = c
            vals[(k, j)] = np.conj(c)
    s = M(vals, max_degree=8)
    dz, dzb = matrix_derivative_z(s), matrix_derivative_zbar(s)
    h = 1e-6
    for z in 0.3 * (rng.normal(size=5) + 1j * rng.normal(size=5)):
        fd_x = (eval_matrix(s, z + h) - eval_matrix(s, z - h)) / (2 * h)
        fd_y = (eval_matrix(s, z + 1j * h) - eval_matrix(s, z - 1j * h)) / (2 * h)
        for wirtinger, d in ((0.5 * (fd_x - 1j * fd_y), dz),
                             (0.5 * (fd_x + 1j * fd_y), dzb)):
            exact = eval_matrix(d, z)
            assert abs(wirtinger - exact) < 1e-7 * (1.0 + abs(exact))


# --------------------------------------------------------------------------
# structural properties (exact coefficient arithmetic)
# --------------------------------------------------------------------------

dyadic = st.integers(min_value=-8, max_value=8).map(lambda k: k / 16.0)


@st.composite
def small_series(draw, max_degree=4):
    """Dyadic slice matrix; bidegrees above the total-degree cut are dropped."""
    n_terms = draw(st.integers(0, 5))
    vals = {}
    for _ in range(n_terms):
        j = draw(st.integers(0, 3))
        k = draw(st.integers(0, 3))
        vals[(j, k)] = complex(draw(dyadic), draw(dyadic))
    return M({jk: c for jk, c in vals.items() if sum(jk) <= max_degree},
             max_degree=max_degree)


@st.composite
def real_series(draw, max_degree=6):
    """Random real-valued slice matrix with arbitrary float coefficients."""
    vals = {}
    n_terms = draw(st.integers(1, 6))
    for _ in range(n_terms):
        j = draw(st.integers(0, 3))
        k = draw(st.integers(0, 3))
        re = draw(st.floats(-2, 2, allow_nan=False, width=32))
        im = draw(st.floats(-2, 2, allow_nan=False, width=32))
        if j == k:
            vals[(j, k)] = complex(re, 0.0)
        else:
            vals[(j, k)] = complex(re, im)
            vals[(k, j)] = complex(re, -im)
    return M(vals, max_degree=max_degree)


@settings(max_examples=100, deadline=None)
@given(small_series(), small_series())
def test_multiply_commutative_exact(a, b):
    assert np.array_equal(conv_trunc(a, b), conv_trunc(b, a))


@settings(max_examples=60, deadline=None)
@given(small_series(), small_series(), small_series())
def test_multiply_associative_exact_on_dyadics(a, b, c):
    # dyadic coefficients with small exponents stay exact in binary floats,
    # so association must be coefficient-exact
    assert np.array_equal(conv_trunc(conv_trunc(a, b), c),
                          conv_trunc(a, conv_trunc(b, c)))


@settings(max_examples=80, deadline=None)
@given(real_series(), real_series())
def test_multiply_preserves_reality_exactly(a, b):
    # the product of real matrices is real up to rounding; its real part,
    # which the fitted P is built from, is real bit for bit
    prod = conv_trunc(a, b)
    assert np.max(np.abs(prod - np.conj(prod).T)) <= 1e-12 * (1.0 + np.max(np.abs(prod)))
    re = real_part_matrix(prod)
    assert np.array_equal(re, np.conj(re).T)


@settings(max_examples=60, deadline=None)
@given(small_series(), small_series())
def test_leibniz_rule_exact_on_dyadics(a, b):
    lhs = matrix_derivative_z(conv_trunc(a, b))
    rhs = (conv_trunc(matrix_derivative_z(a), b)
           + conv_trunc(a, matrix_derivative_z(b)))
    # the product drops total degree size - 1 of the derivative
    size = a.shape[0]
    kept = np.add.outer(np.arange(size), np.arange(size)) <= size - 2
    assert np.array_equal(lhs[kept], rhs[kept])


@settings(max_examples=50, deadline=None)
@given(real_series())
def test_real_series_evaluates_real(s):
    assert np.array_equal(real_part_matrix(s), s)
    assert not np.any(imag_part_matrix(s))
    rng = np.random.default_rng(0)
    for z in 0.4 * (rng.normal(size=4) + 1j * rng.normal(size=4)):
        val = eval_matrix(s, z)
        assert abs(val.imag) < 1e-12 * (1.0 + abs(val))


def test_real_imag_split():
    rng = np.random.default_rng(5)
    vals = {(j, k): complex(rng.normal(), rng.normal())
            for j in range(3) for k in range(3)}
    s = M(vals, max_degree=6)
    re, im = real_part_matrix(s), imag_part_matrix(s)
    assert np.array_equal(re, np.conj(re).T)
    assert np.array_equal(im, np.conj(im).T)
    z = 0.3 + 0.2j
    v = eval_matrix(s, z)
    assert eval_matrix(re, z) == pytest.approx(v.real, abs=1e-14)
    assert eval_matrix(im, z) == pytest.approx(v.imag, abs=1e-14)


def test_serialization_round_trip():
    p = ParamPoly(2, 2, {(0, 0): 0.5, (1, 0): -1.25, (0, 2): 3.0})
    assert ParamPoly.from_list(p.to_list(), 2, 2) == p
    lam = ComplexParam(ParamPoly(2, 2, {(0, 0): 0.2, (1, 0): 0.05}),
                       ParamPoly.zero(2, 2))
    s = BidegreeSeries(2, 10, 2, {(1, 1): ComplexParam.const(1.0, 2),
                                  (2, 0): lam, (0, 2): lam})
    back = BidegreeSeries.from_list(s.to_list(), 2, s.max_degree)
    assert back.coeffs == s.coeffs

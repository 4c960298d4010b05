"""Bidegree series in (z, zbar): the parametric coefficient store and the
dense slice-matrix algebra.

A ParamPoly is a real polynomial in the real parameters (x2, y2, ..., xN, yN)
with a hard degree bound. A BidegreeSeries maps bidegrees (j, k) to complex
coefficients stored as (real, imaginary) ParamPoly pairs, so the reality
predicate c[j,k] == conj(c[k,j]) is an exact structural check rather than a
numerical one. The store is validated, serialized, and frozen at a parameter
point X into a slice matrix.

The numeric pipeline works on slice matrices: mat[j, k] is the complex
coefficient of z^j zbar^k, and a matrix of size d keeps the total degrees
j + k <= d - 1.
"""

from dataclasses import dataclass, field
from itertools import product as iter_product
from math import comb

import numpy as np

from .errors import ParameterDimensionMismatch


def monomials_upto(nvars, degree):
    """All exponent tuples over nvars variables with total degree <= degree."""
    if nvars == 0:
        return [()]
    out = []
    for exps in iter_product(range(degree + 1), repeat=nvars):
        if sum(exps) <= degree:
            out.append(exps)
    out.sort()
    return out


@dataclass(frozen=True)
class ParamPoly:
    """Real polynomial in the slice parameters, degree-bounded.

    terms maps exponent tuples to float coefficients; exact zeros are never
    stored. Instances are immutable.
    """

    nvars: int
    degree: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for exp, coeff in self.terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != self.nvars:
                raise ParameterDimensionMismatch(
                    f"exponent {exp} has {len(exp)} entries, expected {self.nvars}")
            if min(exp, default=0) < 0 or sum(exp) > self.degree:
                raise ValueError(
                    f"monomial {exp} is out of range for degree bound {self.degree}")
            c = float(coeff)
            if c != 0.0:
                cleaned[exp] = c
        object.__setattr__(self, "terms", cleaned)

    @staticmethod
    def zero(nvars, degree=2):
        return ParamPoly(nvars, degree, {})

    @staticmethod
    def const(value, nvars, degree=2):
        return ParamPoly(nvars, degree, {(0,) * nvars: value})

    def is_zero(self):
        return not self.terms

    def __neg__(self):
        return ParamPoly(self.nvars, self.degree,
                         {e: -c for e, c in self.terms.items()})

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.nvars,):
            raise ParameterDimensionMismatch(
                f"expected parameter vector of length {self.nvars}, got {x.shape}")
        total = 0.0
        for exp in sorted(self.terms):
            term = self.terms[exp]
            for xi, e in zip(x, exp):
                if e:
                    term *= xi ** e
            total += term
        return total

    def derivative(self, axis):
        """Partial derivative in the parameter x[axis]."""
        terms = {}
        for exp, c in self.terms.items():
            if exp[axis]:
                terms[exp[:axis] + (exp[axis] - 1,) + exp[axis + 1:]] = c * exp[axis]
        return ParamPoly(self.nvars, self.degree, terms)

    def __eq__(self, other):
        return (isinstance(other, ParamPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def to_list(self):
        return [[list(e), c] for e, c in sorted(self.terms.items())]

    @staticmethod
    def from_list(data, nvars, degree=2):
        return ParamPoly(nvars, degree, {tuple(e): c for e, c in data})


@dataclass(frozen=True)
class ComplexParam:
    """Complex coefficient as a (real, imaginary) ParamPoly pair."""

    re: ParamPoly
    im: ParamPoly

    @staticmethod
    def zero(nvars, degree=2):
        z = ParamPoly.zero(nvars, degree)
        return ComplexParam(z, z)

    @staticmethod
    def const(value, nvars, degree=2):
        value = complex(value)
        return ComplexParam(ParamPoly.const(value.real, nvars, degree),
                            ParamPoly.const(value.imag, nvars, degree))

    def is_zero(self):
        return self.re.is_zero() and self.im.is_zero()

    def evaluate(self, x):
        return complex(self.re.evaluate(x), self.im.evaluate(x))


@dataclass(frozen=True)
class BidegreeSeries:
    """Truncated series sum c[j,k](X) z^j zbar^k with j + k <= max_degree."""

    nvars: int
    max_degree: int
    param_degree: int = 2
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for (j, k), c in self.coeffs.items():
            if min(j, k) < 0 or j + k > self.max_degree:
                raise ValueError(
                    f"bidegree ({j},{k}) is out of range for max_degree {self.max_degree}")
            if not c.is_zero():
                cleaned[(int(j), int(k))] = c
        object.__setattr__(self, "coeffs", cleaned)

    @staticmethod
    def from_complex_dict(values, nvars, max_degree, param_degree=2):
        """Series with X-independent complex coefficients."""
        coeffs = {jk: ComplexParam.const(v, nvars, param_degree)
                  for jk, v in values.items()}
        return BidegreeSeries(nvars, max_degree, param_degree, coeffs)

    def coeff(self, j, k):
        return self.coeffs.get((j, k),
                               ComplexParam.zero(self.nvars, self.param_degree))

    def is_real(self):
        """Exact reality predicate: c[j,k] == conj(c[k,j]) coefficient-wise."""
        for (j, k), c in self.coeffs.items():
            mirror = self.coeffs.get((k, j))
            if mirror is None:
                return False
            if c.re != mirror.re or c.im != (-mirror.im):
                return False
        return True

    def derivative(self, axis):
        """Series of the coefficients' partial derivatives in x[axis]."""
        coeffs = {jk: ComplexParam(c.re.derivative(axis), c.im.derivative(axis))
                  for jk, c in self.coeffs.items()}
        return BidegreeSeries(self.nvars, self.max_degree, self.param_degree, coeffs)

    def fix_parameters(self, x):
        """Slice matrix at X: mat[j, k] = c[j,k](X), of size max_degree + 1."""
        mat = np.zeros((self.max_degree + 1, self.max_degree + 1), dtype=complex)
        for (j, k), c in self.coeffs.items():
            mat[j, k] = c.evaluate(x)
        return mat

    def to_list(self):
        out = []
        for (j, k) in sorted(self.coeffs):
            c = self.coeffs[(j, k)]
            out.append([j, k, c.re.to_list(), c.im.to_list()])
        return out

    @staticmethod
    def from_list(data, nvars, max_degree, param_degree=2):
        coeffs = {}
        for j, k, re_list, im_list in data:
            coeffs[(int(j), int(k))] = ComplexParam(
                ParamPoly.from_list(re_list, nvars, param_degree),
                ParamPoly.from_list(im_list, nvars, param_degree))
        return BidegreeSeries(nvars, max_degree, param_degree, coeffs)


# -- dense slice-matrix algebra ---------------------------------------------

def powers(z, top):
    """[1, z, ..., z^top] by repeated multiplication."""
    out = [np.ones_like(z)]
    for _ in range(top):
        out.append(out[-1] * z)
    return out


def eval_matrix(mat, z):
    """Evaluate sum mat[j,k] z^j zbar^k over the nonzero entries of a
    coefficient matrix, j ascending then k, with powers only up to the
    highest row and column present. A stack mat (..., d, d) is evaluated at
    z broadcast against its leading shape, over the entries nonzero in any of
    its matrices; the others add 0 to a running sum that starts at +0, which
    changes no bit (z finite)."""
    z = np.asarray(z, dtype=complex)
    rows, cols = np.nonzero(mat.reshape((-1,) + mat.shape[-2:]).any(axis=0))
    if not len(rows):
        return np.zeros(np.broadcast_shapes(mat.shape[:-2], z.shape), dtype=complex)
    zp = powers(z, rows.max())
    zbp = powers(np.conj(z), cols.max())
    total = np.zeros(z.shape, dtype=complex)      # broadcast to the stack by the first term
    for j, k in zip(rows.tolist(), cols.tolist()):
        total = total + mat[..., j, k] * zp[j] * zbp[k]
    return total


def eval_deviation(mat, z, f):
    """S(z (1 + f)) - S(z) for the matrix S = mat without cancellation: the sum
    of mat[j,k] z^j zbar^k ((1+f)^j (1+conj f)^k - 1) over the nonzero entries,
    with (1+f)^j - 1 from the exact recurrence g[j] = g[j-1] (1+f) + f."""
    f = np.asarray(f, dtype=complex)
    total = np.zeros_like(f)
    rows, cols = np.nonzero(mat)
    if not len(rows):
        return total
    g = [np.zeros_like(f)]
    for _ in range(max(rows.max(), cols.max())):
        g.append(g[-1] * (1.0 + f) + f)
    zp = powers(z, rows.max())
    zbp = powers(np.conj(z), cols.max())
    for j, k in zip(rows, cols):
        bracket = g[j] * np.conj(g[k] + 1.0) + np.conj(g[k])
        total = total + mat[j, k] * zp[j] * zbp[k] * bracket
    return total


def matrix_derivative_z(mat):
    """d/dz of a slice matrix (or a stack of them, shape (..., d, d))."""
    out = np.zeros_like(mat)
    out[..., :-1, :] = np.arange(1, mat.shape[-2])[:, None] * mat[..., 1:, :]
    return out


def matrix_derivative_zbar(mat):
    """d/dzbar of a slice matrix (or a stack of them, shape (..., d, d))."""
    out = np.zeros_like(mat)
    out[..., :, :-1] = np.arange(1, mat.shape[-1]) * mat[..., :, 1:]
    return out


def conv_trunc(a, b):
    """Product of two slice matrices (or stacks of them, shape (..., d, d)),
    cut at the total degree of a. A stack loops over the entries nonzero in
    any matrix of a; the others add 0 * b there, which changes no bit of a
    running sum that starts at +0 (b finite)."""
    d = a.shape[-1]
    out = np.zeros_like(a)
    ja, ka = np.nonzero(a.reshape(-1, d, d).any(axis=0))
    for j1, k1 in zip(ja, ka):
        out[..., j1:, k1:] += a[..., j1, k1, None, None] * b[..., :d - j1, :d - k1]
    # enforce the total-degree truncation
    d_idx = np.add.outer(np.arange(d), np.arange(d))
    out[..., d_idx > d - 1] = 0.0
    return out


def slice_powers(s_mat, top):
    """[1, S, ..., S^top] as truncated slice matrices (or stacks of them)."""
    out = [np.zeros_like(s_mat)]
    out[0][..., 0, 0] = 1.0
    for _ in range(top):
        out.append(conv_trunc(out[-1], s_mat))
    return out


def compose_w(poly, s_mat):
    """Sum over poly entries b[(j1, j2)] z^{j1} S(z, zbar)^{j2}; for a stack
    s_mat of shape (..., d, d), each b is a scalar or of shape (...)."""
    d = s_mat.shape[-1]
    out = np.zeros_like(s_mat)
    pows = slice_powers(s_mat, max((j2 for _, j2 in poly), default=0))
    for (j1, j2), b in sorted(poly.items()):
        if j1 < d:
            out[..., j1:, :] += np.asarray(b)[..., None, None] * pows[j2][..., : d - j1, :]
    d_idx = np.add.outer(np.arange(d), np.arange(d))
    out[..., d_idx > d - 1] = 0.0
    return out


def translate_matrix(mat, shift):
    """Coefficients of S(z + shift, zbar + conj(shift)). Each entry is a sum
    over the nonzero entries c[j, k], j ascending then k, of
    c comb(j, p) shift^(j-p) comb(k, q) conj(shift)^(k-q). A stack mat
    (S, d, d) takes a shift of shape (S,) and sums over the entries nonzero in
    any of its matrices; the others add 0, which changes no bit."""
    d = mat.shape[-1]
    n = np.arange(d)
    s = np.asarray(shift, dtype=complex)[..., None]
    # an integer exponent array takes each power by repeated multiplication, as
    # Python's complex power does (a scalar exponent 2 would square differently)
    s_pows, sb_pows = s ** n, np.conj(s) ** n
    binom = [np.array([comb(j, p) for p in range(j + 1)], dtype=float) for j in range(d)]
    out = np.zeros(np.shape(mat), dtype=complex)
    for j, k in zip(*np.nonzero(mat.reshape((-1, d, d)).any(axis=0))):
        row = binom[j] * s_pows[..., j::-1]            # comb(j, p) shift^(j-p), p = 0..j
        term = (mat[..., j, k, None, None] * row[..., :, None]) * binom[k]
        out[..., :j + 1, :k + 1] += term * sb_pows[..., None, k::-1]
    return out


def rotate_matrix(mat, angle):
    """Coefficients in the frame z' = z e^{-i angle}: c[j,k] *= e^{i(j-k) angle};
    a stack mat (S, d, d) takes an angle of shape (S,)."""
    j = np.arange(mat.shape[-1])
    phase = np.exp(1j * np.subtract.outer(j, j) * np.asarray(angle)[..., None, None])
    return mat * phase


def conj_mirror(mat):
    return np.conj(mat).swapaxes(-1, -2)


def real_part_matrix(mat):
    return 0.5 * (mat + conj_mirror(mat))


def imag_part_matrix(mat):
    return (mat - conj_mirror(mat)) / 2j


def quadric_matrix(lam, size):
    """The model quadric z zbar + lam (z^2 + zbar^2) as a slice matrix; an
    array of lam gives the stack of their quadrics."""
    mat = np.zeros(np.shape(lam) + (size, size), dtype=complex)
    mat[..., 1, 1] = 1.0
    mat[..., 2, 0] = lam
    mat[..., 0, 2] = lam
    return mat

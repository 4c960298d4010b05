"""Truncated bidegree series in (z, zbar) with polynomial parameter dependence.

A ParamPoly is a real polynomial in the real parameters (x2, y2, ..., xN, yN)
with a hard degree bound. A BidegreeSeries maps bidegrees (j, k) to complex
coefficients stored as (real, imaginary) ParamPoly pairs, so the reality
predicate c[j,k] == conj(c[k,j]) is an exact structural check rather than a
numerical one.

Products accumulate contributions in a mirror-symmetric order so that the
product of two exactly-real series is again exactly real (IEEE addition is
commutative and sign-symmetric; only the grouping has to be arranged).
"""

from dataclasses import dataclass, field
from itertools import product as iter_product

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
    stored. Instances are immutable; all operations return new objects.
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
            if sum(exp) > self.degree:
                raise ValueError(f"monomial {exp} exceeds degree bound {self.degree}")
            c = float(coeff)
            if c != 0.0:
                cleaned[exp] = c
        object.__setattr__(self, "terms", cleaned)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(nvars, degree=2):
        return ParamPoly(nvars, degree, {})

    @staticmethod
    def const(value, nvars, degree=2):
        return ParamPoly(nvars, degree, {(0,) * nvars: value})

    # -- helpers -----------------------------------------------------------
    def _check(self, other):
        if self.nvars != other.nvars:
            raise ParameterDimensionMismatch(
                f"parameter dimensions differ: {self.nvars} vs {other.nvars}")

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, 0.0)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        self._check(other)
        deg = min(self.degree, other.degree)
        out = {}
        for exp in sorted(set(self.terms) | set(other.terms)):
            if sum(exp) > deg:
                continue
            out[exp] = self.terms.get(exp, 0.0) + other.terms.get(exp, 0.0)
        return ParamPoly(self.nvars, deg, out)

    def __neg__(self):
        return ParamPoly(self.nvars, self.degree,
                         {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        deg = min(self.degree, other.degree)
        out = {}
        for e1 in sorted(self.terms):
            c1 = self.terms[e1]
            for e2 in sorted(other.terms):
                exp = tuple(a + b for a, b in zip(e1, e2))
                if sum(exp) > deg:
                    continue
                out[exp] = out.get(exp, 0.0) + c1 * other.terms[e2]
        return ParamPoly(self.nvars, deg, out)

    def scale(self, factor):
        factor = float(factor)
        return ParamPoly(self.nvars, self.degree,
                         {e: factor * c for e, c in self.terms.items()})

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

    def __eq__(self, other):
        return (isinstance(other, ParamPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    # -- serialization -----------------------------------------------------
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

    def conj(self):
        return ComplexParam(self.re, -self.im)

    def __add__(self, other):
        return ComplexParam(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return ComplexParam(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return ComplexParam(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)

    def scale(self, factor):
        """Multiply by a complex scalar."""
        factor = complex(factor)
        re = self.re.scale(factor.real) - self.im.scale(factor.imag)
        im = self.re.scale(factor.imag) + self.im.scale(factor.real)
        return ComplexParam(re, im)

    def evaluate(self, x):
        return complex(self.re.evaluate(x), self.im.evaluate(x))


def _mirror(entry):
    (j1, k1), (j2, k2) = entry
    return ((k1, j1), (k2, j2))


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
            if j + k > self.max_degree:
                continue
            if not c.is_zero():
                cleaned[(int(j), int(k))] = c
        object.__setattr__(self, "coeffs", cleaned)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(nvars, max_degree, param_degree=2):
        return BidegreeSeries(nvars, max_degree, param_degree, {})

    @staticmethod
    def from_complex_dict(values, nvars, max_degree, param_degree=2):
        """Series with X-independent complex coefficients."""
        coeffs = {jk: ComplexParam.const(v, nvars, param_degree)
                  for jk, v in values.items()}
        return BidegreeSeries(nvars, max_degree, param_degree, coeffs)

    # -- basic access ------------------------------------------------------
    def coeff(self, j, k):
        return self.coeffs.get((j, k),
                               ComplexParam.zero(self.nvars, self.param_degree))

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ParameterDimensionMismatch(
                f"parameter dimensions differ: {self.nvars} vs {other.nvars}")

    # -- ring operations ---------------------------------------------------
    def __add__(self, other):
        self._check(other)
        deg = min(self.max_degree, other.max_degree)
        out = {}
        for jk in sorted(set(self.coeffs) | set(other.coeffs)):
            za = self.coeffs.get(jk)
            zb = other.coeffs.get(jk)
            if za is None:
                out[jk] = zb
            elif zb is None:
                out[jk] = za
            else:
                out[jk] = za + zb
        return BidegreeSeries(self.nvars, deg,
                              min(self.param_degree, other.param_degree), out)

    def __neg__(self):
        return self.scale(-1.0)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        return BidegreeSeries(self.nvars, self.max_degree, self.param_degree,
                              {jk: c.scale(factor) for jk, c in self.coeffs.items()})

    def __mul__(self, other):
        self._check(other)
        deg = min(self.max_degree, other.max_degree)
        pdeg = min(self.param_degree, other.param_degree)
        # Collect contributions per target bidegree, then accumulate in a
        # mirror-symmetric order: entries are grouped by the lexicographic min
        # of (pair, mirrored pair) so that conjugate-partner sums in c[j,k]
        # and c[k,j] run through identical float sequences. This keeps real
        # series exactly real under multiplication.
        buckets = {}
        for k1 in self.coeffs:
            for k2 in other.coeffs:
                j, k = k1[0] + k2[0], k1[1] + k2[1]
                if j + k > deg:
                    continue
                buckets.setdefault((j, k), []).append((k1, k2))
        out = {}
        for target, entries in buckets.items():
            groups = {}
            for entry in entries:
                canon = min(entry, _mirror(entry))
                groups.setdefault(canon, []).append(entry)
            acc = None
            for canon in sorted(groups):
                members = sorted(groups[canon])
                val = self.coeffs[members[0][0]] * other.coeffs[members[0][1]]
                for extra in members[1:]:
                    val = val + self.coeffs[extra[0]] * other.coeffs[extra[1]]
                acc = val if acc is None else acc + val
            out[target] = acc
        return BidegreeSeries(self.nvars, deg, pdeg, out)

    def power(self, n):
        if n < 0:
            raise ValueError("negative powers are not defined for series")
        result = BidegreeSeries.from_complex_dict(
            {(0, 0): 1.0}, self.nvars, self.max_degree, self.param_degree)
        for _ in range(n):
            result = result * self
        return result

    # -- conjugation and reality -------------------------------------------
    def conjugate_series(self):
        """Series of conj(f), i.e. c'[j,k] = conj(c[k,j])."""
        return BidegreeSeries(self.nvars, self.max_degree, self.param_degree,
                              {(k, j): c.conj() for (j, k), c in self.coeffs.items()})

    def real_part(self):
        return (self + self.conjugate_series()).scale(0.5)

    def imag_part(self):
        return (self - self.conjugate_series()).scale(-0.5j)

    def is_real(self):
        """Exact reality predicate: c[j,k] == conj(c[k,j]) coefficient-wise."""
        for (j, k), c in self.coeffs.items():
            mirror = self.coeffs.get((k, j))
            if mirror is None:
                return False
            if c.re != mirror.re or c.im != (-mirror.im):
                return False
        return True

    # -- calculus ----------------------------------------------------------
    def derivative_z(self):
        out = {}
        for (j, k), c in self.coeffs.items():
            if j >= 1:
                out[(j - 1, k)] = c.scale(float(j))
        return BidegreeSeries(self.nvars, max(self.max_degree - 1, 0),
                              self.param_degree, out)

    def derivative_zbar(self):
        out = {}
        for (j, k), c in self.coeffs.items():
            if k >= 1:
                out[(j, k - 1)] = c.scale(float(k))
        return BidegreeSeries(self.nvars, max(self.max_degree - 1, 0),
                              self.param_degree, out)

    # -- evaluation --------------------------------------------------------
    def evaluate(self, x, z):
        """Value sum c[j,k](X) z^j zbar^k at a parameter point and z array."""
        z = np.asarray(z, dtype=complex)
        zb = np.conj(z)
        total = np.zeros_like(z)
        for jk in sorted(self.coeffs):
            j, k = jk
            c = self.coeffs[jk].evaluate(x)
            total = total + c * z ** j * zb ** k
        return total

    def fix_parameters(self, x):
        """Freeze X: returns a series over zero parameters."""
        out = {}
        for jk, c in self.coeffs.items():
            out[jk] = ComplexParam.const(c.evaluate(x), 0, self.param_degree)
        return BidegreeSeries(0, self.max_degree, self.param_degree, out)

    def to_matrix(self):
        """Dense complex coefficient matrix mat[j, k]; requires nvars == 0."""
        if self.nvars != 0:
            raise ParameterDimensionMismatch(
                "to_matrix needs a parameter-free series; call fix_parameters first")
        mat = np.zeros((self.max_degree + 1, self.max_degree + 1), dtype=complex)
        empty = np.zeros(0)
        for (j, k), c in self.coeffs.items():
            mat[j, k] = c.evaluate(empty)
        return mat

    @staticmethod
    def from_matrix(mat, max_degree=None, param_degree=2):
        mat = np.asarray(mat, dtype=complex)
        deg = mat.shape[0] - 1 if max_degree is None else max_degree
        vals = {}
        for j in range(mat.shape[0]):
            for k in range(mat.shape[1]):
                if mat[j, k] != 0.0 and j + k <= deg:
                    vals[(j, k)] = mat[j, k]
        return BidegreeSeries.from_complex_dict(vals, 0, deg, param_degree)

    # -- serialization -----------------------------------------------------
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


def quadric_series(lam, nvars, max_degree=10, param_degree=2):
    """The model quadratic part z zbar + lam(X) (z^2 + zbar^2)."""
    if not isinstance(lam, ParamPoly):
        lam = ParamPoly.const(float(lam), nvars, param_degree)
    one = ComplexParam(ParamPoly.const(1.0, nvars, param_degree),
                       ParamPoly.zero(nvars, param_degree))
    lam_c = ComplexParam(lam, ParamPoly.zero(nvars, param_degree))
    return BidegreeSeries(nvars, max_degree, param_degree,
                          {(1, 1): one, (2, 0): lam_c, (0, 2): lam_c})


# -- dense-matrix helpers for parameter-free slices -------------------------

def eval_matrix(mat, z):
    """Evaluate sum mat[j,k] z^j zbar^k for a dense coefficient matrix."""
    z = np.asarray(z, dtype=complex)
    zb = np.conj(z)
    d = mat.shape[0]
    zp = [np.ones_like(z)]
    for _ in range(d - 1):
        zp.append(zp[-1] * z)
    zbp = [np.ones_like(z)]
    for _ in range(d - 1):
        zbp.append(zbp[-1] * zb)
    total = np.zeros_like(z)
    for j in range(d):
        for k in range(d):
            c = mat[j, k]
            if c != 0.0:
                total = total + c * zp[j] * zbp[k]
    return total


def matrix_derivative_z(mat):
    out = np.zeros_like(mat)
    for j in range(1, mat.shape[0]):
        out[j - 1, :] = j * mat[j, :]
    return out


def matrix_derivative_zbar(mat):
    out = np.zeros_like(mat)
    for k in range(1, mat.shape[1]):
        out[:, k - 1] = k * mat[:, k]
    return out

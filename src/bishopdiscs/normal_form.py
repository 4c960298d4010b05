"""Per-slice normal form reduction of a raw defining series.

Pipeline, run independently at each parameter sample X and fitted over the
grid afterwards:

  1. recenter: translate z so the zbar-linear coefficient vanishes (Newton
     on the zbar-derivative of the defining function);
  2. absorb the constant and z-linear terms into w and divide by the
     z zbar coefficient;
  3. rotate z so the zbar^2 coefficient becomes real nonnegative, then
     absorb the z^2 mismatch into w; the result is
         w = z zbar + lam(X)(z^2 + zbar^2) + higher order;
  4. kill the imaginary tail degree by degree (weights m = 3..l) by
     holomorphic substitutions w -> w - i C_m(z, w), where C_m solves
     Re C_m(z, q(z)) = (current degree-m imaginary part) subject to
     Im C_m(0, u) = 0.

normalize_full runs steps 1-3 per sample and step 4 once over the stack of
samples. All transformations are recorded per sample (exact replay) and as
degree-2 least-squares parameter fits (reporting); downstream slices use
the pointwise tables when available.
"""

from dataclasses import dataclass, field

import numpy as np

from .curve import SliceData
from .errors import (
    EllipticityViolation, EmptySampleGrid, NoConvergence, SchemaViolation,
    SingularNormalizationMatrix, ValidityEscape,
)
from .series import (
    BidegreeSeries, ComplexParam, ParamPoly, compose_w, eval_matrix,
    imag_part_matrix, matrix_derivative_z, matrix_derivative_zbar,
    monomials_upto, quadric_matrix, real_part_matrix, rotate_matrix,
    slice_powers, translate_matrix,
)

NEWTON_MAX_ITER = 50   # recentering Newton steps
NEWTON_TOL = 1e-12     # |dF/dzbar| accepted after the Newton budget
ELLIPTICITY_MARGIN = 1e-3  # lambda must stay in [0, 1/2 - ELLIPTICITY_MARGIN]
FIT_DEGREE = 2         # degree of the least-squares parameter fits
FIT_DROP_TOL = 1e-13   # coefficients below this on every sample are not fitted


# --------------------------------------------------------------------------
# parameter fits and sample grids
# --------------------------------------------------------------------------

def sample_grid(nvars, radius, points_per_axis=3):
    """Deterministic sample grid inside the parameter ball."""
    if nvars == 0:
        return [()]
    h = radius / np.sqrt(nvars)
    axis = np.linspace(-h, h, points_per_axis)
    grids = np.meshgrid(*([axis] * nvars), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    return [tuple(row) for row in pts]


def fit_design(points, nvars):
    """Fit design matrix: row i holds the monomials of degree <= FIT_DEGREE at points[i]."""
    mons = monomials_upto(nvars, FIT_DEGREE)
    a = np.ones((len(points), len(mons)))
    for i, x in enumerate(points):
        for jm, exp in enumerate(mons):
            for xv, e in zip(x, exp):
                a[i, jm] *= xv ** e
    return a


def fit_parampoly(design, values, nvars):
    """Least-squares polynomial fit of scalar samples over the grid."""
    coef, *_ = np.linalg.lstsq(design, np.asarray(values, dtype=float), rcond=None)
    terms = {exp: c for exp, c in zip(monomials_upto(nvars, FIT_DEGREE), coef)
             if abs(c) > 1e-14}
    return ParamPoly(nvars, FIT_DEGREE, terms)


def fit_complex(design, values, nvars):
    values = np.asarray(values, dtype=complex)
    return ComplexParam(fit_parampoly(design, values.real, nvars),
                        fit_parampoly(design, values.imag, nvars))


def fit_series(design, matrices, nvars, max_degree):
    """Coefficient-wise parameter fit of a stack of slice matrices."""
    coeffs = {(j, k): fit_complex(design, matrices[:, j, k], nvars)
              for j in range(max_degree + 1) for k in range(max_degree + 1 - j)
              if np.max(np.abs(matrices[:, j, k])) > FIT_DROP_TOL}
    return BidegreeSeries(nvars, max_degree, FIT_DEGREE, coeffs)


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RawDefiningSeries:
    """Right side of the graph equation w = F(z, zbar, X) near the origin."""

    series: BidegreeSeries
    n: int
    l: int
    validity_radius: float

    def __post_init__(self):
        if not 7 <= self.l <= self.series.max_degree:
            raise SchemaViolation(
                f"order parameter l must lie in [7, maxDegree = {self.series.max_degree}],"
                f" got {self.l}")
        zero = np.zeros(self.series.nvars)
        c00 = self.series.coeff(0, 0).evaluate(zero)
        if abs(c00) > 1e-12:
            raise SchemaViolation(f"constant coefficient must vanish at X=0, got {c00}")
        c11 = self.series.coeff(1, 1).evaluate(zero)
        if abs(c11 - 1.0) > 1e-12:
            raise SchemaViolation(f"z zbar coefficient must be 1 at X=0, got {c11}")

    @property
    def nvars(self):
        return self.series.nvars

    def slice_matrix(self, x):
        return self.series.fix_parameters(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ManifoldSpec:
    """Normal-form manifold data: w = q + P + iK with q the model quadric."""

    n: int
    l: int
    lam: ParamPoly
    p: BidegreeSeries
    k: BidegreeSeries
    validity_radius: float
    samples: dict = field(default_factory=dict, compare=False)

    @property
    def nvars(self):
        return 2 * (self.n - 1)

    @property
    def max_degree(self):
        return self.p.max_degree

    def contains(self, x):
        """Whether x lies in the closed validity ball (a NaN point does not)."""
        return bool(np.linalg.norm(x) <= self.validity_radius + 1e-12)

    def slice_at(self, x):
        """Slice data at x in the validity ball; pointwise table wins over the fits."""
        key = tuple(float(v) for v in np.atleast_1d(x))
        if not self.contains(key):
            raise ValidityEscape(
                f"parameter point {key} outside the validity ball {self.validity_radius}")
        if key in self.samples:
            lam_val, qp, kmat = self.samples[key]
            return SliceData.from_matrices(lam_val, qp, kmat)
        xa = np.asarray(key, dtype=float)
        lam_val = float(self.lam.evaluate(xa))
        qp = quadric_matrix(lam_val, self.max_degree + 1) + self.p.fix_parameters(xa)
        return SliceData.from_matrices(lam_val, qp, self.k.fix_parameters(xa))

    def slice_derivative(self, x, axis):
        """Derivatives in x[axis] of the slice matrices (qp, k) at x, exact on
        the parameter fits (the sample table has none); q is affine in lam."""
        xa = np.asarray(x, dtype=float)
        size = self.max_degree + 1
        dlam = self.lam.derivative(axis).evaluate(xa)
        dqp = (quadric_matrix(dlam, size) - quadric_matrix(0.0, size)
               + self.p.derivative(axis).fix_parameters(xa))
        return dqp, self.k.derivative(axis).fix_parameters(xa)

    def validate(self):
        if self.l < 7:
            raise SchemaViolation(f"order parameter l must be >= 7, got {self.l}")
        if not self.p.is_real():
            raise SchemaViolation("P series fails the reality predicate")
        if not self.k.is_real():
            raise SchemaViolation("K series fails the reality predicate")
        grid = sample_grid(self.nvars, self.validity_radius)
        for x in grid:
            lam_val = self.lam.evaluate(np.asarray(x))
            if not (0.0 <= lam_val <= 0.5 - ELLIPTICITY_MARGIN):
                raise EllipticityViolation(
                    f"lambda({x}) = {lam_val:.6f} outside [0, 1/2 - {ELLIPTICITY_MARGIN}]")
        for (j, k), c in sorted(self.p.coeffs.items()):
            if j + k <= 2 and _coeff_size(c, grid) > 0.0:
                raise SchemaViolation(
                    f"P coefficient ({j},{k}) has degree <= 2")
        for (j, k), c in sorted(self.k.coeffs.items()):
            if j + k < self.l and _coeff_size(c, grid) > 0.0:
                raise SchemaViolation(
                    f"K coefficient ({j},{k}) has degree below l = {self.l}")
        return self


def _coeff_size(c, grid):
    return max(abs(c.evaluate(np.asarray(x))) for x in grid)


@dataclass
class StageRecord:
    """Exact per-sample transformation data (replayable)."""

    z0: complex
    const_shift: complex
    c10: complex
    gamma: complex
    theta: float
    quad_absorb: complex          # amount removed from the z^2 coefficient
    lam: float
    bm: dict = field(default_factory=dict)


@dataclass
class CoordinateChange:
    """Composite normalization change: per-sample records plus parameter fits."""

    records: dict = field(default_factory=dict)       # x tuple -> StageRecord
    z0_fit: ComplexParam | None = None
    gamma_fit: ComplexParam | None = None
    c10_fit: ComplexParam | None = None
    theta_fit: ParamPoly | None = None
    quad_absorb_fit: ComplexParam | None = None
    bm_fits: dict = field(default_factory=dict)       # m -> {(j1,j2): ComplexParam}

    def apply_slice(self, raw, x):
        """Replay the stored transformation on the raw series at one sample."""
        key = tuple(float(v) for v in np.atleast_1d(x))
        rec = self.records[key]
        mat = translate_matrix(raw.slice_matrix(key), rec.z0)
        mat[0, 0] -= rec.const_shift
        mat[1, 0] -= rec.c10
        mat = mat / rec.gamma
        mat = rotate_matrix(mat, rec.theta)
        mat[2, 0] -= rec.quad_absorb
        for m in sorted(rec.bm):
            if rec.bm[m]:
                mat = mat - 1j * compose_w(rec.bm[m], mat)
        return mat

    def fit_over(self, points, design, nvars):
        recs = [self.records[tuple(p)] for p in points]
        self.z0_fit = fit_complex(design, [r.z0 for r in recs], nvars)
        self.gamma_fit = fit_complex(design, [r.gamma for r in recs], nvars)
        self.c10_fit = fit_complex(design, [r.c10 for r in recs], nvars)
        self.theta_fit = fit_parampoly(design, [r.theta for r in recs], nvars)
        self.quad_absorb_fit = fit_complex(design, [r.quad_absorb for r in recs], nvars)
        # every record carries the same stages and monomials
        self.bm_fits = {
            m: {jk: fit_complex(design, [r.bm[m][jk] for r in recs], nvars)
                for jk in sorted(cm)}
            for m, cm in sorted(recs[0].bm.items())}
        return self


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------

def detect_cr_singularity(mat):
    """True when the zbar-linear coefficient of the slice matrix vanishes."""
    return bool(abs(mat[0, 1]) < 1e-12)


def recenter_cr_singularity(mat, x):
    """Translation z0 making the zbar-derivative of the slice matrix mat
    (the graph at parameter point x, which labels errors) vanish at 0.

    Damped Newton on the two-real-variable system Re/Im dF/dzbar = 0 with
    the analytic Jacobian from the second derivatives.
    """
    g_mat = matrix_derivative_zbar(mat)
    gz_mat = matrix_derivative_z(g_mat)
    gzb_mat = matrix_derivative_zbar(g_mat)

    z0 = 0.0 + 0.0j
    g = complex(eval_matrix(g_mat, z0))
    for _ in range(NEWTON_MAX_ITER):
        if abs(g) < NEWTON_TOL * 1e-2:
            return z0
        a = complex(eval_matrix(gz_mat, z0))
        b = complex(eval_matrix(gzb_mat, z0))
        jac = np.array([[(a + b).real, -(a - b).imag],
                        [(a + b).imag, (a - b).real]])
        try:
            dx, dy = np.linalg.solve(jac, [-g.real, -g.imag])
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"singular recentering Jacobian at X={x}") from exc
        step = complex(dx, dy)
        for _ in range(5):
            trial = z0 + step
            g_trial = complex(eval_matrix(g_mat, trial))
            if abs(g_trial) < abs(g):
                z0, g = trial, g_trial
                break
            step *= 0.5
        else:
            z0 = z0 + step
            g = complex(eval_matrix(g_mat, z0))
    if abs(g) < NEWTON_TOL:
        return z0
    raise NoConvergence(
        f"recentering Newton stalled at |dF/dzbar| = {abs(g):.3e} for X={x}")


def _normalize_slice(mat, x):
    """Run steps 1-3 on one slice matrix; returns (matrix, StageRecord)."""
    z0 = recenter_cr_singularity(mat, x)
    t = translate_matrix(mat, z0)
    const_shift = t[0, 0]
    c10 = t[1, 0]
    gamma = t[1, 1]
    if abs(gamma) < 1e-8:
        raise NoConvergence(f"degenerate z zbar coefficient {gamma} at X={x}")
    t[0, 0] = 0.0
    t[1, 0] = 0.0
    t = t / gamma
    lam2 = t[0, 2]
    theta = 0.0 if lam2 == 0.0 else float(np.angle(lam2) / 2.0)
    t = rotate_matrix(t, theta)
    quad_absorb = t[2, 0] - t[0, 2]
    t[2, 0] = t[0, 2]
    lam_val = t[0, 2].real
    if abs(t[0, 2].imag) > 1e-10:
        raise NoConvergence(f"rotation left a complex quadratic coefficient at X={x}")
    if not (0.0 <= lam_val <= 0.5 - ELLIPTICITY_MARGIN):
        raise EllipticityViolation(
            f"lambda({x}) = {lam_val:.6f} outside [0, 1/2 - {ELLIPTICITY_MARGIN}]")
    rec = StageRecord(z0=z0, const_shift=const_shift, c10=c10, gamma=gamma,
                      theta=theta, quad_absorb=quad_absorb, lam=lam_val)
    return t, rec


def weighted_monomials(m):
    """Exponent pairs (j1, j2) of z^{j1} w^{j2} with weight j1 + 2 j2 = m."""
    return [(m - 2 * j2, j2) for j2 in range(m // 2 + 1)]


def _fm_coordinates(diag, m):
    """Real coordinates of a degree-m real bidegree polynomial, read off its
    antidiagonal diag[..., j] = mat[..., j, m - j] (stacks allowed)."""
    coords = []
    for j in range(m, (m - 1) // 2, -1):
        coords.append(diag[..., j].real)
        if j != m - j:
            coords.append(diag[..., j].imag)
    return np.stack(coords, axis=-1)


def _antidiagonal(mat, m):
    """Entries mat[..., j, m - j] for j = 0..m."""
    j = np.arange(m + 1)
    return mat[..., j, m - j]


def solve_normalization_stage(lam, defect, m, size):
    """Solve Re C(z, q(z)) = defect over weight-m normalized polynomials.

    defect is a coefficient matrix supported in total degree m satisfying
    the reality predicate. Returns ({(j1,j2): complex}, condition_number).
    A stack of samples (lam of shape (S,), defect of shape (S, size, size))
    gives arrays of shape (S,) in their place.
    """
    bad = np.flatnonzero(~(np.isfinite(lam) & np.isfinite(defect).all(axis=(-2, -1))))
    if bad.size:
        raise SingularNormalizationMatrix(
            f"weight-{m} normalization stage of sample {bad[0]} has a non-finite lam or defect")
    mons = weighted_monomials(m)
    q_pows = slice_powers(quadric_matrix(lam, size), m // 2)
    # real unknowns: (Re b, Im b) per monomial, dropping Im b for z^0 w^{m/2};
    # column (idx, unit) holds the degree-m coordinates of Re(unit z^j1 q^j2),
    # whose degree-m antidiagonal is that of q^j2 at degree m - j1 shifted by j1
    unknowns, cols = [], []
    for idx, (j1, j2) in enumerate(mons):
        mono = np.zeros(np.shape(lam) + (m + 1,), dtype=complex)
        mono[..., j1:] += _antidiagonal(q_pows[j2], m - j1)
        for unit in (1.0,) if m % 2 == 0 and j1 == 0 else (1.0, 1j):
            unknowns.append((idx, unit))
            u = unit * mono
            cols.append(_fm_coordinates(0.5 * (u + np.conj(u[..., ::-1])), m))
    a = np.stack(cols, axis=-1)
    cond = np.linalg.cond(a)
    bad = np.flatnonzero(~(np.isfinite(cond) & (cond <= 1e12)))
    if bad.size:
        raise SingularNormalizationMatrix(f"weight-{m} normalization matrix of sample {bad[0]}"
                                          f" has condition number {np.ravel(cond)[bad[0]]:.3e}")
    rhs = _fm_coordinates(_antidiagonal(defect, m), m)
    sol = np.linalg.solve(a, rhs[..., None])[..., 0]
    out = {}
    for col, (idx, unit) in enumerate(unknowns):
        out[mons[idx]] = out.get(mons[idx], 0.0) + sol[..., col] * unit
    return out, cond


def normalize_full(raw, l, sample_points=None):
    """Reduce a raw defining series to normal form through weight l.

    Steps 1-3 run per sample, step 4 once over the stack of samples. Returns
    the ManifoldSpec (lam, P and K fitted over the samples, the exact
    matrices kept as its sample table) and the recorded CoordinateChange.
    """
    max_degree = raw.series.max_degree
    if max_degree < l:
        raise SchemaViolation(
            f"series degree {max_degree} too small for order l = {l}")
    if sample_points is None:
        sample_points = sample_grid(raw.nvars, raw.validity_radius)
    points = [tuple(float(v) for v in p) for p in sample_points]
    if not points:
        raise EmptySampleGrid("normalize_full got an empty list of sample points;"
                              " pass at least one, or None for the default grid")
    mats, recs = zip(*(_normalize_slice(raw.slice_matrix(x), x) for x in points))
    change = CoordinateChange(dict(zip(points, recs)))
    lams = np.array([rec.lam for rec in recs])
    s = np.stack(mats)
    for m in range(3, l + 1):
        j = np.arange(m + 1)
        defect = np.zeros_like(s)
        defect[..., j, m - j] = _antidiagonal(imag_part_matrix(s), m)
        cm, _ = solve_normalization_stage(lams, defect, m, s.shape[-1])
        for i, rec in enumerate(recs):
            rec.bm[m] = {mon: v[i] for mon, v in cm.items()}
        s = s - 1j * compose_w(cm, s)
        stage_res = np.abs(_antidiagonal(imag_part_matrix(s), m)).max(axis=-1)
        bad = np.flatnonzero(stage_res > 1e-10 * (1.0 + np.abs(defect).max(axis=(-2, -1))))
        if bad.size:
            raise SingularNormalizationMatrix(
                f"stage {m} left residual {stage_res[bad[0]]:.3e} at X={points[bad[0]]}")
    design = fit_design(points, raw.nvars)
    change.fit_over(points, design, raw.nvars)
    qps, kmats = real_part_matrix(s), imag_part_matrix(s)
    samples = {x: (lam, qp, kmat) for x, lam, qp, kmat in zip(points, lams.tolist(), qps, kmats)}
    spec = ManifoldSpec(
        n=raw.n, l=l, lam=fit_parampoly(design, lams, raw.nvars),
        p=fit_series(design, qps - quadric_matrix(lams, max_degree + 1), raw.nvars, max_degree),
        k=fit_series(design, kmats, raw.nvars, max_degree),
        validity_radius=raw.validity_radius, samples=samples)
    return spec, change

"""Normal form reduction of a raw defining series over a grid of parameter
samples.

Pipeline, run once over the (S, d, d) stack of slice matrices at the
parameter samples X and fitted over the grid afterwards:

  1. recenter: translate z so the zbar-linear coefficient vanishes (one
     damped Newton on the zbar-derivative of the defining function, each
     sample stopping on its own test);
  2. absorb the constant and z-linear terms into w and divide by the
     z zbar coefficient;
  3. rotate z so the zbar^2 coefficient becomes real nonnegative, then
     absorb the z^2 mismatch into w; the result is
         w = z zbar + lam(X)(z^2 + zbar^2) + higher order;
  4. kill the imaginary tail degree by degree (weights m = 3..l) by
     holomorphic substitutions w -> w - i C_m(z, w), where C_m solves
     Re C_m(z, q(z)) = (current degree-m imaginary part) subject to
     Im C_m(0, u) = 0.

A single sample is a stack of one, and each sample of a grid gets bit for
bit the numbers, or the typed error, of its own single-sample pass. All
transformations are recorded per sample (exact replay) and as degree-2
least-squares parameter fits, every fit from one solve against
the grid's design matrix; downstream slices read the fits alone, and the
pointwise tables serve the normalize report's round trip.
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


def fit_columns(design, values, nvars):
    """Least-squares polynomial fits over the grid of every complex column of
    values (S, n), real and imaginary parts in one solve against the design
    matrix: a list of n ComplexParams (a real column fits a zero imaginary
    part)."""
    n = values.shape[1]
    coef, *_ = np.linalg.lstsq(design, np.concatenate([values.real, values.imag], axis=1),
                               rcond=None)
    mons = monomials_upto(nvars, FIT_DEGREE)
    polys = [ParamPoly(nvars, FIT_DEGREE, {exp: c for exp, c in zip(mons, col) if abs(c) > 1e-14})
             for col in coef.T.tolist()]
    return [ComplexParam(re, im) for re, im in zip(polys[:n], polys[n:])]


def _fitted_entries(matrices):
    """Entries (j, k), j <= k and j + k < d, of a stack of slice matrices
    (S, d, d) that exceed FIT_DROP_TOL on some sample, j then k ascending."""
    d = matrices.shape[-1]
    j, k = np.indices((d, d))
    big = (np.abs(matrices) > FIT_DROP_TOL).any(axis=0) & (j <= k) & (j + k < d)
    return list(zip(*(idx.tolist() for idx in np.nonzero(big))))


def _real_series(nvars, max_degree, fits):
    """Real series from the fits {(j, k): ComplexParam} of its entries with
    j <= k; each mirror entry (k, j) is the exact conjugate, so the series
    passes the exact reality predicate."""
    coeffs = dict(fits)
    coeffs.update({(k, j): ComplexParam(c.re, -c.im) for (j, k), c in fits.items() if j != k})
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
        """Slice data at x in the validity ball, from the parameter fits alone (the
        sample table only records what the fits were made from)."""
        key = tuple(float(v) for v in np.atleast_1d(x))
        if not self.contains(key):
            raise ValidityEscape(
                f"parameter point {key} outside the validity ball {self.validity_radius}")
        xa = np.asarray(key, dtype=float)
        lam_val = float(self.lam.evaluate(xa))
        qp = quadric_matrix(lam_val, self.max_degree + 1) + self.p.fix_parameters(xa)
        return SliceData.from_matrices(lam_val, qp, self.k.fix_parameters(xa))

    def slice_derivative(self, x, axis):
        """Derivatives in x[axis] of the slice matrices (qp, k) at x, exact on
        the parameter fits that slice_at reads; q is affine in lam."""
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


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------

def detect_cr_singularity(mat):
    """True when the zbar-linear coefficient of the slice matrix vanishes."""
    return bool(abs(mat[0, 1]) < 1e-12)


def recenter_cr_singularity(mat, x):
    """Translation z0 making the zbar-derivative of the slice matrix mat
    (the graph at parameter point x, which labels errors) vanish at 0: the
    stacked Newton of _recenter on a stack of one."""
    z0, errors = _recenter(mat[None], [x])
    if errors:
        raise errors[0]
    return z0[0]


def _recenter(mats, points):
    """Damped Newton on the two-real-variable systems Re/Im dF/dzbar = 0 of
    a stack of slice matrices (S, d, d) at the S sample points, with the
    analytic Jacobian from the second derivatives, as one Newton on the (S,)
    vector of z0. Each row takes its own 2x2 solve and halving line search,
    stops on its own test and is frozen from then on, so it takes exactly
    the steps of its own single-row call. Returns z0 and {row: typed error}
    for the rows that fail, whose z0 is 0.
    """
    g_mat = matrix_derivative_zbar(mats)
    # dF/dzbar's z and zbar derivatives, evaluated together: shape (S, 2, d, d)
    h_mat = np.stack([matrix_derivative_z(g_mat), matrix_derivative_zbar(g_mat)], axis=1)

    z0 = np.zeros(len(mats), dtype=complex)
    g = eval_matrix(g_mat, z0)
    live = np.ones(len(mats), dtype=bool)
    errors = {}
    for _ in range(NEWTON_MAX_ITER):
        live &= ~(np.abs(g) < NEWTON_TOL * 1e-2)
        rows = np.flatnonzero(live)
        if not rows.size:
            break
        a, b = np.moveaxis(eval_matrix(h_mat[rows], z0[rows, None]), -1, 0)
        jac = np.stack([np.stack([(a + b).real, -(a - b).imag], axis=-1),
                        np.stack([(a + b).imag, (a - b).real], axis=-1)], axis=-2)
        # a zero pivot in the LU factorisation is what makes np.linalg.solve refuse
        singular = np.linalg.slogdet(jac)[0] == 0.0
        for i in rows[singular]:
            errors[i] = NoConvergence(f"singular recentering Jacobian at X={points[i]}")
        live[rows[singular]] = False
        rows, jac = rows[~singular], jac[~singular]
        if not rows.size:
            continue
        rhs = np.stack([-g[rows].real, -g[rows].imag], axis=-1)
        sol = np.linalg.solve(jac, rhs[..., None])[..., 0]
        step = sol[:, 0] + 1j * sol[:, 1]
        search = np.arange(len(rows))       # positions in rows still line-searching
        for _ in range(5):
            i = rows[search]
            trial = z0[i] + step[search]
            g_trial = eval_matrix(g_mat[i], trial)
            better = np.abs(g_trial) < np.abs(g[i])
            z0[i[better]], g[i[better]] = trial[better], g_trial[better]
            search = search[~better]
            step[search] *= 0.5
            if not search.size:
                break
        else:
            i = rows[search]
            z0[i] += step[search]
            g[i] = eval_matrix(g_mat[i], z0[i])
    for i in np.flatnonzero(live & ~(np.abs(g) < NEWTON_TOL)):
        errors[i] = NoConvergence(
            f"recentering Newton stalled at |dF/dzbar| = {abs(g[i]):.3e} for X={points[i]}")
    z0[list(errors)] = 0.0
    return z0, errors


def _reduce_quadric(mats, points):
    """Steps 1-3 on the stack of slice matrices at the sample points, each
    sample raising the typed error of its first failing check; the first
    failing sample's error is raised. Returns the reduced stack and the
    StageRecord fields as (S,) arrays, in field order."""
    z0, failures = _recenter(mats, points)

    def check(bad, error):
        for i in np.flatnonzero(bad):
            failures.setdefault(i, error(i))

    t = translate_matrix(mats, z0)
    const_shift, c10, gamma = t[:, [0, 1, 1], [0, 0, 1]].T
    degenerate = np.abs(gamma) < 1e-8
    check(degenerate, lambda i: NoConvergence(
        f"degenerate z zbar coefficient {gamma[i]} at X={points[i]}"))
    t[:, [0, 1], 0] = 0.0
    t = t / np.where(degenerate, 1.0, gamma)[:, None, None]
    lam2 = t[:, 0, 2]
    theta = np.where(lam2 == 0.0, 0.0, np.angle(lam2) / 2.0)
    t = rotate_matrix(t, theta)
    quad_absorb = t[:, 2, 0] - t[:, 0, 2]
    t[:, 2, 0] = t[:, 0, 2]
    lam = t[:, 0, 2].real.copy()
    check(np.abs(t[:, 0, 2].imag) > 1e-10, lambda i: NoConvergence(
        f"rotation left a complex quadratic coefficient at X={points[i]}"))
    check(~((0.0 <= lam) & (lam <= 0.5 - ELLIPTICITY_MARGIN)), lambda i: EllipticityViolation(
        f"lambda({points[i]}) = {lam[i]:.6f} outside [0, 1/2 - {ELLIPTICITY_MARGIN}]"))
    if failures:
        raise failures[min(failures)]
    return t, {"z0": z0, "const_shift": const_shift, "c10": c10, "gamma": gamma,
               "theta": theta, "quad_absorb": quad_absorb, "lam": lam}


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

    Every step runs once over the stack of slice matrices at the samples.
    Returns the ManifoldSpec (lam, P and K fitted over the samples, the exact
    matrices kept as its sample table) and the recorded CoordinateChange;
    every fit comes from one least-squares solve.
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
    s, fields = _reduce_quadric(np.stack([raw.slice_matrix(x) for x in points]), points)
    recs = [StageRecord(**dict(zip(fields, vals)))
            for vals in zip(*(v.tolist() for v in fields.values()))]
    change = CoordinateChange(dict(zip(points, recs)))
    lams = fields["lam"]
    # fitted columns: lam, then the change's fields, tail stages, P and K
    columns = [fields[f] for f in ("lam", "theta", "z0", "gamma", "c10", "quad_absorb")]
    stage_keys = []
    for m in range(3, l + 1):
        j = np.arange(m + 1)
        defect = np.zeros_like(s)
        defect[..., j, m - j] = _antidiagonal(imag_part_matrix(s), m)
        cm, _ = solve_normalization_stage(lams, defect, m, s.shape[-1])
        for i, rec in enumerate(recs):
            rec.bm[m] = {mon: v[i] for mon, v in cm.items()}
        stage_keys += [(m, mon) for mon in sorted(cm)]
        columns += [cm[mon] for mon in sorted(cm)]
        s = s - 1j * compose_w(cm, s)
        stage_res = np.abs(_antidiagonal(imag_part_matrix(s), m)).max(axis=-1)
        bad = np.flatnonzero(stage_res > 1e-10 * (1.0 + np.abs(defect).max(axis=(-2, -1))))
        if bad.size:
            raise SingularNormalizationMatrix(
                f"stage {m} left residual {stage_res[bad[0]]:.3e} at X={points[bad[0]]}")
    qps, kmats = real_part_matrix(s), imag_part_matrix(s)
    pmats = qps - quadric_matrix(lams, max_degree + 1)
    p_keys, k_keys = _fitted_entries(pmats), _fitted_entries(kmats)
    columns += [pmats[:, j, k] for j, k in p_keys] + [kmats[:, j, k] for j, k in k_keys]
    fits = iter(fit_columns(fit_design(points, raw.nvars), np.stack(columns, axis=1), raw.nvars))
    lam_fit, theta_fit, change.z0_fit, change.gamma_fit, change.c10_fit, change.quad_absorb_fit = (
        next(fits) for _ in range(6))
    change.theta_fit = theta_fit.re
    for m, mon in stage_keys:
        change.bm_fits.setdefault(m, {})[mon] = next(fits)
    p = _real_series(raw.nvars, max_degree, {jk: next(fits) for jk in p_keys})
    k = _real_series(raw.nvars, max_degree, {jk: next(fits) for jk in k_keys})
    samples = {x: (lam, qp, kmat) for x, lam, qp, kmat in zip(points, lams.tolist(), qps, kmats)}
    spec = ManifoldSpec(n=raw.n, l=l, lam=lam_fit.re, p=p, k=k,
                        validity_radius=raw.validity_radius, samples=samples)
    return spec, change

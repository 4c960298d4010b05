"""Normal form reduction tests: closed-form recentering, rotation round
trips, stagewise elimination against a residual oracle, full-pipeline checks."""

import numpy as np
import pytest

from bishopdiscs import normal_form, specio
from bishopdiscs.errors import (
    EllipticityViolation, EmptySampleGrid, NoConvergence, PipelineError, SchemaViolation,
    SingularNormalizationMatrix,
)
from bishopdiscs.normal_form import (
    FIT_DEGREE, FIT_DROP_TOL, RawDefiningSeries, detect_cr_singularity, fit_design,
    normalize_full, recenter_cr_singularity, sample_grid, solve_normalization_stage,
    weighted_monomials,
)
from bishopdiscs.series import (
    BidegreeSeries, ComplexParam, ParamPoly, compose_w, eval_matrix,
    imag_part_matrix, monomials_upto, quadric_matrix, real_part_matrix, rotate_matrix,
    translate_matrix,
)

NV, PD, MD = 2, 2, 10


def P(terms):
    return ParamPoly(NV, PD, terms)


def C(re_terms, im_terms=None):
    return ComplexParam(P(re_terms), P(im_terms or {}))


def raw_from_coeffs(coeffs, radius=0.15, n=2):
    series = BidegreeSeries(NV, MD, PD, coeffs)
    return RawDefiningSeries(series, n, 7, radius)


ONE = {(0, 0): 1.0}
X2 = {(1, 0): 1.0}
Y2 = {(0, 1): 1.0}


def plain_quadric_raw(lam=0.25):
    return raw_from_coeffs({
        (1, 1): C(ONE),
        (2, 0): C({(0, 0): lam}),
        (0, 2): C({(0, 0): lam}),
    })


def offset_raw(lam=0.25):
    """w = x2 zbar + z zbar + lam (z^2 + zbar^2)."""
    return raw_from_coeffs({
        (0, 1): C(X2),
        (1, 1): C(ONE),
        (2, 0): C({(0, 0): lam}),
        (0, 2): C({(0, 0): lam}),
    })


# --------------------------------------------------------------------------
# detection and recentering
# --------------------------------------------------------------------------

def test_detect_plain_quadric():
    raw = plain_quadric_raw()
    assert detect_cr_singularity(raw.slice_matrix((0.0, 0.0)))
    assert detect_cr_singularity(raw.slice_matrix((0.1, -0.05)))


def test_detect_offset_series():
    raw = offset_raw()
    assert not detect_cr_singularity(raw.slice_matrix((0.1, 0.0)))
    assert detect_cr_singularity(raw.slice_matrix((0.0, 0.0)))


def test_recenter_trivial_when_centered():
    x = (0.1, 0.0)
    assert recenter_cr_singularity(plain_quadric_raw().slice_matrix(x), x) == 0.0


def test_recenter_closed_form_lambda_zero():
    x = (0.1, 0.0)
    z0 = recenter_cr_singularity(offset_raw(lam=0.0).slice_matrix(x), x)
    assert abs(z0 - (-0.1)) < 1e-12


def test_recenter_closed_form_lambda_quarter():
    # dF/dzbar = x2 + z + 2 lam zbar = 0 with everything real: z0 = -x2/(1+2lam)
    x2 = 0.08
    x = (x2, 0.0)
    z0 = recenter_cr_singularity(offset_raw(lam=0.25).slice_matrix(x), x)
    assert abs(z0 - (-x2 / 1.5)) < 1e-12
    # independent 2x2 real linear-system oracle for z + 2 lam zbar = -x2
    jac = np.array([[1.0 + 0.5, 0.0], [0.0, 1.0 - 0.5]])
    ox, oy = np.linalg.solve(jac, [-x2, 0.0])
    assert abs(z0 - complex(ox, oy)) < 1e-12


def test_detect_after_recenter():
    raw = offset_raw(lam=0.25)
    x = (0.1, 0.0)
    z0 = recenter_cr_singularity(raw.slice_matrix(x), x)
    shifted = translate_matrix(raw.slice_matrix(x), z0)
    assert detect_cr_singularity(shifted)


# --------------------------------------------------------------------------
# quadric normalization
# --------------------------------------------------------------------------

def test_normalize_identity_on_normal_form():
    raw = plain_quadric_raw(lam=0.2)
    spec, change = normalize_full(raw, l=7)
    for x, rec in change.records.items():
        assert abs(rec.z0) < 1e-12
        assert abs(rec.gamma - 1.0) < 1e-12
        assert abs(rec.theta) < 1e-12
        assert rec.lam == pytest.approx(0.2, abs=1e-12)


def test_rotation_round_trip():
    lam = 0.2
    base = plain_quadric_raw(lam).slice_matrix((0.0, 0.0))
    rotated = rotate_matrix(base, -0.3)   # makes the zbar^2 coefficient lam e^{0.6 i}
    coeffs = {}
    for j in range(MD + 1):
        for k in range(MD + 1):
            if rotated[j, k] != 0.0:
                coeffs[(j, k)] = C({(0, 0): rotated[j, k].real},
                                   {(0, 0): rotated[j, k].imag})
    raw = raw_from_coeffs(coeffs)
    spec, change = normalize_full(raw, l=7)
    rec = change.records[(0.0, 0.0)]
    assert rec.theta == pytest.approx(0.3, abs=1e-12)
    assert rec.lam == pytest.approx(lam, abs=1e-12)


def test_quadratic_absorption_balances_coefficients():
    raw = raw_from_coeffs({
        (1, 1): C(ONE),
        (2, 0): C({(0, 0): 0.31}, {(0, 0): 0.07}),   # Lambda1 != Lambda2
        (0, 2): C({(0, 0): 0.2}),
    })
    spec, change = normalize_full(raw, l=7)
    for x in sorted(spec.samples):
        _, qp, _ = spec.samples[x]
        assert abs(qp[2, 0] - qp[0, 2]) < 1e-12
        assert abs(qp[0, 2].imag) < 1e-12
        assert qp[0, 2].real >= 0.0


def test_ellipticity_violation_detected():
    with pytest.raises(EllipticityViolation):
        normalize_full(plain_quadric_raw(lam=0.4995), l=7)


def failing_raw():
    """w = x2 zbar + (1 + 2 x2) z zbar + (1/4 + y2)(z^2 + zbar^2): the
    recentering Jacobian is singular where 1 + 2 x2 = 2 lam."""
    lam = C({(0, 0): 0.25, (0, 1): 1.0})
    return raw_from_coeffs({(0, 1): C(X2), (1, 1): C({(0, 0): 1.0, (1, 0): 2.0}),
                            (2, 0): lam, (0, 2): lam})


SINGULAR = ((0.25, 0.5), NoConvergence, "singular recentering Jacobian at X=(0.25, 0.5)")
DEGENERATE = ((-0.5, 0.0), NoConvergence, "degenerate z zbar coefficient 0j at X=(-0.5, 0.0)")
ELLIPTIC = ((0.0, 0.5), EllipticityViolation, "lambda((0.0, 0.5)) = 0.750000 outside")


@pytest.mark.parametrize("first, second", [
    (ELLIPTIC, SINGULAR), (SINGULAR, DEGENERATE), (DEGENERATE, ELLIPTIC)],
    ids=["elliptic-singular", "singular-degenerate", "degenerate-elliptic"])
def test_stacked_pass_raises_the_first_failing_samples_error(first, second):
    # the second failing sample fails a check the first one passes; the grid
    # still raises the first one's error, as its own single-sample pass does
    (x, error, message), (y, _, _) = first, second
    raw = failing_raw()
    with pytest.raises(PipelineError) as alone:
        normalize_full(raw, 7, [x])
    with pytest.raises(PipelineError) as grid:
        normalize_full(raw, 7, [(0.0, 0.0), x, (0.01, 0.0), y])
    for exc in (alone.value, grid.value):
        assert type(exc) is error and str(exc).startswith(message)
    assert str(grid.value) == str(alone.value)


# --------------------------------------------------------------------------
# imaginary-tail elimination
# --------------------------------------------------------------------------

def test_stage_dimensions_match():
    for m in range(3, 8):
        mons = weighted_monomials(m)
        n_unknowns = 2 * len(mons) - (1 if m % 2 == 0 else 0)
        assert n_unknowns == m + 1


def test_cubic_stage_closed_form():
    # defect Im z^3 = (z^3 - zbar^3)/(2i): solution C3 = -i z^3
    size = MD + 1
    defect = np.zeros((size, size), dtype=complex)
    defect[3, 0] = -0.5j
    defect[0, 3] = 0.5j
    cm, cond = solve_normalization_stage(0.0, defect, 3, size)
    assert abs(cm[(3, 0)] - (-1j)) < 1e-13
    assert abs(cm.get((1, 1), 0.0)) < 1e-13
    assert cond < 1e3


def test_weight4_stage_against_residual_oracle():
    rng = np.random.default_rng(12)
    size = MD + 1
    lam = 0.25
    defect = np.zeros((size, size), dtype=complex)
    c40 = complex(rng.normal(), rng.normal())
    c31 = complex(rng.normal(), rng.normal())
    c22 = rng.normal()
    defect[4, 0], defect[0, 4] = c40, np.conj(c40)
    defect[3, 1], defect[1, 3] = c31, np.conj(c31)
    defect[2, 2] = c22
    cm, _ = solve_normalization_stage(lam, defect, 4, size)
    # normalization: the w^2 coefficient must be real
    assert abs(cm[(0, 2)].imag) < 1e-13
    # oracle: Re C4(z, q(z)) reproduces the defect pointwise on a z grid
    q = quadric_matrix(lam, size)
    c_of_q = compose_w(cm, q)
    zs = 0.3 * np.exp(1j * np.linspace(0, 2 * np.pi, 17, endpoint=False))
    got = eval_matrix(c_of_q, zs).real
    want = eval_matrix(defect, zs).real
    assert np.max(np.abs(got - want)) < 1e-12


def test_stacked_stage_names_first_singular_sample():
    # lam = 1 makes the weight-3 system singular
    size = MD + 1
    defect = np.zeros((4, size, size), dtype=complex)
    with pytest.raises(SingularNormalizationMatrix, match="weight-3 .* of sample 2 "):
        solve_normalization_stage(np.array([0.2, 0.3, 1.0, 1.0]), defect, 3, size)


def test_non_finite_stage_input_is_typed():
    # np.linalg.cond would raise an untyped LinAlgError on these
    size = MD + 1
    with pytest.raises(SingularNormalizationMatrix, match="weight-4 .* of sample 0 .*non-finite"):
        solve_normalization_stage(np.nan, np.zeros((size, size)), 4, size)
    defect = np.zeros((3, size, size), dtype=complex)
    defect[2, 4, 0] = np.inf
    with pytest.raises(SingularNormalizationMatrix, match="weight-4 .* of sample 1 .*non-finite"):
        solve_normalization_stage(np.array([0.2, np.nan, 0.3]), defect, 4, size)
    with pytest.raises(SingularNormalizationMatrix, match="weight-4 .* of sample 2 .*non-finite"):
        solve_normalization_stage(np.array([0.2, 0.25, 0.3]), defect, 4, size)


def test_stalled_recentering_names_its_sample(monkeypatch):
    # one Newton step leaves the nonlinear samples short of NEWTON_TOL; the
    # origin is centred already and passes
    monkeypatch.setattr(normal_form, "NEWTON_MAX_ITER", 1)
    raw = full_raw_example()
    x, y = (0.05, 0.0), (-0.08, 0.03)
    with pytest.raises(NoConvergence, match="recentering Newton stalled") as alone:
        normalize_full(raw, 7, [x])
    with pytest.raises(NoConvergence) as grid:
        normalize_full(raw, 7, [(0.0, 0.0), x, y])
    assert str(grid.value) == str(alone.value) and str(alone.value).endswith(f"X={x}")


def test_kill_is_identity_when_tail_absent():
    spec, change = normalize_full(plain_quadric_raw(lam=0.2), l=7)
    for x, rec in change.records.items():
        for m, cm in rec.bm.items():
            assert max(abs(v) for v in cm.values()) < 1e-12


def test_order_above_series_degree_rejected():
    with pytest.raises(SchemaViolation, match="too small for order l = 11"):
        normalize_full(plain_quadric_raw(lam=0.2), l=MD + 1)


# --------------------------------------------------------------------------
# full pipeline
# --------------------------------------------------------------------------

def full_raw_example():
    """Offset singular locus, nonreal quadratic data, degree 3..6 imaginary
    defects with parameter dependence, plus a real cubic tail."""
    lam = 0.2
    l2 = 0.2 * np.exp(0.6j)
    return raw_from_coeffs({
        (0, 0): C({(2, 0): 0.05}),
        (0, 1): C(X2),
        (1, 0): C({(0, 1): 0.3}),
        (1, 1): C({(0, 0): 1.0, (1, 0): 0.3}),
        (2, 0): C({(0, 0): 0.23, (0, 1): 0.1}, {(0, 0): 0.05}),
        (0, 2): C({(0, 0): l2.real, (1, 0): 0.15 * l2.real},
                  {(0, 0): l2.imag, (1, 0): 0.15 * l2.imag}),
        # real cubic tail
        (3, 0): C({(0, 0): 0.02}, {(0, 0): 0.01}),
        (0, 3): C({(0, 0): 0.02}, {(0, 0): 0.01}),
        # imaginary defects, degrees 3..6
        (2, 1): C({}, {(0, 0): 0.005, (1, 0): 0.01}),
        (1, 2): C({}, {(0, 0): 0.005, (1, 0): 0.01}),
        (2, 2): C({(0, 0): 0.01}, {(0, 0): 0.008}),
        (4, 1): C({}, {(0, 0): 0.004}),
        (1, 4): C({}, {(0, 0): 0.004}),
        (3, 2): C({}, {(0, 0): 0.003}),
        (2, 3): C({}, {(0, 0): 0.003}),
        (3, 3): C({}, {(0, 0): 0.002}),
    })


@pytest.fixture(scope="module")
def normalized_example():
    raw = full_raw_example()
    spec, change = normalize_full(raw, l=7)
    return raw, spec, change


def test_pipeline_kills_linear_and_low_k(normalized_example):
    raw, spec, change = normalized_example
    for x in sorted(spec.samples):
        lam_val, qp, kmat = spec.samples[x]
        assert abs(qp[0, 1]) < 1e-12                  # recentering
        assert abs(qp[0, 2].imag) < 1e-12             # rotation
        assert qp[0, 2].real >= 0.0
        assert abs(qp[2, 0] - qp[0, 2]) < 1e-12       # absorption
        for j in range(kmat.shape[0]):
            for k in range(kmat.shape[1]):
                if 0 < j + k < 7:
                    assert abs(kmat[j, k]) < 1e-10    # tail elimination


def test_pipeline_round_trip(normalized_example):
    raw, spec, change = normalized_example
    for x in sorted(spec.samples):
        replayed = change.apply_slice(raw, x)
        lam_val, qp, kmat = spec.samples[x]
        stored = qp + 1j * kmat
        # compare as full complex series: real and imaginary tails together
        diff = replayed - (real_part_matrix(stored) + 1j * imag_part_matrix(stored))
        assert np.max(np.abs(diff)) < 1e-10


def test_pipeline_preserves_cr_detection(normalized_example):
    raw, spec, change = normalized_example
    for x in sorted(spec.samples):
        _, qp, kmat = spec.samples[x]
        assert detect_cr_singularity(qp + 1j * kmat)


def test_lambda_continuity(normalized_example):
    raw, spec, change = normalized_example
    lam0 = change.records[(0.0, 0.0)].lam
    for x, rec in change.records.items():
        norm = np.hypot(*x)
        assert abs(rec.lam - lam0) <= 5.0 * norm + 1e-12


def test_slice_derivative_matches_the_fits(normalized_example):
    # the fits have degree 2 in X, so central differences of slice_at off
    # the sample table are exact up to rounding
    raw, spec, change = normalized_example
    x, h = np.array([0.03, -0.02]), 1e-4
    assert np.max(np.abs(spec.slice_derivative(tuple(x), 0)[0])) > 0.01
    for axis in range(2):
        step = np.eye(2)[axis] * h
        hi, lo = spec.slice_at(tuple(x + step)), spec.slice_at(tuple(x - step))
        dqp, dk = spec.slice_derivative(tuple(x), axis)
        assert np.max(np.abs(dqp - (hi.qp - lo.qp) / (2 * h))) < 1e-10
        assert np.max(np.abs(dk - (hi.k - lo.k) / (2 * h))) < 1e-10


def test_sample_grid_covers_ball():
    grid = sample_grid(2, 0.15)
    assert len(grid) == 9
    assert all(np.hypot(*x) <= 0.15 + 1e-15 for x in grid)
    assert (0.0, 0.0) in grid


def test_grid_pass_is_bitwise_the_pointwise_pass():
    raw = full_raw_example()
    points = sample_grid(2, 0.12, points_per_axis=4)
    spec, change = normalize_full(raw, 7, points)
    assert len(spec.samples) == 16
    for x in points:
        alone, alone_change = normalize_full(raw, 7, [x])
        lam, qp, kmat = spec.samples[x]
        lam_a, qp_a, kmat_a = alone.samples[x]
        assert lam == lam_a
        assert qp.tobytes() == qp_a.tobytes() and kmat.tobytes() == kmat_a.tobytes()
        rec, rec_a = change.records[x], alone_change.records[x]
        for f in ("z0", "const_shift", "c10", "gamma", "theta", "quad_absorb", "lam"):
            v, v_a = getattr(rec, f), getattr(rec_a, f)
            assert type(v) is type(v_a) and np.asarray(v).tobytes() == np.asarray(v_a).tobytes(), f
            # the types StageRecord declares: Python float for theta and lam, complex otherwise
            assert type(v) is (float if f in ("theta", "lam") else complex), f
        bm, bm_a = rec.bm, rec_a.bm
        assert list(bm) == list(bm_a) == list(range(3, 8))
        for m in bm:
            assert list(bm[m]) == list(bm_a[m])
            for jk, v in bm[m].items():
                assert v == bm_a[m][jk] and type(v) is type(bm_a[m][jk])


def test_sample_points_array_and_empty_list():
    raw = full_raw_example()
    grid = sample_grid(2, 0.15)
    spec, _ = normalize_full(raw, 7, np.array(grid))
    default, _ = normalize_full(raw, 7)
    assert list(spec.samples) == list(default.samples)
    with pytest.raises(EmptySampleGrid, match="empty list of sample points"):
        normalize_full(raw, 7, [])


def column_fit(design, values, nvars):
    """Independent least-squares fit of one column of samples: the terms of
    its real and imaginary parts, each from its own solve."""
    mons = monomials_upto(nvars, FIT_DEGREE)
    return [{e: c for e, c in zip(mons, np.linalg.lstsq(design, part, rcond=None)[0])
             if abs(c) > 1e-14} for part in (np.real(values), np.imag(values))]


@pytest.mark.parametrize("l", [7, 9])
@pytest.mark.parametrize("per_axis", [3, 9])
def test_one_solve_fits_match_per_column_fits(l, per_axis):
    raw = specio.load(specio.resolve_spec_path("builtin:raw_example"))
    points = sample_grid(raw.nvars, raw.validity_radius, per_axis)
    spec, change = normalize_full(raw, l, points)
    design = fit_design(points, raw.nvars)
    recs = [change.records[x] for x in points]
    lams = np.array([spec.samples[x][0] for x in points])
    qps, ks = (np.stack([spec.samples[x][i] for x in points]) for i in (1, 2))
    pmats = qps - quadric_matrix(lams, qps.shape[-1])
    pairs = [(ComplexParam(spec.lam, ParamPoly.zero(raw.nvars)), lams),
             (ComplexParam(change.theta_fit, ParamPoly.zero(raw.nvars)),
              [r.theta for r in recs])]
    pairs += [(getattr(change, f"{f}_fit"), [getattr(r, f) for r in recs])
              for f in ("z0", "gamma", "c10", "quad_absorb")]
    pairs += [(fit, [r.bm[m][jk] for r in recs])
              for m, fits in change.bm_fits.items() for jk, fit in fits.items()]
    for series, mats in ((spec.p, pmats), (spec.k, ks)):
        d = mats.shape[-1]
        kept = {(j, k) for j in range(d) for k in range(d - j)
                if np.max(np.abs(mats[:, j, k])) > FIT_DROP_TOL}
        assert set(series.coeffs) == kept
        pairs += [(fit, mats[:, j, k]) for (j, k), fit in series.coeffs.items()]
    assert len(pairs) > 100
    # one solve against per-column solves: measured at most 4.7e-12 relative
    for fit, values in pairs:
        for got, want in zip((fit.re.terms, fit.im.terms), column_fit(design, values, raw.nvars)):
            assert set(got) == set(want)
            for e, c in want.items():
                assert abs(got[e] - c) <= 1e-11 * abs(c), (e, got[e], c)

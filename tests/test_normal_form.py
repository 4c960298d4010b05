"""Normal form reduction tests: closed-form recentering, rotation round
trips, stagewise elimination against a residual oracle, full-pipeline checks."""

import numpy as np
import pytest

from bishopdiscs.errors import EllipticityViolation, SchemaViolation
from bishopdiscs.normal_form import (
    RawDefiningSeries, detect_cr_singularity, normalize_full,
    recenter_cr_singularity, sample_grid, solve_normalization_stage,
    weighted_monomials,
)
from bishopdiscs.series import (
    BidegreeSeries, ComplexParam, ParamPoly, compose_w, eval_matrix,
    imag_part_matrix, quadric_matrix, real_part_matrix, rotate_matrix,
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


def test_sample_grid_covers_ball():
    grid = sample_grid(2, 0.15)
    assert len(grid) == 9
    assert all(np.hypot(*x) <= 0.15 + 1e-15 for x in grid)
    assert (0.0, 0.0) in grid

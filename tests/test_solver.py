"""Boundary-equation solver tests: operator factorization, level functional
remainders, trivial and order-7 families, decay-rate fits."""

import numpy as np
import pytest

from bishopdiscs import fourier
from bishopdiscs.conformal import riemann_map
from bishopdiscs.curve import SliceParams, quadric_slice, trace_level_curve
from bishopdiscs.errors import ZeroOnCurve
from bishopdiscs.solver import (
    build_slice_operators, linearized_level, omega, omega_deviation,
    solve_slice, solve_u,
)
from conftest import RATE_R_LIST, TIGHT_CONFIG, make_spec, perturbed_slice

X0 = (0.0, 0.0)


def pipeline(data, r):
    curve = trace_level_curve(data, SliceParams(X0, r))
    cmap = riemann_map(curve)
    ops = build_slice_operators(curve, cmap)
    return curve, cmap, ops


# --------------------------------------------------------------------------
# operator factorization
# --------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.0, 0.2, 0.3, 0.45])
def test_quadric_operators(lam):
    # Re{(q)_z z} = q = r^2 on the curve, so C = 2, |C| = 2, C* = 1/2, D = 1
    curve, cmap, ops = pipeline(quadric_slice(lam), 0.1)
    c = ops.c_complex.real
    assert np.max(np.abs(c - 2.0)) < 1e-10
    assert np.max(np.abs(np.abs(c) - 2.0)) < 1e-10
    assert np.min(c) > 0.0             # arg C = 0 on the whole curve
    assert np.max(np.abs(ops.c_star - 0.5)) < 1e-10
    assert np.max(np.abs(ops.d_samples - 1.0)) < 1e-10


def test_perturbed_operators_holomorphic_d():
    curve, cmap, ops = pipeline(perturbed_slice(0.25, cubic=0.1), 0.05)
    assert ops.d_energy < 1e-8
    assert np.min(ops.c_star) > 0.0


def test_c_star_positive_over_random_specs():
    rng = np.random.default_rng(21)
    for _ in range(10):
        lam = rng.uniform(0.0, 0.3)
        cubic = rng.uniform(-0.2, 0.2)
        curve, cmap, ops = pipeline(perturbed_slice(lam, cubic=cubic), 0.05)
        assert np.min(ops.c_star) > 0.0


def test_zero_on_curve_detected():
    # star-shapedness of traceable curves keeps C away from zero, so the
    # gate is exercised on a doctored slice whose coefficient dips: trace a
    # circle, then hand the operator data with a large cubic term
    import dataclasses
    curve = trace_level_curve(quadric_slice(0.0), SliceParams(X0, 0.1))
    cmap = riemann_map(curve)
    doctored = dataclasses.replace(curve, data=perturbed_slice(0.0, cubic=7.0))
    with pytest.raises(ZeroOnCurve):
        build_slice_operators(doctored, cmap)


# --------------------------------------------------------------------------
# level functional
# --------------------------------------------------------------------------

def test_omega_is_one_at_zero():
    curve, cmap, ops = pipeline(perturbed_slice(0.25, cubic=0.1), 0.05)
    vals = omega(np.zeros(cmap.n), curve, cmap.boundary_z)
    assert np.max(np.abs(vals - 1.0)) < 1e-10


def test_omega_quadric_homogeneity():
    curve, cmap, ops = pipeline(quadric_slice(0.2), 0.1)
    eps = 1e-3
    vals = omega(np.full(cmap.n, eps, dtype=complex), curve, cmap.boundary_z)
    assert np.max(np.abs(vals - (1 + eps) ** 2)) < 1e-12


def test_omega_quadratic_remainder_scaling():
    # the remainder past the true derivative is quadratic: halving F
    # divides it by four
    curve, cmap, ops = pipeline(perturbed_slice(0.2, cubic=0.1), 0.05)
    rng = np.random.default_rng(3)
    base = 1e-3 * (rng.normal(size=cmap.n) + 1j * rng.normal(size=cmap.n))
    rems = []
    for scale in (1.0, 0.5):
        f = scale * base
        rem = omega_deviation(f, curve, cmap.boundary_z) - linearized_level(ops, f)
        rems.append(np.max(np.abs(rem)))
    ratio = rems[0] / rems[1]
    assert 3.5 < ratio < 4.5


def test_omega_deviation_matches_plain_omega():
    curve, cmap, ops = pipeline(perturbed_slice(0.2, cubic=0.1), 0.05)
    rng = np.random.default_rng(4)
    f = 1e-4 * (rng.normal(size=cmap.n) + 1j * rng.normal(size=cmap.n))
    plain = omega(f, curve, cmap.boundary_z)
    dev = omega_deviation(f, curve, cmap.boundary_z)
    assert np.max(np.abs(plain - 1.0 - dev)) < 1e-10


# --------------------------------------------------------------------------
# trivial family
# --------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.0, 0.2, 0.3, 0.45])
def test_quadric_solution_is_trivial(lam):
    curve, cmap, ops = pipeline(quadric_slice(lam), 0.1)
    sol = solve_u(curve, cmap, ops)
    assert sol.norm_u < 1e-10
    assert np.max(np.abs(sol.f_samples)) < 1e-10
    assert np.max(np.abs(sol.b_samples - 0.01)) < 1e-12


# --------------------------------------------------------------------------
# order-7 family
# --------------------------------------------------------------------------

def test_l7_slice_converges_quickly(rate_family):
    sol = rate_family[0.1]
    assert sol.iterations < 30
    assert sol.residual < 1e-13 * 0.01


def test_l7_halved_spacing_cross_check():
    # halving the grid spacing (doubling the node count) must leave the
    # solved norm unchanged to spectral accuracy
    from bishopdiscs.config import PipelineConfig
    spec = make_spec()
    base = solve_slice(spec, SliceParams(X0, 0.08), TIGHT_CONFIG)
    fine = solve_slice(spec, SliceParams(X0, 0.08),
                       config=PipelineConfig(ntheta=512, solve_tol=1e-22))
    rel = abs(fine.norm_u - base.norm_u) / base.norm_u
    assert rel < 1e-9


def test_l7_decay_rate(rate_family):
    norms = [rate_family[r].norm_u for r in RATE_R_LIST]
    slope = np.polyfit(np.log(RATE_R_LIST), np.log(norms), 1)[0]
    assert 4.5 <= slope <= 5.5


def test_fixed_point_verification(rate_family):
    for sol in rate_family.values():
        assert sol.residual < 1e-12 * sol.cmap.r ** 2 + 1e-15


def test_attachment_tautology(rate_family):
    sol = rate_family[0.1]
    pts = sol.cmap.boundary_z * (1.0 + sol.f_samples)
    qp_direct = sol.cmap.curve.data.eval_qp(pts).real
    k_direct = sol.cmap.curve.data.eval_k(pts).real
    assert np.max(np.abs(sol.b_samples.real - qp_direct)) < 1e-12
    assert np.max(np.abs(sol.b_samples.imag - k_direct)) < 1e-12


def test_holomorphic_consistency(rate_family):
    sol = rate_family[0.1]
    f_frac = fourier.negative_energy_fraction(sol.f_samples)
    b_frac = fourier.negative_energy_fraction(sol.b_samples - np.mean(sol.b_samples))
    assert f_frac < 1e-8
    assert b_frac < 1e-8


def test_center_height_normalization(rate_family):
    for sol in rate_family.values():
        assert sol.center_height_residual < 1e-8 * sol.cmap.r ** 2


def test_contraction_evidence(rate_family):
    for sol in rate_family.values():
        assert sol.contraction_ok


def test_phi_decomposition(rate_family):
    sol = rate_family[0.08 if 0.08 in rate_family else 0.1]
    phi = sol.f_samples.real
    recon = phi + 1j * fourier.conjugate_samples(phi)
    scale = np.max(np.abs(sol.f_samples))
    assert np.max(np.abs(recon - sol.f_samples)) < 1e-10 * scale + 1e-15

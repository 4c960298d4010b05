"""Disc assembly and family sweep tests: extension oracles, attachment,
disjointness, rate fits, and the origin-jacobian probe."""

import numpy as np
import pytest

from bishopdiscs import fourier
from bishopdiscs.curve import SliceParams
from bishopdiscs.discs import (
    build_disc, cauchy_extend, derivative_bound_probe, extend_in_disc,
    fit_loglog_slope, interior_grid, jacobian_defect, sweep,
)
from bishopdiscs.errors import StencilOutOfRange, TargetTooCloseToBoundary
from bishopdiscs.solver import solve_slice
from conftest import RATE_R_LIST, TIGHT_CONFIG, make_spec

X0 = (0.0, 0.0)


# --------------------------------------------------------------------------
# Cauchy extension
# --------------------------------------------------------------------------

def test_extension_reproduces_holomorphic_data():
    t = fourier.grid(256)
    boundary = np.exp(2j * t)          # z^2 on the unit circle
    val = extend_in_disc(boundary, np.array([0.3 + 0.0j]))
    assert abs(val[0] - 0.09) < 1e-13


def test_extension_annihilates_antiholomorphic_data():
    t = fourier.grid(256)
    boundary = np.exp(-1j * t)         # conj z on the unit circle
    val = extend_in_disc(boundary, np.array([0.0j]))
    assert abs(val[0]) < 1e-13


@pytest.fixture(scope="module")
def ellipse(ellipse_map):
    return ellipse_map


def test_cauchy_extend_matches_direct_evaluation(ellipse):
    targets = np.array([0.02 + 0.01j, -0.01 + 0.03j, 0.0j])
    boundary = np.exp(ellipse.boundary_z)
    got = cauchy_extend(ellipse, boundary, targets)
    assert np.max(np.abs(got - np.exp(targets))) < 1e-10


def test_cauchy_extend_near_boundary_crossover(ellipse):
    # in the overlap zone both the quadrature and the pullback-Taylor
    # routes are valid and must agree
    boundary = np.exp(ellipse.boundary_z)
    diam = 2.0 * float(np.max(np.abs(ellipse.boundary_z)))
    cutoff = 2.0 * np.pi * diam / ellipse.n
    base = ellipse.boundary_z[40]
    for dist in (1.2 * cutoff, 2.0 * cutoff):
        target = np.array([base * (1.0 - dist / abs(base))])
        quadrature = fourier.cauchy_integral(
            boundary, ellipse.boundary_z, ellipse.boundary_dz, target)
        w = ellipse.invert(target)
        taylor = fourier.eval_taylor(
            fourier.taylor_from_boundary(boundary, ellipse.n // 2), w)
        assert abs(quadrature[0] - taylor[0]) < 1e-8
        assert abs(quadrature[0] - np.exp(target[0])) < 1e-8


def test_cauchy_extend_rejects_boundary_points(ellipse):
    boundary = np.exp(ellipse.boundary_z)
    with pytest.raises(TargetTooCloseToBoundary):
        cauchy_extend(ellipse, boundary, np.array([ellipse.boundary_z[3]]))


# --------------------------------------------------------------------------
# disc assembly
# --------------------------------------------------------------------------

def test_quadric_disc_is_model_disc():
    spec = make_spec(lam=0.2, k7=0.0)
    sp = SliceParams(X0, 0.1)
    sol = solve_slice(spec, sp)
    disc = build_disc(spec, sp, sol)
    zeta = interior_grid(16, sol.cmap.n)
    z_values, w_values = disc.values(zeta)
    model = sp.r * sol.cmap.sigma(zeta)
    assert np.max(np.abs(z_values - model)) < 1e-10
    assert np.max(np.abs(w_values - sp.u)) < 1e-10
    assert disc.boundary_residual < 1e-10
    assert disc.center_offset < 1e-10


def test_l7_disc_attachment(rate_family):
    spec = make_spec()
    sp = SliceParams(X0, 0.1)
    disc = build_disc(spec, sp, rate_family[0.1])
    assert disc.boundary_residual < 1e-8
    assert disc.center_offset < 1e-10
    assert disc.solution.center_height_residual < 1e-8


def test_disc_interior_is_analytic(rate_family):
    spec = make_spec()
    sp = SliceParams(X0, 0.1)
    sol = rate_family[0.1]
    boundary = sol.cmap.boundary_z * (1.0 + sol.f_samples)
    rng = np.random.default_rng(8)
    pts = 0.6 * rng.uniform(0.2, 1.0, 8) * np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
    h = 1e-5
    fx = (extend_in_disc(boundary, pts + h) - extend_in_disc(boundary, pts - h)) / (2 * h)
    fy = (extend_in_disc(boundary, pts + 1j * h)
          - extend_in_disc(boundary, pts - 1j * h)) / (2 * h)
    assert np.max(0.5 * np.abs(fx + 1j * fy)) < 1e-8


# --------------------------------------------------------------------------
# probes
# --------------------------------------------------------------------------

def test_probe_zero_for_trivial_family():
    spec = make_spec(lam=0.2, k7=0.0)
    sp = SliceParams(X0, 0.1)
    for j, s in [(0, 0), (1, 0), (0, 1)]:
        assert derivative_bound_probe(spec, sp, j, s) < 1e-12


def test_probe_theta_derivative_rate(rate_family):
    spec = make_spec()
    vals = [derivative_bound_probe(spec, SliceParams(X0, r), 1, 0,
                                   solution=rate_family[r])
            for r in RATE_R_LIST]
    slope = fit_loglog_slope(RATE_R_LIST, vals)
    assert 4.5 <= slope <= 5.5


def test_probe_radial_derivative_rate():
    spec = make_spec()
    vals = [derivative_bound_probe(spec, SliceParams(X0, r), 0, 1, TIGHT_CONFIG)
            for r in RATE_R_LIST]
    slope = fit_loglog_slope(RATE_R_LIST, vals)
    assert 3.5 <= slope <= 4.5


def test_probe_range_guards():
    spec = make_spec()
    with pytest.raises(ValueError):
        derivative_bound_probe(spec, SliceParams(X0, 0.1), 2, 1)
    with pytest.raises(StencilOutOfRange):
        derivative_bound_probe(spec, SliceParams(X0, 0.2), 0, 1)


def test_jacobian_defect_small_and_shrinking():
    spec = make_spec(cubic=0.1)
    defects = [jacobian_defect(spec, SliceParams(X0, r), TIGHT_CONFIG)
               for r in (0.1, 0.03)]
    assert defects[1] < defects[0]
    assert defects[1] < 0.05


def test_jacobian_probe_is_sensitive(rate_family):
    # a synthetic shift of F must show up as a first-component derivative
    import dataclasses
    spec = make_spec()
    sol = rate_family[0.1]
    shifted = dataclasses.replace(sol, f_samples=sol.f_samples + 1e-4)
    defect = jacobian_defect(spec, SliceParams(X0, 0.1), TIGHT_CONFIG,
                             base_solution=shifted)
    assert 0.5e-4 < defect < 2e-4


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def test_quadric_sweep_disjoint_and_nested():
    spec = make_spec(lam=0.2, k7=0.0, radius=0.3)
    grid = [(0.0, 0.0), (0.05, 0.0), (0.0, 0.05)]
    report = sweep(spec, grid, [0.05, 0.08, 0.1])
    assert not report.failures
    assert report.converged_count() == 9
    assert report.nested_curves
    assert report.disjointness["min_distance"] > 0.0
    assert report.disjointness["same_height_margin"] > 0.5
    for rec in report.slices:
        assert rec["norm_u"] < 1e-10
        assert rec["boundary_residual"] < 1e-10


def test_l7_sweep_rates_and_jacobian():
    spec = make_spec(cubic=0.1)
    report = sweep(spec, [X0], [0.03, 0.05, 0.07, 0.1], TIGHT_CONFIG)
    assert not report.failures
    fit = report.rate_fits[0]
    assert 4.5 <= fit["slope_norm_u"] <= 5.5
    assert 3.5 <= fit["slope_dr_u"] <= 4.5
    trend = [e["max_defect"] for e in report.jacobian_trend]
    assert trend[0] < 0.05
    assert trend[0] <= trend[-1] * 1.5 + 1e-12  # defect does not grow as r shrinks
    for rec in report.slices:
        assert rec["boundary_residual"] < 1e-8


def test_sweep_records_failures_and_continues():
    spec = make_spec()
    report = sweep(spec, [X0], [0.05, 0.25])
    assert len(report.failures) == 1
    assert "ValidityEscape" in report.failures[0]["error"]
    assert report.converged_count() == 1


def test_sweep_hilbert_probe_entries():
    spec = make_spec(cubic=0.1, k7=0.0)
    report = sweep(spec, [X0], [0.02, 0.04, 0.08])
    assert len(report.hilbert_gaps) == 1
    assert report.hilbert_gaps[0]["gap"] > 0.0

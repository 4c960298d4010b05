"""Disc assembly and family sweep tests: extension oracles, attachment,
disjointness, rate fits, and the origin-jacobian probe."""

import dataclasses

import numpy as np
import pytest

from bishopdiscs import fourier, specio
from bishopdiscs.config import PipelineConfig
from bishopdiscs.curve import SliceParams
from bishopdiscs.discs import (
    build_disc, cauchy_extend, center_rates, extend_in_disc, fit_loglog_slope,
    jacobian_defect, slice_tangents, sweep,
)
from bishopdiscs.errors import TargetTooCloseToBoundary
from bishopdiscs.solver import solve_slice
from conftest import (
    RATE_R_LIST, TIGHT_CONFIG, derivative_bound_probe, interior_grid, make_spec,
)

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
    sol = solve_slice(spec, SliceParams(X0, 0.1))
    for j, s in [(0, 0), (1, 0), (0, 1)]:
        assert derivative_bound_probe(spec, sol, j, s) < 1e-12
    # l = 8 admits s = 2, which differences the tangents at r +- r/20 = 0.1758, 0.1943
    spec = dataclasses.replace(spec, l=8)
    sol = solve_slice(spec, SliceParams(X0, 0.185))
    assert derivative_bound_probe(spec, sol, 0, 2) < 1e-12


def test_probe_theta_derivative_rate(rate_family):
    spec = make_spec()
    vals = [derivative_bound_probe(spec, rate_family[r], 1, 0) for r in RATE_R_LIST]
    slope = fit_loglog_slope(RATE_R_LIST, vals)
    assert 4.5 <= slope <= 5.5


def test_probe_radial_derivative_rate(rate_family):
    spec = make_spec()
    vals = [derivative_bound_probe(spec, rate_family[r], 0, 1, TIGHT_CONFIG)
            for r in RATE_R_LIST]
    slope = fit_loglog_slope(RATE_R_LIST, vals)
    assert 3.5 <= slope <= 4.5


def test_probe_range_guards(rate_family):
    spec = make_spec()
    with pytest.raises(ValueError):
        derivative_bound_probe(spec, rate_family[0.1], 2, 1)
    # the radius tangent needs no stencil, so s = 1 is finite at r = r_max
    probe = derivative_bound_probe(spec, solve_slice(spec, SliceParams(X0, 0.2)), 0, 1)
    assert np.isfinite(probe) and probe > 0.0


def test_jacobian_defect_small_and_shrinking():
    spec = make_spec(cubic=0.1)
    sols = [solve_slice(spec, SliceParams(X0, r), TIGHT_CONFIG) for r in (0.1, 0.03)]
    defects = [jacobian_defect(sol, slice_tangents(spec, sol)) for sol in sols]
    assert defects[1] < defects[0]
    assert defects[1] < 0.05


def test_tangent_blocks_of_the_jacobian_at_noise_floor():
    # criterion 6's spec has X-independent coefficients, so its 36 slices
    # are these four radii: the X block is exactly 0 and the u block read
    # from the radius tangent sits at the rounding level
    spec = make_spec(lam=0.2, cubic=0.1, k7=0.05)
    for r in (0.03, 0.05, 0.07, 0.1):
        sol = solve_slice(spec, SliceParams(X0, r))
        r_tangent, x_tangents = slice_tangents(spec, sol)
        assert all(center_rates(sol, t) == (0j, 0j) for t in x_tangents)
        dz_dr, dw_dr = center_rates(sol, r_tangent)
        assert abs(dz_dr) / (2 * r) <= 1e-15
        assert abs(dw_dr / (2 * r) - 1.0) <= 1e-15


def test_jacobian_probe_is_sensitive(rate_family):
    # a synthetic shift of F must show up as a first-component derivative
    spec = make_spec()
    sol = rate_family[0.1]
    shifted = dataclasses.replace(sol, f_samples=sol.f_samples + 1e-4)
    defect = jacobian_defect(shifted, slice_tangents(spec, sol))
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
    # K = 0: Re W is the constant r^2 on every disc, so the certified bound
    # is the height gap of the two largest radii itself
    assert abs(report.disjointness["min_distance"] - (0.1 ** 2 - 0.08 ** 2)) < 1e-15
    assert abs(report.disjointness["same_height_margin"] - 1.0) < 1e-12
    for rec in report.slices:
        assert rec["norm_u"] < 1e-10
        assert rec["boundary_residual"] < 1e-10


def ambient_samples(disc):
    """(Re z, Im z, X, Re w, Im w) at the nodes of interior_grid(16, ntheta)."""
    z, w = disc.values(interior_grid(16, disc.solution.cmap.n).ravel())
    x = disc.solution.cmap.curve.slice.x
    return np.column_stack([z.real, z.imag, *(np.full(len(z), v) for v in x), w.real, w.imag])


def sampled_distance(points_a, points_b):
    """Least distance between two point clouds, by direct differences."""
    return min(float(np.sqrt(np.min(sum((block[:, k, None] - points_b[None, :, k]) ** 2
                                        for k in range(points_b.shape[1])))))
               for block in np.array_split(points_a, 64))


def test_disjointness_bounds_lie_below_sampled_distances():
    # ||dX|| = 0.003 lies between the height gaps 0.0024 and 0.0051, so some
    # cross-X bounds come from X and some from the heights; ntheta 128 keeps
    # the 2048-point clouds small
    spec = make_spec(cubic=0.1)
    grid, r_list = [X0, (0.003, 0.0)], [0.05, 0.07, 0.1]
    config = PipelineConfig(ntheta=128)
    report = sweep(spec, grid, r_list, config)
    assert report.converged_count() == 6
    clouds = {(x, r): ambient_samples(build_disc(
        spec, SliceParams(x, r), solve_slice(spec, SliceParams(x, r), config)))
        for x in grid for r in r_list}
    keys = list(clouds)
    sampled, margins = [], []
    for i, ka in enumerate(keys):
        for kb in keys[i + 1:]:
            sampled.append(sampled_distance(clouds[ka], clouds[kb]))
            if ka[0] == kb[0]:
                margins.append(sampled[-1] / abs(ka[1] ** 2 - kb[1] ** 2))
    assert report.disjointness["pairs"] == len(sampled) == 15
    assert 0.0 < report.disjointness["min_distance"] <= min(sampled)
    assert 0.99 < report.disjointness["same_height_margin"] <= min(margins)


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
    # on the rim of the validity ball the slices solve and their battery
    # runs: the X tangents need no parameter point outside the ball
    x_rim = (0.2, 0.0)
    perturbed = specio.load(specio.resolve_spec_path("builtin:perturbed"))
    report = sweep(perturbed, [x_rim, X0], [0.05, 0.1])
    assert report.failures == []
    assert report.converged_count() == 4
    assert report.disjointness["pairs"] == 6
    assert [tuple(e["x"]) for e in report.hilbert_gaps] == [x_rim, X0]


def test_slices_up_to_r_max_converge():
    # the radius tangent needs no r + r/20 stencil, so a slice at r = 0.1906
    # (r + r/20 = 0.20013 > r_max) or at r_max itself runs its whole battery
    order7 = specio.load(specio.resolve_spec_path("builtin:order7"))
    report = sweep(order7, [(0.0,) * order7.nvars], [0.05, 0.1, 0.1906, 0.2])
    assert report.failures == []
    assert report.converged_count() == 4
    assert all(np.isfinite(rec["jacobian_defect"]) for rec in report.slices)
    assert np.isfinite(report.rate_fits[0]["slope_dr_u"])


def test_jacobian_probe_at_the_rim():
    # X = (0.1995, 0) lies within 1e-3 of the rim of the validity ball 0.2:
    # the X block reads the tangents, with no parameter point beyond the rim
    perturbed = specio.load(specio.resolve_spec_path("builtin:perturbed"))
    report = sweep(perturbed, [(0.1995, 0.0)], [0.05, 0.1])
    assert report.failures == []
    assert all(rec["converged"] for rec in report.slices)
    defects = [rec["jacobian_defect"] for rec in report.slices]
    assert all(np.isfinite(d) and d < 0.05 for d in defects)
    assert report.disjointness["pairs"] == 1


def test_sweep_hilbert_probe_entries():
    spec = make_spec(cubic=0.1, k7=0.0)
    report = sweep(spec, [X0], [0.02, 0.04, 0.08])
    assert len(report.hilbert_gaps) == 1
    assert report.hilbert_gaps[0]["gap"] > 0.0

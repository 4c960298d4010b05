"""Conformal map tests: closed forms, two independent ellipse oracles,
holomorphy of the extension, covariance and symmetry checks."""

import tracemalloc

import numpy as np
import pytest
from math import comb
from scipy.special import ellipk

from bishopdiscs import conformal, fourier, specio
from bishopdiscs.config import PipelineConfig
from bishopdiscs.conformal import gmres, riemann_map
from bishopdiscs.curve import (
    SliceParams, log_radial_slope, quadric_slice, ray_derivative, trace_level_curve,
)
from bishopdiscs.errors import NoConvergence
from conftest import closed_form_only, make_spec, perturbed_slice

X0 = (0.0, 0.0)


# --------------------------------------------------------------------------
# independent oracles for the ellipse map derivative at the center
# --------------------------------------------------------------------------

def elliptic_integral_deriv(lam):
    """Conformal radius of the rescaled slice ellipse at its center.

    The ellipse (1+2 lam) x^2 + (1-2 lam) y^2 = 1 has semi-axes
    a = 1/sqrt(1-2 lam) (major) and b = 1/sqrt(1+2 lam). For the
    foci-normalized ellipse the disc map derivative at 0 is
    pi / (2 K(k) sqrt(k)) with modulus k = (theta2/theta3)^2 at nome
    q = ((a+b)/c)^-4, c the focal distance.
    """
    a = 1.0 / np.sqrt(1.0 - 2 * lam)
    b = 1.0 / np.sqrt(1.0 + 2 * lam)
    c = np.sqrt(a * a - b * b)
    q = (c / (a + b)) ** 4
    th2 = 2.0 * sum(q ** (n * (n + 1) + 0.25) for n in range(40))
    th3 = 1.0 + 2.0 * sum(q ** (n * n) for n in range(1, 40))
    k = (th2 / th3) ** 2
    return c * np.pi / (2.0 * ellipk(k * k) * np.sqrt(k))


def bergman_kernel_deriv(lam, n_basis=18):
    """Same number via the reproducing kernel with exact area moments."""
    a = 1.0 / np.sqrt(1.0 - 2 * lam)
    b = 1.0 / np.sqrt(1.0 + 2 * lam)
    big = (a + b) / 2.0
    small = (a - b) / 2.0

    def moment(n, m):
        # int over the ellipse of z^n conj(z)^m, via z = t(B e^{i p} + S e^{-i p})
        total = 0.0
        for i in range(n + 1):
            for j in range(m + 1):
                if 2 * i - n != 2 * j - m:
                    continue
                total += (comb(n, i) * comb(m, j)
                          * big ** (i + j) * small ** ((n - i) + (m - j)))
        return 2 * np.pi * a * b * total / (n + m + 2)

    idx = [2 * q for q in range(n_basis)]  # only even powers couple to z^0
    gram = np.array([[moment(n, m) for m in idx] for n in idx])
    e0 = np.zeros(len(idx))
    e0[0] = 1.0
    kernel_at_zero = np.linalg.solve(gram, e0)[0]
    return 1.0 / np.sqrt(np.pi * kernel_at_zero)


def test_oracles_agree_with_each_other():
    for lam in [0.1, 0.25]:
        assert bergman_kernel_deriv(lam) == pytest.approx(
            elliptic_integral_deriv(lam), abs=1e-9)


# --------------------------------------------------------------------------
# map construction
# --------------------------------------------------------------------------

def test_circle_maps_to_identity():
    curve = trace_level_curve(quadric_slice(0.0), SliceParams(X0, 0.1))
    cmap = riemann_map(curve)
    assert cmap.deriv_at_zero == pytest.approx(1.0, abs=1e-13)
    assert np.max(np.abs(cmap.coeffs[2:])) < 1e-13
    assert np.max(np.abs(cmap.boundary_z - 0.1 * np.exp(1j * fourier.grid(cmap.n)))) < 1e-13


def test_ellipse_map_against_oracles(ellipse_map):
    cmap = ellipse_map
    lam = 0.25
    assert cmap.deriv_at_zero > 0
    assert cmap.deriv_at_zero == pytest.approx(elliptic_integral_deriv(lam), abs=1e-6)
    assert cmap.deriv_at_zero == pytest.approx(bergman_kernel_deriv(lam), abs=1e-6)
    # boundary images on the rescaled conic
    w = cmap.boundary_z / cmap.r
    conic = (1 + 2 * lam) * w.real ** 2 + (1 - 2 * lam) * w.imag ** 2
    assert np.max(np.abs(conic - 1.0)) < 1e-8


def test_interior_extension_is_holomorphic(ellipse_map):
    # evaluate sigma on a radius-0.5 grid and difference the defining relations
    cmap = ellipse_map
    rng = np.random.default_rng(2)
    pts = 0.5 * np.exp(1j * rng.uniform(0, 2 * np.pi, 12)) * rng.uniform(0.3, 1.0, 12)
    h = 3e-5
    fx = (cmap.sigma(pts + h) - cmap.sigma(pts - h)) / (2 * h)
    fy = (cmap.sigma(pts + 1j * h) - cmap.sigma(pts - 1j * h)) / (2 * h)
    cr_residual = 0.5 * np.abs(fx + 1j * fy)
    assert np.max(cr_residual) < 1e-9


def test_scale_covariance_of_quadric_maps():
    derivs = []
    for r in [0.05, 0.1, 0.2]:
        curve = trace_level_curve(quadric_slice(0.25), SliceParams(X0, r))
        derivs.append(riemann_map(curve).deriv_at_zero)
    assert max(derivs) - min(derivs) < 1e-9


def test_quadric_map_symmetries(ellipse_map):
    # domain symmetric under z -> -z and z -> conj z: odd, real coefficients
    coeffs = ellipse_map.coeffs
    assert np.max(np.abs(coeffs[0::2])) < 1e-10
    assert np.max(np.abs(coeffs.imag)) < 1e-10


def test_boundary_images_on_perturbed_curve():
    data = perturbed_slice(0.25, cubic=0.1)
    curve = trace_level_curve(data, SliceParams(X0, 0.05))
    cmap = riemann_map(curve)
    level = data.eval_qp(cmap.boundary_z).real
    assert np.max(np.abs(level / curve.r ** 2 - 1.0)) < 1e-8


def test_univalence_diagnostics_on_perturbed_curve():
    curve = trace_level_curve(perturbed_slice(0.25, cubic=0.1), SliceParams(X0, 0.05))
    cmap = riemann_map(curve)
    assert cmap.univalence_margin > 0
    rng = np.random.default_rng(4)
    radial = np.linspace(0.05, 0.95, 12)[:, None] * np.exp(
        1j * rng.uniform(0, 2 * np.pi, 8))[None, :]
    assert np.min(np.abs(cmap.sigma_prime(radial.ravel()))) > 0
    images = cmap.boundary_z
    ang = np.unwrap(np.angle(np.append(images, images[0])))
    assert int(np.round((ang[-1] - ang[0]) / (2 * np.pi))) == 1


def test_inversion_round_trip(ellipse_map):
    rng = np.random.default_rng(9)
    w = 0.8 * rng.uniform(0.1, 1.0, 10) * np.exp(1j * rng.uniform(0, 2 * np.pi, 10))
    z = ellipse_map.r * ellipse_map.sigma(w)
    back = ellipse_map.invert(z)
    assert np.max(np.abs(back - w)) < 1e-11


def test_correspondence_residual_small(ellipse_map):
    cmap = ellipse_map
    t = fourier.grid(cmap.n)
    g = np.log(cmap.curve.rho / cmap.r)
    psi = cmap.correspondence - t
    res = psi - fourier.conjugate_samples(
        np.real(fourier.eval_interpolant(g, cmap.correspondence)))
    assert np.max(np.abs(res)) < 1e-11


def test_high_eccentricity_map_is_node_consistent():
    # lam = 0.45 sits beyond the contraction range; the solve must still
    # return a node-exact correspondence with positive derivative at 0
    curve = trace_level_curve(quadric_slice(0.45), SliceParams(X0, 0.1))
    cmap = riemann_map(curve)
    assert cmap.deriv_at_zero > 0
    w = cmap.boundary_z / cmap.r
    conic = 1.9 * w.real ** 2 + 0.1 * w.imag ** 2
    assert np.max(np.abs(conic - 1.0)) < 1e-8
    assert cmap.eps_condition > 1.0  # diagnostic exposes the hard regime


def test_under_resolved_map_names_the_grid_fix():
    # at lam = 0.35 the 256-point grid leaves |sigma(0)| near 7e-8; doubling
    # the grid resolves the map
    spec = make_spec(lam=0.35, cubic=0.1, k7=0.05)
    coarse, fine = PipelineConfig(ntheta=256), PipelineConfig(ntheta=512)
    with pytest.raises(NoConvergence, match="under-resolves.*ntheta = 512"):
        riemann_map(trace_level_curve(spec.slice_at(X0), SliceParams(X0, 0.1),
                                      config=coarse))
    cmap = riemann_map(trace_level_curve(spec.slice_at(X0), SliceParams(X0, 0.1),
                                         config=fine))
    assert cmap.deriv_at_zero > 0


def test_stalled_map_names_the_grid_fix(monkeypatch):
    # a Newton budget that runs out reports the same fix as the |sigma(0)| gate
    monkeypatch.setattr(conformal, "MAP_MAX_ITER", 1)
    curve = trace_level_curve(quadric_slice(0.3), SliceParams(X0, 0.1),
                              config=PipelineConfig(ntheta=256))
    with pytest.raises(NoConvergence, match="under-resolves.*ntheta = 512"):
        riemann_map(curve)


@pytest.mark.parametrize("lam", [0.35, 0.4, 0.45])
def test_eccentric_map_is_one_newton_solve(lam):
    # eps > 1 at these slices, yet one damped Newton solve from theta = t
    # converges in a handful of steps to the ellipse's conformal radius
    curve = trace_level_curve(quadric_slice(lam), SliceParams(X0, 0.1),
                              config=PipelineConfig(ntheta=1024))
    cmap = riemann_map(curve)
    assert cmap.iterations <= 6
    if lam < 0.45:
        assert cmap.deriv_at_zero == pytest.approx(elliptic_integral_deriv(lam), abs=1e-6)


def test_map_taylor_length_follows_the_curve_grid():
    # the map reads its grid from the curve, not from a default config
    curve = trace_level_curve(quadric_slice(0.25), SliceParams(X0, 0.1),
                              config=PipelineConfig(ntheta=512))
    assert len(riemann_map(curve).coeffs) == 128


# --------------------------------------------------------------------------
# the matrix-free Newton step
# --------------------------------------------------------------------------

def test_gmres_solves_a_nonsymmetric_system():
    rng = np.random.default_rng(13)
    mat = np.eye(60) + 0.3 * rng.standard_normal((60, 60)) / np.sqrt(60)
    b = rng.standard_normal(60)
    x = gmres(lambda v: mat @ v, b, 1e-13, 100)
    assert np.linalg.norm(mat @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_gmres_zero_right_hand_side():
    x = gmres(lambda v: 2.0 * v, np.zeros(8), 1e-13, 10)
    assert np.array_equal(x, np.zeros(8))


def test_gmres_capped_solve_returns_minimum_residual_iterate():
    # three products cannot solve this system; the iterate still never
    # does worse than x = 0
    rng = np.random.default_rng(14)
    mat = np.eye(60) + rng.standard_normal((60, 60)) / np.sqrt(60)
    b = rng.standard_normal(60)
    x = gmres(lambda v: mat @ v, b, 1e-13, 3)
    assert np.linalg.norm(mat @ x - b) <= np.linalg.norm(b)


@pytest.mark.parametrize("data", [perturbed_slice(0.25), quadric_slice(0.4)],
                         ids=["perturbed", "quadric"])
def test_matrix_free_step_equals_dense_step(data):
    # first Newton step from psi = 0; the dense Jacobian I - H diag(slope)
    # is built here only, from the conjugation of the identity columns
    curve = trace_level_curve(data, SliceParams(X0, 0.1), config=PipelineConfig(ntheta=256))
    n = len(curve.rho)
    slope = log_radial_slope(ray_derivative(data, curve.rho, fourier.grid(n)))
    res = -fourier.conjugate_samples(np.log(curve.rho / curve.r))
    conj = np.column_stack([fourier.conjugate_samples(e) for e in np.eye(n)])
    dense = np.linalg.solve(np.eye(n) - conj * slope[None, :], -res)
    step = gmres(lambda v: v - fourier.conjugate_samples(slope * v), -res,
                 conformal.KRYLOV_TOL, conformal.KRYLOV_MAX_ITER)
    assert np.linalg.norm(step - dense) <= 1e-11 * np.linalg.norm(dense)


def test_fine_grid_map_forms_no_dense_matrix():
    # one 2048 x 2048 float array alone is 32 MiB
    spec = specio.load(specio.resolve_spec_path("builtin:order7"))
    curve = trace_level_curve(spec.slice_at(X0), SliceParams(X0, 0.1),
                              config=PipelineConfig(ntheta=2048))
    tracemalloc.start()
    try:
        riemann_map(curve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


# --------------------------------------------------------------------------
# the Riemann-Hilbert preconditioner
# --------------------------------------------------------------------------

def test_closed_form_inverse_solves_the_continuous_step(monkeypatch):
    # slope and b are smooth, so the continuous inverse is exact on the grid
    data = perturbed_slice(0.25)
    curve = trace_level_curve(data, SliceParams(X0, 0.1), config=PipelineConfig(ntheta=256))
    t = fourier.grid(len(curve.rho))
    slope = log_radial_slope(ray_derivative(data, curve.rho, t))
    b = 0.3 + np.cos(t) - 0.5 * np.sin(3 * t) + 0.2 * np.cos(7 * t)
    closed_form_only(monkeypatch)
    v = conformal._map_solver(slope)(b)
    defect = v - fourier.conjugate_samples(slope * v) - b
    assert np.linalg.norm(defect) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("data", [perturbed_slice(0.25), quadric_slice(0.4), quadric_slice(0.45)],
                         ids=["perturbed", "quadric0.4", "quadric0.45"])
def test_preconditioned_step_equals_dense_step(data):
    # first Newton step from psi = 0, against the dense Jacobian I - H diag(slope)
    curve = trace_level_curve(data, SliceParams(X0, 0.1), config=PipelineConfig(ntheta=256))
    n = len(curve.rho)
    slope = log_radial_slope(ray_derivative(data, curve.rho, fourier.grid(n)))
    res = -fourier.conjugate_samples(np.log(curve.rho / curve.r))
    conj = np.column_stack([fourier.conjugate_samples(e) for e in np.eye(n)])
    dense = np.linalg.solve(np.eye(n) - conj * slope[None, :], -res)
    step = conformal._map_solver(slope)(-res)
    assert np.linalg.norm(step - dense) <= 1e-11 * np.linalg.norm(dense)


def test_preconditioned_step_takes_few_krylov_products(krylov_products):
    # the unpreconditioned step took up to 65 products on this slice
    curve = trace_level_curve(quadric_slice(0.45), SliceParams(X0, 0.1),
                              config=PipelineConfig(ntheta=1024))
    cmap = riemann_map(curve)
    assert len(krylov_products) == cmap.iterations
    assert max(krylov_products) <= 20

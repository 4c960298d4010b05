"""Level-curve tracing tests against closed forms and a bisection oracle."""

import numpy as np
import pytest
from scipy.optimize import brentq

from bishopdiscs import fourier
from bishopdiscs.curve import (
    TRACE_TOL, SliceParams, log_radial_slope, quadric_slice, radial_root,
    trace_level_curve,
)
from bishopdiscs.errors import NotStarShaped
from conftest import perturbed_slice

X0 = (0.0, 0.0)


def test_circle_for_zero_lambda():
    r = 0.1
    curve = trace_level_curve(quadric_slice(0.0), SliceParams(X0, r))
    assert np.max(np.abs(curve.rho - r)) < 1e-14
    assert fourier.winding_number(curve.points) == 1


def test_ellipse_semi_axes():
    # (1+2 lam) x^2 + (1-2 lam) y^2 = r^2 with lam = 0.25:
    # semi-axis along x is r/sqrt(1.5), along y is r/sqrt(0.5)
    r = 0.08
    curve = trace_level_curve(quadric_slice(0.25), SliceParams(X0, r))
    assert curve.rho[0] == pytest.approx(r / np.sqrt(1.5), abs=1e-12)
    assert curve.rho[64] == pytest.approx(r / np.sqrt(0.5), abs=1e-12)
    assert curve.rho[128] == pytest.approx(r / np.sqrt(1.5), abs=1e-12)


def test_perturbed_curve_residual_and_bisection_oracle():
    r = 0.05
    data = perturbed_slice(0.25, cubic=0.1)
    curve = trace_level_curve(data, SliceParams(X0, r))
    assert np.max(curve.residual()) < 1e-11 * r ** 2

    # independent bracketing oracle at 8 angles
    for theta in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
        def level(rho):
            return data.eval_qp(rho * np.exp(1j * theta)).real - r ** 2
        root = brentq(level, 1e-6 * r, 3.0 * r, xtol=1e-16, rtol=8.9e-16)
        i = np.argmin(np.abs(fourier.grid(len(curve.rho)) - theta))
        assert curve.rho[i] == pytest.approx(root, rel=1e-12)


def test_radial_root_off_grid():
    r = 0.05
    data = perturbed_slice(0.25)
    theta = np.random.default_rng(3).uniform(0.0, 2 * np.pi, 64)
    rho = radial_root(data, theta, r, np.full(64, r))
    defect = data.eval_qp(rho * np.exp(1j * theta)).real - r ** 2
    assert np.max(np.abs(defect)) < TRACE_TOL * r ** 2

    # implicit slope against a central difference of the ray solve
    h = 1e-5
    fd = (np.log(radial_root(data, theta + h, r, rho))
          - np.log(radial_root(data, theta - h, r, rho))) / (2 * h)
    assert np.max(np.abs(log_radial_slope(data, rho, theta) - fd)) < 1e-8


def test_star_shapedness_violation_detected():
    # a cubic this large destroys radial monotonicity at r = 0.1
    data = perturbed_slice(0.0, cubic=8.0)
    with pytest.raises(NotStarShaped):
        trace_level_curve(data, SliceParams(X0, 0.1))


def test_rho_positive_and_curve_closes():
    data = perturbed_slice(0.2, cubic=0.3)
    curve = trace_level_curve(data, SliceParams(X0, 0.08))
    assert np.all(curve.rho > 0)
    interp = fourier.eval_interpolant(curve.points, np.array([0.0]))
    assert abs(interp[0] - curve.points[0]) < 1e-12 * curve.r


def test_high_eccentricity_quadric_traces():
    curve = trace_level_curve(quadric_slice(0.45), SliceParams(X0, 0.1))
    assert np.max(curve.residual()) < 1e-11 * 0.01
    assert curve.rho[64] == pytest.approx(0.1 / np.sqrt(0.1), abs=1e-11)

"""Tracing of the slice boundary: the level set of the real defining part.

For a slice (X, r) the boundary is the closed curve where the real part of
the defining function equals r^2. The curves of interest are small
star-shaped perturbations of an ellipse, so each ray from the origin meets
the curve once and the radial function rho(theta) is found by a safeguarded
Newton iteration, radial_root. The conformal map solves its off-grid rays
with the same function.
"""

from dataclasses import dataclass

import numpy as np

from . import fourier
from .config import DEFAULT_CONFIG
from .errors import NoRoot, NotStarShaped, ValidityEscape
from .series import eval_matrix, matrix_derivative_z, quadric_matrix

TRACE_TOL = 1e-13      # level-equation defect, relative to r**2
R_MAX = 0.2            # largest slice radius the series is trusted at
MONOTONE_THETA = 64    # rays of the radial monotonicity check
MONOTONE_RHO = 24      # radii per ray of the radial monotonicity check


@dataclass(frozen=True)
class SliceParams:
    """One slice of the family: parameter point X and radius r (height r^2)."""

    x: tuple
    r: float

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        if self.r <= 0:
            raise ValueError("slice radius must be positive")

    @property
    def u(self):
        return self.r ** 2


@dataclass(frozen=True)
class SliceData:
    """Parameter-free slice coefficients used by the numeric pipeline."""

    lam: float
    qp: np.ndarray        # coefficient matrix of the real defining part
    k: np.ndarray         # coefficient matrix of the imaginary tail
    qp_dz: np.ndarray     # d/dz of qp

    @staticmethod
    def from_matrices(lam, qp, k):
        return SliceData(float(lam), qp, k, matrix_derivative_z(qp))

    def eval_qp(self, z):
        return eval_matrix(self.qp, z)

    def eval_k(self, z):
        return eval_matrix(self.k, z)

    def eval_qp_dz(self, z):
        return eval_matrix(self.qp_dz, z)


def quadric_slice(lam, max_degree=10):
    """Slice data of the unperturbed model z zbar + lam (z^2 + zbar^2)."""
    qp = quadric_matrix(float(lam), max_degree + 1)
    k = np.zeros_like(qp)
    return SliceData.from_matrices(lam, qp, k)


@dataclass(frozen=True)
class BoundaryCurve:
    """The traced level curve, sampled at equispaced polar angles."""

    slice: SliceParams
    rho: np.ndarray
    points: np.ndarray
    data: SliceData

    @property
    def r(self):
        return self.slice.r

    def residual(self):
        """Level-equation defect |qp(z) - r^2| at the stored points."""
        return np.abs(self.data.eval_qp(self.points).real - self.r ** 2)


def ray_derivative(data, rho, theta):
    """w = qp_z(z) e^{i theta} at z = rho e^{i theta}; d/drho qp(z) = 2 Re w."""
    e = np.exp(1j * theta)
    return data.eval_qp_dz(rho * e) * e


def _ray_reach(lam):
    """Radial search range in units of r; covers the major axis of the model."""
    return max(3.0, 1.25 / np.sqrt(max(1.0 - 2.0 * lam, 1e-6)))


def check_radial_monotonicity(data, r):
    """Verify the level function increases along rays out to the ray reach."""
    reach = _ray_reach(data.lam)
    theta = fourier.grid(MONOTONE_THETA)
    radii = np.linspace(reach / MONOTONE_RHO, reach, MONOTONE_RHO) * r
    slope = 2.0 * np.real(ray_derivative(data, radii[:, None], theta))   # one row per radius
    failing = np.any(slope <= 0.0, axis=1)
    if np.any(failing):
        i = int(np.argmax(failing))
        bad = theta[np.argmin(slope[i])]
        raise NotStarShaped(
            f"radial slope not positive at |z|={radii[i]:.4g}, theta={bad:.4g}; "
            "reduce r or the perturbation")


def radial_root(data, theta, r, rho0):
    """Radius where each ray at angle theta meets the level set qp = r^2.

    Safeguarded Newton from rho0, falling back to bisection inside the
    bracket (1e-12 r, ray reach * r); converges to TRACE_TOL * r^2.
    """
    rho = rho0
    e = np.exp(1j * theta)
    target = r ** 2
    tol = TRACE_TOL * target
    reach = _ray_reach(data.lam)
    lo = np.full(theta.shape, 1e-12 * r)
    hi = np.full(theta.shape, reach * r)
    f_hi = data.eval_qp(hi * e).real - target
    if np.any(f_hi <= 0.0):
        raise NoRoot(
            f"level value at |z| = {reach:.2f} r does not exceed r^2 on every ray")

    for _ in range(80):
        f = data.eval_qp(rho * e).real - target
        converged = np.abs(f) < tol
        if np.all(converged):
            return rho
        lo = np.where(f < 0.0, np.maximum(lo, rho), lo)
        hi = np.where(f > 0.0, np.minimum(hi, rho), hi)
        step = f / (2.0 * np.real(ray_derivative(data, rho, theta)))
        proposal = rho - step
        outside = (proposal <= lo) | (proposal >= hi)
        rho = np.where(converged, rho,
                       np.where(outside, 0.5 * (lo + hi), proposal))
    raise NoRoot("radial Newton/bisection did not converge on all rays")


def log_radial_slope(w):
    """d log rho / d theta along the level set, from w = qp_z e^{i theta},
    the ray_derivative at z = rho e^{i theta}, by implicit differentiation:
    -Re(qp_z i z) / (rho Re(qp_z e^{i theta})) = Im(w) / Re(w)."""
    return w.imag / w.real


def log_radius_tangent(w, rho, theta, r, dr, dqp):
    """d log rho / dp at fixed theta along a parameter direction p that moves
    r at rate dr and the slice matrix qp at rate dqp, by implicit
    differentiation of Re qp(rho e^{i theta}) = r^2:
    (2 r dr - Re dqp(z)) / (2 rho Re w), with w = qp_z e^{i theta} the
    ray_derivative at the same points."""
    return (2.0 * r * dr - eval_matrix(dqp, rho * np.exp(1j * theta)).real) / (2.0 * rho * w.real)


def trace_level_curve(data, slice_params, config=DEFAULT_CONFIG):
    """Sample the boundary of the slice with coefficients data (SliceData)
    at config.ntheta equispaced polar angles."""
    r = slice_params.r
    if r > R_MAX:
        raise ValidityEscape(f"slice radius {r} exceeds r_max = {R_MAX}; reduce r")
    check_radial_monotonicity(data, r)

    theta = fourier.grid(config.ntheta)
    # quadric initial guess: rho^2 (1 + 2 lam cos 2 theta) = r^2
    base = 1.0 + 2.0 * data.lam * np.cos(2 * theta)
    rho = radial_root(data, theta, r, r / np.sqrt(np.maximum(base, 1e-8)))

    points = rho * np.exp(1j * theta)
    if np.any(rho <= 0.0):
        raise NotStarShaped("nonpositive radial function")
    if fourier.winding_number(points) != 1:
        raise NotStarShaped("curve does not wind once around the origin")
    return BoundaryCurve(slice_params, rho, points, data)

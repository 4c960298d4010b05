"""Normalized disc-to-slice conformal maps for star-shaped boundaries.

The rescaled slice domain D/r is star-shaped about 0, so the boundary
correspondence theta(t) of the normalized Riemann map sigma (sigma(0) = 0,
sigma'(0) > 0) satisfies the conjugation relation

    theta(t) - t = H[ log(rho(theta(t)) / r) ],

with H the zero-mean circle conjugation (Theodorsen's equation). The fixed
point is computed by a damped Newton iteration on the discretized relation
(Wegmann, J. Comput. Appl. Math. 14, 1986). rho is read off the level set
itself at the off-grid angles theta(t): each ray is solved by
curve.radial_root, warm-started from the last accepted rho, and the Newton
slope d log rho / d theta comes from curve.log_radial_slope. When the shape
condition eps = max |d log rho / d theta| exceeds the contraction range the
solve is staged through the homotopy s * log(rho/r), s in (0, 1].

Resolution caveat: for eccentricities near the elliptic limit (quadratic
coefficient -> 1/2) the true map develops boundary crowding and its
correspondence is not resolvable on a fixed grid; the discrete solution is
then exact at the nodes but may lose monotonicity between them. The
univalence margin min theta'(t) is reported on the map for callers to check
where it matters.
"""

from dataclasses import dataclass

import numpy as np

from . import fourier
from .errors import NoConvergence
from .curve import BoundaryCurve, log_radial_slope, radial_root

MAP_TOL = 1e-11        # sup norm of the correspondence residual
MAP_MAX_ITER = 200     # Newton steps over all homotopy stages


def _conjugation_matrix(n):
    eye = np.eye(n)
    mult = fourier.conjugate_multiplier(n)
    return np.real(np.fft.ifft(mult[:, None] * np.fft.fft(eye, axis=0), axis=0))


@dataclass(frozen=True)
class ConformalMap:
    """Boundary correspondence and Taylor data of the normalized map."""

    curve: BoundaryCurve
    correspondence: np.ndarray   # theta(t) at the circle grid
    coeffs: np.ndarray           # Taylor coefficients of sigma at 0
    deriv_at_zero: float
    boundary_z: np.ndarray       # r * sigma(e^{it}) at the circle grid
    boundary_dz: np.ndarray      # d/dt of boundary_z
    eps_condition: float         # max |d log rho / d theta| along the solution
    univalence_margin: float     # min theta'(t); positive for a univalent map
    iterations: int

    @property
    def n(self):
        return len(self.correspondence)

    @property
    def r(self):
        return self.curve.r

    def sigma(self, zeta):
        """Taylor evaluation of sigma on the closed unit disc."""
        return fourier.eval_taylor(self.coeffs, zeta)

    def sigma_prime(self, zeta):
        dcoeffs = self.coeffs[1:] * np.arange(1, len(self.coeffs))
        return fourier.eval_taylor(dcoeffs, zeta)

    def invert(self, z_targets):
        """Solve r * sigma(w) = z for w in the closed unit disc (Newton)."""
        targets = np.atleast_1d(np.asarray(z_targets, dtype=complex))
        # start from the boundary node nearest each target, pulled inward
        idx = np.argmin(np.abs(self.boundary_z[None, :] - targets[:, None]), axis=1)
        w = 0.9 * np.exp(1j * fourier.grid(self.n)[idx])
        small = np.abs(targets) < 0.5 * np.min(np.abs(self.boundary_z))
        w[small] = targets[small] / (self.r * self.deriv_at_zero)
        for _ in range(80):
            f = self.r * self.sigma(w) - targets
            if np.max(np.abs(f)) < 1e-13 * self.r:
                break
            dw = f / (self.r * self.sigma_prime(w))
            w = w - dw
            w = np.where(np.abs(w) > 1.0, w / np.abs(w), w)
        else:
            raise NoConvergence("conformal-map inversion did not converge")
        return w


def _newton_stage(data, r, s, psi, rho, conj_mat, t, budget):
    """Damped Newton on psi - H[s log(rho(t + psi) / r)] = 0, with rho the
    level-set radius at t + psi; returns (psi, rho, used, residual)."""
    def residual(p, rho_p):
        return p - conj_mat @ (s * np.log(rho_p / r))

    res = residual(psi, rho)
    res_norm = np.max(np.abs(res))
    used = 0
    while used < budget and res_norm >= MAP_TOL:
        slope = s * log_radial_slope(data, rho, t + psi)
        jac = np.eye(len(psi)) - conj_mat * slope[None, :]
        delta = np.linalg.solve(jac, -res)
        alpha = 1.0
        while True:
            trial = psi + alpha * delta
            trial_rho = radial_root(data, t + trial, r, rho)
            trial_res = residual(trial, trial_rho)
            trial_norm = np.max(np.abs(trial_res))
            if trial_norm < res_norm * (1.0 - 0.25 * alpha) or trial_norm < MAP_TOL:
                break
            if alpha <= 1.0 / 64.0:    # the shortest step is taken even if it fails
                break
            alpha *= 0.5
        psi, rho, res, res_norm = trial, trial_rho, trial_res, trial_norm
        used += 1
    return psi, rho, used, res_norm


def riemann_map(curve):
    """Boundary correspondence of the normalized map for a star-shaped curve."""
    n = len(curve.rho)
    t = fourier.grid(n)
    data, r = curve.data, curve.r
    eps_grid = float(np.max(np.abs(log_radial_slope(data, curve.rho, t))))
    conj_mat = _conjugation_matrix(n)

    n_stages = max(1, int(np.ceil(eps_grid / 0.85)))
    psi = np.zeros(n)
    rho = curve.rho
    iterations = 0
    for stage in range(1, n_stages + 1):
        psi, rho, used, res_norm = _newton_stage(
            data, r, stage / n_stages, psi, rho, conj_mat, t, MAP_MAX_ITER - iterations)
        iterations += used
        if res_norm >= MAP_TOL:
            raise NoConvergence(
                f"correspondence iteration stalled at residual {res_norm:.3e} "
                f"(shape condition eps = {eps_grid:.3f})")

    theta = t + psi
    boundary_sigma = (rho / r) * np.exp(1j * theta)
    coeffs = fourier.taylor_from_boundary(boundary_sigma, n // 4)   # n: curve grid
    if abs(coeffs[0]) > 1e-9:
        raise NoConvergence(
            f"map does not fix the origin: sigma(0) = {coeffs[0]:.3e}; the grid "
            f"under-resolves the map, try ntheta = {2 * n}")
    if coeffs[1].real <= 0.0 or abs(coeffs[1].imag) > 1e-9 * abs(coeffs[1]):
        raise NoConvergence(f"derivative at 0 not positive real: {coeffs[1]:.3e}")
    boundary_z = r * boundary_sigma
    eps_cond = float(np.max(np.abs(log_radial_slope(data, rho, theta))))
    margin = float(1.0 + np.min(fourier.upsample(fourier.derivative(psi), 4)))
    return ConformalMap(
        curve=curve,
        correspondence=theta,
        coeffs=coeffs,
        deriv_at_zero=float(coeffs[1].real),
        boundary_z=boundary_z,
        boundary_dz=fourier.derivative(boundary_z),
        eps_condition=eps_cond,
        univalence_margin=margin,
        iterations=iterations,
    )

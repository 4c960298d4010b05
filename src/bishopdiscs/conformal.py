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
slope d log rho / d theta comes from curve.log_radial_slope. The same
solve, started at theta(t) = t, serves every shape condition
eps = max |d log rho / d theta|.

The Newton step is matrix-free: H is applied by FFT
(fourier.conjugate_samples), and the step equation
delta - H[slope * delta] = -residual is solved by the module's unrestarted
GMRES, so no N x N array is formed and a step costs O(k N log N) for k
Krylov products. GMRES is preconditioned on the right by the closed-form
inverse of the continuous step operator, a Riemann-Hilbert problem solved
by two conjugations (Wegmann 1986), so k is 1-14 where the unpreconditioned
step took 19-65. The solver's Newton step uses the same GMRES wrapper
(preconditioned) around a riemann_hilbert closed form.

The same step operator gives the map's derivative along the slice
parameters (map_tangent): linearising the relation at the solved map, the
correspondence rate psi' solves one Newton step's equation.

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
from .curve import (
    BoundaryCurve, log_radial_slope, log_radius_tangent, radial_root, ray_derivative,
)

MAP_TOL = 1e-11        # sup norm of the correspondence residual
MAP_MAX_ITER = 200     # Newton steps before the solve counts as stalled
KRYLOV_TOL = 1e-13     # relative 2-norm residual of each preconditioned solve
KRYLOV_MAX_ITER = 200  # Krylov products per preconditioned solve


def gmres(apply, b, rtol, max_iter):
    """Minimum-residual solution of apply(x) = b from x = 0 (GMRES, no restart).

    apply is any linear map on real vectors shaped like b. The Arnoldi basis
    is orthogonalised by classical Gram-Schmidt applied twice, vectorised over
    the basis, and the Hessenberg least-squares problem is kept triangular by
    Givens rotations. The solve stops once ||b - apply(x)||_2 <= rtol ||b||_2
    or after max_iter products; either way the minimum-residual iterate is
    returned. The basis grows one row per product, so memory is O(k N) for
    the k products taken.
    """
    b = np.asarray(b, dtype=float)
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b)
    basis = b[None, :] / beta
    cols, rotations = [], []    # rotated Hessenberg columns; Givens (cos, sin)
    g = [beta]                  # rotated beta * e_1; |g[-1]| is the residual
    while len(cols) < max_iter and abs(g[-1]) > rtol * beta:
        w = apply(basis[-1])
        h = basis @ w
        w = w - h @ basis
        again = basis @ w
        w = w - again @ basis
        w_norm = float(np.linalg.norm(w))
        h = (h + again).tolist()
        for j, (c, s) in enumerate(rotations):
            h[j], h[j + 1] = c * h[j] + s * h[j + 1], c * h[j + 1] - s * h[j]
        diag = float(np.hypot(h[-1], w_norm))
        c, s = h[-1] / diag, w_norm / diag
        rotations.append((c, s))
        h[-1] = diag
        cols.append(h)
        g.append(-s * g[-1])
        g[-2] *= c
        if w_norm == 0.0:       # invariant subspace: the iterate is exact
            break
        basis = np.vstack((basis, w / w_norm))
    k = len(cols)
    tri = np.zeros((k, k))
    for j, col in enumerate(cols):
        tri[:j + 1, j] = col
    y = np.linalg.solve(tri, g[:k])
    return y @ basis[:k]


def riemann_hilbert(alpha):
    """Closed-form Riemann-Hilbert solve for an angle function alpha
    (Wegmann 1986). With E = exp(H[alpha] - i alpha), the boundary values of a
    holomorphic function, returns e^{H[alpha]} and the map gamma -> phi from
    real gamma to the holomorphic phi with Im(E phi) = gamma and phi(0) real:
    E phi = i (gamma + i H[gamma]) + c, the real c making phi(0) real. One
    conjugation here, one per solve; needs sin(mean alpha) != 0.
    """
    h_alpha = fourier.conjugate_samples(alpha)
    outer = np.exp(h_alpha - 1j * alpha)
    cot_mean = 1.0 / np.tan(np.mean(alpha))

    def solve(gamma):
        return (1j * gamma - fourier.conjugate_samples(gamma) - np.mean(gamma) * cot_mean) / outer
    return np.exp(h_alpha), solve


def preconditioned(operator, inverse):
    """(b, rtol) -> x with operator(x) = b by GMRES right-preconditioned with
    the approximate inverse, so GMRES stops on the true residual, at rtol
    relative in the 2-norm (KRYLOV_TOL unless given)."""
    return lambda b, rtol=KRYLOV_TOL: inverse(
        gmres(lambda y: operator(inverse(y)), b, rtol, KRYLOV_MAX_ITER))


def _map_solver(slope):
    """b -> v with v - H[slope v] = b: the map's Newton step. With
    alpha = arg(slope + i) in (0, pi), Phi = i (H[slope v] - i slope v) is
    holomorphic with Im(E Phi) = -b cos(alpha) e^{H[alpha]}, and
    v = Re[(Phi + i b) / (slope + i)]."""
    alpha = np.arctan2(1.0, slope)
    modulus, solve = riemann_hilbert(alpha)
    weight = -np.cos(alpha) * modulus
    return preconditioned(lambda v: v - fourier.conjugate_samples(slope * v),
                          lambda b: np.real((solve(b * weight) + 1j * b) / (slope + 1j)))


@dataclass(frozen=True)
class ConformalMap:
    """Boundary correspondence and Taylor data of the normalized map."""

    curve: BoundaryCurve
    correspondence: np.ndarray   # theta(t) at the circle grid
    coeffs: np.ndarray           # Taylor coefficients of sigma at 0
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

    @property
    def deriv_at_zero(self):
        return float(self.coeffs[1].real)

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


def riemann_map(curve):
    """Boundary correspondence of the normalized map for a star-shaped curve:
    damped Newton on psi - H[log(rho(t + psi) / r)] = 0 from psi = 0."""
    n = len(curve.rho)
    t = fourier.grid(n)
    data, r = curve.data, curve.r

    def residual(p, rho_p):
        return p - fourier.conjugate_samples(np.log(rho_p / r))

    psi = np.zeros(n)
    rho = curve.rho
    res = residual(psi, rho)
    res_norm = np.max(np.abs(res))
    iterations = 0
    while res_norm >= MAP_TOL:
        if iterations == MAP_MAX_ITER:
            raise NoConvergence(
                f"correspondence iteration stalled at residual {res_norm:.3e}; the grid "
                f"under-resolves the map, try ntheta = {2 * n}")
        delta = _map_solver(log_radial_slope(ray_derivative(data, rho, t + psi)))(-res)
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
        iterations += 1

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
    eps_cond = float(np.max(np.abs(log_radial_slope(ray_derivative(data, rho, theta)))))
    margin = float(1.0 + np.min(fourier.upsample(fourier.derivative(psi), 4)))
    return ConformalMap(
        curve=curve,
        correspondence=theta,
        coeffs=coeffs,
        boundary_z=boundary_z,
        boundary_dz=fourier.derivative(boundary_z),
        eps_condition=eps_cond,
        univalence_margin=margin,
        iterations=iterations,
    )


def map_tangent(cmap):
    """Rates of the boundary points along parameter directions: returns
    (dr, dqp) -> z' for the direction that moves r at rate dr and the slice
    matrix qp at rate dqp. The ray derivative w, the slope and the step's
    solver are built once.

    The Theodorsen relation linearised at the solved map: psi' solves
    psi' - H[slope psi'] = H[d log rho], one Newton step's solve (H drops
    d log r), and z = rho(theta) e^{i theta} moves by
    z' = z (d log rho + (slope + i) psi').
    """
    theta = cmap.correspondence
    rho = np.abs(cmap.boundary_z)
    data = cmap.curve.data
    w = ray_derivative(data, rho, theta)
    slope = log_radial_slope(w)
    solve = _map_solver(slope)

    def rate(dr, dqp):
        dlog_rho = log_radius_tangent(w, rho, theta, cmap.r, dr, dqp)
        dpsi = solve(fourier.conjugate_samples(dlog_rho))
        return cmap.boundary_z * (dlog_rho + (slope + 1j) * dpsi)
    return rate

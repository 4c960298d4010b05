"""Newton solution of the disc boundary equation on one slice.

On the slice boundary the attached-disc condition reduces to the real
equation (in the conformal parameter t)

    (q + P)(z (1 + F)) / r^2 - 1 + H[ K(z (1 + F)) ] / r^2 = 0,

where F = (U + i H[U]) / D is built from one real unknown U so that the
disc components extend holomorphically, and the height normalization pins
the extension value r^2 at the slice center. U is the fixed point of

    G(U) = -C* ( Omega_1(F) + H[K(z(1+F))] / r^2 ),  Omega_1 = Omega - 1 - Re{C F}.

U is found by damped Newton steps (I - G_U(U)) delta = G(U) - U, each one GMRES
solve of the linearisation's operator, preconditioned by the closed-form inverse
of the chord operator I - s H, s = Im c / Re c: the operator at F = 0 but for
the O(r^5) K term, built once per slice. Omega - 1 is evaluated
cancellation-free via (1+F)^j (1+Fbar)^k - 1 products so that converged
values sit at the arithmetic noise floor of the small quantities themselves,
not of the O(1) level function.

tangent_solver differentiates a solved slice along r or X without solving
again: the map's boundary points move by conformal.map_tangent, and U' solves
the same linearisation at the solved F by one GMRES solve per direction. Its
slice-only pieces are built once and serve every direction.
"""

from dataclasses import dataclass

import numpy as np

from . import fourier
from .config import DEFAULT_CONFIG
from .conformal import map_tangent, preconditioned, riemann_hilbert, riemann_map
from .curve import trace_level_curve
from .errors import NoConvergence, NonzeroWinding, ValidityEscape, ZeroOnCurve
from .series import eval_deviation, eval_matrix, matrix_derivative_z

SOLVE_MAX_ITER = 100
TANGENT_RTOL = 1e-13   # residual of the linearised equation, relative to its right side
F_CAP = 0.5            # admissible sup |F| along the boundary
Z_ESCAPE = 0.5         # admissible |z| for series evaluation


@dataclass(frozen=True)
class SliceOperators:
    """Boundary coefficient data of the linearized level functional."""

    c_star: np.ndarray         # e^{-H[arg C]} / |C|, real positive
    d_samples: np.ndarray      # C* C, holomorphic boundary values
    d_energy: float            # anti-holomorphic energy fraction of D
    c_complex: np.ndarray      # (2/r^2)(q+P)_z z, whose real part is C
    chord_inverse: object      # b -> delta with delta - s H[delta] = b, closed form


def build_slice_operators(cmap):
    """Assemble C = Re c_complex, C*, D and the chord inverse on the boundary grid."""
    zb = cmap.boundary_z
    c_complex = 2.0 / cmap.r ** 2 * cmap.curve.data.eval_qp_dz(zb) * zb
    c = np.real(c_complex)
    peak = np.max(np.abs(c))
    if peak == 0.0 or np.min(np.abs(c)) <= 0.1 * peak:
        raise ZeroOnCurve(
            f"linearization coefficient nearly vanishes: min |C| = "
            f"{np.min(np.abs(c)):.3e}, max |C| = {peak:.3e}")
    w = fourier.winding_number(c)
    if w != 0:
        raise NonzeroWinding(f"argument of C winds {w} times around 0")
    arg_c = np.unwrap(np.angle(c.astype(complex)))
    c_star = np.exp(-fourier.conjugate_samples(arg_c)) / np.abs(c)
    d = c_star * c.astype(complex)
    # chord inverse: Re(c Phi) = Re(c) b reads Im(E Phi) = Im(E) b, E = i c / (|c| e^{H[arg c]})
    alpha = -(np.unwrap(np.angle(c_complex)) + 0.5 * np.pi)
    modulus, solve = riemann_hilbert(alpha)
    weight = -np.sin(alpha) * modulus
    return SliceOperators(c_star, d, fourier.negative_energy_fraction(d), c_complex,
                          lambda b: np.real(solve(b * weight)))


def linearisation(cmap, ops, f):
    """I - G_U at F = f for U - G(U) = C* E / r^2, E = Re qp(zeta) - Re qp(z) +
    H[Re K(zeta)], zeta = z (1 + F): U' moves zeta by z F', F' = (U' + i H[U']) / D,
    so (I - G_U) U' = C* / r^2 (2 Re(qp_z(zeta) z F') + H[2 Re(K_z(zeta) z F')]).
    Returns K_z(zeta), rates(U') (of Re qp(zeta) and Re K(zeta)), the operator
    and its solve, preconditioned by ops.chord_inverse."""
    data, z = cmap.curve.data, cmap.boundary_z
    zc = z * (1.0 + f)
    k_z = eval_matrix(matrix_derivative_z(data.k), zc)
    # 2 Re(a (U' + i H[U'])) in real form, a = 2 qp_z z / D and 2 K_z z / D
    a = 2.0 * data.eval_qp_dz(zc) * z / ops.d_samples
    b = 2.0 * k_z * z / ops.d_samples
    scale = ops.c_star / cmap.r ** 2

    def rates(du):
        h = fourier.conjugate_samples(du)
        return a.real * du - a.imag * h, b.real * du - b.imag * h

    def apply(du):
        re_u, im_u = rates(du)
        return scale * (re_u + fourier.conjugate_samples(im_u))
    return k_z, rates, apply, preconditioned(apply, ops.chord_inverse)


def omega(f, cmap):
    """Level functional (q + P)(z (1 + F)) / r^2 along the map's boundary
    points (the conformal grid the samples of F live on)."""
    f = np.asarray(f, dtype=complex)
    if np.max(np.abs(f)) >= F_CAP:
        raise ValidityEscape(f"sup |F| = {np.max(np.abs(f)):.3f} exceeds {F_CAP} "
                             "(reduce r or the tail size)")
    pts = cmap.boundary_z * (1.0 + f)
    if np.max(np.abs(pts)) > Z_ESCAPE:
        raise ValidityEscape("evaluation point left the series validity region "
                             "(reduce r or the tail size)")
    vals = cmap.curve.data.eval_qp(pts)
    return vals.real / cmap.r ** 2


def omega_deviation(f, cmap):
    """Cancellation-free Omega(F) - 1, treating the samples as exactly on
    the curve: sum of c[j,k] z^j zbar^k ((1+F)^j (1+conj F)^k - 1) / r^2."""
    f = np.asarray(f, dtype=complex)
    if np.max(np.abs(f)) >= F_CAP:
        raise ValidityEscape(f"sup |F| = {np.max(np.abs(f)):.3f} exceeds {F_CAP} "
                             "(reduce r or the tail size)")
    z = cmap.boundary_z
    if np.max(np.abs(z * (1.0 + np.abs(f)))) > Z_ESCAPE:
        raise ValidityEscape("evaluation point left the series validity region "
                             "(reduce r or the tail size)")
    return eval_deviation(cmap.curve.data.qp, z, f).real / cmap.r ** 2


@dataclass(frozen=True)
class DiscSolution:
    """Solved boundary data of one attached disc."""

    u_samples: np.ndarray
    f_samples: np.ndarray
    b_samples: np.ndarray      # height component on the boundary
    iterations: int
    residual: float            # fixed-point verification sup norm
    norm_u: float
    cmap: object               # carries the traced curve as cmap.curve
    ops: SliceOperators
    step_norms: list
    contraction_ok: bool
    center_height_residual: float


def solve_slice(spec, slice_params, config=DEFAULT_CONFIG):
    """Slice the manifold, then trace, map and solve one slice end to end."""
    curve = trace_level_curve(spec.slice_at(slice_params.x), slice_params, config)
    return solve_u(riemann_map(curve), config)


def step_tolerance(r, config):
    """Defect max |G(U) - U| at which a slice of radius r is solved (noise-floored)."""
    return max(config.solve_tol * r ** 2, 4e-16)


def solve_u(cmap, config=DEFAULT_CONFIG):
    """Damped Newton iteration (I - G_U(U)) delta = G(U) - U for the boundary unknown U."""
    ops = build_slice_operators(cmap)
    r = cmap.r
    zb = cmap.boundary_z
    kmat = cmap.curve.data.k
    tol_eff = step_tolerance(r, config)

    def rhs(u):
        f = (u + 1j * fourier.conjugate_samples(u)) / ops.d_samples
        omdev = omega_deviation(f, cmap)
        kvals = eval_matrix(kmat, zb * (1.0 + f)).real
        omega1 = omdev - np.real(ops.c_complex.real * f)
        return -ops.c_star * (omega1 + fourier.conjugate_samples(kvals) / r ** 2), f, omdev, kvals

    u = np.zeros(cmap.n)
    damping = 1.0
    halvings = 0
    step_norms = []
    prev_step = np.inf
    for iterations in range(1, SOLVE_MAX_ITER + 1):
        target, f, omdev, kvals = rhs(u)
        step = target - u
        step_norm = float(np.max(np.abs(step)))
        step_norms.append(step_norm)
        if step_norm >= prev_step and halvings < 3:
            damping *= 0.5
            halvings += 1
        u = u + damping * linearisation(cmap, ops, f)[-1](step)
        if step_norm < tol_eff:
            break
        prev_step = step_norm
    else:
        raise NoConvergence(
            f"boundary iteration not converged after {iterations} steps; "
            f"last step {step_norms[-1]:.3e} (reduce r or the tail size)")

    target, f, omdev, kvals = rhs(u)
    residual = float(np.max(np.abs(u - target)))
    b = r ** 2 * (1.0 + omdev) + 1j * kvals
    center = complex(np.mean(b))
    # each Newton step at least halves a defect that is still above the noise floor
    contraction_ok = all(new < 0.5 * old for old, new in zip(step_norms, step_norms[1:])
                         if new > 10 * tol_eff)
    return DiscSolution(
        u_samples=u,
        f_samples=f,
        b_samples=b,
        iterations=iterations,
        residual=residual,
        norm_u=fourier.sup_norm(u),
        cmap=cmap,
        ops=ops,
        step_norms=step_norms,
        contraction_ok=contraction_ok,
        center_height_residual=abs(center.real - r ** 2),
    )


class SliceTangent:
    """Rates of a solved slice's boundary samples along one parameter
    direction: u = U', f = F', z (the map's boundary points), zc (the disc's
    z component z (1 + F)) and b (its height component). A plain class: a
    dataclass would add its set-up to every import of the package."""

    def __init__(self, u, f, z, zc, b):
        self.u, self.f, self.z, self.zc, self.b = u, f, z, zc, b


def tangent_solver(solution):
    """Derivatives of a solved slice along parameter directions: returns
    tangent(dr=0.0, dqp=None, dk=None) -> SliceTangent for the direction that
    moves r at rate dr and the slice matrices qp, k at rates dqp, dk (None: 0).
    The pieces that depend on the slice alone (the map's tangent solver, the
    linearisation at the solved F and the deviation of z qp_z) are built here
    once; a direction costs its right side and one linearised solve.

    The solved U is the fixed point of G = U - C* E / r^2, with the boundary
    equation E = qp(zeta) - qp(z) + H[K(zeta)] (real parts, zeta = z (1 + F))
    as omega_deviation evaluates it. Hence U' = (I - G_U)^-1 G_p solves
    E_U U' = -E_p. The boundary points move by z' (conformal.map_tangent). D is
    the constant sign of C, so F' = (U' + i H[U']) / D. The qp part of E_p is
    taken cancellation-free: the matrix of z qp_z has entries j qp[j, k], so
    d/dp (qp(zeta) - qp(z)) at fixed F is
    eval_deviation(dqp) + 2 (z'/z) eval_deviation(j qp).
    A direction that moves nothing costs no Krylov product and gives exact zeros.
    """
    cmap, ops, f = solution.cmap, solution.ops, solution.f_samples
    data, r, z = cmap.curve.data, cmap.r, cmap.boundary_z
    z_rate = map_tangent(cmap)
    zc = z * (1.0 + f)
    rows = np.arange(len(data.qp))[:, None]
    z_qp_z = eval_deviation(rows * data.qp, z, f)
    k_z, rates, _, solve = linearisation(cmap, ops, f)

    def tangent(dr=0.0, dqp=None, dk=None):
        dqp = np.zeros_like(data.qp) if dqp is None else dqp
        dk = np.zeros_like(data.k) if dk is None else dk
        dz = z_rate(dr, dqp)
        # rates of Re qp(zeta) - Re qp(z) and Re K(zeta) as z moves at fixed F
        re_p = np.real(eval_deviation(dqp, z, f) + 2.0 * dz / z * z_qp_z)
        im_p = 2.0 * np.real(k_z * dz * (1.0 + f)) + eval_matrix(dk, zc).real

        def residual(re_u, im_u):
            """G_p - (I - G_U) U' = -C* (E_p + E_U U') / r^2."""
            return -ops.c_star / r ** 2 * (re_p + re_u + fourier.conjugate_samples(im_p + im_u))

        rhs = residual(0.0, 0.0)
        tol = TANGENT_RTOL * np.max(np.abs(rhs))
        # a 2-norm residual below tol meets tol in the sup norm as well
        du = solve(rhs, tol / (np.linalg.norm(rhs) or 1.0))
        re_u, im_u = rates(du)
        res = np.max(np.abs(residual(re_u, im_u)))
        if res > tol:
            raise NoConvergence(
                f"tangent residual {res:.3e} above {tol:.3e} (reduce r or the tail size)")
        df = (du + 1j * fourier.conjugate_samples(du)) / ops.d_samples
        return SliceTangent(u=du, f=df, z=dz, zc=dz * (1.0 + f) + z * df,
                            b=2.0 * r * dr + re_p + re_u + 1j * (im_p + im_u))
    return tangent

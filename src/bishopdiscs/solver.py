"""Fixed-point solution of the disc boundary equation on one slice.

On the slice boundary the attached-disc condition reduces to the real
equation (in the conformal parameter t)

    (q + P)(z (1 + F)) / r^2 - 1 + H[ K(z (1 + F)) ] / r^2 = 0,

where F = (U + i H[U]) / D is built from one real unknown U so that the
disc components extend holomorphically, and the height normalization pins
the extension value r^2 at the slice center. The iteration is the damped
Picard scheme

    U  <-  -C* ( Omega_1(F) + H[K(z(1+F))] / r^2 ),

with Omega_1 the exact nonlinear remainder Omega - 1 - Re{C F} of the level
functional. The linear remainder Omega - 1 is evaluated cancellation-free
via (1+F)^j (1+Fbar)^k - 1 products so that converged values sit at the
arithmetic noise floor of the small quantities themselves, not of the O(1)
level function.
"""

from dataclasses import dataclass, field

import numpy as np

from . import fourier
from .config import DEFAULT_CONFIG
from .conformal import riemann_map
from .curve import trace_level_curve
from .errors import NoConvergence, NonzeroWinding, ValidityEscape, ZeroOnCurve
from .series import eval_matrix

SOLVE_MAX_ITER = 100
F_CAP = 0.5            # admissible sup |F| along the boundary
Z_ESCAPE = 0.5         # admissible |z| for series evaluation


@dataclass(frozen=True)
class SliceOperators:
    """Boundary coefficient data of the linearized level functional."""

    c_star: np.ndarray         # e^{-H[arg C]} / |C|, real positive
    d_samples: np.ndarray      # C* C, holomorphic boundary values
    d_energy: float            # anti-holomorphic energy fraction of D
    c_complex: np.ndarray      # (2/r^2)(q+P)_z z, whose real part is C


def linearized_level(ops, f):
    """Frechet derivative of the level functional at F = 0: Re{(2/r^2)(q+P)_z z F}."""
    return np.real(ops.c_complex * np.asarray(f, dtype=complex))


def build_slice_operators(curve, cmap):
    """Assemble C = Re c_complex, C* and D on the conformal boundary grid."""
    data = curve.data
    r = curve.r
    zb = cmap.boundary_z
    c_complex = 2.0 / r ** 2 * data.eval_qp_dz(zb) * zb
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
    return SliceOperators(c_star, d, fourier.negative_energy_fraction(d), c_complex)


def omega(f, curve, boundary_z):
    """Level functional (q + P)(z (1 + F)) / r^2 along the boundary points
    boundary_z (the conformal grid the samples of F live on)."""
    f = np.asarray(f, dtype=complex)
    if np.max(np.abs(f)) >= F_CAP:
        raise ValidityEscape(f"sup |F| = {np.max(np.abs(f)):.3f} exceeds {F_CAP}")
    pts = boundary_z * (1.0 + f)
    if np.max(np.abs(pts)) > Z_ESCAPE:
        raise ValidityEscape("evaluation point left the series validity region")
    vals = curve.data.eval_qp(pts)
    return vals.real / curve.r ** 2


def omega_deviation(f, curve, boundary_z):
    """Cancellation-free Omega(F) - 1, treating the samples as exactly on
    the curve: sum of c[j,k] z^j zbar^k ((1+F)^j (1+conj F)^k - 1) / r^2."""
    f = np.asarray(f, dtype=complex)
    if np.max(np.abs(f)) >= F_CAP:
        raise ValidityEscape(f"sup |F| = {np.max(np.abs(f)):.3f} exceeds {F_CAP}")
    z = boundary_z
    if np.max(np.abs(z * (1.0 + np.abs(f)))) > Z_ESCAPE:
        raise ValidityEscape("evaluation point left the series validity region")
    mat = curve.data.qp
    d = mat.shape[0]
    # g[j] = (1+F)^j - 1 via the exact recurrence g[j] = g[j-1] (1+F) + F
    g = [np.zeros_like(f)]
    for _ in range(d - 1):
        g.append(g[-1] * (1.0 + f) + f)
    zb = np.conj(z)
    zp = [np.ones_like(z)]
    zbp = [np.ones_like(z)]
    for _ in range(d - 1):
        zp.append(zp[-1] * z)
        zbp.append(zbp[-1] * zb)
    total = np.zeros_like(f)
    for j in range(d):
        for k in range(d):
            c = mat[j, k]
            if c == 0.0:
                continue
            bracket = g[j] * np.conj(g[k] + 1.0) + np.conj(g[k])
            total = total + c * zp[j] * zbp[k] * bracket
    return total.real / curve.r ** 2


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
    step_norms: list = field(default_factory=list, repr=False)
    contraction_ok: bool = True
    center_height_residual: float = 0.0


def solve_slice(spec, slice_params, config=DEFAULT_CONFIG):
    """Slice the manifold, then trace, map and solve one slice end to end."""
    curve = trace_level_curve(spec.slice_at(slice_params.x), slice_params, config)
    cmap = riemann_map(curve)
    ops = build_slice_operators(curve, cmap)
    return solve_u(curve, cmap, ops, config)


def step_tolerance(r, config):
    """Picard step at which a slice of radius r counts as solved (noise-floored)."""
    return max(config.solve_tol * r ** 2, 4e-16)


def solve_u(curve, cmap, ops, config=DEFAULT_CONFIG):
    """Damped Picard iteration for the real boundary unknown U."""
    r = curve.r
    zb = cmap.boundary_z
    kmat = curve.data.k
    tol_eff = step_tolerance(r, config)

    def rhs(u):
        f = (u + 1j * fourier.conjugate_samples(u)) / ops.d_samples
        omdev = omega_deviation(f, curve, zb)
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
        u = u + damping * step
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
    # two-step geometric-mean ratios: consecutive ratios oscillate in pairs
    # when the iteration matrix carries a complex eigenvalue pair
    tail = [s for s in step_norms[2:] if s > 10 * tol_eff]
    ratios = [np.sqrt(c_ / a_) for a_, c_ in zip(tail, tail[2:])]
    contraction_ok = all(rho < 0.5 for rho in ratios[-6:]) if ratios else True
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

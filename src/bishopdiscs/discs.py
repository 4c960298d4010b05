"""Assembly of attached discs and verification sweeps over slice families.

Each solved slice yields one analytic disc: the boundary data z(1+F) and
the height component extend holomorphically to the closed unit disc through
their Fourier coefficients (equivalently, the Cauchy integral over the
boundary). Families swept over (X, r) are checked for boundary attachment,
mutual disjointness, nested slice curves, decay rates of the solved norms,
and the near-identity behaviour of the slice map at the origin.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from . import fourier
from .config import DEFAULT_CONFIG
from .curve import R_MAX, SliceParams
from .errors import PipelineError, StencilOutOfRange, TargetTooCloseToBoundary
from .hilbert import norm_probe
from .solver import DiscSolution, solve_slice

FD_R_FACTOR = 20.0     # radius step of the finite differences is r / FD_R_FACTOR
FD_X_STEP = 1e-3       # parameter step of the finite differences
CLOUD_POINTS = 512     # ambient points per disc in the disjointness check


# --------------------------------------------------------------------------
# Cauchy extension
# --------------------------------------------------------------------------

def cauchy_extend(cmap, boundary_values, targets, config=DEFAULT_CONFIG):
    """Holomorphic extension of boundary data to points inside the curve.

    Far from the boundary the trapezoid discretization of the Cauchy
    integral over the conformal parameterization is spectrally accurate;
    near the boundary the value is computed instead by inverting the map
    and summing the Taylor series of the composition. Both branches stay:
    at |zeta| = 0.998 on order7 (r = 0.1) the trapezoid sum alone is off by
    1.4 r and the inversion branch by under 1e-15 r, while the Cauchy sum is
    the z-plane route, independent of the disc-parameter Taylor sum, that
    jacobian_defect relies on. config is not read; the map carries the grid.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=complex))
    g = np.asarray(boundary_values, dtype=complex)
    zb = cmap.boundary_z
    diam = 2.0 * float(np.max(np.abs(zb - np.mean(zb))))
    cutoff = 2.0 * np.pi * diam / cmap.n
    dist = np.min(np.abs(zb[None, :] - targets[:, None]), axis=1)
    out = np.empty(len(targets), dtype=complex)
    far = dist >= cutoff
    if np.any(far):
        out[far] = fourier.cauchy_integral(g, zb, cmap.boundary_dz, targets[far])
    if np.any(~far):
        w = cmap.invert(targets[~far])
        if np.any(np.abs(w) > 1.0 - 1e-6):
            raise TargetTooCloseToBoundary(
                "extension target within a grid spacing of the boundary")
        out[~far] = extend_in_disc(g, w, cmap.n // 2)
    return out


def extend_in_disc(boundary_values, zeta, n_coeffs=None):
    """Extension in the disc parameter: Taylor sum of the Fourier data."""
    g = np.asarray(boundary_values, dtype=complex)
    coeffs = fourier.taylor_from_boundary(g, n_coeffs or len(g) // 2)
    return fourier.eval_taylor(coeffs, np.asarray(zeta, dtype=complex))


# --------------------------------------------------------------------------
# attached discs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AttachedDisc:
    """One analytic disc, fixed by its solved boundary data; its ambient
    components are evaluated on demand."""

    boundary_residual: float
    center_offset: float      # |z component| at zeta = 0
    solution: DiscSolution

    def values(self, zeta):
        """Components (Z, W) of the disc at points zeta of the closed unit disc."""
        sol = self.solution
        cmap = sol.cmap
        # keep the resolution of the stored map so the disc matches r sigma(zeta)
        n_coeffs = len(cmap.coeffs)
        z = extend_in_disc(cmap.boundary_z * (1.0 + sol.f_samples), zeta, n_coeffs)
        return z, extend_in_disc(sol.b_samples, zeta, n_coeffs)

    def ambient_points(self):
        """Ambient coordinates (Re z, Im z, X, Re w, Im w) at up to
        CLOUD_POINTS evenly strided nodes of interior_grid(16, ntheta)."""
        zeta = interior_grid(16, self.solution.cmap.n).ravel()
        stride = max(1, len(zeta) // CLOUD_POINTS)
        z, w = self.values(zeta[::stride][:CLOUD_POINTS])
        x = np.asarray(self.solution.cmap.curve.slice.x, dtype=float)
        cols = [z.real, z.imag]
        cols.extend(np.full(len(z), xv) for xv in x)
        cols.extend([w.real, w.imag])
        return np.stack(cols, axis=1)


def interior_grid(n_radii, ntheta):
    """Radial-angular grid of the closed unit disc, clustered at the rim."""
    j = np.arange(1, n_radii + 1)
    radii = np.sin(0.5 * np.pi * j / n_radii)
    t = fourier.grid(ntheta)
    return radii[:, None] * np.exp(1j * t)[None, :]


def build_disc(spec, slice_params, solution, config=DEFAULT_CONFIG):
    """Check attachment and centering of one solved slice disc.

    Only solution is read; it carries the slice and its grid.
    """
    boundary_zc = solution.cmap.boundary_z * (1.0 + solution.f_samples)
    data = solution.cmap.curve.data
    direct = data.eval_qp(boundary_zc).real + 1j * data.eval_k(boundary_zc).real
    return AttachedDisc(
        boundary_residual=float(np.max(np.abs(solution.b_samples - direct))),
        center_offset=abs(complex(np.mean(boundary_zc))),
        solution=solution,
    )


# --------------------------------------------------------------------------
# probes
# --------------------------------------------------------------------------

def fit_loglog_slope(values_x, values_y):
    return float(np.polyfit(np.log(values_x), np.log(values_y), 1)[0])


def radial_derivative_of_u(spec, slice_params, config=DEFAULT_CONFIG):
    """Central finite difference of the boundary unknown in the radius."""
    r = slice_params.r
    h = r / FD_R_FACTOR
    if not (0.0 < r - h and r + h <= R_MAX):
        raise StencilOutOfRange(f"radius stencil [{r - h}, {r + h}] leaves (0, r_max]; reduce r")
    lo = solve_slice(spec, SliceParams(slice_params.x, r - h), config)
    hi = solve_slice(spec, SliceParams(slice_params.x, r + h), config)
    return (hi.u_samples - lo.u_samples) / (2.0 * h)


def derivative_bound_probe(spec, slice_params, j, s, config=DEFAULT_CONFIG,
                           solution=None):
    """Sup norm of the theta/radius derivatives of the disc correction F."""
    l = spec.l
    if j + 2 * s > l - 4:
        raise ValueError(f"probe order (j={j}, s={s}) outside j + 2s <= l - 4")
    r = slice_params.r
    h = r / FD_R_FACTOR
    if s > 0 and not (0.0 < r - s * h and r + s * h <= R_MAX):
        raise StencilOutOfRange("radius stencil leaves (0, r_max]; reduce r")

    def f_of(rr):
        sol = solve_slice(spec, SliceParams(slice_params.x, rr), config)
        return sol.f_samples

    if s == 0:
        f = (solution.f_samples if solution is not None
             else f_of(r))
    elif s == 1:
        f = (f_of(r + h) - f_of(r - h)) / (2.0 * h)
    elif s == 2:
        f = (f_of(r + h) - 2.0 * f_of(r) + f_of(r - h)) / h ** 2
    else:
        raise ValueError("radial derivative order above 2 is not implemented")
    if j > 0:
        f = fourier.derivative(f, j)
    return fourier.sup_norm(f)


def jacobian_defect(spec, slice_params, config=DEFAULT_CONFIG, base_solution=None):
    """Max deviation of the slice-map derivative at the origin from the
    flat inclusion (z, X, u) -> (z, X, u + 0 i), by central differences."""
    x = np.asarray(slice_params.x, dtype=float)
    r = slice_params.r
    u = slice_params.u
    sol = base_solution or solve_slice(spec, slice_params, config)

    def center_values(solution, z_targets):
        cmap = solution.cmap
        zc = cmap.boundary_z * (1.0 + solution.f_samples)
        z_ext = cauchy_extend(cmap, zc, z_targets)
        w_ext = cauchy_extend(cmap, solution.b_samples, z_targets)
        return z_ext, w_ext

    defects = []
    # z block: expect dZ/dz = 1, dW/dz = 0 (Wirtinger via x/y differences)
    h = r / FD_R_FACTOR
    z_ext, w_ext = center_values(sol, [h, -h, 1j * h, -1j * h])
    dz_dx = (z_ext[0] - z_ext[1]) / (2 * h)
    dz_dy = (z_ext[2] - z_ext[3]) / (2 * h)
    dw_dx = (w_ext[0] - w_ext[1]) / (2 * h)
    dw_dy = (w_ext[2] - w_ext[3]) / (2 * h)
    defects.extend([abs(dz_dx - 1.0), abs(dz_dy - 1j), abs(dw_dx), abs(dw_dy)])
    # X block: expect dZ/dX = dW/dX = 0
    hx = FD_X_STEP
    for axis in range(len(x)):
        shift = np.zeros_like(x)
        shift[axis] = hx
        sol_p = solve_slice(spec, SliceParams(tuple(x + shift), r), config)
        sol_m = solve_slice(spec, SliceParams(tuple(x - shift), r), config)
        zp, wp = center_values(sol_p, [0.0])
        zm, wm = center_values(sol_m, [0.0])
        defects.append(abs(zp[0] - zm[0]) / (2 * hx))
        defects.append(abs(wp[0] - wm[0]) / (2 * hx))
    # u direction: expect dZ/du = 0 and dW/du = 1
    hu = u / 10.0
    sol_p = solve_slice(spec, SliceParams(slice_params.x, np.sqrt(u + hu)), config)
    sol_m = solve_slice(spec, SliceParams(slice_params.x, np.sqrt(u - hu)), config)
    zp, wp = center_values(sol_p, [0.0])
    zm, wm = center_values(sol_m, [0.0])
    defects.append(abs(zp[0] - zm[0]) / (2 * hu))
    defects.append(abs((wp[0] - wm[0]) / (2 * hu) - 1.0))
    return float(max(defects))


# --------------------------------------------------------------------------
# family sweep
# --------------------------------------------------------------------------

@dataclass
class FamilyReport:
    """Per-slice metrics and family-level verification results."""

    slices: list = field(default_factory=list)
    rate_fits: list = field(default_factory=list)
    disjointness: dict = field(default_factory=dict)
    nested_curves: bool = True
    jacobian_trend: list = field(default_factory=list)
    hilbert_gaps: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def converged_count(self):
        return sum(1 for s in self.slices if s["converged"])

    def to_dict(self):
        return asdict(self)


def min_pairwise_distance(points_a, points_b):
    aa = np.sum(points_a ** 2, axis=1)
    bb = np.sum(points_b ** 2, axis=1)
    d2 = aa[:, None] + bb[None, :] - 2.0 * points_a @ points_b.T
    return float(np.sqrt(max(np.min(d2), 0.0)))


def _disjointness(discs):
    clouds = {key: d.ambient_points() for key, d in discs.items()}
    keys = sorted(clouds)
    overall = np.inf
    same_x_margin = np.inf
    for i, ka in enumerate(keys):
        for kb in keys[i + 1:]:
            dist = min_pairwise_distance(clouds[ka], clouds[kb])
            overall = min(overall, dist)
            if ka[0] == kb[0]:   # same parameter point, different radii
                gap = abs(ka[1] ** 2 - kb[1] ** 2)
                same_x_margin = min(same_x_margin, dist / gap)
    return {
        "min_distance": overall if np.isfinite(overall) else None,
        "same_height_margin": same_x_margin if np.isfinite(same_x_margin) else None,
        "pairs": len(keys) * (len(keys) - 1) // 2,
    }


def sweep(spec, x_grid, r_list, config=DEFAULT_CONFIG, seed=0):
    """Solve and assemble every slice, then run the family checks.

    Per-slice failures are recorded, never raised; rate fits need at least
    three radii. The transform probe records, per parameter point, the gap
    between the slice transform and its quadratic-model transform.
    """
    r_list = sorted(float(r) for r in r_list)
    x_grid = [tuple(float(v) for v in x) for x in x_grid]
    report = FamilyReport()
    discs = {}
    for x in x_grid:
        for r in r_list:
            sp = SliceParams(x, r)
            record = {"x": list(x), "r": r, "converged": False}
            try:
                sol = solve_slice(spec, sp, config)
                disc = build_disc(spec, sp, sol, config)
                record.update({
                    "converged": True,
                    "iterations": sol.iterations,
                    "norm_u": sol.norm_u,
                    "residual": sol.residual,
                    "boundary_residual": disc.boundary_residual,
                    "center_offset": disc.center_offset,
                    "center_height_residual": sol.center_height_residual,
                    "contraction_ok": sol.contraction_ok,
                })
                discs[(x, r)] = disc
                record["jacobian_defect"] = jacobian_defect(
                    spec, sp, config, base_solution=sol)
            except PipelineError as exc:
                record["error"] = f"{type(exc).__name__}: {exc}"
                report.failures.append({"x": list(x), "r": r,
                                        "error": record["error"]})
            report.slices.append(record)

    for x in x_grid:
        rs = [r for r in r_list if (x, r) in discs]
        sols = [discs[(x, r)].solution for r in rs]
        # decay-rate fits
        if len(rs) >= 3:
            norms = [sol.norm_u for sol in sols]
            entry = {"x": list(x)}
            if min(norms) > 0.0:
                entry["slope_norm_u"] = fit_loglog_slope(rs, norms)
                dr_norms = []
                for r in rs:
                    du = radial_derivative_of_u(spec, SliceParams(x, r), config)
                    dr_norms.append(fourier.sup_norm(du))
                entry["slope_dr_u"] = fit_loglog_slope(rs, dr_norms)
            report.rate_fits.append(entry)
        # nested slice curves
        rhos = [sol.cmap.curve.rho for sol in sols]
        for lo, hi in zip(rhos, rhos[1:]):
            if not np.all(lo < hi):
                report.nested_curves = False
        # transform probe on the largest solved radius
        if sols:
            gap = norm_probe(sols[-1].cmap, j=0, seed=seed)
            report.hilbert_gaps.append({"x": list(x), "r": rs[-1], "gap": gap})

    if len(discs) >= 2:
        report.disjointness = _disjointness(discs)

    # jacobian defect trend over r (max across the grid)
    for r in r_list:
        vals = [rec["jacobian_defect"] for rec in report.slices
                if rec["r"] == r and "jacobian_defect" in rec]
        if vals:
            report.jacobian_trend.append({"r": r, "max_defect": max(vals)})
    return report

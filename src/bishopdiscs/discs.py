"""Assembly of attached discs and verification sweeps over slice families.

Each solved slice yields one analytic disc: the boundary data z(1+F) and
the height component extend holomorphically to the closed unit disc through
their Fourier coefficients (equivalently, the Cauchy integral over the
boundary). Families swept over (X, r) are checked for boundary attachment,
mutual disjointness (certified by the maximum principle), nested slice
curves, decay rates of the solved norms, and the near-identity behaviour of
the slice map at the origin. Each slice is solved once; its derivatives in
r and X are the slice tangents of solver.tangent_solver, not re-solves.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from . import fourier
from .config import DEFAULT_CONFIG
from .curve import SliceParams
from .errors import PipelineError, TargetTooCloseToBoundary
from .hilbert import norm_probe
from .solver import DiscSolution, solve_slice, tangent_solver


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


def slice_tangents(spec, solution):
    """Tangents (solver.SliceTangent) of a solved slice along r and along
    each axis of X, the latter from the exact X-derivatives of the fits,
    all solved against one set-up of the slice."""
    x = solution.cmap.curve.slice.x
    tangent = tangent_solver(solution)
    return (tangent(dr=1.0),
            [tangent(0.0, *spec.slice_derivative(x, axis)) for axis in range(len(x))])


def center_rates(solution, tangent):
    """Rates of the disc's centre values Z(0) and W(0) along a slice tangent.

    Both are Cauchy sums sum g z_t / z / (i n) over the boundary samples;
    the sums are differentiated term by term, with z_t' the spectral t-derivative
    of z'.
    """
    cmap = solution.cmap
    z, z_t, dz = cmap.boundary_z, cmap.boundary_dz, tangent.z
    dz_t = fourier.derivative(dz)

    def rate(g, dg):
        return complex(fourier.cauchy_integral(dg, z, z_t, 0.0)[0]
                       + fourier.cauchy_integral(g, z, dz_t, 0.0)[0]
                       - fourier.cauchy_integral(g * dz / z, z, z_t, 0.0)[0])

    return (rate(z * (1.0 + solution.f_samples), tangent.zc),
            rate(solution.b_samples, tangent.b))


def jacobian_defect(solution, tangents):
    """Max deviation of the slice-map derivative at the origin from the
    flat inclusion (z, X, u) -> (z, X, u + 0 i). The z block takes central
    differences of the extension at +-r/20 and +-i r/20; the X and u blocks
    read the centre rates along the slice tangents (r_tangent, x_tangents)
    of slice_tangents, with du = 2 r dr."""
    r_tangent, x_tangents = tangents
    h = solution.cmap.r / 20.0
    zc = solution.cmap.boundary_z * (1.0 + solution.f_samples)
    targets = [h, -h, 1j * h, -1j * h]
    z_ext = cauchy_extend(solution.cmap, zc, targets)
    w_ext = cauchy_extend(solution.cmap, solution.b_samples, targets)

    defects = []
    # z block: expect dZ/dz = 1, dW/dz = 0 (Wirtinger via x/y differences)
    dz_dx = (z_ext[0] - z_ext[1]) / (2 * h)
    dz_dy = (z_ext[2] - z_ext[3]) / (2 * h)
    dw_dx = (w_ext[0] - w_ext[1]) / (2 * h)
    dw_dy = (w_ext[2] - w_ext[3]) / (2 * h)
    defects.extend([abs(dz_dx - 1.0), abs(dz_dy - 1j), abs(dw_dx), abs(dw_dy)])
    # X block: expect dZ/dX = dW/dX = 0
    for tangent in x_tangents:
        defects.extend(abs(v) for v in center_rates(solution, tangent))
    # u direction: expect dZ/du = 0 and dW/du = 1, du = 2 r dr
    dz_dr, dw_dr = center_rates(solution, r_tangent)
    du_dr = 2.0 * solution.cmap.r
    defects.append(abs(dz_dr) / du_dr)
    defects.append(abs(dw_dr / du_dr - 1.0))
    return float(max(defects))


# --------------------------------------------------------------------------
# family sweep
# --------------------------------------------------------------------------

@dataclass
class FamilyReport:
    """Per-slice metrics and family-level verification results.

    disjointness holds lower bounds, not samples: min_distance over all disc
    pairs, same_height_margin as the least certified fraction of |u_a - u_b|
    over pairs at one parameter point, and the number of pairs.
    """

    slices: list = field(default_factory=list)
    rate_fits: list = field(default_factory=list)
    disjointness: dict = field(default_factory=dict)
    nested_curves: bool = True
    jacobian_trend: list = field(default_factory=list)
    hilbert_gaps: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    # least pair bound of each disc, keyed by (x, r): a CSV column, not in to_dict
    disc_distances: dict = field(default_factory=dict)

    def converged_count(self):
        return sum(1 for s in self.slices if s["converged"])

    def to_dict(self):
        out = asdict(self)
        del out["disc_distances"]
        return out


def _disjointness(discs):
    """Certified lower bounds on the distances between the swept discs.

    X is constant on a disc, and by the maximum principle the harmonic Re W
    stays within osc = sup |Re W - r^2| on |zeta| = 1 of its level u = r^2;
    W has degree below ntheta / 2, so sup_norm of its boundary samples is
    that sup. Discs a and b are at least
    max(|X_a - X_b|, |u_a - u_b| - osc_a - osc_b) apart. Returns the
    family summary and, per disc key, the least bound over its pairs; at
    least two discs are needed.
    """
    levels = []
    for (x, r), disc in discs.items():
        sol = disc.solution
        w = extend_in_disc(sol.b_samples, np.exp(1j * fourier.grid(sol.cmap.n)),
                           len(sol.cmap.coeffs))
        levels.append((x, r ** 2, fourier.sup_norm(w.real - r ** 2)))
    nearest = [np.inf] * len(levels)
    same_x_margin = np.inf
    for i, (xa, ua, osc_a) in enumerate(levels):
        for j, (xb, ub, osc_b) in enumerate(levels[i + 1:], i + 1):
            height_gap = abs(ua - ub) - osc_a - osc_b
            bound = max(float(np.linalg.norm(np.subtract(xa, xb))), height_gap)
            nearest[i] = min(nearest[i], bound)
            nearest[j] = min(nearest[j], bound)
            if xa == xb:
                same_x_margin = min(same_x_margin, height_gap / abs(ua - ub))
    summary = {
        "min_distance": min(nearest),
        "same_height_margin": same_x_margin if np.isfinite(same_x_margin) else None,
        "pairs": len(levels) * (len(levels) - 1) // 2,
    }
    return summary, dict(zip(discs, nearest))


def sweep(spec, x_grid, r_list, config=DEFAULT_CONFIG, seed=0):
    """Solve and assemble every slice, then run the family checks.

    Per-slice failures are recorded, never raised; rate fits need at least
    three radii. Each slice is solved once: its tangents along r and X
    (slice_tangents) serve the Jacobian's X and u blocks and dU/dr. The
    transform probe records, per parameter point, the gap between the
    transform of its largest solved slice and the quadratic-model transform;
    it runs once, over every such slice.
    """
    r_list = sorted(float(r) for r in r_list)
    x_grid = [tuple(float(v) for v in x) for x in x_grid]
    report = FamilyReport()
    discs = {}
    dr_norms = {}
    for x in x_grid:
        for r in r_list:
            sp = SliceParams(x, r)
            record = {"x": list(x), "r": r, "converged": False}
            try:
                sol = solve_slice(spec, sp, config)
                disc = build_disc(spec, sp, sol, config)
                # the whole per-slice battery runs before the slice counts as converged
                tangents = slice_tangents(spec, sol)
                defect = jacobian_defect(sol, tangents)
                dr_norms[(x, r)] = fourier.sup_norm(tangents[0].u)
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
                record["jacobian_defect"] = defect
                discs[(x, r)] = disc
            except PipelineError as exc:
                record["error"] = f"{type(exc).__name__}: {exc}"
                report.failures.append({"x": list(x), "r": r,
                                        "error": record["error"]})
            report.slices.append(record)

    probed = []     # (x, r, map) of the largest solved radius at each x
    for x in x_grid:
        rs = [r for r in r_list if (x, r) in discs]
        sols = [discs[(x, r)].solution for r in rs]
        # decay-rate fits
        if len(rs) >= 3:
            norms = [sol.norm_u for sol in sols]
            entry = {"x": list(x)}
            if min(norms) > 0.0:
                entry["slope_norm_u"] = fit_loglog_slope(rs, norms)
                entry["slope_dr_u"] = fit_loglog_slope(rs, [dr_norms[(x, r)] for r in rs])
            report.rate_fits.append(entry)
        # nested slice curves
        rhos = [sol.cmap.curve.rho for sol in sols]
        for lo, hi in zip(rhos, rhos[1:]):
            if not np.all(lo < hi):
                report.nested_curves = False
        if sols:
            probed.append((x, rs[-1], sols[-1].cmap))
    if probed:
        gaps = norm_probe([cmap for _, _, cmap in probed], j=0, seed=seed)
        report.hilbert_gaps = [{"x": list(x), "r": r, "gap": gap}
                               for (x, r, _), gap in zip(probed, gaps)]

    if len(discs) >= 2:
        report.disjointness, report.disc_distances = _disjointness(discs)

    # jacobian defect trend over r (max across the grid)
    for r in r_list:
        vals = [rec["jacobian_defect"] for rec in report.slices
                if rec["r"] == r and "jacobian_defect" in rec]
        if vals:
            report.jacobian_trend.append({"r": r, "max_defect": max(vals)})
    return report

"""Acceptance battery: one test per criterion, each printing a summary line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

import numpy as np

from bishopdiscs import fourier
from bishopdiscs.config import PipelineConfig
from bishopdiscs.conformal import riemann_map
from bishopdiscs.curve import SliceParams, quadric_slice, trace_level_curve
from bishopdiscs.discs import build_disc, interior_grid, radial_derivative_of_u, sweep
from bishopdiscs.hilbert import origin_imaginary_residual
from bishopdiscs.normal_form import normalize_full, recenter_cr_singularity
from bishopdiscs.solver import build_slice_operators, solve_slice, solve_u
from conftest import RATE_R_LIST, TIGHT_CONFIG, make_spec
from test_conformal import elliptic_integral_deriv
from test_normal_form import full_raw_example, offset_raw

X0 = (0.0, 0.0)


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(number, text, timer, budget):
    print(f"[PASS] criterion {number}: {text} ({timer.elapsed:.2f} s / {budget:.0f} s)")
    assert timer.elapsed < budget, f"criterion {number} exceeded {budget} s"


def test_criterion_1_quadric_trivialization():
    with Timer() as tm:
        worst_u, worst_d, worst_res, worst_disc = 0.0, 0.0, 0.0, 0.0
        for lam in (0.0, 0.2, 0.3, 0.45):
            spec = make_spec(lam=lam, cubic=0.0, k7=0.0, radius=0.3)
            for r in (0.05, 0.1):
                sp = SliceParams(X0, r)
                curve = trace_level_curve(spec.slice_at(sp.x), sp)
                cmap = riemann_map(curve)
                ops = build_slice_operators(curve, cmap)
                sol = solve_u(curve, cmap, ops)
                disc = build_disc(spec, sp, sol)
                worst_u = max(worst_u, sol.norm_u)
                worst_d = max(worst_d, float(np.max(np.abs(ops.d_samples - 1.0))))
                worst_res = max(worst_res, disc.boundary_residual)
                zeta = interior_grid(16, cmap.n)
                z_values, w_values = disc.values(zeta)
                model = r * cmap.sigma(zeta)
                worst_disc = max(worst_disc, float(np.max(np.abs(
                    z_values - model))),
                    float(np.max(np.abs(w_values - sp.u))))
        assert worst_u < 1e-10, f"norm_u = {worst_u:.3e}"
        assert worst_d < 1e-10, f"|D - 1| = {worst_d:.3e}"
        assert worst_res < 1e-10, f"boundary residual = {worst_res:.3e}"
        assert worst_disc < 1e-10, f"disc vs model = {worst_disc:.3e}"
    report(1, f"quadric families trivial (|U|<{worst_u:.1e}, |D-1|<{worst_d:.1e})",
           tm, 5.0)


def test_criterion_2_hilbert_identities():
    with Timer() as tm:
        t = fourier.grid(256)
        worst = 0.0
        for n in range(1, 33):
            worst = max(worst, float(np.max(np.abs(
                fourier.conjugate_samples(np.cos(n * t)) - np.sin(n * t)))))
            worst = max(worst, float(np.max(np.abs(
                fourier.conjugate_samples(np.sin(n * t)) + np.cos(n * t)))))
        assert worst < 1e-11
        assert np.all(fourier.conjugate_samples(np.ones(256)) == 0.0)
        curve = trace_level_curve(quadric_slice(0.25), SliceParams(X0, 0.1))
        cmap = riemann_map(curve)
        phi = cmap.boundary_z.real
        origin = origin_imaginary_residual(cmap, phi) / np.max(np.abs(phi))
        assert origin < 1e-9
    report(2, f"conjugation identities to {worst:.1e}, origin residual {origin:.1e}",
           tm, 1.0)


def test_criterion_3_conformal_map():
    with Timer() as tm:
        lam = 0.25
        curve = trace_level_curve(quadric_slice(lam), SliceParams(X0, 0.1))
        cmap = riemann_map(curve)
        w = cmap.boundary_z / cmap.r
        conic = (1 + 2 * lam) * w.real ** 2 + (1 - 2 * lam) * w.imag ** 2
        assert np.max(np.abs(conic - 1.0)) < 1e-8
        assert cmap.deriv_at_zero > 0
        oracle = elliptic_integral_deriv(lam)
        gap = abs(cmap.deriv_at_zero - oracle)
        assert gap < 1e-6
    report(3, f"map matches the elliptic-integral oracle to {gap:.1e}", tm, 2.0)


def test_criterion_4_decay_rates():
    with Timer() as tm:
        spec = make_spec(lam=0.2, cubic=0.0, k7=0.05)
        norms, dr_norms = [], []
        for r in RATE_R_LIST:
            sol = solve_slice(spec, SliceParams(X0, r), TIGHT_CONFIG)
            norms.append(sol.norm_u)
            du = radial_derivative_of_u(spec, SliceParams(X0, r), TIGHT_CONFIG)
            dr_norms.append(fourier.sup_norm(du))
        slope_u = float(np.polyfit(np.log(RATE_R_LIST), np.log(norms), 1)[0])
        slope_dr = float(np.polyfit(np.log(RATE_R_LIST), np.log(dr_norms), 1)[0])
        assert 4.5 <= slope_u <= 5.5, f"slope_u = {slope_u:.3f}"
        assert 3.5 <= slope_dr <= 4.5, f"slope_dr = {slope_dr:.3f}"
    report(4, f"decay exponents {slope_u:.3f} (target 5) and {slope_dr:.3f} (target 4)",
           tm, 60.0)


def test_criterion_5_normal_form():
    with Timer() as tm:
        # closed-form recentering for the purely linear offset
        lam = 0.25
        x2 = 0.08
        x = (x2, 0.0)
        z0 = recenter_cr_singularity(offset_raw(lam).slice_matrix(x), x)
        assert abs(z0 - (-x2 / (1 + 2 * lam))) < 1e-12
        # full pipeline on the bundled-style raw example
        raw = full_raw_example()
        spec, change = normalize_full(raw, l=7)
        worst_lin, worst_imag, worst_k = 0.0, 0.0, 0.0
        for x in sorted(spec.samples):
            _, qp, kmat = spec.samples[x]
            worst_lin = max(worst_lin, abs(qp[0, 1]))
            worst_imag = max(worst_imag, abs(qp[0, 2].imag))
            assert qp[0, 2].real >= 0.0
            for j in range(kmat.shape[0]):
                for k in range(kmat.shape[1]):
                    if 0 < j + k < 7:
                        worst_k = max(worst_k, abs(kmat[j, k]))
        assert worst_lin < 1e-12, f"zbar coefficient {worst_lin:.3e}"
        assert worst_imag < 1e-12, f"quadratic imaginary part {worst_imag:.3e}"
        assert worst_k < 1e-10, f"low-order imaginary tail {worst_k:.3e}"
    report(5, f"normal form: linear {worst_lin:.1e}, residual tail {worst_k:.1e}",
           tm, 10.0)


def test_criterion_6_family_geometry():
    with Timer() as tm:
        spec = make_spec(lam=0.2, cubic=0.1, k7=0.05)
        grid = [(a, b) for a in (-0.05, 0.0, 0.05) for b in (-0.05, 0.0, 0.05)]
        r_list = [0.03, 0.05, 0.07, 0.1]
        rep = sweep(spec, grid, r_list)
        assert not rep.failures, rep.failures
        assert rep.converged_count() == 36
        assert all(rec["boundary_residual"] < 1e-8 for rec in rep.slices)
        assert rep.nested_curves
        assert rep.disjointness["min_distance"] > 0.0
        trend = {e["r"]: e["max_defect"] for e in rep.jacobian_trend}
        assert trend[r_list[0]] < 0.05
        assert trend[r_list[0]] <= trend[r_list[-1]]
    report(6, f"36 slices attached; min distance {rep.disjointness['min_distance']:.2e}, "
              f"jacobian defect {trend[r_list[0]]:.1e}", tm, 120.0)


def test_criterion_7_grid_refinement():
    with Timer() as tm:
        spec = make_spec(lam=0.2, cubic=0.0, k7=0.05)
        worst = 0.0
        for r in RATE_R_LIST:
            base = solve_slice(spec, SliceParams(X0, r), TIGHT_CONFIG)
            fine = solve_slice(spec, SliceParams(X0, r),
                               config=PipelineConfig(ntheta=512, solve_tol=1e-22))
            worst = max(worst, abs(fine.norm_u - base.norm_u) / base.norm_u)
        assert worst < 1e-9, f"relative norm change {worst:.3e}"
    report(7, f"doubling the grid changes the norms by {worst:.1e} relative", tm, 60.0)

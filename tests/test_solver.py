"""Boundary-equation solver tests: operator factorization, level functional
remainders, trivial and order-7 families, decay-rate fits."""

import numpy as np
import pytest

from bishopdiscs import fourier, solver, specio
from bishopdiscs.config import PipelineConfig
from bishopdiscs.conformal import riemann_map
from bishopdiscs.curve import SliceParams, quadric_slice, trace_level_curve
from bishopdiscs.discs import slice_tangents
from bishopdiscs.errors import ValidityEscape, ZeroOnCurve
from bishopdiscs.normal_form import normalize_full
from bishopdiscs.series import eval_matrix
from bishopdiscs.solver import (
    build_slice_operators, linearisation, newton_rhs, omega,
    omega_deviation, solve_slice, solve_u, tangent_solver,
)
from conftest import RATE_R_LIST, TIGHT_CONFIG, make_spec, perturbed_slice

X0 = (0.0, 0.0)


def pipeline(data, r, ntheta=256):
    curve = trace_level_curve(data, SliceParams(X0, r), config=PipelineConfig(ntheta=ntheta))
    cmap = riemann_map(curve)
    return cmap, build_slice_operators(cmap)


# --------------------------------------------------------------------------
# operator factorization
# --------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.0, 0.2, 0.3, 0.45])
def test_quadric_operators(lam):
    # Re{(q)_z z} = q = r^2 on the curve, so C = 2, |C| = 2, C* = 1/2, D = 1
    cmap, ops = pipeline(quadric_slice(lam), 0.1)
    c = ops.c_complex.real
    assert np.max(np.abs(c - 2.0)) < 1e-10
    assert np.max(np.abs(np.abs(c) - 2.0)) < 1e-10
    assert np.min(c) > 0.0             # arg C = 0 on the whole curve
    assert np.max(np.abs(ops.c_star - 0.5)) < 1e-10
    assert np.max(np.abs(ops.d_samples - 1.0)) < 1e-10


def test_perturbed_operators_holomorphic_d():
    cmap, ops = pipeline(perturbed_slice(0.25, cubic=0.1), 0.05)
    assert ops.d_energy < 1e-8
    assert np.min(ops.c_star) > 0.0


def test_c_star_positive_over_random_specs():
    rng = np.random.default_rng(21)
    for _ in range(10):
        lam = rng.uniform(0.0, 0.3)
        cubic = rng.uniform(-0.2, 0.2)
        cmap, ops = pipeline(perturbed_slice(lam, cubic=cubic), 0.05)
        assert np.min(ops.c_star) > 0.0


def test_zero_on_curve_detected():
    # star-shapedness of traceable curves keeps C away from zero, so the
    # gate is exercised on a doctored slice whose coefficient dips: trace a
    # circle, then hand the operator data with a large cubic term
    import dataclasses
    curve = trace_level_curve(quadric_slice(0.0), SliceParams(X0, 0.1))
    cmap = riemann_map(curve)
    doctored = dataclasses.replace(curve, data=perturbed_slice(0.0, cubic=7.0))
    with pytest.raises(ZeroOnCurve):
        build_slice_operators(dataclasses.replace(cmap, curve=doctored))


# --------------------------------------------------------------------------
# level functional
# --------------------------------------------------------------------------

def test_omega_is_one_at_zero():
    cmap, ops = pipeline(perturbed_slice(0.25, cubic=0.1), 0.05)
    vals = omega(np.zeros(cmap.n), cmap)
    assert np.max(np.abs(vals - 1.0)) < 1e-10


def test_omega_quadric_homogeneity():
    cmap, ops = pipeline(quadric_slice(0.2), 0.1)
    eps = 1e-3
    vals = omega(np.full(cmap.n, eps, dtype=complex), cmap)
    assert np.max(np.abs(vals - (1 + eps) ** 2)) < 1e-12


def test_omega_quadratic_remainder_scaling():
    # the remainder past the true derivative is quadratic: halving F
    # divides it by four
    cmap, ops = pipeline(perturbed_slice(0.2, cubic=0.1), 0.05)
    rng = np.random.default_rng(3)
    base = 1e-3 * (rng.normal(size=cmap.n) + 1j * rng.normal(size=cmap.n))
    rems = []
    for scale in (1.0, 0.5):
        f = scale * base
        # minus the Frechet derivative at F = 0, Re{(2/r^2)(q+P)_z z F}
        rem = omega_deviation(f, cmap) - np.real(ops.c_complex * f)
        rems.append(np.max(np.abs(rem)))
    ratio = rems[0] / rems[1]
    assert 3.5 < ratio < 4.5


def test_omega_deviation_matches_plain_omega():
    cmap, ops = pipeline(perturbed_slice(0.2, cubic=0.1), 0.05)
    rng = np.random.default_rng(4)
    f = 1e-4 * (rng.normal(size=cmap.n) + 1j * rng.normal(size=cmap.n))
    plain = omega(f, cmap)
    dev = omega_deviation(f, cmap)
    assert np.max(np.abs(plain - 1.0 - dev)) < 1e-10


# --------------------------------------------------------------------------
# Newton step: (I - G_U) delta = b, preconditioned by the chord operator
# I - s H, s = Im c / Re c
# --------------------------------------------------------------------------

ECCENTRIC_035 = make_spec(lam=0.35, cubic=0.1).slice_at(X0)


@pytest.mark.parametrize("scale", [0.0, 0.5, 1.0])
def test_newton_rhs_equals_the_fixed_point_defect(scale):
    # the paper's fixed-point map G(U) = -C* (Omega - 1 - Re{C F} + H[K] / r^2),
    # written out here: its Re{C F} term is U / C*, so G(U) - U is -C* E(U) / r^2;
    # at U = 0, U*/2 and U* on the perturbed slice (r 0.1, |U*| 1.5e-6) the two
    # forms differed by at most 2.1e-22
    spec = specio.load(specio.resolve_spec_path("builtin:perturbed"))
    sol = solve_slice(spec, SliceParams(X0, 0.1))
    cmap, ops, r = sol.cmap, sol.ops, sol.cmap.r
    u = scale * sol.u_samples
    f = (u + 1j * fourier.conjugate_samples(u)) / ops.d_samples
    omega1 = omega_deviation(f, cmap) - np.real(ops.c_complex.real * f)
    kvals = eval_matrix(cmap.curve.data.k, cmap.boundary_z * (1.0 + f)).real
    g = -ops.c_star * (omega1 + fourier.conjugate_samples(kvals) / r ** 2)
    assert np.max(np.abs(newton_rhs(u, cmap, ops)[0] - (g - u))) <= 5e-22


@pytest.mark.parametrize("data, ntheta", [(perturbed_slice(0.25), 256), (ECCENTRIC_035, 512)],
                         ids=["perturbed", "eccentric0.35"])
def test_newton_step_equals_dense_step(data, ntheta):
    # the dense linearisation I - G_U at the solved F is built here only,
    # column by column from its operator
    cmap, ops = pipeline(data, 0.1, ntheta)
    _, _, apply, solve = linearisation(cmap, ops, solve_u(cmap).f_samples)
    b = np.random.default_rng(5).standard_normal(ntheta)
    dense = np.linalg.solve(np.column_stack([apply(e) for e in np.eye(ntheta)]), b)
    step = solve(b)
    assert np.linalg.norm(step - dense) <= 1e-11 * np.linalg.norm(dense)


def test_newton_step_takes_few_krylov_products(krylov_products):
    # the counterpart of the map's guard: 9 chord-operator products per step
    # here when this guard was set, 12 per Newton step since, so a wrong
    # preconditioner that still converges shows
    cmap, _ = pipeline(ECCENTRIC_035, 0.1, 512)
    krylov_products.clear()
    sol = solve_u(cmap)
    assert len(krylov_products) == sol.iterations
    assert max(krylov_products) <= 12


@pytest.mark.parametrize("data, ntheta", [(perturbed_slice(0.25), 1024),
                                          (make_spec(lam=0.3, cubic=0.1).slice_at(X0), 2048)],
                         ids=["perturbed", "eccentric0.3"])
def test_closed_form_chord_inverse_solves_the_continuous_operator(data, ntheta):
    # c and b resolved to rounding on these grids: the defect measured 4.0e-16
    # and 4.4e-16 relative (it is 3.7e-7 for the perturbed slice at ntheta 256,
    # where c itself is under-resolved)
    _, ops = pipeline(data, 0.1, ntheta)
    s = ops.c_complex.imag / ops.c_complex.real
    t = fourier.grid(ntheta)
    b = 0.3 + np.cos(t) - 0.5 * np.sin(3 * t) + 0.2 * np.cos(7 * t)
    v = ops.chord_inverse(b)
    defect = v - s * fourier.conjugate_samples(v) - b
    assert np.linalg.norm(defect) <= 1e-14 * np.linalg.norm(b)


@pytest.mark.parametrize("lam, norm_over_r5", [(0.3, 0.6194433463302406),
                                               (0.35, 1.6780463220521695)])
def test_eccentric_slice_converges_in_few_chord_steps(lam, norm_over_r5):
    # plain Picard took 67 / 60 steps here without contraction evidence; the
    # Newton steps reach the same fixed point, so |U|/r^5 keeps Picard's value
    sol = solve_slice(make_spec(lam=lam, cubic=0.1), SliceParams(X0, 0.1),
                      PipelineConfig(ntheta=512))
    assert sol.iterations <= 6
    assert sol.contraction_ok
    assert abs(sol.norm_u / 0.1 ** 5 / norm_over_r5 - 1.0) < 1e-10


@pytest.mark.parametrize("lam, k7", [(0.2, 50.0), (0.35, 5.0)])
def test_larger_tail_ladder_solves_in_few_newton_steps(lam, k7):
    # chord steps on I - s H took 7-26 steps here, and their tangent sweeps
    # did not converge from r 0.15 on; Newton takes 4-5 steps, and one
    # linearised solve per tangent meets TANGENT_RTOL. At r 0.15 Richardson
    # on h = r/40 leaves 1.1e-6 (lam 0.2) and 4.9e-7 (lam 0.35), 16 times less
    # than on h = r/20: the O(h^4) truncation, not the tangent
    spec = make_spec(lam=lam, cubic=0.1, k7=k7)
    config = PipelineConfig(ntheta=512)
    for r in (0.1, 0.15, 0.19):
        sol = solve_slice(spec, SliceParams(X0, r), config)
        assert sol.iterations <= 5
        assert sol.contraction_ok
        r_tangent, _ = slice_tangents(spec, sol)
        if r == 0.15:
            gap = richardson_gap(
                r_tangent.u, lambda step: solve_slice(spec, SliceParams(X0, r + step), config),
                r / 40)
            assert gap < 3e-6


def test_larger_tail_ladder_escape_is_typed():
    # lam 0.35, k7 20 at r 0.19: the first Newton step from U = 0 already
    # reaches sup |F| 0.67, past F_CAP
    with pytest.raises(ValidityEscape, match="exceeds"):
        solve_slice(make_spec(lam=0.35, cubic=0.1, k7=20.0), SliceParams(X0, 0.19),
                    PipelineConfig(ntheta=512))


@pytest.mark.parametrize("evaluate", [omega, omega_deviation])
@pytest.mark.parametrize("f, scale, cause", [
    (0.6, 1.0, r"sup \|F\| = 0.600 exceeds 0.5"),
    (0.1, 10.0, "evaluation point left the series validity region"),
])
def test_validity_escapes_name_the_fix(evaluate, f, scale, cause):
    import dataclasses
    cmap, _ = pipeline(perturbed_slice(0.2, cubic=0.1), 0.05)
    cmap = dataclasses.replace(cmap, boundary_z=scale * cmap.boundary_z)
    with pytest.raises(ValidityEscape, match=cause + r" \(reduce r or the tail size\)$"):
        evaluate(np.full(cmap.n, f, dtype=complex), cmap)


# --------------------------------------------------------------------------
# trivial family
# --------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.0, 0.2, 0.3, 0.45])
def test_quadric_solution_is_trivial(lam):
    cmap, _ = pipeline(quadric_slice(lam), 0.1)
    sol = solve_u(cmap)
    assert sol.norm_u < 1e-10
    assert np.max(np.abs(sol.f_samples)) < 1e-10
    assert np.max(np.abs(sol.b_samples - 0.01)) < 1e-12


# --------------------------------------------------------------------------
# order-7 family
# --------------------------------------------------------------------------

def test_l7_slice_converges_quickly(rate_family):
    sol = rate_family[0.1]
    assert sol.iterations <= 4
    assert sol.residual < 1e-13 * 0.01


def test_l7_halved_spacing_cross_check():
    # halving the grid spacing (doubling the node count) must leave the
    # solved norm unchanged to spectral accuracy
    from bishopdiscs.config import PipelineConfig
    spec = make_spec()
    base = solve_slice(spec, SliceParams(X0, 0.08), TIGHT_CONFIG)
    fine = solve_slice(spec, SliceParams(X0, 0.08),
                       config=PipelineConfig(ntheta=512, solve_tol=1e-22))
    rel = abs(fine.norm_u - base.norm_u) / base.norm_u
    assert rel < 1e-9


def test_l7_decay_rate(rate_family):
    norms = [rate_family[r].norm_u for r in RATE_R_LIST]
    slope = np.polyfit(np.log(RATE_R_LIST), np.log(norms), 1)[0]
    assert 4.5 <= slope <= 5.5


def test_fixed_point_verification(rate_family):
    for sol in rate_family.values():
        assert sol.residual < 1e-12 * sol.cmap.r ** 2 + 1e-15


def test_attachment_tautology(rate_family):
    sol = rate_family[0.1]
    pts = sol.cmap.boundary_z * (1.0 + sol.f_samples)
    qp_direct = sol.cmap.curve.data.eval_qp(pts).real
    k_direct = sol.cmap.curve.data.eval_k(pts).real
    assert np.max(np.abs(sol.b_samples.real - qp_direct)) < 1e-12
    assert np.max(np.abs(sol.b_samples.imag - k_direct)) < 1e-12


def test_holomorphic_consistency(rate_family):
    sol = rate_family[0.1]
    f_frac = fourier.negative_energy_fraction(sol.f_samples)
    b_frac = fourier.negative_energy_fraction(sol.b_samples - np.mean(sol.b_samples))
    assert f_frac < 1e-8
    assert b_frac < 1e-8


def test_center_height_normalization(rate_family):
    for sol in rate_family.values():
        assert sol.center_height_residual < 1e-8 * sol.cmap.r ** 2


def test_contraction_evidence(rate_family):
    for sol in rate_family.values():
        assert sol.contraction_ok


def test_contraction_evidence_sees_a_slow_step(monkeypatch):
    # a first Newton step cut to 0.3 delta leaves 0.7 of the first defect
    # (1.5e-6 -> 1.0e-6 here); the later steps converge as before
    exact = solver.linearisation
    factors = iter([0.3])

    def short_first_step(cmap, ops, f):
        *pieces, solve = exact(cmap, ops, f)
        factor = next(factors, 1.0)
        return (*pieces, lambda b: factor * solve(b))
    monkeypatch.setattr(solver, "linearisation", short_first_step)
    sol = solve_slice(make_spec(lam=0.2, cubic=0.1), SliceParams(X0, 0.1))
    assert sol.step_norms[1] > 0.5 * sol.step_norms[0]
    assert not sol.contraction_ok


def test_phi_decomposition(rate_family):
    sol = rate_family[0.08 if 0.08 in rate_family else 0.1]
    phi = sol.f_samples.real
    recon = phi + 1j * fourier.conjugate_samples(phi)
    scale = np.max(np.abs(sol.f_samples))
    assert np.max(np.abs(recon - sol.f_samples)) < 1e-10 * scale + 1e-15


# --------------------------------------------------------------------------
# slice tangents
# --------------------------------------------------------------------------

def richardson_gap(tangent, solve_at, h):
    """sup |tangent - Richardson(FD(h), FD(h/2))| / sup |tangent| for the
    central differences of U over the slices solve_at(+-step)."""
    fd = [(solve_at(step).u_samples - solve_at(-step).u_samples) / (2 * step)
          for step in (h, h / 2)]
    richardson = (4 * fd[1] - fd[0]) / 3
    return np.max(np.abs(richardson - tangent)) / np.max(np.abs(tangent))


@pytest.mark.parametrize("r", [0.03, 0.1])
def test_radius_tangent_matches_richardson(r):
    # the criterion-6 spec; FD at h = r/20 alone is off by about 5e-3, the
    # (h/r)^2 truncation, and Richardson leaves 3.2e-7 / 3.9e-7 at r 0.03 / 0.1
    spec = make_spec(lam=0.2, cubic=0.1, k7=0.05)
    sol = solve_slice(spec, SliceParams(X0, r), TIGHT_CONFIG)
    tangent = tangent_solver(sol)(dr=1.0)
    gap = richardson_gap(
        tangent.u, lambda step: solve_slice(spec, SliceParams(X0, r + step), TIGHT_CONFIG), r / 20)
    assert gap < 1e-6


def test_parameter_tangent_matches_richardson():
    # the normalized raw example depends on X through lam, P and K; slices
    # come from the parameter fits alone, so the sample-table point X = 0
    # agrees as well as the point off the table: Richardson on h = 1e-3
    # leaves 6.6e-12 and 1.7e-10 (1.2e-6 at X = 0 when table points read the
    # table's exact slice)
    raw = specio.load(specio.resolve_spec_path("builtin:raw_example"))
    spec, _ = normalize_full(raw, raw.l)
    r = 0.05
    for x in (np.array([0.0, 0.0]), np.array([0.03, 0.0])):
        sol = solve_slice(spec, SliceParams(tuple(x), r), TIGHT_CONFIG)
        tangent = tangent_solver(sol)(0.0, *spec.slice_derivative(tuple(x), 0))
        gap = richardson_gap(
            tangent.u,
            lambda step: solve_slice(spec, SliceParams(tuple(x + [step, 0.0]), r), TIGHT_CONFIG),
            1e-3)
        assert gap < 1e-9


def test_parameter_tangents_vanish_on_x_independent_data(krylov_products):
    # zero rates give zero right-hand sides: exact zeros, no Krylov product
    spec = make_spec(lam=0.2, cubic=0.1, k7=0.05)
    sol = solve_slice(spec, SliceParams(X0, 0.1))
    tangents = tangent_solver(sol)
    krylov_products.clear()
    for axis in range(2):
        tangent = tangents(0.0, *spec.slice_derivative(X0, axis))
        for field in (tangent.u, tangent.f, tangent.z, tangent.zc, tangent.b):
            assert not np.any(field)
    assert sum(krylov_products) == 0

"""Conjugation identities, origin normalization, and the model-curve probe."""

import tracemalloc

import numpy as np
import pytest

from bishopdiscs import fourier, hilbert
from bishopdiscs.config import PipelineConfig
from bishopdiscs.conformal import riemann_map
from bishopdiscs.curve import SliceParams, quadric_slice, trace_level_curve
from bishopdiscs.errors import AliasingRisk, GridMismatch, NoConvergence
from bishopdiscs.fourier import conjugate_samples
from bishopdiscs.hilbert import (
    discrete_holder_norm, eval_trig_poly, hilbert_on_curve, holder_weights, norm_probe,
    origin_imaginary_residual, random_trig_poly,
)
from conftest import perturbed_slice

N = 256
T = fourier.grid(N)
X0 = (0.0, 0.0)


def test_conjugation_identities_up_to_degree_32():
    for n in range(1, 33):
        assert np.max(np.abs(conjugate_samples(np.cos(n * T)) - np.sin(n * T))) < 1e-11
        assert np.max(np.abs(conjugate_samples(np.sin(n * T)) + np.cos(n * T))) < 1e-11


def test_conjugation_annihilates_constants_exactly():
    out = conjugate_samples(np.ones(N))
    assert np.all(out == 0.0)


def test_double_conjugation_negates_zero_mean_part():
    rng = np.random.default_rng(1)
    coeffs = random_trig_poly(rng, degree=20)
    phi = eval_trig_poly(coeffs, T)
    twice = conjugate_samples(conjugate_samples(phi))
    assert np.max(np.abs(twice + (phi - np.mean(phi)))) < 1e-12


def test_linearity():
    rng = np.random.default_rng(2)
    phi = eval_trig_poly(random_trig_poly(rng), T)
    psi = eval_trig_poly(random_trig_poly(rng), T)
    a, b = 1.7, -0.3
    lhs = conjugate_samples(a * phi + b * psi)
    rhs = a * conjugate_samples(phi) + b * conjugate_samples(psi)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("n", [4, 256, 2048])
def test_real_conjugation_matches_the_complex_path(n):
    x = np.random.default_rng(n).standard_normal(n)
    complex_path = conjugate_samples(x.astype(complex))
    real_path = conjugate_samples(x)
    assert np.isrealobj(real_path)
    assert np.linalg.norm(real_path - complex_path) <= 1e-15 * np.linalg.norm(complex_path)


def test_sup_norm_finds_the_maximum_between_nodes():
    # both maxima sit off the 8x upsampled grid, where the upsampled value
    # is about 1e-4 low at n = 16
    t = fourier.grid(16)
    assert fourier.sup_norm(np.cos(t - 0.1)) == pytest.approx(1.0, abs=1e-14)
    f = np.exp(1j * t) * (1.0 + 0.5 * np.cos(3 * t - 0.1))
    assert fourier.sup_norm(f) == pytest.approx(1.5, abs=1e-14)


def _trig_poly(n, t):
    """Band-limited on the n-point grid, with the Nyquist cosine. At a double
    t the phase of mode k is only known to about k t eps, so the top modes
    stay small enough for that floor to sit below 1e-13 at n = 2048."""
    return (0.7 + 0.5 * np.cos(t) - 0.3 * np.sin(t)
            + 0.02 * np.sin((n // 2 - 1) * t) + 0.03 * np.cos(n // 2 * t))


@pytest.mark.parametrize("n", [4, 256, 2048])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_interpolant_reproduces_a_trig_polynomial_off_the_grid(n, kind):
    def f(t):
        if kind == "real":
            return _trig_poly(n, t)
        return _trig_poly(n, t) + 1j * (0.4 * np.sin(t) - 0.01 * np.cos(n // 2 * t))

    t = np.random.default_rng(n).uniform(0.0, 2.0 * np.pi, 200)
    got = fourier.eval_interpolant(f(fourier.grid(n)), t)
    assert np.isrealobj(got) == (kind == "real")
    assert np.max(np.abs(got - f(t))) <= 1e-13


def _zero_padded(samples, factor):
    """Resampling by zero padding of the unnormalized spectrum, the Nyquist
    bin split into equal halves at -n/2 and n/2."""
    n = len(samples)
    m = n * factor
    c = np.fft.fft(samples)
    pad = np.zeros(m, dtype=complex)
    pad[:n // 2] = c[:n // 2]
    pad[m - n // 2 + 1:] = c[n // 2 + 1:]
    pad[n // 2] = pad[m - n // 2] = 0.5 * c[n // 2]
    out = np.fft.ifft(pad) * (m / n)
    return out.real if np.isrealobj(samples) else out


@pytest.mark.parametrize("n", [4, 16, 256, 2048])
@pytest.mark.parametrize("factor", [4, 8])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_upsample_and_modes_match_their_references_bit_for_bit(n, factor, kind):
    # sup_norm reads exactly these two: the upsampled grid and the modes
    rng = np.random.default_rng(n + factor)
    x = rng.standard_normal(n)
    if kind == "complex":
        x = x + 1j * rng.standard_normal(n)
    assert np.array_equal(fourier.upsample(x, factor), _zero_padded(x, factor))
    c = np.fft.fftshift(np.fft.fft(x)) / n
    modes = np.append(c, 0.5 * c[0])
    modes[0] *= 0.5
    assert np.array_equal(fourier.interpolant_modes(x), modes)


def test_correspondence_inversion_round_trips():
    def theta(t):
        return t + 0.3 * np.sin(t) + 0.05 * np.cos(3 * t)

    t = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, 200)
    got = fourier.invert_correspondence(theta(T), theta(t))
    assert np.max(np.abs(got - t)) <= 1e-13


def _stack(n):
    """Three real sample rows on the n-point grid, and complex ones."""
    rng = np.random.default_rng(n)
    real = rng.standard_normal((3, n))
    return real, real + 1j * rng.standard_normal((3, n))


@pytest.mark.parametrize("n", [4, 256, 512])
def test_stacked_transforms_equal_the_row_by_row_calls(n):
    t = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, 37)
    for rows in _stack(n):
        for transform in (fourier.conjugate_samples, fourier.interpolant_modes, fourier.derivative):
            assert np.array_equal(transform(rows), [transform(row) for row in rows])
        assert np.array_equal(fourier.eval_interpolant(rows, t),
                              [fourier.eval_interpolant(row, t) for row in rows])
        zeta = 0.9 * np.exp(1j * t)
        coeffs = rows[:, :20]
        assert np.array_equal(fourier.eval_taylor(coeffs[:, None, :], zeta),
                              [fourier.eval_taylor(c, zeta) for c in coeffs])


# measured worst errors over eight seeds, relative to sum |c_k|: interpolant
# 1.6e-15 at n 256 and 4.1e-15 at 2048; Taylor sum (n/2 coefficients, |zeta|
# <= 1) 7.6e-16 and 1.6e-15. Squaring in the power table compounds its
# first roundings, so the Taylor error grows about linearly in the degree.
KERNEL_ERROR = {256: (3e-15, 1.5e-15), 2048: (8e-15, 3e-15)}


@pytest.mark.parametrize("n", [256, 2048])
def test_kernel_matches_a_long_double_direct_sum(n):
    interpolant_bound, taylor_bound = KERNEL_ERROR[n]
    rng = np.random.default_rng(n)
    t = rng.uniform(0.0, 2.0 * np.pi, 200)
    k = np.arange(-(n // 2), n // 2 + 1)
    phase = np.exp(1j * np.multiply.outer(t.astype(np.longdouble), k))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for samples in (x, x.real):
        modes = fourier.interpolant_modes(samples)
        exact = (modes.astype(np.clongdouble) * phase).sum(axis=-1)
        exact = exact.real if np.isrealobj(samples) else exact
        error = np.max(np.abs(fourier.eval_interpolant(samples, t) - exact))
        assert error <= interpolant_bound * np.sum(np.abs(modes))
    coeffs = rng.standard_normal(n // 2) + 1j * rng.standard_normal(n // 2)
    zeta = np.sqrt(rng.uniform(0.0, 1.0, 200)) * np.exp(1j * t)
    zeta[:50] /= np.abs(zeta[:50])
    powers = zeta.astype(np.clongdouble)[:, None] ** np.arange(n // 2)
    exact = (coeffs.astype(np.clongdouble) * powers).sum(axis=-1)
    error = np.max(np.abs(fourier.eval_taylor(coeffs, zeta) - exact))
    assert error <= taylor_bound * np.sum(np.abs(coeffs))


def test_stacked_rows_equal_single_rows_over_several_power_blocks():
    # 700 targets take three power tables per row; BLAS threads not pinned
    n = 2048
    t = np.random.default_rng(11).uniform(0.0, 2.0 * np.pi, 700)
    assert len(t) > 2 * fourier.POWER_BLOCK
    for rows in _stack(n):
        assert np.array_equal(fourier.eval_interpolant(rows, t),
                              [fourier.eval_interpolant(row, t) for row in rows])
        zeta = 0.9 * np.exp(1j * t)
        coeffs = rows[:, :n // 4]
        assert np.array_equal(fourier.eval_taylor(coeffs[:, None, :], zeta),
                              [fourier.eval_taylor(c, zeta) for c in coeffs])
    grid = fourier.grid(n)
    rows = np.stack([grid + 0.05 * np.sin(grid),
                     grid + 0.3 * np.sin(grid) + 0.1 * np.cos(2 * grid)])
    assert np.array_equal(fourier.invert_correspondence(rows, t),
                          [fourier.invert_correspondence(row, t) for row in rows])


def test_interpolant_evaluation_forms_no_dense_table():
    # one power table of POWER_BLOCK x (n/2 + 1) values at a time (8.4 MB at
    # n 4096; measured peak 11.8 MB), not n x n (268 MB)
    n = 4096
    rows = np.random.default_rng(4).standard_normal((10, n))
    t = fourier.grid(n) + np.pi / n
    tracemalloc.start()
    try:
        fourier.eval_interpolant(rows, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_stacked_inversion_freezes_each_row_on_its_own_test(monkeypatch):
    # the identity needs no Newton step and the strongest row the most; a
    # shared stop would move the bits of the rows that converge first
    rows = np.stack([T, T + 0.05 * np.sin(T), T + 0.45 * np.sin(T) + 0.1 * np.cos(2 * T)])
    targets = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, 50)
    single = [fourier.invert_correspondence(row, targets) for row in rows]
    assert np.array_equal(fourier.invert_correspondence(rows, targets), single)
    evaluations = []
    exact = fourier._eval_modes
    monkeypatch.setattr(fourier, "_eval_modes", lambda *a: evaluations.append(1) or exact(*a))
    steps = []
    for row in rows:
        evaluations.clear()
        fourier.invert_correspondence(row, targets)
        steps.append(len(evaluations) - 1)
    assert steps[0] == 0 and steps[0] < steps[1] < steps[2]


def test_one_row_calls_keep_their_shapes():
    x = np.cos(T) + 0.5
    c = fourier.interpolant_modes(x)
    assert c.shape == (N + 1,)
    assert fourier.conjugate_samples(x).shape == (N,)
    assert fourier.eval_interpolant(x, 0.3).shape == (1,)
    assert fourier.eval_interpolant(x, T[:7]).shape == (7,)
    assert fourier.invert_correspondence(T + 0.1 * np.sin(T), 0.3).shape == (1,)
    assert fourier.invert_correspondence(T + 0.1 * np.sin(T), T[:7]).shape == (7,)
    value = fourier.eval_taylor(c[:10], 0.3 + 0.1j)
    assert np.ndim(value) == 0 and isinstance(value, np.complex128)
    assert value == fourier.eval_taylor(c[:10], [0.3 + 0.1j])[0]
    assert fourier.eval_taylor(c[:10], np.full((2, 3), 0.1j)).shape == (2, 3)
    assert fourier.eval_taylor(c[:10], []).shape == (0,)
    assert fourier.eval_interpolant(np.stack([x, x]), []).shape == (2, 0)


def test_stacked_input_reads_the_grid_size_from_the_last_axis():
    assert fourier.conjugate_samples(np.ones((5, 6))).shape == (5, 6)
    with pytest.raises(GridMismatch):
        fourier.conjugate_samples(np.ones((6, 5)))


def test_inversion_failure_names_the_residual_and_the_fix():
    rows = np.stack([T, np.full(N, np.nan)])
    with pytest.raises(NoConvergence, match="worst residual nan.*raise ntheta"):
        fourier.invert_correspondence(rows, T)


def _probe_trial_by_trial(cmap, j, seed):
    """norm_probe as a loop over its ten trials: one polynomial, transform
    pair and pair of Hoelder norms at a time, each inversion on its own."""
    data = cmap.curve.data
    model = quadric_slice(data.lam, max_degree=data.qp.shape[0] - 1)
    model_map = riemann_map(
        trace_level_curve(model, cmap.curve.slice, PipelineConfig(ntheta=cmap.n)))
    theta_grid = fourier.grid(cmap.n)
    t_star = fourier.invert_correspondence(cmap.correspondence, theta_grid)
    t_model = fourier.invert_correspondence(model_map.correspondence, theta_grid)

    def transform(m, t, coeffs):
        h = conjugate_samples(eval_trig_poly(coeffs, m.correspondence))
        return np.real(fourier.eval_interpolant(h, t))

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        coeffs = random_trig_poly(rng)
        gap = transform(cmap, t_star, coeffs) - transform(model_map, t_model, coeffs)
        phi = eval_trig_poly(coeffs, theta_grid)
        weights = holder_weights(cmap.n)
        ratio = discrete_holder_norm(gap, j, weights) / discrete_holder_norm(phi, j, weights)
        worst = max(worst, ratio)
    return worst


@pytest.mark.parametrize("ntheta", [256, 512])
@pytest.mark.parametrize("seed", [0, 3])
def test_probe_equals_its_trial_by_trial_loop(ntheta, seed):
    curve = trace_level_curve(perturbed_slice(0.2, cubic=0.1), SliceParams(X0, 0.1),
                              PipelineConfig(ntheta=ntheta))
    cmap = riemann_map(curve)
    probe = norm_probe(cmap, j=0, seed=seed)
    assert probe > 0.0
    assert probe == _probe_trial_by_trial(cmap, 0, seed)


def test_probe_over_several_maps_equals_the_probe_map_by_map(monkeypatch):
    # the first two maps share (lam, r, degree) and so one model map
    maps = [riemann_map(trace_level_curve(perturbed_slice(0.2, cubic=cubic), SliceParams(X0, r)))
            for cubic, r in ((0.1, 0.1), (0.05, 0.1), (0.1, 0.05))]
    single = [norm_probe([m], j=0)[0] for m in maps]
    built = []
    exact = hilbert.riemann_map
    monkeypatch.setattr(hilbert, "riemann_map", lambda curve: built.append(1) or exact(curve))
    assert norm_probe(maps[:2], j=0) == single[:2]
    assert len(built) == 1
    assert norm_probe(maps, j=0) == single
    assert len(built) == 3
    with pytest.raises(GridMismatch):
        norm_probe([maps[0], riemann_map(trace_level_curve(
            perturbed_slice(0.2), SliceParams(X0, 0.1), PipelineConfig(ntheta=512)))], j=0)


def test_circle_operator_reduces_to_model():
    curve = trace_level_curve(quadric_slice(0.0), SliceParams(X0, 0.1))
    out = hilbert_on_curve(riemann_map(curve), np.cos(T))
    assert np.max(np.abs(out - np.sin(T))) < 1e-12


def test_constants_map_to_zero_on_any_curve(ellipse_map):
    out = hilbert_on_curve(ellipse_map, np.full(N, 3.7))
    assert np.max(np.abs(out)) == 0.0


def test_origin_normalization_on_ellipse(ellipse_map):
    phi = ellipse_map.boundary_z.real  # Re z restricted to the curve
    res = origin_imaginary_residual(ellipse_map, phi)
    assert res < 1e-9 * np.max(np.abs(phi))


def test_completion_is_holomorphic(ellipse_map):
    rng = np.random.default_rng(3)
    phi = eval_trig_poly(random_trig_poly(rng), T)
    completion = phi + 1j * hilbert_on_curve(ellipse_map, phi)
    frac = fourier.negative_energy_fraction(completion - np.mean(completion))
    assert frac < 1e-8


def test_grid_mismatch(ellipse_map):
    with pytest.raises(GridMismatch):
        hilbert_on_curve(ellipse_map, np.ones(128))


def test_aliasing_guard(ellipse_map):
    rough = np.cos((3 * N // 8 + 5) * T)
    with pytest.raises(AliasingRisk):
        hilbert_on_curve(ellipse_map, rough)


def test_probe_vanishes_without_perturbation(ellipse_map):
    assert norm_probe(ellipse_map, j=0) < 1e-10


def test_probe_scales_linearly_in_r():
    gaps = []
    r_list = [0.02, 0.04, 0.08]
    for r in r_list:
        curve = trace_level_curve(perturbed_slice(0.25, cubic=0.1), SliceParams(X0, r))
        gaps.append(norm_probe(riemann_map(curve), j=0))
    slope = np.polyfit(np.log(r_list), np.log(gaps), 1)[0]
    assert 0.7 <= slope <= 1.3


def test_probe_finite_in_higher_norms():
    curve = trace_level_curve(perturbed_slice(0.25, cubic=0.1), SliceParams(X0, 0.05))
    cmap = riemann_map(curve)
    p0 = norm_probe(cmap, j=0)
    p2 = norm_probe(cmap, j=2)
    assert np.isfinite(p0) and np.isfinite(p2)
    assert p2 >= 0.0


def test_holder_norm_monotone_in_j():
    rng = np.random.default_rng(4)
    phi = eval_trig_poly(random_trig_poly(rng), T)
    weights = holder_weights(N)
    assert discrete_holder_norm(phi, 2, weights) >= discrete_holder_norm(phi, 0, weights)

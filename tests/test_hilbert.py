"""Conjugation identities, origin normalization, and the model-curve probe."""

import numpy as np
import pytest

from bishopdiscs import fourier
from bishopdiscs.conformal import riemann_map
from bishopdiscs.curve import SliceParams, quadric_slice, trace_level_curve
from bishopdiscs.errors import AliasingRisk, GridMismatch
from bishopdiscs.fourier import conjugate_samples
from bishopdiscs.hilbert import (
    discrete_holder_norm, eval_trig_poly, hilbert_on_curve, norm_probe,
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
    assert discrete_holder_norm(phi, 2) >= discrete_holder_norm(phi, 0)

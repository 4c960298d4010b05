"""Hilbert transform on slice boundaries via the conformal parameterization.

A real function on the boundary curve, sampled at the conformal grid points
z(t) = r sigma(e^{it}), has its transform realized exactly by the circle
conjugation in t: phi + i H[phi] then extends holomorphically inside, and
because sigma(0) = 0 and the conjugation has zero mean, the imaginary part
of the extension vanishes at the curve's origin.

Boundary functions are plain numpy arrays over the circle grid of a
ConformalMap, which every function here takes directly.
"""

import numpy as np

from . import fourier
from .config import PipelineConfig
from .conformal import ConformalMap, riemann_map
from .curve import quadric_slice, trace_level_curve
from .errors import AliasingRisk, GridMismatch

ALIAS_ENERGY_LIMIT = 1e-6
HOLDER_ALPHA = 0.5     # exponent of the top-order difference quotient


def hilbert_on_curve(cmap, phi):
    """Transform of a real boundary function sampled at the conformal grid.

    The returned samples make phi + i H[phi] the boundary values of a
    function holomorphic inside the curve with Im = 0 at the curve origin
    (see origin_imaginary_residual for the verification hook).
    """
    phi = np.asarray(phi)
    if len(phi) != cmap.n:
        raise GridMismatch(f"expected {cmap.n} samples, got {len(phi)}")
    if fourier.top_band_energy_fraction(phi) >= ALIAS_ENERGY_LIMIT:
        raise AliasingRisk(
            "top quarter of the input spectrum carries >= 1e-6 of the energy; "
            "increase the grid size")
    return fourier.conjugate_samples(phi)


def origin_imaginary_residual(cmap, phi):
    """|Im| at the curve origin of the extension of phi + i H[phi], by the
    Cauchy integral over the conformal parameterization."""
    completion = np.asarray(phi, dtype=float) + 1j * hilbert_on_curve(cmap, phi)
    log_tangent = cmap.boundary_dz / cmap.boundary_z
    return abs(complex(np.sum(completion * log_tangent) / (1j * cmap.n)).imag)


# --------------------------------------------------------------------------
# discrete Hoelder norms and the model-curve comparison probe
# --------------------------------------------------------------------------

def holder_weights(n):
    """Pair weights min(dt, 2 pi - dt)^HOLDER_ALPHA of the n-point grid, with
    an infinite diagonal: the denominators of discrete_holder_norm. An n x n
    table (128 MB at n = 4096), so callers build it per use, not per module."""
    t = fourier.grid(n)
    dt = np.abs(t[:, None] - t[None, :])
    dist = np.minimum(dt, 2 * np.pi - dt)
    np.fill_diagonal(dist, np.inf)
    return dist ** HOLDER_ALPHA


def discrete_holder_norm(samples, j, weights):
    """Sup norms of spectral derivatives up to order j plus the top-order
    HOLDER_ALPHA-difference quotient maximized over grid pairs, for one row
    of samples; weights = holder_weights(len(samples)), shared by every row
    on that grid."""
    samples = np.asarray(samples, dtype=float)
    total = 0.0
    top = samples
    for order in range(j + 1):
        top = samples if order == 0 else fourier.derivative(samples, order)
        total += float(np.max(np.abs(top)))
    quot = np.subtract.outer(top, top)
    np.abs(quot, out=quot)
    quot /= weights
    return total + float(np.max(quot))


def random_trig_poly(rng, degree=10):
    """Coefficients (a0, a[n], b[n]) of a random real trig polynomial."""
    a0 = rng.normal()
    n = np.arange(1, degree + 1)
    a = rng.normal(size=degree) / (1.0 + n)
    b = rng.normal(size=degree) / (1.0 + n)
    return a0, a, b


def eval_trig_poly(coeffs, theta):
    """Values at theta of the trig polynomial with coefficients (a0, a, b).
    Stacked coefficients (a0 of shape (m,), a and b of shape (m, degree))
    give the (m,) + theta.shape stack of their values."""
    a0, a, b = coeffs
    theta = np.asarray(theta, dtype=float)
    out = np.multiply.outer(a0, np.ones(theta.shape))
    for i in range(np.shape(a)[-1]):
        out += (np.multiply.outer(a[..., i], np.cos((i + 1) * theta))
                + np.multiply.outer(b[..., i], np.sin((i + 1) * theta)))
    return out


def norm_probe(cmaps, j, seed=0):
    """Empirical operator-norm gaps between each curve's transform and the
    transform of the unperturbed quadratic-model curve at the same slice.

    Both transforms act on ten random trig polynomials of the polar angle
    and are compared on the polar grid in the discrete C^j norm; the gap
    closes linearly in r when the perturbation is nontrivial. cmaps is one
    map, which gives its gap, or a sequence of maps on one grid, which gives
    one gap per map. Each model map is built once per (lam, r, degree) on
    that grid. The polynomials are drawn trial by trial from seed and run as
    one stack; every correspondence is inverted, and every transform
    evaluated, in one stacked call, and the polynomials' Hoelder norms are
    taken once, so each gap equals the trial-by-trial loop on its map alone,
    bit for bit.
    """
    if isinstance(cmaps, ConformalMap):
        return norm_probe([cmaps], j, seed)[0]
    n = cmaps[0].n
    if any(cmap.n != n for cmap in cmaps):
        raise GridMismatch(f"probe maps need one grid, got sizes {[cmap.n for cmap in cmaps]}")
    models, model_rows = {}, []     # model maps by (lam, r, degree); each map's model row
    for cmap in cmaps:
        data = cmap.curve.data
        key = (data.lam, cmap.r, data.qp.shape[0] - 1)
        if key not in models:
            model = quadric_slice(data.lam, max_degree=key[2])
            models[key] = riemann_map(
                trace_level_curve(model, cmap.curve.slice, PipelineConfig(ntheta=n)))
        model_rows.append(len(cmaps) + list(models).index(key))
    correspondences = np.stack([m.correspondence for m in [*cmaps, *models.values()]])
    theta_grid = fourier.grid(n)
    t = fourier.invert_correspondence(correspondences, theta_grid)
    rng = np.random.default_rng(seed)
    coeffs = [np.array(c) for c in zip(*(random_trig_poly(rng) for _ in range(10)))]
    # H[phi] of each polynomial on each curve, expressed back on the polar grid
    transforms = fourier.eval_interpolant(
        fourier.conjugate_samples(eval_trig_poly(coeffs, correspondences)), t)
    weights = holder_weights(n)
    phi_norms = [discrete_holder_norm(phi, j, weights)
                 for phi in eval_trig_poly(coeffs, theta_grid)]
    gaps = []
    for i, model_row in enumerate(model_rows):
        ratios = [discrete_holder_norm(gap, j, weights) / norm for gap, norm in
                  zip(transforms[:, i] - transforms[:, model_row], phi_norms)]
        gaps.append(max(0.0, *ratios))
    return gaps

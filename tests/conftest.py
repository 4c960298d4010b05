import numpy as np
import pytest

from bishopdiscs import conformal, fourier
from bishopdiscs.config import DEFAULT_CONFIG, PipelineConfig
from bishopdiscs.conformal import riemann_map
from bishopdiscs.curve import SliceData, SliceParams, quadric_slice, trace_level_curve
from bishopdiscs.normal_form import ManifoldSpec
from bishopdiscs.series import BidegreeSeries, ParamPoly, quadric_matrix
from bishopdiscs.solver import solve_slice, tangent_solver

# r sweep used by the decay-rate experiments
RATE_R_LIST = (0.02, 0.03, 0.045, 0.068, 0.1)

# solver tolerance driven to its noise floor, for rate and refinement checks
TIGHT_CONFIG = PipelineConfig(solve_tol=1e-22)


def perturbed_slice(lam, cubic=0.1, max_degree=10):
    """Slice data for q + cubic * Re z^3 (parameter-free)."""
    qp = quadric_matrix(float(lam), max_degree + 1)
    qp[3, 0] += cubic / 2.0
    qp[0, 3] += cubic / 2.0
    k = np.zeros_like(qp)
    return SliceData.from_matrices(lam, qp, k)


def make_spec(lam=0.2, cubic=0.0, k7=0.05, n=2, max_degree=10, radius=0.2):
    """Manifold with constant coefficients: P = cubic Re z^3, K = k7 Re z^7."""
    nvars = 2 * (n - 1)
    p_vals = {(3, 0): cubic / 2.0, (0, 3): cubic / 2.0} if cubic else {}
    k_vals = {(7, 0): k7 / 2.0, (0, 7): k7 / 2.0} if k7 else {}
    return ManifoldSpec(
        n=n, l=7,
        lam=ParamPoly.const(lam, nvars, 2),
        p=BidegreeSeries.from_complex_dict(p_vals, nvars, max_degree),
        k=BidegreeSeries.from_complex_dict(k_vals, nvars, max_degree),
        validity_radius=radius)


def interior_grid(n_radii, ntheta):
    """Radial-angular grid of the closed unit disc, clustered at the rim."""
    j = np.arange(1, n_radii + 1)
    radii = np.sin(0.5 * np.pi * j / n_radii)
    t = fourier.grid(ntheta)
    return radii[:, None] * np.exp(1j * t)[None, :]


def derivative_bound_probe(spec, solution, j, s, config=DEFAULT_CONFIG):
    """Sup norm of d^j/dtheta^j d^s/dr^s of the disc correction F, for
    j + 2s <= l - 4. s = 1 reads the radius tangent; s = 2 differences the
    radius tangents of the slices solved at r +- r/20."""
    if j + 2 * s > spec.l - 4:
        raise ValueError(f"probe order (j={j}, s={s}) outside j + 2s <= l - 4")
    if s > 2:
        raise ValueError("radial derivative order above 2 is not implemented")
    f = solution.f_samples
    if s == 1:
        f = tangent_solver(solution)(dr=1.0).f
    elif s == 2:
        x, r = solution.cmap.curve.slice.x, solution.cmap.curve.slice.r
        h = r / 20.0
        lo, hi = (tangent_solver(solve_slice(spec, SliceParams(x, rr), config))(dr=1.0).f
                  for rr in (r - h, r + h))
        f = (hi - lo) / (2.0 * h)
    if j > 0:
        f = fourier.derivative(f, j)
    return fourier.sup_norm(f)


def closed_form_only(monkeypatch):
    """Replace GMRES by the identity from here on: every conformal.preconditioned
    solve then returns its closed-form Riemann-Hilbert inverse alone."""
    monkeypatch.setattr(conformal, "gmres", lambda apply, b, rtol, max_iter: b)


@pytest.fixture
def krylov_products(monkeypatch):
    """Products taken by each GMRES solve from here on, one entry per solve."""
    products = []
    plain = conformal.gmres

    def counting(apply, b, rtol, max_iter):
        calls = [0]

        def counted(v):
            calls[0] += 1
            return apply(v)
        x = plain(counted, b, rtol, max_iter)
        products.append(calls[0])
        return x

    monkeypatch.setattr(conformal, "gmres", counting)
    return products


@pytest.fixture(scope="session")
def ellipse_map():
    """Normalized map for the lam = 0.25 quadric slice at r = 0.1."""
    curve = trace_level_curve(quadric_slice(0.25), SliceParams((0.0, 0.0), 0.1))
    return riemann_map(curve)


@pytest.fixture(scope="session")
def config():
    return PipelineConfig()


@pytest.fixture(scope="session")
def rate_family():
    """Tightly solved slices of the order-7 family over the rate r list."""
    spec = make_spec(lam=0.2, cubic=0.0, k7=0.05)
    x0 = (0.0, 0.0)
    return {r: solve_slice(spec, SliceParams(x0, r), TIGHT_CONFIG)
            for r in RATE_R_LIST}

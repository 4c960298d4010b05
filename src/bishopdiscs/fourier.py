"""Spectral helpers on equispaced periodic grids.

All routines assume samples f_j = f(2*pi*j/N), N even, and use the
symmetric trigonometric interpolant: the Nyquist bin is a cosine split into
equal halves at modes -N/2 and N/2. interpolant_modes alone writes that
convention; every routine that resamples or evaluates the interpolant reads it.

conjugate_samples, derivative, interpolant_modes, eval_interpolant,
eval_taylor and invert_correspondence act along the last axis: a stack of
rows (..., N) runs through the same code path as one row, and each row of
the result equals the call on that row alone, bit for bit.

Off the grid, eval_taylor, eval_interpolant and invert_correspondence sum
their series through one kernel: a table of the powers of each block of
points, and one BLAS matrix-vector product per coefficient row.
"""

import functools
import math

import numpy as np

from .errors import GridMismatch, NoConvergence

POWER_BLOCK = 256   # points per power table, which holds POWER_BLOCK x K values


def grid(n):
    """Equispaced angles 2*pi*j/n, j = 0..n-1."""
    return 2.0 * np.pi * np.arange(n) / n


def _check_even(samples):
    n = np.shape(samples)[-1]
    if n < 4 or n % 2:
        raise GridMismatch(f"need an even number of samples >= 4, got {n}")
    return n


@functools.lru_cache
def conjugate_multiplier(n):
    """Fourier multiplier of the circle conjugation: e^{ikt} -> -i sgn(k) e^{ikt}.

    Cached per grid size and read-only, since every caller shares it.
    """
    k = np.fft.fftfreq(n, d=1.0 / n)
    m = -1j * np.sign(k)
    m[0] = 0.0
    m[n // 2] = 0.0  # Nyquist mode has no conjugate on the grid
    m.flags.writeable = False
    return m


def conjugate_samples(samples):
    """Conjugate function on the circle; zero mean, kills constants.

    Real input takes the half-spectrum (rfft) path; complex input acts
    componentwise: H[u + iv] = H[u] + i H[v].
    """
    samples = np.asarray(samples)
    n = _check_even(samples)
    if np.isrealobj(samples):
        return np.fft.irfft(np.fft.rfft(samples) * conjugate_multiplier(n)[:n // 2 + 1], n)
    return np.fft.ifft(np.fft.fft(samples) * conjugate_multiplier(n))


def derivative(samples, order=1):
    """Spectral d^order/dt^order; odd orders zero the Nyquist bin."""
    samples = np.asarray(samples)
    n = _check_even(samples)
    k = np.fft.fftfreq(n, d=1.0 / n)
    mult = (1j * k) ** order
    if order % 2:
        mult[n // 2] = 0.0
    out = np.fft.ifft(np.fft.fft(samples) * mult)
    return out.real if np.isrealobj(samples) else out


def interpolant_modes(samples):
    """Coefficients of the trigonometric interpolant at modes -n/2 .. n/2,
    the Nyquist cosine split into halves."""
    n = _check_even(samples)
    c = np.fft.fftshift(np.fft.fft(samples), axes=-1) / n
    c = np.concatenate([c, 0.5 * c[..., :1]], axis=-1)
    c[..., 0] *= 0.5
    return c


def _power_table(z, k):
    """Rows z^0 .. z^(k-1) of a block of points, by doubling: rows [j, 2j)
    are rows [0, j) times z^j, and z^j comes from repeated squaring."""
    table = np.empty((k, len(z)), dtype=complex)
    table[:1] = 1.0
    j, zj = 1, z
    while j < k:
        np.multiply(table[:min(j, k - j)], zj, out=table[j:2 * j])
        j, zj = 2 * j, zj * zj
    return table


def _power_sums(coeffs, zeta):
    """Sums over k of coeffs[..., k] zeta^k, for the points on the last axis
    of zeta; the leading axes of coeffs and zeta broadcast. Each row of
    points takes one power table per block of POWER_BLOCK points, shared by
    every coefficient row evaluated at it, and each coefficient row one
    matrix-vector product with that table. One gemv per row, not one gemm
    over the stack, keeps every row equal to its single-row call bit for bit."""
    lead = np.broadcast_shapes(coeffs.shape[:-1], zeta.shape[:-1])
    points = zeta.reshape(math.prod(zeta.shape[:-1]), zeta.shape[-1])
    source = np.broadcast_to(np.arange(len(points)).reshape(zeta.shape[:-1]), lead).ravel()
    rows = np.broadcast_to(coeffs, lead + coeffs.shape[-1:]).reshape(len(source), coeffs.shape[-1])
    rows = rows.astype(complex)
    out = np.empty((len(rows), points.shape[-1]), dtype=complex)
    for i, z in enumerate(points):
        mine = np.flatnonzero(source == i)
        for start in range(0, len(z), POWER_BLOCK):
            block = slice(start, start + POWER_BLOCK)
            table = _power_table(z[block], rows.shape[-1])
            for row in mine:
                out[row, block] = rows[row] @ table
            del table   # before the next block's table is built
    return out.reshape(lead + points.shape[-1:])


def _eval_modes(modes, t):
    """Sum of modes[..., j] e^{i(j - n/2)t}. The modes k >= 0 are summed over
    the powers of e^{it}, and the modes k < 0 as the conjugate of the sum of
    their conjugates over the same powers, so both share one power table.
    The last axis of t holds the points; its leading axes broadcast against
    the leading (row) axes of modes."""
    half = (modes.shape[-1] - 1) // 2
    negative = np.concatenate([np.zeros(modes.shape[:-1] + (1,)), modes[..., half - 1::-1]],
                              axis=-1)
    rows = np.stack([modes[..., half:], negative.conj()], axis=-2)
    sums = _power_sums(rows, np.exp(1j * t)[..., None, :])
    return sums[..., 0, :] + sums[..., 1, :].conj()


def eval_interpolant(samples, t):
    """Evaluate the trigonometric interpolant of the samples at angles t.

    A stack of sample rows (..., n) is evaluated at t's last axis, whose
    leading axes broadcast against the rows."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = _eval_modes(interpolant_modes(samples), t)
    return out.real if np.isrealobj(samples) else out


def winding_number(samples):
    """Turns of the closed sampled curve (or nonvanishing function) around 0."""
    ang = np.unwrap(np.angle(np.append(samples, samples[0])))
    return int(np.round((ang[-1] - ang[0]) / (2 * np.pi)))


def upsample(samples, factor):
    """Zero-padded resampling onto a factor-times finer grid."""
    samples = np.asarray(samples)
    n = _check_even(samples)
    if factor <= 1:
        return samples.copy()
    c = interpolant_modes(samples)
    m = n * int(factor)
    out = np.fft.ifft(np.concatenate([c[n // 2:], np.zeros(m - n - 1), c[:n // 2]])) * m
    return out.real if np.isrealobj(samples) else out


def sup_norm(samples, factor=8):
    """Sup norm of the trigonometric interpolant.

    The maximum of |f| on a factor-times upsampled grid is refined by Newton
    steps on the interpolant's critical-point equation: u' = 0 for real
    samples, Re(conj(f) f') = 0 for complex ones. The upsampled value is
    kept if Newton leaves the neighbouring upsampled nodes or does not raise
    the value.
    """
    samples = np.asarray(samples)
    n = _check_even(samples)
    fine = np.abs(upsample(samples, factor))
    i = int(np.argmax(fine))
    spacing = 2.0 * np.pi / len(fine)
    c = interpolant_modes(samples)
    k = np.arange(-(n // 2), n // 2 + 1)
    t = i * spacing
    for _ in range(4):
        terms = c * np.exp(1j * k * t)
        f, f1, f2 = terms.sum(), (1j * k * terms).sum(), -(k * k * terms).sum()
        if np.isrealobj(samples):
            g, dg = f1.real, f2.real
        else:
            g = np.real(np.conj(f) * f1)
            dg = abs(f1) ** 2 + np.real(np.conj(f) * f2)
        if dg == 0.0:
            break
        t -= g / dg
        if abs(t - i * spacing) >= spacing:
            return float(fine[i])
    return float(max(fine[i], abs(np.sum(c * np.exp(1j * k * t)))))


def negative_energy_fraction(samples):
    """Fraction of l2 energy carried by strictly negative frequencies."""
    samples = np.asarray(samples, dtype=complex)
    n = _check_even(samples)
    c = np.fft.fft(samples) / n
    total = float(np.sum(np.abs(c) ** 2))
    if total == 0.0:
        return 0.0
    neg = float(np.sum(np.abs(c[n // 2 + 1:]) ** 2))
    return np.sqrt(neg / total)


def top_band_energy_fraction(samples):
    """Fraction of l2 energy in the top quarter of the spectrum (|k| > 3N/8)."""
    samples = np.asarray(samples, dtype=complex)
    n = _check_even(samples)
    c = np.fft.fft(samples) / n
    total = float(np.sum(np.abs(c) ** 2))
    if total == 0.0:
        return 0.0
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    top = float(np.sum(np.abs(c[k > 3 * n / 8]) ** 2))
    return np.sqrt(top / total)


def taylor_from_boundary(samples, n_coeffs):
    """Taylor coefficients of the holomorphic extension from circle boundary values.

    Anti-holomorphic content is simply dropped (it aliases into high bins).
    """
    samples = np.asarray(samples, dtype=complex)
    n = _check_even(samples)
    c = np.fft.fft(samples) / n
    n_coeffs = min(n_coeffs, n // 2)
    return c[:n_coeffs].copy()


def eval_taylor(coeffs, zeta):
    """Taylor polynomials evaluated at (arrays of) points.

    The coefficients run along the last axis; its leading axes stack
    polynomials and broadcast against the axes of zeta. A scalar zeta with
    one polynomial gives a scalar."""
    zeta = np.asarray(zeta, dtype=complex)
    coeffs = np.asarray(coeffs)
    shape = np.broadcast_shapes(coeffs.shape[:-1], zeta.shape)
    points = zeta.reshape(zeta.shape or (1,))
    if coeffs.ndim > 1 and coeffs.shape[-2] == 1:
        coeffs = coeffs[..., 0, :]      # one polynomial along the point axis
    elif coeffs.ndim > 1:
        points = points[..., None]      # a polynomial per point
    return _power_sums(coeffs, points).reshape(shape)[()]


def cauchy_integral(boundary_values, z_samples, z_tangent, targets):
    """Trapezoid discretization of the Cauchy integral over a closed curve.

    boundary_values, z_samples, z_tangent are sampled at the same equispaced
    parameter grid; z_tangent = dz/dt. Spectrally accurate for targets well
    inside the curve.
    """
    g = np.asarray(boundary_values, dtype=complex)
    z = np.asarray(z_samples, dtype=complex)
    zt = np.asarray(z_tangent, dtype=complex)
    n = len(g)
    targets = np.atleast_1d(np.asarray(targets, dtype=complex))
    # (targets, nodes) kernel; fine at the sizes used here
    denom = z[None, :] - targets[:, None]
    vals = (g * zt)[None, :] / denom
    return vals.sum(axis=1) / (1j * n)


def invert_correspondence(theta_samples, theta_targets):
    """Solve theta(t) = target for t by Newton, for a monotone correspondence.

    theta_samples are values of theta at the equispaced t grid with
    theta(t) = t + psi(t), psi periodic; the targets run along the last axis
    of theta_targets. A stack of correspondences (..., n) is inverted in one
    pass: psi and psi' are evaluated on one power table per step, and each row
    stops on its own test and is frozen from then on, so it takes exactly
    the steps of its own single-row call.
    """
    theta_samples = np.asarray(theta_samples, dtype=float)
    n = theta_samples.shape[-1]
    psi = interpolant_modes(theta_samples - grid(n))   # periodic part
    modes = np.stack([psi, 1j * np.arange(-(n // 2), n // 2 + 1) * psi])
    targets = np.atleast_1d(np.asarray(theta_targets, dtype=float))
    t = targets * np.ones(psi.shape[:-1] + (1,))   # the targets, once per row
    for _ in range(60):
        psi_t, dpsi_t = _eval_modes(modes, t).real
        f = t + psi_t - targets
        residual = np.max(np.abs(f), axis=-1, keepdims=True)
        done = residual < 1e-13
        if done.all():
            return t
        t = np.where(done, t, t - f / (1.0 + dpsi_t))
    raise NoConvergence(
        "correspondence inversion not converged after 60 Newton steps: "
        f"worst residual {np.max(residual):.3e}; the grid under-resolves the "
        "correspondence, raise ntheta")

"""Default numerical settings shared across the pipeline."""

from dataclasses import dataclass


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one end-to-end slice computation.

    ntheta must be a power of two (spectral transforms); n_taylor is the
    number of disc Taylor coefficients kept from the boundary transform.
    solve_tol is the boundary solver's step tolerance relative to r**2,
    floored at the double-precision noise level 4e-16.
    """

    ntheta: int = 256
    n_taylor: int = 0  # 0 means ntheta // 4
    trace_tol: float = 1e-13       # relative to r**2
    map_tol: float = 1e-11         # sup norm of correspondence residual
    map_max_iter: int = 200
    solve_tol: float = 1e-12       # relative to r**2
    solve_max_iter: int = 100
    newton_max_iter: int = 50
    newton_tol: float = 1e-12
    r_max: float = 0.2
    ellipticity_margin: float = 1e-3
    z_escape: float = 0.5          # admissible |z| for series evaluation
    f_cap: float = 0.5             # admissible sup |F| in the solver
    fd_r_factor: float = 20.0      # r-step = r / fd_r_factor
    fd_x_step: float = 1e-3
    upsample: int = 8              # factor for sup-norm evaluation grids

    def taylor_count(self) -> int:
        return self.n_taylor if self.n_taylor > 0 else self.ntheta // 4


DEFAULT_CONFIG = PipelineConfig()

"""Default numerical settings shared across the pipeline."""

from dataclasses import dataclass


@dataclass(frozen=True)
class PipelineConfig:
    """The two inputs of one slice computation besides the manifold.

    ntheta is the boundary grid size, a power of two; discs keep ntheta // 4
    Taylor coefficients. solve_tol is the solver's step tolerance relative to
    r**2, floored at the noise level 4e-16. Every other numerical choice is a
    constant of the module that reads it.
    """

    ntheta: int = 256
    solve_tol: float = 1e-12

    def taylor_count(self) -> int:
        return self.ntheta // 4


DEFAULT_CONFIG = PipelineConfig()

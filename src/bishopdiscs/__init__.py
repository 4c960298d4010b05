"""Numerical construction of analytic discs attached to a codimension-two
real submanifold near an elliptic complex-tangency point.

Pipeline: bidegree coefficient series with polynomial parameter dependence
and the dense slice-matrix algebra (series), normal form reduction in one
pass per parameter sample (normal_form), level curve tracing and
normalized conformal maps (curve, conformal), boundary Hilbert transforms
(hilbert), the fixed-point slice solver (solver), and disc assembly plus
family verification sweeps (discs). The cli module exposes batch commands
over a declarative manifold file format (specio).
"""

__version__ = "0.1.0"

from .config import DEFAULT_CONFIG, PipelineConfig
from .curve import BoundaryCurve, SliceData, SliceParams, quadric_slice, trace_level_curve
from .conformal import ConformalMap, riemann_map
from .discs import AttachedDisc, FamilyReport, build_disc, cauchy_extend, sweep
from .hilbert import hilbert_on_curve, norm_probe
from .normal_form import (
    CoordinateChange, ManifoldSpec, RawDefiningSeries, detect_cr_singularity,
    normalize_full, recenter_cr_singularity,
)
from .series import BidegreeSeries, ComplexParam, ParamPoly
from .solver import DiscSolution, SliceOperators, build_slice_operators, omega, solve_slice, solve_u

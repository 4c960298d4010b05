"""The four benchmark workloads: inputs from a seed, one pass, correctness gates.

Each workload has
    setup(seed)              -> inputs (spec loaded or built, slices generated)
    run(inputs)              -> outputs of one pass
    tally(outputs)           -> (attempted, converged) slices of the pass
    check(inputs, outputs, ref, first)
                             -> list of failed-check messages; `ref` holds the
                                committed reference values (reference.json),
                                `first` the warm-up pass outputs (None while
                                checking the warm-up pass itself)

A pass calls the public API only (and cli.main for `family`). The seed
jitters r and X within the ranges stated below and never changes how many
slices a pass attempts or which lam values it visits.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

R_JITTER = 0.02          # relative, uniform in [-R_JITTER, R_JITTER]
X_JITTER = 0.01          # absolute per coordinate, uniform in [-X_JITTER, X_JITTER]


def _jitter_r(rng, radii):
    return [float(r * (1.0 + rng.uniform(-R_JITTER, R_JITTER))) for r in radii]


def _jitter_x(rng, point):
    return tuple(float(v + rng.uniform(-X_JITTER, X_JITTER)) for v in point)


def _typed_error(exc):
    return f"{type(exc).__name__}: {exc}"


def _solve_and_assemble(spec, slice_params, config, extend_at=None):
    """One slice through the public API; typed failures become records.

    With extend_at (points zeta of the unit disc), the record also holds the
    extension gap of `_extension_gap` at those points.
    """
    from bishopdiscs.discs import build_disc
    from bishopdiscs.errors import PipelineError
    from bishopdiscs.solver import solve_slice

    try:
        sol = solve_slice(spec, slice_params, config)
        disc = build_disc(spec, slice_params, sol, config)
        gap = None if extend_at is None else _extension_gap(sol, extend_at, config)
    except PipelineError as exc:
        return {"converged": False, "error": _typed_error(exc)}
    return {"converged": True, "norm_u": sol.norm_u, "residual": sol.residual,
            "iterations": sol.iterations, "attachment": disc.boundary_residual,
            "extension_gap": gap}


def _extension_gap(solution, zeta, config):
    """Largest gap, relative to r, between the z-plane extension of the disc
    data (cauchy_extend: map inversion and Taylor sum near the boundary, the
    Cauchy integral further in) and its disc-parameter extension (the one
    build_disc uses), at the targets r * sigma(zeta)."""
    from bishopdiscs.discs import cauchy_extend, extend_in_disc

    cmap = solution.cmap
    boundary_zc = cmap.boundary_z * (1.0 + solution.f_samples)
    z_plane = cauchy_extend(cmap, boundary_zc, cmap.r * cmap.sigma(zeta), config)
    disc_plane = extend_in_disc(boundary_zc, zeta, config.taylor_count())
    return float(np.max(np.abs(z_plane - disc_plane))) / cmap.r


def _solve_tol(r):
    """The solver's default tolerance at radius r (solver.solve_u)."""
    return max(1e-12 * r ** 2, 4e-16)


# --------------------------------------------------------------------------
# family: the sweep CLI on a perturbed family, with every family check
# --------------------------------------------------------------------------

@dataclass
class FamilyInputs:
    argv: list
    out_dir: Path
    x_points: list
    r_list: list


class Family:
    """`sweep` on builtin:perturbed: 2 X points x 3 radii at ntheta 256."""

    must_converge = True
    X_POINTS = ((-0.05, -0.05), (0.05, 0.05))
    R_LIST = (0.03, 0.05, 0.1)
    NTHETA = 256

    def __init__(self, work_dir):
        self.out_dir = Path(work_dir) / "family"

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        x_points = [_jitter_x(rng, x) for x in self.X_POINTS]
        r_list = _jitter_r(rng, self.R_LIST)
        argv = ["sweep", "--spec", "builtin:perturbed", "--out", str(self.out_dir),
                "--ntheta", str(self.NTHETA),
                "--r-list", ",".join(repr(r) for r in r_list),
                "--x-grid=" + ";".join(",".join(repr(v) for v in x) for x in x_points),
                "--seed", str(seed)]
        return FamilyInputs(argv, self.out_dir, x_points, r_list)

    def run(self, inputs):
        from bishopdiscs import cli

        code = cli.main(inputs.argv)
        report = (inputs.out_dir / "sweep_report.json").read_bytes()
        table = (inputs.out_dir / "sweep.csv").read_bytes()
        return {"exit_code": code, "report_bytes": report, "csv_bytes": table}

    def tally(self, outputs):
        slices = json.loads(outputs["report_bytes"])["report"]["slices"]
        return len(slices), sum(1 for s in slices if s["converged"])

    def check(self, inputs, outputs, ref, first):
        if outputs["exit_code"] != 0:
            return [f"sweep exited with {outputs['exit_code']}"]
        fails = []
        if first is not None and (first["report_bytes"] != outputs["report_bytes"]
                                  or first["csv_bytes"] != outputs["csv_bytes"]):
            fails.append("sweep_report.json or sweep.csv differs from the warm-up "
                         "pass with the same seed")
        rep = json.loads(outputs["report_bytes"])["report"]
        expected = len(inputs.x_points) * len(inputs.r_list)
        if len(rep["slices"]) != expected:
            fails.append(f"{len(rep['slices'])} slices reported, expected {expected}")
        if rep["failures"]:
            fails.append(f"slice failures: {rep['failures']}")
        worst = max((s.get("boundary_residual", math.inf) for s in rep["slices"]),
                    default=math.inf)
        if not worst < ref["attachment_max"]:
            fails.append(f"attachment {worst:.3e} >= {ref['attachment_max']}")
        if not rep["nested_curves"]:
            fails.append("slice curves are not nested")
        dist = rep["disjointness"].get("min_distance")
        if not (dist is not None and dist > 0.0):
            fails.append(f"min pairwise distance {dist} is not positive")
        trend = {e["r"]: e["max_defect"] for e in rep["jacobian_trend"]}
        r_lo, r_hi = min(inputs.r_list), max(inputs.r_list)
        if not (r_lo in trend and r_hi in trend and trend[r_lo] < ref["jacobian_small_r_max"]
                and trend[r_lo] <= trend[r_hi]):
            fails.append(f"jacobian trend {trend} fails (< {ref['jacobian_small_r_max']} "
                         "at the smallest r, not above the largest r)")
        fits = rep["rate_fits"]
        if len(fits) != len(inputs.x_points):
            fails.append(f"{len(fits)} rate fits, expected {len(inputs.x_points)}")
        for fit in fits:
            for key, target in (("slope_norm_u", ref["slope_norm_u"]),
                                ("slope_dr_u", ref["slope_dr_u"])):
                value = fit.get(key, math.nan)
                if not abs(value - target) <= ref["slope_tol"]:
                    fails.append(f"{key} {value} at x={fit['x']} not within "
                                 f"{ref['slope_tol']} of {target}")
        gaps = [g["gap"] for g in rep["hilbert_gaps"]]
        if len(gaps) != len(inputs.x_points) or not all(math.isfinite(g) for g in gaps):
            fails.append(f"transform probe gaps {gaps}")
        return fails


# --------------------------------------------------------------------------
# refine: grid-refinement ladder of single slices
# --------------------------------------------------------------------------

@dataclass
class RefineInputs:
    spec: object
    slices: list           # (SliceParams, PipelineConfig), ladder order per radius


class Refine:
    """builtin:order7 at r in {0.03, 0.1}, ntheta 256 -> 2048: solve, assemble
    and extend the disc data to 8 interior points."""

    must_converge = True
    R_LIST = (0.03, 0.1)
    NTHETAS = (256, 512, 1024, 2048)
    # 4 points near the rim (cauchy_extend inverts the map there) and 4 well
    # inside (Cauchy integral)
    EXTEND_AT = np.concatenate([r * np.exp(0.25j * np.pi * np.arange(1, 8, 2))
                                for r in (0.998, 0.5)])

    def setup(self, seed):
        from bishopdiscs import specio
        from bishopdiscs.config import PipelineConfig
        from bishopdiscs.curve import SliceParams

        rng = np.random.default_rng(seed)
        spec = specio.load(specio.resolve_spec_path("builtin:order7"))
        x = _jitter_x(rng, (0.0, 0.0))
        slices = [(SliceParams(x, r), PipelineConfig(ntheta=n))
                  for r in _jitter_r(rng, self.R_LIST) for n in self.NTHETAS]
        return RefineInputs(spec, slices)

    def run(self, inputs):
        return [_solve_and_assemble(inputs.spec, sp, cfg, self.EXTEND_AT)
                for sp, cfg in inputs.slices]

    def tally(self, outputs):
        return len(outputs), sum(1 for rec in outputs if rec["converged"])

    def check(self, inputs, outputs, ref, first):
        fails = []
        for (sp, cfg), rec in zip(inputs.slices, outputs):
            label = f"r={sp.r:.5f} ntheta={cfg.ntheta}"
            if not rec["converged"]:
                fails.append(f"{label}: {rec['error']}")
                continue
            if not rec["residual"] <= 10 * _solve_tol(sp.r):
                fails.append(f"{label}: fixed-point residual {rec['residual']:.3e}")
            if not rec["attachment"] < ref["attachment_max"]:
                fails.append(f"{label}: attachment {rec['attachment']:.3e}")
            if not rec["extension_gap"] < ref["extension_gap_max"]:
                fails.append(f"{label}: z-plane and disc extensions differ by "
                             f"{rec['extension_gap']:.3e} r")
            scaled = rec["norm_u"] / sp.r ** 5
            if not abs(scaled / ref["norm_u_over_r5"] - 1.0) < ref["norm_u_over_r5_rtol"]:
                fails.append(f"{label}: |U|/r^5 = {scaled:.6f}, reference "
                             f"{ref['norm_u_over_r5']}")
        for i in range(1, len(outputs)):
            (sp0, _), (sp1, cfg1) = inputs.slices[i - 1], inputs.slices[i]
            a, b = outputs[i - 1], outputs[i]
            if sp0.r != sp1.r or not (a["converged"] and b["converged"]):
                continue
            change = abs(b["norm_u"] - a["norm_u"]) / a["norm_u"]
            if not change < ref["refinement_rtol"]:
                fails.append(f"r={sp1.r:.5f}: doubling to ntheta={cfg1.ntheta} changes "
                             f"|U| by {change:.3e} relative")
        return fails


# --------------------------------------------------------------------------
# eccentric: the eccentricity frontier at ntheta 512
# --------------------------------------------------------------------------

@dataclass
class EccentricInputs:
    slices: list           # (lam, index of the nominal radius, spec, SliceParams)
    config: object


class Eccentric:
    """P = 0.1 Re z^3, K = 0.05 Re z^7, lam in {0.2, 0.3, 0.35, 0.4}, r in {0.05, 0.1}."""

    must_converge = False      # typed failures are an allowed outcome here
    LAMS = (0.2, 0.3, 0.35, 0.4)
    R_LIST = (0.05, 0.1)
    NTHETA = 512

    def setup(self, seed):
        from bishopdiscs.config import PipelineConfig
        from bishopdiscs.curve import SliceParams
        from bishopdiscs.normal_form import ManifoldSpec
        from bishopdiscs.series import BidegreeSeries, ParamPoly

        rng = np.random.default_rng(seed)
        r_list = _jitter_r(rng, self.R_LIST)
        slices = []
        for lam in self.LAMS:
            spec = ManifoldSpec(
                n=2, l=7, lam=ParamPoly.const(lam, 2, 2),
                p=BidegreeSeries.from_complex_dict({(3, 0): 0.05, (0, 3): 0.05}, 2, 10),
                k=BidegreeSeries.from_complex_dict({(7, 0): 0.025, (0, 7): 0.025}, 2, 10),
                validity_radius=0.2).validate()
            slices.extend((lam, i, spec, SliceParams((0.0, 0.0), r))
                          for i, r in enumerate(r_list))
        return EccentricInputs(slices, PipelineConfig(ntheta=self.NTHETA))

    def run(self, inputs):
        return [_solve_and_assemble(spec, sp, inputs.config)
                for _, _, spec, sp in inputs.slices]

    def tally(self, outputs):
        return len(outputs), sum(1 for rec in outputs if rec["converged"])

    def check(self, inputs, outputs, ref, first):
        # a slice either meets the solver's gates or fails with a typed
        # PipelineError (recorded, counted in converged_frac); anything
        # untyped propagates and fails the run
        fails = []
        for (lam, i, _, sp), rec in zip(inputs.slices, outputs):
            label = f"lam={lam} r={sp.r:.5f}"
            if not rec["converged"]:
                continue
            if not rec["residual"] <= 10 * _solve_tol(sp.r):
                fails.append(f"{label}: fixed-point residual {rec['residual']:.3e}")
            if not rec["attachment"] < ref["attachment_max"]:
                fails.append(f"{label}: attachment {rec['attachment']:.3e}")
            # no reference where the slice failed at the seed commit (lam = 0.4)
            nominal = ref["norm_u_over_r5"][f"{lam}"][i]
            scaled = rec["norm_u"] / sp.r ** 5
            if nominal is not None and not (abs(scaled / nominal - 1.0)
                                            < ref["norm_u_over_r5_rtol"]):
                fails.append(f"{label}: |U|/r^5 = {scaled:.6f}, reference {nominal}")
        return fails


# --------------------------------------------------------------------------
# normalize: exact normal-form reduction on a 9 x 9 sample grid
# --------------------------------------------------------------------------

@dataclass
class NormalizeInputs:
    raw: object
    points: list


class Normalize:
    """normalize_full on builtin:raw_example at l = 7 and l = 9, 81 sample points."""

    must_converge = True
    ORDERS = (7, 9)
    POINTS_PER_AXIS = 9
    ROUND_TRIP_STRIDE = 9

    def setup(self, seed):
        from bishopdiscs import specio
        from bishopdiscs.normal_form import sample_grid

        rng = np.random.default_rng(seed)
        raw = specio.load(specio.resolve_spec_path("builtin:raw_example"))
        shift = np.array(_jitter_x(rng, (0.0,) * raw.nvars))
        # shrink so the shifted grid stays inside the validity ball
        scale = 1.0 - 2.0 * X_JITTER / raw.validity_radius
        points = [tuple(float(v) for v in scale * np.asarray(p) + shift)
                  for p in sample_grid(raw.nvars, raw.validity_radius, self.POINTS_PER_AXIS)]
        return NormalizeInputs(raw, points)

    def run(self, inputs):
        from bishopdiscs.errors import PipelineError
        from bishopdiscs.normal_form import normalize_full

        out = []
        for l in self.ORDERS:
            try:
                spec, change = normalize_full(inputs.raw, l, sample_points=inputs.points)
            except PipelineError as exc:
                out.append({"l": l, "converged": False, "error": _typed_error(exc)})
                continue
            out.append({"l": l, "converged": True, "spec": spec, "change": change})
        return out

    def tally(self, outputs):
        n = self.POINTS_PER_AXIS ** 2
        return n * len(outputs), n * sum(1 for rec in outputs if rec["converged"])

    def check(self, inputs, outputs, ref, first):
        # the exact replay of every sample is checked on the warm-up pass;
        # timed passes replay every ROUND_TRIP_STRIDE-th sample
        stride = 1 if first is None else self.ROUND_TRIP_STRIDE
        fails = []
        for rec in outputs:
            l = rec["l"]
            if not rec["converged"]:
                fails.append(f"l={l}: {rec['error']}")
                continue
            spec, change = rec["spec"], rec["change"]
            if spec.l != l or len(spec.samples) != len(inputs.points):
                fails.append(f"l={l}: order {spec.l}, {len(spec.samples)} samples")
            worst = dict.fromkeys(("linear", "quad_imag", "low_k", "round_trip"), 0.0)
            for n, x in enumerate(sorted(spec.samples)):
                _, qp, kmat = spec.samples[x]
                worst["linear"] = max(worst["linear"], abs(qp[0, 1]))
                worst["quad_imag"] = max(worst["quad_imag"], abs(qp[0, 2].imag))
                if qp[0, 2].real < 0.0:
                    fails.append(f"l={l} x={x}: negative lam {qp[0, 2].real}")
                low = [abs(kmat[j, k]) for j in range(kmat.shape[0])
                       for k in range(kmat.shape[1]) if 0 < j + k < l]
                worst["low_k"] = max([worst["low_k"]] + low)
                if n % stride:
                    continue
                replay = change.apply_slice(inputs.raw, x)
                worst["round_trip"] = max(worst["round_trip"],
                                          float(np.max(np.abs(replay - (qp + 1j * kmat)))))
            for key, value in worst.items():
                if not value < ref[f"{key}_max"]:
                    fails.append(f"l={l}: {key} {value:.3e} >= {ref[f'{key}_max']}")
            lam0 = float(spec.lam.evaluate(np.zeros(spec.nvars)))
            if not abs(lam0 - ref["lam_at_0"]) < ref["lam_at_0_tol"]:
                fails.append(f"l={l}: fitted lam(0) = {lam0:.9f}, reference {ref['lam_at_0']}")
        return fails


def make(work_dir):
    return {"family": Family(work_dir), "refine": Refine(),
            "eccentric": Eccentric(), "normalize": Normalize()}

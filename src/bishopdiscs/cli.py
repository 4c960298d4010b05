"""Command-line front end: normalize / curve / disc / sweep / verify.

All commands read a manifold description (path or builtin:<name>), run the
requested stage of the pipeline, and write deterministic reports: repeated
runs with the same inputs and seed produce byte-identical files.
"""

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, fourier, specio
from .config import PipelineConfig
from .conformal import riemann_map
from .curve import SliceParams, trace_level_curve
from .discs import build_disc, sweep
from .errors import PipelineError
from .figures import curve_family_svg, mapped_grid_svg, write_svg
from .hilbert import eval_trig_poly, origin_imaginary_residual, random_trig_poly
from .normal_form import RawDefiningSeries, normalize_full
from .solver import solve_slice, step_tolerance


@dataclass
class RunConfig:
    """Resolved invocation parameters, echoed into every report."""

    command: str
    spec_path: str
    out_dir: str
    ntheta: int
    tol: float
    r_list: list
    x_grid: str
    figures: bool
    seed: int

    def validate(self):
        if self.ntheta < 64 or self.ntheta & (self.ntheta - 1):
            raise ValueError(f"ntheta must be a power of two >= 64, got {self.ntheta}")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tol}")
        if any(b <= a for a, b in zip(self.r_list, self.r_list[1:])) or not self.r_list:
            raise ValueError("r-list must be nonempty and strictly increasing")
        if not all(0.0 < r < np.inf for r in self.r_list):
            raise ValueError("radii must be positive and finite")
        if self.figures and self.command != "curve":
            raise ValueError(f"--figures is not an option of {self.command}; "
                             "the figures are drawn by 'curve --figures'")
        return self

    def pipeline_config(self):
        return PipelineConfig(ntheta=self.ntheta, solve_tol=self.tol)

    def to_dict(self):
        return {
            "command": self.command,
            "spec": self.spec_path,
            "out": self.out_dir,
            "ntheta": self.ntheta,
            "tol": self.tol,
            "rList": self.r_list,
            "xGrid": self.x_grid,
            "figures": self.figures,
            "seed": self.seed,
        }


X_GRID_FORMS = "'0', 'a:b:n' (per-axis tensor grid) or 'x,y;x,y;...' tuples"


def _coordinate(text):
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"grid coordinate {text.strip()!r} is not finite")
    return value


def parse_x_grid(descriptor, nvars):
    """Parameter points of an --x-grid descriptor in one of X_GRID_FORMS."""
    if nvars == 0:
        return [()]
    descriptor = descriptor.strip()
    try:
        if descriptor == "0":
            return [tuple(0.0 for _ in range(nvars))]
        if ":" in descriptor:
            fields = descriptor.split(":")
            if len(fields) != 3:
                raise ValueError(f"a tensor grid has 3 fields, got {len(fields)}")
            lo, hi, count = _coordinate(fields[0]), _coordinate(fields[1]), int(fields[2])
            if count < 1:
                raise ValueError(f"grid count must be at least 1, got {count}")
            axis = np.linspace(lo, hi, count)
            grids = np.meshgrid(*([axis] * nvars), indexing="ij")
            return [tuple(row) for row in np.stack([g.ravel() for g in grids], axis=1)]
        points = []
        for chunk in descriptor.split(";"):
            vals = tuple(_coordinate(v) for v in chunk.split(","))
            if len(vals) != nvars:
                raise ValueError(
                    f"grid point {chunk!r} has {len(vals)} of {nvars} coordinates")
            points.append(vals)
        return points
    except ValueError as exc:
        raise ValueError(
            f"{exc}; --x-grid {descriptor!r} must be {X_GRID_FORMS}") from None


def write_report(out_dir, name, payload, run_config):
    payload = dict(payload)
    payload["config"] = run_config.to_dict()
    payload["version"] = __version__
    path = Path(out_dir) / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_normalize(spec, run_config):
    out, change = normalize_full(spec, spec.l)
    specio.save(out, Path(run_config.out_dir) / "normalized_spec.json")
    records = {}
    for x in sorted(change.records):
        rec = change.records[x]
        replay = change.apply_slice(spec, x)
        lam_val, qp, kmat = out.samples[x]
        records[json.dumps(list(x))] = {
            "z0": [rec.z0.real, rec.z0.imag],
            "gamma": [rec.gamma.real, rec.gamma.imag],
            "theta": rec.theta,
            "lambda": rec.lam,
            "roundTripResidual": float(np.max(np.abs(replay - (qp + 1j * kmat)))),
        }
    kmats = np.stack([kmat for _, _, kmat in out.samples.values()])
    degree = np.indices(kmats.shape[1:]).sum(axis=0)     # j + k of each z^j zbar^k entry
    low = kmats[:, (0 < degree) & (degree < out.l)]
    # hypot, not np.abs: the scalar modulus, bit for bit (np.abs of a complex array is not)
    low_k = float(np.max(np.hypot(low.real, low.imag), initial=0.0))
    def complex_fit(fit):
        return {"re": fit.re.to_list(), "im": fit.im.to_list()} if fit else None

    payload = {
        "records": records,
        "lambdaFit": out.lam.to_list(),
        "changeFits": {
            "z0": complex_fit(change.z0_fit),
            "gamma": complex_fit(change.gamma_fit),
            "c10": complex_fit(change.c10_fit),
            "theta": change.theta_fit.to_list() if change.theta_fit else None,
            "quadAbsorb": complex_fit(change.quad_absorb_fit),
            "tailStages": {str(m): {f"{jk}": complex_fit(c)
                                    for jk, c in fits.items()}
                           for m, fits in change.bm_fits.items()},
        },
        "maxLowOrderImagCoeff": low_k,
        "order": out.l,
    }
    write_report(run_config.out_dir, "normalize_report.json", payload, run_config)
    return 0


def _slices(spec, run_config):
    grid = parse_x_grid(run_config.x_grid, spec.nvars)
    return [SliceParams(x, r) for x in grid for r in run_config.r_list]


def cmd_curve(spec, run_config):
    cfg = run_config.pipeline_config()
    rows = []
    maps = []
    for sp in _slices(spec, run_config):
        curve = trace_level_curve(spec.slice_at(sp.x), sp, cfg)
        cmap = riemann_map(curve)
        rows.append({
            "x": list(sp.x), "r": sp.r,
            "traceResidual": float(np.max(curve.residual())),
            "derivAtZero": cmap.deriv_at_zero,
            "epsCondition": cmap.eps_condition,
            "univalenceMargin": cmap.univalence_margin,
            "iterations": cmap.iterations,
        })
        maps.append(cmap)
    if run_config.figures:
        by_x = {}
        for cmap in maps:
            by_x.setdefault(cmap.curve.slice.x, []).append(cmap.curve.points)
        for i, (x, curves) in enumerate(sorted(by_x.items())):
            write_svg(Path(run_config.out_dir) / f"curves_{i}.svg",
                      curve_family_svg(curves))
        write_svg(Path(run_config.out_dir) / "mapped_grid.svg",
                  mapped_grid_svg(maps[-1]))
    write_report(run_config.out_dir, "curve_report.json", {"slices": rows}, run_config)
    return 0


def cmd_disc(spec, run_config):
    cfg = run_config.pipeline_config()
    rows = []
    for sp in _slices(spec, run_config):
        sol = solve_slice(spec, sp, cfg)
        disc = build_disc(spec, sp, sol, cfg)
        rows.append({
            "x": list(sp.x), "r": sp.r,
            "iterations": sol.iterations,
            "normU": sol.norm_u,
            "residual": sol.residual,
            "boundaryResidual": disc.boundary_residual,
            "centerOffset": disc.center_offset,
            "centerHeightResidual": sol.center_height_residual,
        })
    write_report(run_config.out_dir, "disc_report.json", {"slices": rows}, run_config)
    return 0


def _csv_rows(spec, report):
    nvars = spec.nvars
    names = []
    for i in range(nvars // 2):
        names.extend([f"x{i + 2}", f"y{i + 2}"])
    header = names + ["r", "iterations", "normU", "residual", "slopeU",
                      "slopeDrU", "minDisjointDistance", "jacobianDefect"]
    fits = {tuple(e["x"]): e for e in report.rate_fits}
    rows = [header]
    for rec in report.slices:
        x = tuple(rec["x"])
        fit = fits.get(x, {})
        rows.append(list(x) + [
            rec["r"],
            rec.get("iterations", ""),
            rec.get("norm_u", ""),
            rec.get("residual", ""),
            fit.get("slope_norm_u", ""),
            fit.get("slope_dr_u", ""),
            report.disc_distances.get((x, rec["r"]), ""),
            rec.get("jacobian_defect", ""),
        ])
    return rows


def cmd_sweep(spec, run_config):
    cfg = run_config.pipeline_config()
    grid = parse_x_grid(run_config.x_grid, spec.nvars)
    report = sweep(spec, grid, run_config.r_list, cfg, seed=run_config.seed)
    write_report(run_config.out_dir, "sweep_report.json",
                 {"report": report.to_dict(), "seed": run_config.seed}, run_config)
    with open(Path(run_config.out_dir) / "sweep.csv", "w", encoding="utf-8",
              newline="") as fh:
        csv.writer(fh).writerows(_csv_rows(spec, report))
    return 0


def cmd_verify(spec, run_config):
    cfg = run_config.pipeline_config()
    rng = np.random.default_rng(run_config.seed)
    checks = []

    def check(name, value, threshold):
        checks.append({"name": name, "value": float(value),
                       "threshold": threshold, "passed": bool(value < threshold)})

    t = fourier.grid(cfg.ntheta)
    # H[cos nt] = sin nt and H[sin nt] = -cos nt for n = 1..32, in one stacked call
    modes_t = np.arange(1, 33)[:, None] * t
    cos, sin = np.cos(modes_t), np.sin(modes_t)
    worst = np.max(np.abs(fourier.conjugate_samples(np.stack([cos, sin])) - np.stack([sin, -cos])))
    check("conjugation_identities", worst, 1e-11)

    trivial = not spec.p.coeffs and not spec.k.coeffs
    slices = []
    for sp in _slices(spec, run_config):
        sol = solve_slice(spec, sp, cfg)
        disc = build_disc(spec, sp, sol, cfg)
        label = f"x={list(sp.x)},r={sp.r}"
        check(f"fixed_point[{label}]", sol.residual, 10 * step_tolerance(sp.r, cfg))
        check(f"attachment[{label}]", disc.boundary_residual, 1e-8)
        check(f"center_offset[{label}]", disc.center_offset, 1e-10)
        check(f"center_height[{label}]", sol.center_height_residual, 1e-8)
        check(f"d_holomorphy[{label}]", sol.ops.d_energy, 1e-8)
        fmean = sol.f_samples - np.mean(sol.f_samples)
        check(f"f_holomorphy[{label}]",
              fourier.negative_energy_fraction(fmean) if np.max(np.abs(fmean)) > 0 else 0.0,
              1e-8)
        phi = eval_trig_poly(random_trig_poly(rng), t)
        check(f"origin_normalization[{label}]",
              origin_imaginary_residual(sol.cmap, phi) / np.max(np.abs(phi)), 1e-9)
        if trivial:
            check(f"trivial_norm_u[{label}]", sol.norm_u, 1e-10)
            check(f"trivial_d[{label}]",
                  float(np.max(np.abs(sol.ops.d_samples - 1.0))), 1e-10)
        slices.append({"x": list(sp.x), "r": sp.r, "normU": sol.norm_u,
                       "iterations": sol.iterations})

    passed = all(c["passed"] for c in checks)
    write_report(run_config.out_dir, "verify_report.json",
                 {"checks": checks, "slices": slices, "allPassed": passed,
                  "seed": run_config.seed}, run_config)
    return 0 if passed else 1


COMMANDS = {
    "normalize": cmd_normalize,
    "curve": cmd_curve,
    "disc": cmd_disc,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bishopdiscs",
        description="attached-disc construction and verification pipelines")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--spec", required=True,
                        help="manifold description path or builtin:<name>")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--ntheta", type=int, default=256)
    parser.add_argument("--tol", type=float, default=1e-12,
                        help="solver tolerance, scaled by r^2 per slice "
                             "(disc, sweep, verify)")
    parser.add_argument("--r-list", default="0.02,0.03,0.045,0.068,0.1")
    parser.add_argument("--x-grid", default="0", help=X_GRID_FORMS)
    parser.add_argument("--figures", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        run_config = RunConfig(
            command=args.command,
            spec_path=args.spec,
            out_dir=args.out,
            ntheta=args.ntheta,
            tol=args.tol,
            r_list=[float(v) for v in args.r_list.split(",") if v],
            x_grid=args.x_grid,
            figures=args.figures,
            seed=args.seed,
        ).validate()
        Path(run_config.out_dir).mkdir(parents=True, exist_ok=True)
        spec = specio.load(specio.resolve_spec_path(run_config.spec_path))
        raw = isinstance(spec, RawDefiningSeries)
        if args.command == "normalize" and not raw:
            raise PipelineError("normalize expects a raw defining series ('raw' field)")
        if args.command != "normalize" and raw:
            raise PipelineError(f"{args.command} needs a normal-form manifold "
                                "('lambda'/'P'/'K' fields); run normalize first")
        return COMMANDS[args.command](spec, run_config)
    except (PipelineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

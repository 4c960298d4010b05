#!/usr/bin/env python3
"""Decay-rate experiment: solved boundary norms of the order-7 family.

Sweeps the bundled order-7 manifold over the standard radius list, prints
the fitted log-log exponents (targets: 5 for the norms, 4 for the radial
derivative) and writes decay_rates.csv next to the chosen output directory.
"""

import argparse
import csv
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from bishopdiscs import fourier, specio
from bishopdiscs.config import PipelineConfig
from bishopdiscs.curve import SliceParams
from bishopdiscs.discs import fit_loglog_slope
from bishopdiscs.solver import solve_slice, tangent_solver


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=".", help="directory for decay_rates.csv")
    ap.add_argument("--r-list", default="0.02,0.03,0.045,0.068,0.1")
    args = ap.parse_args()

    spec = specio.load(specio.resolve_spec_path("builtin:order7"))
    r_list = [float(v) for v in args.r_list.split(",")]
    x0 = tuple(0.0 for _ in range(spec.nvars))
    config = PipelineConfig(solve_tol=1e-22)   # solve to the noise floor

    rows = [["r", "normU", "normDrU", "iterations"]]
    norms, dr_norms = [], []
    for r in r_list:
        sol = solve_slice(spec, SliceParams(x0, r), config)
        norms.append(sol.norm_u)
        dr_norms.append(fourier.sup_norm(tangent_solver(sol)(dr=1.0).u))
        rows.append([r, sol.norm_u, dr_norms[-1], sol.iterations])
        print(f"r = {r:<6}  |U| = {sol.norm_u:.6e}  |dU/dr| = {dr_norms[-1]:.6e}  "
              f"({sol.iterations} iterations)")

    slope_u = fit_loglog_slope(r_list, norms)
    slope_dr = fit_loglog_slope(r_list, dr_norms)
    print(f"fitted exponents: |U| ~ r^{slope_u:.3f}   |dU/dr| ~ r^{slope_dr:.3f}")

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "decay_rates.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    print(f"wrote {out / 'decay_rates.csv'}")


if __name__ == "__main__":
    main()

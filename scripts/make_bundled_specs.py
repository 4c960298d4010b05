#!/usr/bin/env python3
"""Regenerate the bundled manifold description files under src/bishopdiscs/data."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from bishopdiscs import specio
from bishopdiscs.normal_form import ManifoldSpec, RawDefiningSeries
from bishopdiscs.series import BidegreeSeries, ComplexParam, ParamPoly

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "bishopdiscs" / "data"
NV, PD, MD = 2, 2, 10


def poly(terms):
    return ParamPoly(NV, PD, terms)


def coeff(re_terms, im_terms=None):
    return ComplexParam(poly(re_terms), poly(im_terms or {}))


def make_spec(lam, cubic, k7, radius):
    p_vals = {(3, 0): cubic / 2.0, (0, 3): cubic / 2.0} if cubic else {}
    k_vals = {(7, 0): k7 / 2.0, (0, 7): k7 / 2.0} if k7 else {}
    return ManifoldSpec(
        n=2, l=7,
        lam=ParamPoly.const(lam, NV, PD),
        p=BidegreeSeries.from_complex_dict(p_vals, NV, MD, PD),
        k=BidegreeSeries.from_complex_dict(k_vals, NV, MD, PD),
        validity_radius=radius)


def make_raw_example():
    """Offset singularity, nonreal quadratic coefficient, imaginary tail."""
    l2 = 0.2 * np.exp(0.6j)
    series = BidegreeSeries(NV, MD, PD, {
        (0, 0): coeff({(2, 0): 0.05}),
        (0, 1): coeff({(1, 0): 1.0}),
        (1, 0): coeff({(0, 1): 0.3}),
        (1, 1): coeff({(0, 0): 1.0, (1, 0): 0.3}),
        (2, 0): coeff({(0, 0): 0.23, (0, 1): 0.1}, {(0, 0): 0.05}),
        (0, 2): coeff({(0, 0): l2.real, (1, 0): 0.15 * l2.real},
                      {(0, 0): l2.imag, (1, 0): 0.15 * l2.imag}),
        (3, 0): coeff({(0, 0): 0.02}, {(0, 0): 0.01}),
        (0, 3): coeff({(0, 0): 0.02}, {(0, 0): 0.01}),
        (2, 1): coeff({}, {(0, 0): 0.005, (1, 0): 0.01}),
        (1, 2): coeff({}, {(0, 0): 0.005, (1, 0): 0.01}),
        (2, 2): coeff({(0, 0): 0.01}, {(0, 0): 0.008}),
        (4, 1): coeff({}, {(0, 0): 0.004}),
        (1, 4): coeff({}, {(0, 0): 0.004}),
        (3, 2): coeff({}, {(0, 0): 0.003}),
        (2, 3): coeff({}, {(0, 0): 0.003}),
        (3, 3): coeff({}, {(0, 0): 0.002}),
    })
    return RawDefiningSeries(series, 2, 7, 0.15)


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    specio.save(make_spec(0.2, 0.0, 0.0, 0.3), OUT / "quadric.json")
    specio.save(make_spec(0.2, 0.0, 0.05, 0.2), OUT / "order7.json")
    specio.save(make_spec(0.2, 0.1, 0.05, 0.2), OUT / "perturbed.json")
    specio.save(make_raw_example(), OUT / "raw_example.json")
    for name in specio.BUNDLED:
        specio.load(OUT / f"{name}.json")   # round-trip sanity
    print(f"wrote {len(specio.BUNDLED)} files to {OUT}")


if __name__ == "__main__":
    main()

"""Manifold description files: a declarative JSON schema for slice data.

Normalized form:
    {"N": 2, "l": 7, "validityRadius": 0.2,
     "lambda": [[[0, 0], 0.2]],
     "P": [[3, 0, [[[0, 0], 0.05]], []], [0, 3, ...]],
     "K": [[7, 0, ...], ...]}

Raw (pre-normal-form) input carries a single "raw" series instead of
lambda/P/K. Parameter polynomials are stored as [multi-index, coefficient]
pairs; bidegree series as [j, k, re-poly, im-poly] rows.
"""

import json
import math
from importlib import resources

from .errors import SchemaViolation, SpecParseError
from .normal_form import ManifoldSpec, RawDefiningSeries
from .series import BidegreeSeries, ParamPoly

BUNDLED = ("quadric", "order7", "perturbed", "raw_example")


def _typed(key, value, types):
    # JSON true/false load as bool, an int subclass; no field takes them
    if isinstance(value, bool) or not isinstance(value, types):
        raise SpecParseError(f"field '{key}' has type {type(value).__name__}")
    return value


def _require(obj, key, types):
    if key not in obj:
        raise SpecParseError(f"missing field '{key}'")
    return _typed(key, obj[key], types)


def _degree_field(obj, key, default, minimum):
    value = _typed(key, obj.get(key, default), int)
    if value < minimum:
        raise SchemaViolation(f"{key} must be >= {minimum}, got {value}")
    return value


def _parse_series(rows, nvars, max_degree, param_degree, label):
    try:
        series = BidegreeSeries.from_list(rows, nvars, max_degree, param_degree)
    except Exception as exc:
        raise SpecParseError(f"cannot parse series '{label}': {exc}") from exc
    return series


def loads(text, source="<string>"):
    """Parse a manifold description; returns ManifoldSpec or RawDefiningSeries."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"{source}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SpecParseError(f"{source}: top level must be an object")
    n = _require(obj, "N", int)
    if n < 1:
        raise SchemaViolation(f"ambient dimension N must be >= 1, got {n}")
    l = _require(obj, "l", int)
    radius = float(_require(obj, "validityRadius", (int, float)))
    if not 0.0 < radius < math.inf:
        raise SchemaViolation(f"validityRadius must be positive and finite, got {radius}")
    nvars = 2 * (n - 1)
    max_degree = _degree_field(obj, "maxDegree", 10, 2)
    param_degree = _degree_field(obj, "paramDegree", 2, 0)

    if "raw" in obj:
        series = _parse_series(obj["raw"], nvars, max_degree, param_degree, "raw")
        return RawDefiningSeries(series, n, l, radius)

    lam_rows = _require(obj, "lambda", list)
    try:
        lam = ParamPoly.from_list(lam_rows, nvars, param_degree)
    except Exception as exc:
        raise SpecParseError(f"cannot parse 'lambda': {exc}") from exc
    p = _parse_series(_require(obj, "P", list), nvars, max_degree, param_degree, "P")
    k = _parse_series(_require(obj, "K", list), nvars, max_degree, param_degree, "K")
    spec = ManifoldSpec(n=n, l=l, lam=lam, p=p, k=k, validity_radius=radius)
    return spec.validate()


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecParseError(f"cannot read {path}: {exc}") from exc
    return loads(text, source=str(path))


def dumps(spec):
    """Serialize a ManifoldSpec (or RawDefiningSeries) to the JSON schema."""
    if isinstance(spec, RawDefiningSeries):
        obj = {
            "N": spec.n,
            "l": spec.l,
            "validityRadius": spec.validity_radius,
            "maxDegree": spec.series.max_degree,
            "paramDegree": spec.series.param_degree,
            "raw": spec.series.to_list(),
        }
    else:
        obj = {
            "N": spec.n,
            "l": spec.l,
            "validityRadius": spec.validity_radius,
            "maxDegree": spec.max_degree,
            "paramDegree": spec.p.param_degree,
            "lambda": spec.lam.to_list(),
            "P": spec.p.to_list(),
            "K": spec.k.to_list(),
        }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def save(spec, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(spec))


def resolve_spec_path(name):
    """Map 'builtin:<name>' to the bundled file, else return the path."""
    if name.startswith("builtin:"):
        key = name.split(":", 1)[1]
        if key not in BUNDLED:
            raise SpecParseError(
                f"unknown bundled spec '{key}'; choices: {', '.join(BUNDLED)}")
        return str(resources.files("bishopdiscs").joinpath("data", f"{key}.json"))
    return name

"""Manifold file schema: round trips, validation messages, bundled data."""

import json

import pytest

from bishopdiscs import specio
from bishopdiscs.errors import (
    EllipticityViolation, SchemaViolation, SpecParseError, ValidityEscape,
)
from bishopdiscs.normal_form import ManifoldSpec, RawDefiningSeries
from conftest import make_spec


def test_round_trip(tmp_path):
    spec = make_spec(lam=0.2, cubic=0.1, k7=0.05)
    path = tmp_path / "spec.json"
    specio.save(spec, path)
    back = specio.load(path)
    assert isinstance(back, ManifoldSpec)
    assert back.l == spec.l
    assert back.lam == spec.lam
    assert back.p.coeffs == spec.p.coeffs
    assert back.k.coeffs == spec.k.coeffs


def test_bundled_specs_load():
    for name in specio.BUNDLED:
        spec = specio.load(specio.resolve_spec_path(f"builtin:{name}"))
        assert isinstance(spec, (ManifoldSpec, RawDefiningSeries))


def test_unknown_builtin():
    with pytest.raises(SpecParseError):
        specio.resolve_spec_path("builtin:nonexistent")


def test_malformed_json():
    with pytest.raises(SpecParseError):
        specio.loads("{not json", source="test")


def test_missing_field():
    with pytest.raises(SpecParseError, match="lambda"):
        specio.loads(json.dumps({"N": 2, "l": 7, "validityRadius": 0.2,
                                 "P": [], "K": []}))


def test_low_degree_k_term_named():
    # a degree-5 coefficient in K with l = 7 must be rejected by name
    obj = {
        "N": 2, "l": 7, "validityRadius": 0.2,
        "lambda": [[[0, 0], 0.2]],
        "P": [],
        "K": [[5, 0, [[[0, 0], 0.01]], []], [0, 5, [[[0, 0], 0.01]], []]],
    }
    with pytest.raises(SchemaViolation, match=r"K coefficient \(0,5\)|K coefficient \(5,0\)"):
        specio.loads(json.dumps(obj))


def test_low_degree_p_term_rejected():
    obj = {
        "N": 2, "l": 7, "validityRadius": 0.2,
        "lambda": [[[0, 0], 0.2]],
        "P": [[1, 1, [[[0, 0], 0.3]], []]],
        "K": [],
    }
    with pytest.raises(SchemaViolation, match=r"P coefficient \(1,1\)"):
        specio.loads(json.dumps(obj))


def test_nonreal_k_rejected():
    obj = {
        "N": 2, "l": 7, "validityRadius": 0.2,
        "lambda": [[[0, 0], 0.2]],
        "P": [],
        "K": [[7, 0, [[[0, 0], 0.01]], []]],   # missing the (0,7) mirror
    }
    with pytest.raises(SchemaViolation, match="reality"):
        specio.loads(json.dumps(obj))


def test_ellipticity_range_checked():
    obj = {
        "N": 2, "l": 7, "validityRadius": 0.2,
        "lambda": [[[0, 0], 0.4999]],
        "P": [], "K": [],
    }
    with pytest.raises(EllipticityViolation):
        specio.loads(json.dumps(obj))


def test_raw_spec_loads():
    spec = specio.load(specio.resolve_spec_path("builtin:raw_example"))
    assert isinstance(spec, RawDefiningSeries)
    assert spec.n == 2
    assert spec.validity_radius == 0.15


def test_slice_outside_validity_ball_rejected():
    spec = specio.load(specio.resolve_spec_path("builtin:perturbed"))
    assert spec.validity_radius == 0.2
    spec.slice_at((0.2, 0.0))           # on the sphere: still inside
    with pytest.raises(ValidityEscape, match=r"\(0\.3, 0\.0\) outside the validity ball 0\.2"):
        spec.slice_at((0.3, 0.0))


def test_out_of_range_bidegrees_rejected():
    # order7 carries K = 0.05 Re z^7; a degree cut of 5 must not drop it
    with open(specio.resolve_spec_path("builtin:order7"), encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["maxDegree"] = 5
    with pytest.raises(SpecParseError, match=r"'K'.*out of range for max_degree 5"):
        specio.loads(json.dumps(obj))
    # a negative index would land in the last row of the slice matrix
    raw = {"N": 2, "l": 7, "validityRadius": 0.2,
           "raw": [[-1, 3, [[[0, 0], 0.1]], []]]}
    with pytest.raises(SpecParseError, match=r"\(-1,3\) is out of range"):
        specio.loads(json.dumps(raw))


def test_negative_parameter_exponent_rejected():
    # order7 with its K exponent (0, 0) changed to (-1, 1): X^-1 at X = 0
    with open(specio.resolve_spec_path("builtin:order7"), encoding="utf-8") as fh:
        obj = json.load(fh)
    for row in obj["K"]:
        row[2][0][0] = [-1, 1]
    with pytest.raises(SpecParseError, match=r"\(-1, 1\) is out of range"):
        specio.loads(json.dumps(obj))


@pytest.mark.parametrize("key, value, error", [
    ("maxDegree", "x", SpecParseError),
    ("maxDegree", 2.5, SpecParseError),
    ("maxDegree", -1, SchemaViolation),
    ("paramDegree", "x", SpecParseError),
    ("paramDegree", -1, SchemaViolation),
])
def test_degree_fields_are_checked(key, value, error):
    obj = {"N": 2, "l": 7, "validityRadius": 0.2,
           "lambda": [[[0, 0], 0.2]], "P": [], "K": [], key: value}
    with pytest.raises(error, match=key):
        specio.loads(json.dumps(obj))

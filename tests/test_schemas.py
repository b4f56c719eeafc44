"""The JSON encodings against `schemas/*.schema.json`, and the SHA-256 of the
pfaffian-system encoding of two derived systems.

The schemas refer to each other by file name (`"$ref": "poly.schema.json"`);
a `referencing.Registry` holds every one of them under its `$id`, so each
reference resolves without a file or network lookup."""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator, ValidationError
from referencing import Registry, Resource

from abelint import serialize
from abelint.cli import main
from abelint.division import Hamiltonian
from abelint.operators import reduce_to_scalar
from abelint.parsing import parse_poly
from abelint.picard_fuchs import derive_pfaffian, restrict_to_pencil

SCHEMAS = Path(__file__).resolve().parents[1] / "schemas"
REGISTRY = Registry().with_resources(
    (s["$id"], Resource.from_contents(s))
    for s in (json.loads(p.read_text()) for p in sorted(SCHEMAS.glob("*.schema.json"))))

# what `derive-pf` prints: the restricted system with --pencil, P*(0) and
# Q^(0,0) without it
DERIVE_PF = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["n", "ell", "size"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "ell": {"type": "integer", "minimum": 1},
        "size": {"type": "object"},
        "A": {"$ref": "matrix.schema.json"},
        "singular": {"$ref": "poly.schema.json"},
        "singular_points": {"type": "array", "items": {
            "type": "array", "prefixItems": [{"type": "number"}, {"type": "number"}],
            "minItems": 2, "maxItems": 2}},
        "Pstar0": {"$ref": "matrix.schema.json"},
        "Q00": {"$ref": "matrix.schema.json"},
    },
    "oneOf": [{"required": ["A", "singular", "singular_points"]},
              {"required": ["Pstar0", "Q00"]}],
}

ELLIPTIC = "x2^2/2 + x1^3 - x1"
GAUSSIAN = "x1^3 + x2^3 + i*x1*x2 - x1"

# SHA-256 of serialize.dumps(derive_pfaffian(Hamiltonian(H0))), recorded
# before the symbolic free term left the divisions: the encoding keeps
# "hamiltonian" as H0 + l00 over (l00, x1, x2) and "lvars" as ["l00"]
PINNED = {
    ELLIPTIC: "0a83d131e220961eafbd30769abcc139408097efee7d2339e7c89be7f0f02dda",
    GAUSSIAN: "657600e580e91f20e3a5a48ce07c38479b6cf7bce2d5e8250d081fd578edd88f",
}


def _validate(instance, schema):
    if isinstance(schema, str):
        schema = REGISTRY.contents(schema)
    Draft202012Validator(schema, registry=REGISTRY).validate(instance)


def _system(text):
    return derive_pfaffian(Hamiltonian(parse_poly(text, ("x1", "x2"))))


def test_every_schema_is_valid_and_registered():
    names = sorted(p.name for p in SCHEMAS.glob("*.schema.json"))
    assert names and all(name in REGISTRY for name in names)
    for name in names:
        Draft202012Validator.check_schema(REGISTRY.contents(name))


@pytest.mark.parametrize("text", [ELLIPTIC, GAUSSIAN])
@pytest.mark.parametrize("pencil", [None, "0", "1/2"])
def test_derive_pf_output_matches_schema(text, pencil):
    argv = ["derive-pf", "--hamiltonian", text]
    if pencil is not None:
        argv += ["--pencil", pencil]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    data = json.loads(out.getvalue())
    _validate(data, DERIVE_PF)
    assert ("A" in data) == (pencil is not None)


@pytest.mark.parametrize("text", [ELLIPTIC, GAUSSIAN])
def test_dumps_match_schemas(text):
    system = _system(text)
    ode = restrict_to_pencil(system, free_term_value=0)
    _validate(json.loads(serialize.dumps(system)), "pfaffian-system.schema.json")
    _validate(json.loads(serialize.dumps(ode)), "ode-system.schema.json")
    _validate(json.loads(serialize.dumps(reduce_to_scalar(ode))), "operator.schema.json")


def test_a_malformed_encoding_is_rejected():
    """The registry resolves the nested references: a bad coefficient deep
    inside a matrix fails the ode-system schema."""
    data = json.loads(serialize.dumps(restrict_to_pencil(_system(ELLIPTIC))))
    entry = next(e for row in data["A"]["data"] for e in row if e["num"]["terms"])
    entry["num"]["terms"][0][1] = "1.5"
    with pytest.raises(ValidationError, match="1.5"):
        _validate(data, "ode-system.schema.json")


@pytest.mark.parametrize("text", sorted(PINNED))
def test_pfaffian_system_encoding_is_pinned(text):
    encoded = serialize.dumps(_system(text))
    assert hashlib.sha256(encoded.encode()).hexdigest() == PINNED[text]
    data = json.loads(encoded)
    assert data["lvars"] == ["l00"] and data["free_var"] == "l00"
    assert data["hamiltonian"]["vars"] == ["l00", "x1", "x2"]

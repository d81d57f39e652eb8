"""Exact text documents for everything the command line touches.

Documents are JSON with a fixed envelope {kind, version, payload}.
Rationals are strings "p/q" in lowest terms with q > 0, or a bare
integer; printing always emits the canonical spelling, so documents
round-trip byte for byte once canonicalised. A list that names one cone
or exponent twice is refused rather than letting one entry win.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_string

from .fans import Fan, fan_from_max_cones, validate_fan
from .ideals import MonomialIdeal
from .piecewise import PiecewisePolynomial
from .polynomials import Polynomial
from .transforms import BlowupSetup, ToricCycle
from .tropical import WeightedDualGraph
from .weights import MinkowskiWeight

DOCUMENT_VERSION = 1
KINDS = ("fan", "weight", "pp", "ideal", "graph", "setup", "report")


class DocumentError(ValueError):
    """Malformed input text or payload; commands exit 2 on this."""


@dataclass(frozen=True)
class Document:
    kind: str
    payload: object


def format_rational(x) -> str:
    return str(Fraction(x))


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise DocumentError(f"not a rational: {value!r}")
    parts = value.split("/")
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        nums = []
    if not 1 <= len(nums) <= 2:
        raise DocumentError(f"not a rational: {value!r}")
    if len(nums) == 2 and nums[1] == 0:
        raise DocumentError(f"zero denominator in rational {value!r}")
    return Fraction(*nums)


def _expect_keys(payload, keys, what):
    if not isinstance(payload, dict):
        raise DocumentError(f"{what} must be an object")
    extra = set(payload) - set(keys)
    if extra:
        raise DocumentError(f"unknown field in {what}: {sorted(extra)}")
    missing = set(keys) - set(payload)
    if missing:
        raise DocumentError(f"missing field in {what}: {sorted(missing)}")


def _is_int(value) -> bool:
    """A JSON integer: true and false are not integers here."""
    return type(value) is int


def _int_list(value, what):
    if not isinstance(value, list) or not all(map(_is_int, value)):
        raise DocumentError(f"{what} must be a list of integers")
    return tuple(value)


def parse_document(text: str) -> Document:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(
            f"parse error at line {e.lineno} column {e.colno}: {e.msg}")
    _expect_keys(raw, ("kind", "version", "payload"), "document")
    if raw["kind"] not in KINDS:
        raise DocumentError(f"unknown document kind {raw['kind']!r}")
    if not _is_int(raw["version"]) or raw["version"] != DOCUMENT_VERSION:
        raise DocumentError(f"unsupported document version {raw['version']!r}")
    return Document(raw["kind"], raw["payload"])


def print_document(doc: Document) -> str:
    body = {"kind": doc.kind, "version": DOCUMENT_VERSION,
            "payload": doc.payload}
    out = []
    _write_json(body, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline, out):
    """Append the text of json.dumps(value, indent=2, sort_keys=True) to
    out, with newline the line break plus indent of the current level.

    CPython's C encoder does not indent, so json.dumps would run its
    pure-Python encoder. Values other than lists, tuples, str-keyed dicts,
    strings, ints, bools and None go to json.dumps, errors included.
    """
    kind = type(value)
    if kind is str:
        out.append(_encode_string(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None or kind is bool:
        out.append("null" if value is None else "true" if value else "false")
    elif kind is list or kind is tuple or (
            kind is dict and all(type(key) is str for key in value)):
        brackets = "{}" if kind is dict else "[]"
        if not value:
            out.append(brackets)
            return
        items = ([(_encode_string(key) + ": ", value[key])
                  for key in sorted(value)] if kind is dict
                 else [("", item) for item in value])
        inner = newline + "  "
        sep = brackets[0] + inner
        for label, item in items:
            out.append(sep + label)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + brackets[1])
    else:
        out.append(json.dumps(value, indent=2, sort_keys=True).replace(
            "\n", newline))


# fans

def fan_to_payload(fan: Fan):
    cones = [sorted(list(r) for r in fan.cone_rays(c)) for c in fan.max_cones]
    return {"rank": fan.rank, "max_cones": sorted(cones)}


def fan_payload_parts(payload):
    """Structural checks only; the fan axioms are the caller's business."""
    _expect_keys(payload, ("rank", "max_cones"), "fan")
    rank = payload["rank"]
    if not _is_int(rank) or rank < 0:
        raise DocumentError("fan rank must be a nonnegative integer")
    cones = payload["max_cones"]
    if not isinstance(cones, list):
        raise DocumentError("max_cones must be a list")
    if not all(isinstance(cone, list) for cone in cones):
        raise DocumentError("cone must be a list of rays")
    gens = [[_int_list(r, "ray") for r in cone] for cone in cones]
    for ray in (r for cone in gens for r in cone):
        if len(ray) != rank:
            raise DocumentError(f"ray {list(ray)} has {len(ray)} "
                                f"coordinates, not the fan rank {rank}")
    return rank, gens


def fan_from_payload(payload) -> Fan:
    rank, gens = fan_payload_parts(payload)
    try:
        fan = fan_from_max_cones(rank, gens)
    except ValueError as e:
        raise DocumentError(f"invalid fan: {e}")
    problems = validate_fan(fan)
    if problems:
        raise DocumentError(f"invalid fan: {problems[0]}")
    return fan


def _cone_payload(fan: Fan, cone):
    return sorted(list(fan.rays[i]) for i in cone)


def _cone_from_payload(fan: Fan, rays, what="cone"):
    if not isinstance(rays, list):
        raise DocumentError(f"{what} must be a list of rays")
    idx = []
    for r in rays:
        vec = tuple(_int_list(r, "ray"))
        if vec not in fan.rays:
            raise DocumentError(f"{what} uses a ray {list(vec)} "
                                "that is not in the fan")
        idx.append(fan.rays.index(vec))
    cone = tuple(sorted(idx))
    if cone not in fan.cones:
        raise DocumentError(f"{what} {rays} is not a cone of the fan")
    return cone


def values_payload(fan: Fan, values):
    """A {cone: rational} map as a list of {cone, value}, nonzero only."""
    return [{"cone": _cone_payload(fan, c), "value": format_rational(v)}
            for c, v in sorted(values.items()) if v]


def _values_from_payload(fan: Fan, payload, field, what):
    """The {cone: rational} map listed in payload[field] as {cone, value}."""
    items = payload[field]
    if not isinstance(items, list):
        raise DocumentError(f"{field} must be a list")
    values = {}
    for item in items:
        _expect_keys(item, ("cone", "value"), what)
        cone = _cone_from_payload(fan, item["cone"])
        if cone in values:
            raise DocumentError(f"{what} repeats cone {item['cone']}")
        values[cone] = parse_rational(item["value"])
    return values


# weights

def weight_values_payload(w: MinkowskiWeight):
    return values_payload(w.fan, w.values)


def weight_to_payload(w: MinkowskiWeight):
    return {"fan": fan_to_payload(w.fan), "codim": w.codim,
            "values": weight_values_payload(w)}


def weight_from_payload(payload) -> MinkowskiWeight:
    _expect_keys(payload, ("fan", "codim", "values"), "weight")
    fan = fan_from_payload(payload["fan"])
    codim = payload["codim"]
    if not _is_int(codim):
        raise DocumentError("codim must be an integer")
    values = _values_from_payload(fan, payload, "values", "weight value")
    try:
        return MinkowskiWeight(fan, codim, values)
    except ValueError as e:
        raise DocumentError(f"invalid weight: {e}")


# piecewise polynomials

def _poly_payload(p: Polynomial):
    return [{"exp": list(e), "coeff": format_rational(c)}
            for e, c in sorted(p.terms.items())]


def _poly_from_payload(terms, nvars) -> Polynomial:
    if not isinstance(terms, list):
        raise DocumentError("poly must be a list of terms")
    data = {}
    for item in terms:
        _expect_keys(item, ("exp", "coeff"), "term")
        exp = _int_list(item["exp"], "exp")
        if len(exp) != nvars or any(e < 0 for e in exp):
            raise DocumentError(f"bad exponent {list(exp)}")
        if exp in data:
            raise DocumentError(f"term repeats exponent {list(exp)}")
        data[exp] = parse_rational(item["coeff"])
    return Polynomial(nvars, data)


def pp_to_payload(pp: PiecewisePolynomial):
    pieces = [{"cone": _cone_payload(pp.fan, c), "poly": _poly_payload(p)}
              for c, p in sorted(pp.pieces.items())]
    return {"fan": fan_to_payload(pp.fan), "pieces": pieces}


def pp_from_payload(payload) -> PiecewisePolynomial:
    _expect_keys(payload, ("fan", "pieces"), "pp")
    fan = fan_from_payload(payload["fan"])
    pieces = {}
    if not isinstance(payload["pieces"], list):
        raise DocumentError("pieces must be a list")
    for item in payload["pieces"]:
        _expect_keys(item, ("cone", "poly"), "piece")
        cone = _cone_from_payload(fan, item["cone"])
        if cone in pieces:
            raise DocumentError(f"piece repeats cone {item['cone']}")
        pieces[cone] = _poly_from_payload(item["poly"], fan.rank)
    try:
        return PiecewisePolynomial(fan, pieces)
    except ValueError as e:
        raise DocumentError(f"invalid piecewise polynomial: {e}")


# monomial ideals

def ideal_from_payload(payload) -> MonomialIdeal:
    _expect_keys(payload, ("fan", "generators"), "ideal")
    fan = fan_from_payload(payload["fan"])
    gens = payload["generators"]
    if not isinstance(gens, list):
        raise DocumentError("generators must be a list")
    try:
        return MonomialIdeal(fan, tuple(_int_list(g, "generator")
                                        for g in gens))
    except ValueError as e:
        raise DocumentError(f"invalid ideal: {e}")


# dual graphs

def graph_to_payload(graph: WeightedDualGraph):
    return {"genus": list(graph.genus),
            "edges": sorted(list(e) for e in graph.edges),
            "legs": list(graph.legs)}


# blowup setups with their test cycle

def cycle_to_payload(cycle: ToricCycle):
    return {"codim": cycle.codim,
            "coefficients": values_payload(cycle.fan, cycle.coefficients),
            "class": weight_values_payload(cycle.class_weight)}


def setup_from_payload(payload):
    _expect_keys(payload, ("base", "center", "modification", "cycle"),
                 "setup")
    base = fan_from_payload(payload["base"])
    center = _cone_from_payload(base, payload["center"], "center")
    modification = None
    if payload["modification"] is not None:
        modification = fan_from_payload(payload["modification"])
    try:
        setup = BlowupSetup(base, center, modification)
    except ValueError as e:
        raise DocumentError(f"invalid setup: {e}")
    spec = payload["cycle"]
    _expect_keys(spec, ("codim", "coefficients"), "cycle")
    codim = spec["codim"]
    if not _is_int(codim):
        raise DocumentError("cycle codim must be an integer")
    coeffs = _values_from_payload(setup.modification, spec, "coefficients",
                                  "coefficient")
    try:
        cycle = ToricCycle(setup.modification, codim, coeffs)
    except ValueError as e:
        raise DocumentError(f"invalid cycle: {e}")
    return setup, cycle


def load(path: str) -> Document:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e.strerror}")
    return parse_document(text)


def expect_kind(doc: Document, kind: str) -> Document:
    if doc.kind != kind:
        raise DocumentError(f"expected a {kind} document, got {doc.kind}")
    return doc

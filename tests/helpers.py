"""Test-side helpers that no command or library path needs: payload
writers and readers the command line never calls, constructors of
functions from raw data, and checks that tests use as oracles."""
from fractions import Fraction

from tropchow import io
from tropchow.piecewise import (PiecewisePolynomial, _degree_monomials,
                                _grid_points, _shared_rays)
from tropchow.polynomials import Polynomial
from tropchow.tropical import WeightedDualGraph


def ideal_to_payload(ideal):
    return {"fan": io.fan_to_payload(ideal.fan),
            "generators": [list(g) for g in ideal.generators]}


def graph_from_payload(payload) -> WeightedDualGraph:
    io._expect_keys(payload, ("genus", "edges", "legs"), "graph")
    if not isinstance(payload["edges"], list):
        raise io.DocumentError("edges must be a list")
    try:
        return WeightedDualGraph(
            io._int_list(payload["genus"], "genus"),
            tuple(io._int_list(e, "edge") for e in payload["edges"]),
            io._int_list(payload["legs"], "legs"))
    except ValueError as e:
        raise io.DocumentError(f"invalid graph: {e}")


def setup_to_payload(setup, cycle):
    return {"base": io.fan_to_payload(setup.base),
            "center": io._cone_payload(setup.base, setup.center),
            "modification": io.fan_to_payload(setup.modification),
            "cycle": {"codim": cycle.codim,
                      "coefficients": [
                          {"cone": io._cone_payload(cycle.fan, c),
                           "value": io.format_rational(v)}
                          for c, v in sorted(cycle.coefficients.items())]}}


def pp_from_polynomial(fan, p: Polynomial) -> PiecewisePolynomial:
    """The same polynomial on every top cone."""
    if p.nvars != fan.rank:
        raise ValueError("variable count must match the fan rank")
    return PiecewisePolynomial(fan, {c: p for c in fan.max_cones})


def pp_from_vector(fan, degree: int, vector) -> PiecewisePolynomial:
    """Inverse of the coefficient-vector encoding used by pp_space_basis."""
    monos = _degree_monomials(fan.rank, degree)
    pieces = {}
    idx = 0
    for m in fan.max_cones:
        terms = {}
        for e in monos:
            terms[e] = Fraction(vector[idx])
            idx += 1
        pieces[m] = Polynomial(fan.rank, terms)
    return PiecewisePolynomial(fan, pieces)


def is_continuous(f: PiecewisePolynomial) -> bool:
    """Whether the pieces agree on every meet of two top cones.

    Assumes a fan that passes validate_fan, where two top cones meet in
    the face spanned by their shared rays.
    """
    maxes = f.fan.max_cones
    degree = f.max_degree()
    for i in range(len(maxes)):
        for j in range(i + 1, len(maxes)):
            shared = _shared_rays(f.fan, maxes[i], maxes[j])
            p, q = f.pieces[maxes[i]], f.pieces[maxes[j]]
            for pt in _grid_points(shared, f.fan.rank, degree):
                if p.value(pt) != q.value(pt):
                    return False
    return True


def total_genus(graph: WeightedDualGraph) -> int:
    return sum(graph.genus) + graph.betti

"""Monomial ideals on toric fans: blowups and Segre classes.

An ideal is a finite set of exponent vectors over the fan's rays, each
one standing for an effective divisor sum. The induced order function is
the minimum of the corresponding divisor functions; the coarsest fan on
which it is conewise linear is the normalized blowup. Segre classes are
read on that fan itself, by pushing powers of the exceptional function
(the order function) back down; the pushforward localizes on any
complete fan, simplicial or not, so no smooth refinement is needed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .fans import Fan
from .piecewise import PiecewisePolynomial, min_refinement
from .weights import (MinkowskiWeight, monomial_coordinates, monomial_function,
                      pushforward_witness)


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal generator exponents indexed against the fan's ray order."""
    fan: Fan
    generators: tuple

    def __post_init__(self):
        if not self.fan.is_smooth():
            raise ValueError("monomial ideals need a smooth fan")
        gens = {tuple(int(x) for x in g) for g in self.generators}
        if not gens:
            raise ValueError("ideal needs at least one generator")
        for g in gens:
            if len(g) != len(self.fan.rays):
                raise ValueError("generator arity must match the ray count")
            if any(x < 0 for x in g):
                raise ValueError("exponents must be nonnegative")
        minimal = {g for g in gens
                   if not any(h != g and all(a <= b for a, b in zip(h, g))
                              for h in gens)}
        object.__setattr__(self, "generators", tuple(sorted(minimal)))

    def divisor_function(self, g) -> PiecewisePolynomial:
        return monomial_function(self.fan, {(i,): a for i, a in enumerate(g)})

    def support_cones(self):
        """Cones whose orbit closures lie in the vanishing locus."""
        out = []
        for c in self.fan.cones:
            if all(any(g[i] > 0 for i in c) for g in self.generators):
                out.append(c)
        return tuple(out)


@dataclass
class SegreData:
    """Graded Segre weights on the ambient fan with, per codimension, a
    cycle representative supported on the vanishing locus."""
    fan: Fan
    pieces: dict = field(default_factory=dict)
    certificates: dict = field(default_factory=dict)


def segre_class(ideal: MonomialIdeal) -> SegreData:
    """Graded Segre class of the subscheme cut out by a monomial ideal:
    alternating pushforwards of powers of the exceptional function from
    the normalized blowup fan (piecewise.min_refinement of the
    generators' divisor functions) to the ambient fan."""
    ambient = ideal.fan
    if not ambient.is_complete():
        raise ValueError("ambient fan must be complete")
    blow_fan, exc = min_refinement(
        ambient, [ideal.divisor_function(g) for g in ideal.generators])
    data = SegreData(ambient)
    power = PiecewisePolynomial.constant(blow_fan, 1)
    sign = 1
    for k in range(1, ambient.rank + 1):
        power = power * exc
        piece = pushforward_witness(blow_fan, power, k, ambient).scale(sign)
        sign = -sign
        data.pieces[k] = piece
        data.certificates[k] = _support_certificate(ideal, piece, k)
    return data


def _support_certificate(ideal: MonomialIdeal, piece: MinkowskiWeight, k: int):
    """Coefficients on vanishing-locus cones whose cycle class matches the
    given weight; raises when no such representative exists."""
    ambient = ideal.fan
    support = [c for c in ideal.support_cones() if ambient.cone_dim(c) == k]
    if not support:
        if piece.is_zero():
            return {}
        raise AssertionError("nonzero weight with empty support candidates")
    coords = monomial_coordinates(ambient, support, piece)
    if coords is None:
        raise AssertionError("weight is not supported on the vanishing locus")
    return coords


def pullback_ideal(ideal: MonomialIdeal, fine_fan: Fan) -> MonomialIdeal:
    """Transport an ideal to a refinement of its fan: each generator's
    divisor function is reread off the finer rays."""
    gens = []
    for g in ideal.generators:
        f = ideal.divisor_function(g)
        vals = []
        for r in fine_fan.rays:
            v = f.evaluate(r)
            if v.denominator != 1 or v < 0:
                raise ValueError("ideal does not transport integrally")
            vals.append(int(v))
        gens.append(tuple(vals))
    return MonomialIdeal(fine_fan, tuple(gens))

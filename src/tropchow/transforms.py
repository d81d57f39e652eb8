"""Blowups versus cycle transforms, with the correction term that
reconciles them.

A blowup of a complete smooth fan at a smooth cone, together with a
smooth subdivision carrying a cycle, determines three classes on a
common refinement: the pullback (total transform), the coefficient
refinement (strict transform), and a correction assembled from Segre
classes of the center against the cycle and the Chern classes of the
excess bundle. The three satisfy total = strict + correction, and this
module computes each side independently so the identity is a check, not
a definition.

Cycles are carried as coefficients on cones whose dimension equals the
codimension of the cycle, each an int when integral and else a Fraction,
as polynomial coefficients are; the canonical form of a class is its
degree pairing against complementary orbit closures, and both encodings
travel together.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .fans import Fan, star_fan, stellar_subdivision, subdivision_assignment
from .ideals import MonomialIdeal, segre_class
from .piecewise import (PiecewisePolynomial, courant_function,
                        excess_chern_class, principalize, pp_pullback,
                        pushforward_from_star)
from .polynomials import _exact
from .weights import (MinkowskiWeight, courant_monomial, monomial_coordinates,
                      monomial_function, mw_of_pp, ray_monomial_class)


class ToricCycle:
    """Invariant cycle: coefficients on cones of one dimension, each an
    int when integral and else a Fraction, plus the degree-encoded class
    and a witness function.

    The class is the coefficient sum of the ray-monomial classes of the
    carrier cones (weights.ray_monomial_class, kept per fan), computed at
    construction, so a fan the calculus refuses is refused here. That
    equals mw_of_pp of the witness, the same sum of ray-function
    monomials (weights.monomial_function), since mw_of_pp is linear and
    exact; the witness is built on first use.
    """

    __slots__ = ("fan", "codim", "coefficients", "class_weight", "_witness")

    def __init__(self, fan: Fan, codim: int, coefficients=None):
        if not 0 <= codim <= fan.rank:
            raise ValueError("codimension out of range")
        self.fan = fan
        self.codim = codim
        carriers = set(fan.cones_of_dim(codim))
        vals = {c: _exact(v) for c, v in dict(coefficients or {}).items()
                if v != 0}
        if set(vals) - carriers:
            raise ValueError("coefficients must sit on cones of the cycle's "
                             "codimension")
        self.coefficients = vals
        # a zero cycle takes the zero function's weight, so that the
        # fans mw_of_pp refuses are refused for it too
        weight = (MinkowskiWeight(fan, codim) if vals
                  else mw_of_pp(PiecewisePolynomial.zero(fan), codim))
        for c, v in sorted(vals.items()):
            weight = weight + ray_monomial_class(fan, c).scale(v)
        self.class_weight = weight
        self._witness = None

    @property
    def witness(self) -> PiecewisePolynomial:
        if self._witness is None:
            self._witness = monomial_function(self.fan, self.coefficients)
        return self._witness

    def __eq__(self, other):
        return (isinstance(other, ToricCycle) and self.fan == other.fan
                and self.codim == other.codim
                and self.coefficients == other.coefficients)

    def __repr__(self):
        vals = {c: str(v) for c, v in sorted(self.coefficients.items())}
        return f"ToricCycle(codim={self.codim}, {vals})"


def fundamental_cycle(fan: Fan) -> ToricCycle:
    return ToricCycle(fan, 0, {(): 1})


def cycle_from_class(fan: Fan, weight: MinkowskiWeight) -> ToricCycle:
    """Invariant-cycle representative of a class on a complete smooth fan."""
    coords = monomial_coordinates(fan, fan.cones_of_dim(weight.codim), weight)
    if coords is None:
        raise ValueError("class has no invariant cycle representative")
    return ToricCycle(fan, weight.codim, coords)


class BlowupSetup:
    """Blowup of a complete smooth fan at one of its smooth cones, against
    a complete smooth subdivision carrying the cycles of interest.

    The working fan is the carrier principalized for the center's ideal
    (piecewise.principalize of the center's Courant functions read on
    the carrier): a tower of smooth stellar subdivisions, built forward,
    after which the minimum of those functions, the order function of
    the center, is linear on every cone. So it refines both the stellar
    subdivision at the center and the carrier, and is smooth.
    """

    def __init__(self, base: Fan, center, modification: Fan | None = None):
        if not base.is_complete() or not base.is_smooth():
            raise ValueError("base fan must be complete and smooth")
        center = tuple(sorted(center))
        if center not in base.cones or not center:
            raise ValueError("center must be a nonzero cone of the base fan")
        if modification is None:
            modification = base
        if not modification.is_complete() or not modification.is_smooth():
            raise ValueError("carrier fan must be complete and smooth")
        subdivision_assignment(modification, base)
        self.base = base
        self.center = center
        self.modification = modification
        self.blowup = stellar_subdivision(base, center)
        ident = linalg.identity_matrix(base.rank)
        self.refined, self._principalization = principalize(modification, [
            pp_pullback(modification, ident, courant_function(base, i))
            for i in center])
        # kept on the working fan, where strict_transform reads it
        subdivision_assignment(self.refined, modification)
        self._steps = None

    def tower(self):
        """The steps that build the working fan from the carrier, smooth
        stellar subdivisions listed bottom-up."""
        if self._steps is None:
            self._steps = tuple(_StellarStep(*step)
                                for step in self._principalization)
        return self._steps


class _StellarStep:
    """One smooth stellar subdivision, with the star-fan data and the
    graded excess Chern class needed to evaluate its correction term."""

    def __init__(self, base: Fan, center, ray, result: Fan):
        self.base = base
        self.center = center
        self.ray = ray
        self.result = result
        self.exc_star = star_fan(result, (result.rays.index(ray),))
        self.cen_star = star_fan(base, center)
        self.pull_matrix = linalg.mat_mul(self.cen_star.proj,
                                          self.exc_star.sect)
        ident = linalg.identity_matrix(base.rank)
        pulled = [pp_pullback(result, ident, courant_function(base, i))
                  for i in center]
        exc = courant_function(result, result.rays.index(ray))
        chern = excess_chern_class(result, pulled, exc, len(center) - 1)
        self.chern_parts = [chern.homogeneous_component(j)
                            for j in range(len(center))]

    def stratum_slots(self, gamma):
        """Pullbacks to the exceptional star of the graded Segre terms of
        the center against one orbit closure gamma, keyed by grading;
        each center ray off gamma maps to one ray of gamma's star."""
        if set(self.center) <= set(gamma):
            src = self.cen_star.source_to_cone[gamma]
            w = courant_monomial(self.cen_star.fan, src)
            return {0: pp_pullback(self.exc_star.fan, self.pull_matrix, w)}
        vstar = star_fan(self.base, gamma)
        images = [vstar.source_to_cone.get(tuple(sorted(set(gamma) | {i})))
                  for i in self.center if i not in gamma]
        if None in images:
            return {}
        gens = [tuple(int(image == (j,)) for j in range(len(vstar.fan.rays)))
                for image in images]
        assert all(sum(g) == 1 for g in gens)
        data = segre_class(MonomialIdeal(vstar.fan, gens))
        out = {}
        for k, cert in data.certificates.items():
            if not cert:
                continue
            w = monomial_function(self.cen_star.fan, {
                self.cen_star.source_to_cone[vstar.cone_to_source[eta]]: coeff
                for eta, coeff in cert.items()})
            out[k] = pp_pullback(self.exc_star.fan, self.pull_matrix, w)
        return out


@dataclass(frozen=True)
class StratumContribution:
    """One orbit closure's correction share at one tower step."""
    step: int
    new_ray: tuple
    stratum_rays: tuple
    slots: tuple           # (segre grading, excess chern degree) pairs used
    weight: MinkowskiWeight   # on the working fan


@dataclass
class TransformReport:
    total: ToricCycle
    strict: ToricCycle
    correction: ToricCycle
    decomposition: tuple
    verdict: str


def _check_carrier(cycle: ToricCycle, setup: BlowupSetup):
    if cycle.fan != setup.modification:
        raise ValueError("cycle does not live on the setup's carrier fan")


def _refine_coefficients(cycle: ToricCycle, fine: Fan) -> ToricCycle:
    # only cones the subdivision leaves intact keep their orbit closure;
    # a properly subdivided cone sits under the collapsed locus, where
    # the proper transform loses its stratum entirely
    assignment = subdivision_assignment(fine, cycle.fan)
    vals = {}
    for cone in fine.cones_of_dim(cycle.codim):
        src = assignment[cone]
        v = cycle.coefficients.get(src, 0)
        if v and set(cycle.fan.cone_rays(src)) == set(fine.cone_rays(cone)):
            vals[cone] = v
    return ToricCycle(fine, cycle.codim, vals)


def strict_transform(cycle: ToricCycle, setup: BlowupSetup) -> ToricCycle:
    """Coefficient refinement: a cone of the working fan keeps the
    coefficient of the matching carrier cone, and drops to 0 wherever
    the carrier cone was subdivided or absorbed into a bigger one."""
    _check_carrier(cycle, setup)
    return _refine_coefficients(cycle, setup.refined)


def total_transform(cycle: ToricCycle, setup: BlowupSetup) -> ToricCycle:
    """Pullback: the witness function reread on the working fan."""
    _check_carrier(cycle, setup)
    fine = setup.refined
    pulled = pp_pullback(fine, linalg.identity_matrix(fine.rank),
                         cycle.witness)
    if cycle.codim == 0:
        return ToricCycle(fine, 0, {(): pulled.evaluate((0,) * fine.rank)})
    if cycle.codim == 1:
        return ToricCycle(fine, 1, {
            (i,): pulled.evaluate(r) for i, r in enumerate(fine.rays)})
    return cycle_from_class(fine, mw_of_pp(pulled, cycle.codim))


def fulton_correction(cycle: ToricCycle, setup: BlowupSetup):
    """Correction term of the blowup formula, telescoped over the tower
    of stellar subdivisions that builds the working fan.

    At each step the carried cycle meets the step's center along strata
    whose Segre terms, decorated with excess Chern classes in
    complementary degree, live on the exceptional divisor E. Each
    stratum's share is pushed forward from E as x_E times a witness
    (pushforward_from_star), pulled to the working fan and summed.
    Returns the correction cycle and its per-stratum decomposition.
    """
    _check_carrier(cycle, setup)
    fine = setup.refined
    k = cycle.codim
    ident = linalg.identity_matrix(fine.rank)
    total = MinkowskiWeight(fine, k)
    decomposition = []
    current = cycle
    for t, step in enumerate(setup.tower()):
        assert current.fan == step.base
        degree = len(step.center) - 1
        for gamma, coeff in sorted(current.coefficients.items()):
            slots = step.stratum_slots(gamma)
            used = tuple((g, degree - g) for g in sorted(slots)
                         if 0 <= degree - g < len(step.chern_parts))
            if not used:
                continue
            witness = sum((step.chern_parts[j] * pushforward_from_star(
                step.result, step.exc_star, slots[g]) for g, j in used),
                PiecewisePolynomial.zero(step.result))
            pulled = mw_of_pp(pp_pullback(fine, ident, witness), k)
            pulled = pulled.scale(coeff)
            if pulled.is_zero():
                continue
            total = total + pulled
            decomposition.append(StratumContribution(
                t, step.ray, tuple(step.base.cone_rays(gamma)), used, pulled))
        current = _refine_coefficients(current, step.result)
    return cycle_from_class(fine, total), tuple(decomposition)


def verify_fulton_identity(cycle: ToricCycle,
                           setup: BlowupSetup) -> TransformReport:
    """Compute all three transforms independently and compare classes."""
    total = total_transform(cycle, setup)
    strict = strict_transform(cycle, setup)
    correction, decomposition = fulton_correction(cycle, setup)
    agree = (total.class_weight - strict.class_weight
             == correction.class_weight)
    return TransformReport(total, strict, correction, decomposition,
                           "verified" if agree else "failed")

import itertools
import random
from fractions import Fraction

import pytest

from helpers import (assert_exact, gysin_degree_by_restriction,
                     is_continuous, pp_from_vector, restrict_to_star,
                     variable)
from tropchow import fans, linalg, piecewise
from tropchow.piecewise import PiecewisePolynomial, courant_function
from tropchow.polynomials import Polynomial
from tropchow.weights import monomial_function, mw_of_pp


def _p2():
    return fans.fan_from_max_cones(2, [
        [(1, 0), (0, 1)], [(1, 0), (-1, -1)], [(0, 1), (-1, -1)]])


def _bl_p2():
    return fans.insert_ray(_p2(), (1, 1))


def test_courant_values():
    f = _p2()
    e1 = f.rays.index((1, 0))
    phi = courant_function(f, e1)
    assert is_continuous(phi)
    assert phi.evaluate((1, 0)) == 1
    assert phi.evaluate((0, 1)) == 0
    assert phi.evaluate((-1, -1)) == 0
    assert phi.evaluate((2, 1)) == 2
    assert phi.evaluate((-2, -3)) == 1  # on the cone of e2 and (-1,-1): x - y


def test_ray_function_coefficients_follow_the_number_rule(monkeypatch):
    # a coefficient is a Fraction only where the dual basis entry is not
    # divisible by its scale, and none is built on a smooth fan
    made = []
    monkeypatch.setattr(piecewise, "Fraction",
                        lambda *args: made.append(args) or Fraction(*args))

    def coefficients(fan):
        return [c for i in range(len(fan.rays))
                for p in piecewise._courant_function(fan, i).pieces.values()
                for c in p.terms.values()]
    for fan in (_p2(), _bl_p2()):
        assert all(type(c) is int for c in coefficients(fan))
    assert made == []
    p112 = fans.fan_from_max_cones(2, [
        [(1, 0), (0, 1)], [(0, 1), (-1, -2)], [(-1, -2), (1, 0)]])
    halves = coefficients(p112)
    assert_exact(halves)
    assert Fraction(-1, 2) in halves and 1 in halves
    assert made and all(x % p for x, p in made)


def test_courant_needs_simplicial():
    over_square = fans.fan_from_max_cones(3, [
        [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]])
    with pytest.raises(ValueError):
        courant_function(over_square, 0)


def test_pp_equality_modulo_vanishing():
    ray_fan = fans.fan_from_max_cones(2, [[(1, 0)]])
    m = ray_fan.max_cones[0]
    x = variable(2, 0)
    y = variable(2, 1)
    a = PiecewisePolynomial(ray_fan, {m: x})
    b = PiecewisePolynomial(ray_fan, {m: x + y})
    assert a == b  # y vanishes on the support
    c = PiecewisePolynomial(ray_fan, {m: x + Polynomial.constant(2, 1)})
    assert a != c


def test_arithmetic_and_components():
    f = _p2()
    phis = [courant_function(f, i) for i in range(len(f.rays))]
    s = phis[0] + phis[1] + phis[2]
    prod = (courant_function(f, f.rays.index((1, 0)))
            * courant_function(f, f.rays.index((0, 1))))
    assert is_continuous(s) and is_continuous(prod)
    assert prod.evaluate((1, 1)) == 1
    assert prod.evaluate((1, 0)) == 0
    mixed = prod + s
    assert mixed.homogeneous_component(1) == s
    assert mixed.homogeneous_component(2) == prod
    assert mixed.max_degree() == 2
    assert (mixed - mixed).is_zero()


def test_pullback_along_refinement():
    coarse = _p2()
    fine = _bl_p2()
    phi = courant_function(coarse, coarse.rays.index((1, 0)))
    pulled = piecewise.pp_pullback(fine, linalg.identity_matrix(2), phi)
    assert is_continuous(pulled)
    for pt in [(1, 0), (0, 1), (1, 1), (2, 1), (-1, -1), (5, 2)]:
        assert pulled.evaluate(pt) == phi.evaluate(pt)


def test_restrict_to_star():
    f = _p2()
    center = (f.rays.index((1, 0)),)
    star = fans.star_fan(f, center)
    phi = courant_function(f, f.rays.index((0, 1)))
    bar = restrict_to_star(star, phi)
    assert is_continuous(bar)
    # the image of e2 spans one quotient ray with value 1 there
    img = linalg.mat_vec(star.proj, (0, 1))
    assert bar.evaluate(img) == 1


E3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
E4 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
GYSIN_BASES = [
    (2, [[(1, 0), (0, 1)], [(1, 0), (-1, -1)], [(0, 1), (-1, -1)]]),
    (2, [[(a, 0), (0, b)] for a, b in itertools.product((1, -1), repeat=2)]),
    (3, [list(c) for c in itertools.combinations(E3, 3)]),
    (3, [[(a, 0, 0), (0, b, 0), (0, 0, c)]
         for a, b, c in itertools.product((1, -1), repeat=3)]),
    (4, [list(c) for c in itertools.combinations(
        E4 + [(-1, -1, -1, -1)], 4)]),
]


def test_pushforward_from_star_equals_restriction_route():
    """P2, P1xP1, P3, (P1)^3 and P4 after 0 to 2 stellar subdivisions at
    seeded random cones of dimension 2 or more: at every ray and in every degree d < n, the weight of
    pushforward_from_star of a small integer combination of degree-d star
    monomials equals, at every cone tau of codimension d + 1, the degree
    of the function times tau's ray monomial restricted to the star.
    Budget: under 1 s."""
    rng = random.Random(19)
    cases = 0
    for rank, gens in GYSIN_BASES:
        fan = fans.fan_from_max_cones(rank, gens)
        for steps in range(3):
            if steps:
                fan = fans.stellar_subdivision(fan, rng.choice(
                    [c for c in fan.cones if len(c) > 1]))
            for ray in range(len(fan.rays)):
                star = fans.star_fan(fan, (ray,))
                nrays = len(star.fan.rays)
                for degree in range(rank):
                    f = monomial_function(star.fan, {
                        tuple(sorted(rng.choices(range(nrays), k=degree))):
                        rng.choice((-2, -1, 1, 2)) for _ in range(2)})
                    pushed = mw_of_pp(
                        piecewise.pushforward_from_star(fan, star, f),
                        degree + 1)
                    for tau, value in pushed.values.items():
                        assert value == gysin_degree_by_restriction(
                            fan, star, f, tau)
                        cases += 1
    assert cases > 1000


def test_pp_min_and_refinement():
    f = _p2()
    l1 = courant_function(f, f.rays.index((1, 0)))
    l2 = courant_function(f, f.rays.index((0, 1)))
    with pytest.raises(ValueError):
        piecewise.pp_min(f, [l1, l2])
    refined, mn = piecewise.min_refinement(f, [l1, l2])
    assert (1, 1) in refined.rays
    assert fans.validate_fan(refined) == []
    assert mn.evaluate((1, 1)) == 1
    assert mn.evaluate((2, 1)) == 1
    assert mn.evaluate((1, 3)) == 1
    assert mn.evaluate((-1, -1)) == 0
    assert is_continuous(mn)


def test_excess_chern_codim_one():
    f = _p2()
    phi = courant_function(f, f.rays.index((1, 0)))
    c = piecewise.excess_chern_class(f, [phi], phi, 2)
    assert c == PiecewisePolynomial.constant(f, 1)


def test_excess_chern_codim_two():
    coarse = _p2()
    fine = _bl_p2()
    ident = linalg.identity_matrix(2)
    l1 = piecewise.pp_pullback(fine, ident,
                               courant_function(coarse, coarse.rays.index((1, 0))))
    l2 = piecewise.pp_pullback(fine, ident,
                               courant_function(coarse, coarse.rays.index((0, 1))))
    exc = courant_function(fine, fine.rays.index((1, 1)))
    c = piecewise.excess_chern_class(fine, [l1, l2], exc, 2)
    assert c.homogeneous_component(0) == PiecewisePolynomial.constant(fine, 1)
    assert c.homogeneous_component(1) == l1 + l2 - exc
    # wrong exceptional function is rejected
    with pytest.raises(ValueError):
        piecewise.excess_chern_class(fine, [l1, l2], l1, 2)


def test_excess_chern_refuses_a_negative_degree():
    f = _p2()
    phi = courant_function(f, f.rays.index((1, 0)))
    with pytest.raises(ValueError, match="nonnegative"):
        piecewise.excess_chern_class(f, [phi], phi, -1)


def test_pp_space_dimensions():
    p2 = _p2()
    assert piecewise.pp_space_dimension(p2, 0) == 1
    assert piecewise.pp_space_dimension(p2, 1) == 3
    assert piecewise.pp_space_dimension(p2, 2) == 6
    bl = _bl_p2()
    assert piecewise.pp_space_dimension(bl, 1) == 4
    # vectors round-trip through the encoding
    basis = piecewise.pp_space_basis(p2, 1)
    for v in basis:
        pp = pp_from_vector(p2, 1, v)
        assert is_continuous(pp)

import random
from fractions import Fraction
from math import factorial

import pytest

from helpers import (assert_principalizes, billera_fan, exceptional_class,
                     newton_region, order_function, segre_class_by_resolution)
from tropchow import fans
from tropchow.ideals import MonomialIdeal, pullback_ideal, segre_class
from tropchow.piecewise import courant_function, principalize
from tropchow.weights import (courant_monomial, is_balanced, mw_of_pp,
                              mw_product, mw_to_pp, pushforward_witness)


def _p2():
    return fans.fan_from_max_cones(2, [
        [(1, 0), (0, 1)], [(1, 0), (-1, -1)], [(0, 1), (-1, -1)]])


def _gen(fan, exponents):
    return tuple(exponents.get(r, 0) for r in fan.rays)


def _phi(fan, ray):
    return courant_function(fan, fan.rays.index(ray))


def _point_ideal(fan):
    return MonomialIdeal(fan, (_gen(fan, {(1, 0): 1}), _gen(fan, {(0, 1): 1})))


def test_minimal_generators():
    f = _p2()
    i = MonomialIdeal(f, (
        _gen(f, {(1, 0): 1}), _gen(f, {(1, 0): 2}),
        _gen(f, {(1, 0): 1, (0, 1): 1})))
    assert i.generators == (_gen(f, {(1, 0): 1}),)
    with pytest.raises(ValueError):
        MonomialIdeal(f, ())


def test_support_cones():
    f = _p2()
    i = _point_ideal(f)
    corner = tuple(sorted((f.rays.index((1, 0)), f.rays.index((0, 1)))))
    assert i.support_cones() == (corner,)
    principal = MonomialIdeal(f, (_gen(f, {(1, 0): 1}),))
    sup = principal.support_cones()
    e1 = f.rays.index((1, 0))
    assert all(e1 in c for c in sup)
    assert (e1,) in sup and len(sup) == 3


def test_newton_region_unit_corner():
    r = newton_region([(1, 0), (0, 1)])
    assert r.bounded
    assert r.volume == Fraction(1, 2)
    assert r.lattice_points == ((0, 0),)
    assert ((1, 1), 1) in r.facets


def test_newton_region_unbounded():
    r = newton_region([(1, 1)])
    assert not r.bounded
    assert r.volume is None and r.lattice_points is None
    assert r.facets == (((0, 1), 1), ((1, 0), 1))


def test_newton_region_double_corner():
    r = newton_region([(2, 0), (1, 1), (0, 2)])
    assert r.bounded
    assert r.generators == ((0, 2), (1, 1), (2, 0))
    assert r.lattice_points == ((0, 0), (0, 1), (1, 0))
    assert r.volume == 2


def test_order_function_point_ideal():
    f = _p2()
    blow, ordf = order_function(_point_ideal(f))
    assert blow == fans.insert_ray(f, (1, 1))
    assert ordf == _phi(blow, (1, 1))


def test_order_function_principal():
    f = _p2()
    i = MonomialIdeal(f, (_gen(f, {(1, 0): 1}),))
    blow, ordf = order_function(i)
    assert blow == f
    assert ordf == _phi(f, (1, 0))


def test_order_function_weighted_corner():
    f = _p2()
    i = MonomialIdeal(f, (_gen(f, {(1, 0): 2}), _gen(f, {(0, 1): 1})))
    blow, _ = order_function(i)
    assert set(blow.rays) == set(f.rays) | {(1, 2)}


def test_exceptional_functions():
    f = _p2()
    e = exceptional_class(_point_ideal(f))
    assert e == _phi(e.fan, (1, 1))

    principal = MonomialIdeal(f, (_gen(f, {(0, 1): 1}),))
    e = exceptional_class(principal)
    assert e == _phi(f, (0, 1))

    m2 = MonomialIdeal(f, (
        _gen(f, {(1, 0): 2}), _gen(f, {(1, 0): 1, (0, 1): 1}),
        _gen(f, {(0, 1): 2})))
    e = exceptional_class(m2)
    assert e == _phi(e.fan, (1, 1)).scale(2)


def _check_certificates(ideal, data):
    for k, piece in data.pieces.items():
        rebuilt = piece.scale(0)
        for cone, coeff in data.certificates[k].items():
            assert cone in ideal.support_cones()
            rebuilt = rebuilt + mw_of_pp(
                courant_monomial(data.fan, cone), k).scale(coeff)
        assert rebuilt == piece


def test_segre_reduced_point():
    f = _p2()
    i = _point_ideal(f)
    s = segre_class(i)
    assert s.pieces[1].is_zero()
    assert s.pieces[2].values[()] == 1
    corner = tuple(sorted((f.rays.index((1, 0)), f.rays.index((0, 1)))))
    assert s.certificates[2] == {corner: 1}
    assert all(is_balanced(p) for p in s.pieces.values())
    _check_certificates(i, s)


def test_segre_principal_is_alternating_series():
    f = _p2()
    i = MonomialIdeal(f, (_gen(f, {(1, 0): 1}),))
    s = segre_class(i)
    d = mw_of_pp(_phi(f, (1, 0)), 1)
    assert s.pieces[1] == d
    assert s.pieces[2] == -mw_product(d, d)
    assert s.pieces[2].values[()] == -1
    _check_certificates(i, s)


def test_segre_double_point():
    f = _p2()
    m2 = MonomialIdeal(f, (
        _gen(f, {(1, 0): 2}), _gen(f, {(1, 0): 1, (0, 1): 1}),
        _gen(f, {(0, 1): 2})))
    s = segre_class(m2)
    assert s.pieces[1].is_zero()
    assert s.pieces[2].values[()] == 4
    _check_certificates(m2, s)


def test_segre_weighted_corner():
    # (x^2, y) at a torus fixed point has intersection multiplicity 2
    f = _p2()
    i = MonomialIdeal(f, (_gen(f, {(1, 0): 2}), _gen(f, {(0, 1): 1})))
    s = segre_class(i)
    assert s.pieces[1].is_zero()
    assert s.pieces[2].values[()] == 2
    assert all(is_balanced(p) for p in s.pieces.values())


def test_pullback_ideal():
    f = _p2()
    fine = fans.insert_ray(f, (1, 1))
    moved = pullback_ideal(_point_ideal(f), fine)
    new = fine.rays.index((1, 1))
    assert all(g[new] == 1 for g in moved.generators)


@pytest.mark.parametrize("center", [(1, 1), (-1, 0)])
def test_segre_birational_invariance(center):
    f = _p2()
    i = _point_ideal(f)
    direct = segre_class(i)
    fine = fans.insert_ray(f, center)
    refined = segre_class(pullback_ideal(i, fine))
    for k, piece in refined.pieces.items():
        pushed = pushforward_witness(fine, mw_to_pp(piece), k, f)
        assert pushed == direct.pieces[k]


def _p1xp1():
    return fans.fan_from_max_cones(2, [[(a, 0), (0, b)]
                                       for a in (1, -1) for b in (1, -1)])


@pytest.mark.parametrize("name, count, non_simplicial", [
    ("P2", 20, 0), ("P1xP1", 20, 0), ("P3", 10, 4), ("(P1)^3", 10, 7),
    ("P3 after 2 stellar", 10, 9), ("P4 after 1 stellar", 6, 5)])
def test_segre_classes_on_the_blowup_fan_against_the_resolution_route(
        name, count, non_simplicial):
    """Seeded ideals of 2-4 generators with exponents 0-3 in ranks 2-4:
    the Segre pieces and certificates read on the normalized blowup fan
    equal those read on resolve_smooth of it. That fan is not simplicial
    for 25 of the 36 seeds of rank 3 and 4, so those pieces are read
    through the pulling triangulation of weights._localization. Budget:
    about 3 s, most of it in the resolution route."""
    fan = {"P2": _p2, "P1xP1": _p1xp1}.get(name, lambda: billera_fan(name))()
    seen = 0
    for seed in range(count):
        rng = random.Random(f"segre {name} {seed}")
        gens = set()
        size = rng.randint(2, 4)
        while len(gens) < size:
            gens.add(tuple(rng.choice((0, 0, 1, 2, 3)) for _ in fan.rays))
        ideal = MonomialIdeal(fan, tuple(gens))
        blow_fan, _ = order_function(ideal)
        seen += any(len(m) > blow_fan.cone_dim(m) for m in blow_fan.max_cones)
        new, old = segre_class(ideal), segre_class_by_resolution(ideal)
        assert (new.pieces, new.certificates) == (old.pieces,
                                                  old.certificates)
    assert seen == non_simplicial


def test_principalization_of_two_functions_ends():
    """On (P1)^3, for these two generators, subdividing the
    least-dimensional bad cone that comes first by key runs past 60
    steps, each new ray again on a bad 2-cone with (0, -1, 0) or
    (0, 0, -1). Taking the one with the largest excess sums ends after
    9 steps."""
    fan = billera_fan("(P1)^3")
    ideal = MonomialIdeal(fan, ((1, 2, 0, 0, 2, 0), (2, 0, 2, 0, 1, 2)))
    functions = [ideal.divisor_function(g) for g in ideal.generators]
    fine, steps = principalize(fan, functions)
    assert len(steps) == 9
    assert_principalizes(fan, functions, fine, steps)


def test_segre_class_where_principalizing_three_functions_does_not_end():
    """Principalizing all three divisor functions of this ideal on P3 at
    once does not end within piecewise._TOWER_STEPS steps; read on the
    normalized blowup fan, which needs no principalization, the Segre
    class equals the one read on the resolution."""
    fan = billera_fan("P3")
    ideal = MonomialIdeal(fan, ((0, 0, 2, 2), (0, 1, 3, 1), (3, 2, 2, 0)))
    new, old = segre_class(ideal), segre_class_by_resolution(ideal)
    assert (new.pieces, new.certificates) == (old.pieces, old.certificates)


@pytest.mark.parametrize("name", ["P2", "P3"])
def test_top_segre_piece_of_an_m_primary_ideal_is_its_multiplicity(name):
    """Seeded ideals primary to the maximal ideal of a torus-fixed point:
    pure powers of each ray of a top cone plus up to three mixed
    monomials on those rays. The top Segre piece, the degree of a
    zero-cycle, is the Samuel multiplicity, n! times the covolume of the
    Newton region: an oracle that shares no fan with either Segre route.
    P4 is left out, where the region's 4-D volume takes seconds."""
    fan = _p2() if name == "P2" else billera_fan(name)
    n = fan.rank
    for seed in range(10):
        rng = random.Random(f"m-primary {name} {seed}")
        cone = rng.choice(fan.cones_of_dim(n))
        local = {tuple(rng.randint(1, 4) * (j == i) for j in range(n))
                 for i in range(n)}
        for _ in range(rng.randint(0, 3)):
            local.add(tuple(rng.randint(0, 3) for _ in range(n)))
        local.discard((0,) * n)
        gens = [tuple(dict(zip(cone, p)).get(i, 0)
                      for i in range(len(fan.rays))) for p in local]
        top = segre_class(MonomialIdeal(fan, tuple(gens))).pieces[n]
        multiplicity = factorial(n) * newton_region(local).volume
        assert top.values == {(): multiplicity}

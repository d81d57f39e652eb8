"""Derived fan data against fresh computations.

fan_from_max_cones reads extreme rays off the generators and hands them,
its H-representations, faces, cone dimensions and top cones to the fan
it returns; min_refinement hands over the rays and facets of its cells;
minimal_cone_containing locates points through the top cones;
pp_pullback keeps the home cones it finds; pushforward_witness, and
mw_of_pp with it, sums localized values instead of multiplying functions
out; pp_min picks the least piece from a table of values at the rays;
simplicial cones give their facets and ray functions from one dual
basis, min_refinement keeps a top cone whole where the minimum is
linear, a stellar subdivision keeps the cells of the top cones away
from its center, and the faces of a cone are its facets closed under
intersection, which facets, completeness and the coverage check of
common_refinement read. Each is checked here against an independent
computation: fresh polyhedra calls, scans over all cones, the product
route on the smooth resolution, the pairwise differences of pieces, the
rank-based search, the subset enumeration, a least-norm Gram solve, the
per-cell enumeration, the subdivision rebuilt from generators, and the
ridge and containment scans in tests/helpers.py. The smooth resolution
is itself an oracle kept in tests/helpers.py; its parallelotope points,
read off the Hermite form, are checked against a scan over a box of
lattice points.
"""
import gc
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (BILLERA_FANS, billera_fan, cauchy_bound,
                     covering_defect_by_sharers, displacement_past_bound,
                     faces_by_subset_scan, facets_by_inequalities,
                     degrees_by_resolution, fm_displaced_meets,
                     fm_pair_counted, integral_rows, invert_unimodular,
                     is_complete_by_ridge_scan, is_continuous,
                     pp_from_polynomial, pp_min_by_differences,
                     prism_face_fan, product_pushforward,
                     raises_every_proper_span,
                     parallelotope_point, parallelotope_point_by_box,
                     resolve_smooth, stellar_subdivision_by_generators,
                     subdivision_assignment_per_cone)
from test_weights import _cube_fan, _prism_fan
from tropchow import fans, linalg, piecewise, polyhedra, transforms, weights
from tropchow.polynomials import Polynomial

E3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
BASES = {
    "P2": (2, [[(1, 0), (0, 1)], [(1, 0), (-1, -1)], [(0, 1), (-1, -1)]]),
    "P1xP1": (2, [[(a, 0), (0, b)]
                  for a, b in itertools.product((1, -1), repeat=2)]),
    "P3": (3, [list(c) for c in itertools.combinations(E3, 3)]),
    "P1^3": (3, [[(a, 0, 0), (0, b, 0), (0, 0, c)]
                 for a, b, c in itertools.product((1, -1), repeat=3)]),
}


# the complete fan over the faces of the cube: no top cone is simplicial
CUBE = (3, [[r for r in itertools.product((1, -1), repeat=3) if r[i] == s]
            for i in range(3) for s in (1, -1)])


@st.composite
def _subdivided_fans(draw, bases=BASES, steps=3):
    """A base fan with 0 to steps stellar subdivisions at drawn nonzero
    cones."""
    rank, gens = bases[draw(st.sampled_from(sorted(bases)))]
    fan = fans.fan_from_max_cones(rank, gens)
    for _ in range(draw(st.integers(0, steps))):
        nonzero = fan.cones[1:]
        fan = fans.stellar_subdivision(
            fan, nonzero[draw(st.integers(0, len(nonzero) - 1))])
    return fan


FAN_ORACLE = settings(derandomize=True, deadline=None, max_examples=50)


def _fresh_hreps(fan):
    return {c: polyhedra.cone_constraints(fan.cone_rays(c), fan.rank)
            for c in fan.cones}


def _scan_minimal_cone(fan, hreps, point):
    """Every cone tested; the first of least dimension that holds the
    point wins."""
    best = None
    for c in fan.cones:
        if polyhedra.cone_contains(hreps[c], point):
            if best is None or (linalg.rank(fan.cone_rays(c))
                                < linalg.rank(fan.cone_rays(best))):
                best = c
    return best


def _box(rank, radius=2):
    return itertools.product(range(-radius, radius + 1), repeat=rank)


@FAN_ORACLE
@given(_subdivided_fans())
def test_handed_over_data_equals_fresh_computation(fan):
    hreps = _fresh_hreps(fan)
    assert fan.cones == tuple(sorted(
        fan.cones, key=lambda c: (linalg.rank(fan.cone_rays(c)), c)))
    for c in fan.cones:
        assert fan.cone_hrep(c) == hreps[c]
        assert fans._faces_as_keys(fan, c) == faces_by_subset_scan(
            c, fan.cone_rays(c), hreps[c][1])
        assert fan.cone_dim(c) == linalg.rank(fan.cone_rays(c))
    assert fans.validate_fan(fan) == []


@FAN_ORACLE
@given(_subdivided_fans())
def test_minimal_cone_equals_scan_over_all_cones(fan):
    hreps = _fresh_hreps(fan)
    points = list(_box(fan.rank)) + list(fan.rays)
    points += [fan.relint_point(c) for c in fan.cones]
    for p in points:
        found = fan.minimal_cone_containing(p)
        assert found == _scan_minimal_cone(fan, hreps, p)
        assert found is not None  # the fans are complete


def test_minimal_cone_outside_the_support():
    quadrant = fans.fan_from_max_cones(2, [[(1, 0), (0, 1)]])
    half = fans.fan_from_max_cones(2, [[(1, 0), (0, 1)], [(0, 1), (-1, 0)]])
    for fan in (quadrant, half):
        hreps = _fresh_hreps(fan)
        for p in _box(2):
            assert fan.minimal_cone_containing(p) == _scan_minimal_cone(
                fan, hreps, p)
        assert fan.minimal_cone_containing((0, -1)) is None
        assert fan.minimal_cone_containing((1, -1)) is None
    assert quadrant.minimal_cone_containing((-1, 0)) is None
    assert half.minimal_cone_containing((-1, 0)) == (half.rays.index((-1, 0)),)
    assert half.minimal_cone_containing((0, 0)) == ()


@FAN_ORACLE
@given(_subdivided_fans())
def test_generic_vector_equals_rank_search(fan):
    # v(t) past the bound that _pair_multiplicity states lies on no proper
    # span of a cone pair, and there a ray and a cone of complementary
    # dimension meet as the lexicographic rule says
    v = displacement_past_bound(fan)
    assert raises_every_proper_span(fan, v)
    for ray, cone in itertools.product(fan.cones_of_dim(1),
                                       fan.cones_of_dim(fan.rank - 1)):
        for s1, s2 in ((ray, cone), (cone, ray)):
            assert (weights._pair_multiplicity(fan, s1, s2) != 0) == (
                fm_pair_counted(fan, s1, s2, v)), (s1, s2)


def _fresh_sum_index(fan, sigma1, sigma2):
    """Index of the sum of two cone lattices, from fresh saturations."""
    merged = [[] for _ in range(fan.rank)]
    for s in (sigma1, sigma2):
        cols = [[r[i] for r in fan.cone_rays(s)] for i in range(fan.rank)]
        for row, extra in zip(merged, linalg.saturation_data(cols)[2]):
            row.extend(extra)
    return linalg.lattice_index(merged)


# smooth complete 3-fans; in F3 x P1 the rays (0, 1, 0), (-3, -1, 0) and
# (0, 0, 1) span a sublattice of index 3, and some such pairs meet
F3 = [(0, 1), (1, 0), (-3, -1), (-1, 0)]
SMOOTH_3FANS = {
    "P3": BASES["P3"], "P1^3": BASES["P1^3"],
    "F3xP1": (3, [[a + (0,), b + (0,), (0, 0, c)]
                  for a, b in zip(F3, F3[1:] + F3[:1]) for c in (1, -1)]),
}


@FAN_ORACLE
@given(_subdivided_fans(SMOOTH_3FANS), st.data())
def test_pair_multiplicity_equals_fourier_motzkin(fan, data):
    # the lexicographic signs against Fourier-Motzkin at a concrete v(t)
    v = displacement_past_bound(fan)
    assert fan.is_smooth()
    for _ in range(12):
        s1 = data.draw(st.sampled_from(fan.cones))
        # mostly pairs whose rays number at most the rank together, as in
        # mw_product, where the decision is one square solve
        square = [c for c in fan.cones if len(set(s1) | set(c)) <= fan.rank]
        s2 = data.draw(st.sampled_from(square) | st.sampled_from(fan.cones))
        rays = fan.cone_rays(s1) + fan.cone_rays(s2)
        fills = bool(rays) and linalg.rank(rays) == fan.rank
        mult = weights._pair_multiplicity(fan, s1, s2)
        # Fourier-Motzkin on fresh H-representations
        hreps = (polyhedra.cone_constraints(fan.cone_rays(s), fan.rank)
                 for s in (s1, s2))
        assert (mult != 0) == (fills and fm_displaced_meets(*hreps, v))
        if mult:
            assert mult == _fresh_sum_index(fan, s1, s2)


def test_pair_multiplicity_above_one_on_a_smooth_fan():
    fan = fans.fan_from_max_cones(*SMOOTH_3FANS["F3xP1"])
    ray, plane = fan.rays.index((-3, -1, 0)), tuple(sorted(
        fan.rays.index(r) for r in ((0, 1, 0), (0, 0, 1))))
    assert fan.is_smooth() and plane in fan.cones
    assert weights._pair_multiplicity(fan, plane, (ray,)) == 3
    assert fm_displaced_meets(fan.cone_hrep(plane), fan.cone_hrep((ray,)),
                              displacement_past_bound(fan))


E4 = [tuple(int(i == j) for j in range(4)) for i in range(4)] + [(-1,) * 4]
RANK4 = {
    "P4": (4, [list(c) for c in itertools.combinations(E4, 4)]),
    "P1^4": (4, [[tuple(s * x for x in e) for s, e in zip(signs, E4)]
                 for signs in itertools.product((1, -1), repeat=4)]),
}


@settings(derandomize=True, deadline=None, max_examples=16)
@given(_subdivided_fans(RANK4, steps=2), st.data())
def test_rank4_products_equal_function_products(fan, data):
    """mw_product in rank 4, over every degree split: against the weight of
    the product of functions, and against itself with the operands
    swapped, which displaces by -v(t) and so reads every sign the other
    way. Budget: under 3 s in all."""
    ray = st.integers(0, len(fan.rays) - 1)

    def function(degree):
        # a sum of two ray monomials, the second scaled
        out = weights.courant_monomial(fan, [data.draw(ray)
                                             for _ in range(degree)])
        mono = weights.courant_monomial(fan, [data.draw(ray)
                                              for _ in range(degree)])
        return out + mono.scale(data.draw(st.integers(-2, 2)))
    for i, j in itertools.product(range(5), repeat=2):
        if i + j > fan.rank:
            continue
        f, g = function(i), function(j)
        a, b = weights.mw_of_pp(f, i), weights.mw_of_pp(g, j)
        product = weights.mw_product(a, b)
        assert product == weights.mw_of_pp(f * g, i + j), (i, j)
        assert product == weights.mw_product(b, a), (i, j)


def test_generic_vector_on_special_fans():
    p2 = fans.fan_from_max_cones(*BASES["P2"])
    p3 = fans.fan_from_max_cones(*BASES["P3"])
    line = tuple(sorted(p3.rays.index(r) for r in E3[:2]))
    # a ray through (1, 2) and one through (1, 3) rule out t = 2 and 3
    steep = fans.insert_ray(fans.insert_ray(p2, (1, 2)), (1, 3))
    for fan in (fans.stellar_subdivision(p3, line), steep,
                fans.fan_from_max_cones(*SMOOTH_3FANS["F3xP1"]),
                fans.fan_from_max_cones(0, [])):
        # the least t past every row's own bound, and the stated bound
        t = math.ceil(cauchy_bound(fan))
        v = tuple(t ** i for i in range(fan.rank))
        assert all(x <= y for x, y in zip(v, displacement_past_bound(fan)))
        assert raises_every_proper_span(fan, v)
        for s1, s2 in itertools.product(fan.cones, repeat=2):
            assert (weights._pair_multiplicity(fan, s1, s2) != 0) == (
                fm_pair_counted(fan, s1, s2, v)), (s1, s2)
    assert not any(raises_every_proper_span(steep, (1, t)) for t in (2, 3))


def test_fan_from_max_cones_computes_each_hrep_once(monkeypatch):
    calls = {"_constraints_and_basis": 0, "rank": 0, "_face_keys": 0}

    def count(module, name):
        compute = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return compute(*args)
        monkeypatch.setattr(module, name, counted)

    # every H-rep, the fan's own and cone_constraints', is computed here
    count(polyhedra, "_constraints_and_basis")
    count(linalg, "rank")
    count(fans, "_face_keys")
    p3 = fans.fan_from_max_cones(*BASES["P3"])
    # one H-rep per generator list; no face search and no rank, since the
    # faces of a simplicial cell are the subsets of its rays
    assert calls == {"_constraints_and_basis": 4, "rank": 0,
                     "_face_keys": 0}
    bl = fans.stellar_subdivision(p3, p3.max_cones[0])
    assert len(bl.max_cones) == 6 and len(bl.cones) == 1 + 5 + 9 + 6
    # the 3 top cones away from the center keep P3's cells; only the 3
    # cones over the center's facets are computed
    assert calls == {"_constraints_and_basis": 4 + 3, "rank": 0,
                     "_face_keys": 0}
    for m in p3.max_cones[1:]:
        key = tuple(sorted(bl.rays.index(r) for r in p3.cone_rays(m)))
        assert key in bl.max_cones
        assert bl.cone_hrep(key) is p3.cone_hrep(m)
    for m in bl.max_cones:
        bl.cone_hrep(m)
        bl.facets_of(m)
        fans._faces_as_keys(bl, m)
        assert bl.cone_contains(m, bl.relint_point(m))
    for c in bl.cones:
        bl.cone_dim(c)
        # locating a point asks for no H-rep of a lower cone either
        assert bl.minimal_cone_containing(bl.relint_point(c)) == c
    assert calls == {"_constraints_and_basis": 7, "rank": 0,
                     "_face_keys": 0}
    # a cell that is not simplicial searches its faces once, when built
    cube = fans.fan_from_max_cones(*CUBE)
    assert calls["_face_keys"] == len(cube.max_cones) == 6
    for m in cube.max_cones:
        fans._faces_as_keys(cube, m)
    assert calls["_face_keys"] == 6


# ---------------------------------------------------------------------------
# rays read off generators, cells handed over by min_refinement


def _fresh_rays(gens, rank):
    """Extreme rays by the full conversion, or None for a cone with a
    line."""
    try:
        return polyhedra.rays_from_constraints(
            polyhedra.cone_constraints(gens, rank), rank)
    except ValueError:
        return None


@st.composite
def _generator_lists(draw):
    """Generators with duplicates, positive combinations and multiples."""
    rank = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-2, 2)] * rank)
    gens = draw(st.lists(vec, min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        s, t = draw(st.integers(0, 3)), draw(st.integers(1, 3))
        gens.append(tuple(s * x + t * y for x, y in zip(a, b)))
    gens += draw(st.lists(st.sampled_from(gens), max_size=2))
    return rank, draw(st.permutations(gens))


@FAN_ORACLE
@given(_generator_lists())
def test_rays_read_off_generators_equal_full_conversion(data):
    rank, gens = data
    fresh = _fresh_rays(gens, rank)
    if fresh is None:
        with pytest.raises(ValueError, match="contains a line"):
            fans.fan_from_max_cones(rank, [gens])
        return
    fan = fans.fan_from_max_cones(rank, [gens])
    assert fan.rays == fresh
    top = fan.cones[-1]
    assert fan.cone_rays(top) == list(fresh)
    assert fan.cone_hrep(top) == polyhedra.cone_constraints(gens, rank)
    assert fans.validate_fan(fan) == []


@FAN_ORACLE
@given(_generator_lists(), st.data())
def test_generators_with_a_line_are_refused(data, draw):
    rank, gens = data
    v = draw.draw(st.sampled_from([g for g in gens if any(g)] or [(1,) * rank]))
    gens = gens + [tuple(-x for x in v)] + [tuple(2 * x for x in v)]
    with pytest.raises(ValueError, match="contains a line"):
        fans.fan_from_max_cones(rank, [gens])


def _scan_max_cones(fan):
    return tuple(c for c in fan.cones
                 if not any(set(c) < set(d) for d in fan.cones))


@st.composite
def _overlapping_cone_lists(draw):
    """Generator lists drawn from one pool of vectors, so that cones share
    rays, repeat or hold the rays of another: the fans need not be
    valid."""
    rank = draw(st.integers(1, 3))
    pool = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * rank),
                         min_size=1, max_size=6, unique=True))
    return rank, draw(st.lists(st.lists(st.sampled_from(pool), min_size=1,
                                        max_size=4), max_size=5))


@FAN_ORACLE
@given(_subdivided_fans())
def test_top_cones_equal_the_scan_over_all_cones(fan):
    assert fan.max_cones == _scan_max_cones(fan)


@FAN_ORACLE
@given(_overlapping_cone_lists())
def test_top_cones_of_overlapping_cones_equal_the_scan(data):
    rank, lists = data
    try:
        fan = fans.fan_from_max_cones(rank, lists)
    except ValueError:  # some generator list spans a line
        return
    assert fan.max_cones == _scan_max_cones(fan)
    assert fans.Fan(rank, fan.rays, fan.cones).max_cones == fan.max_cones


def test_top_cones_of_special_fans():
    for rank, lists in ((0, []), (2, []), (2, [[(0, 0)]])):
        assert fans.fan_from_max_cones(rank, lists).max_cones == ((),)
    # a diagonal of a square cone: its rays, not a face
    square = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    fan = fans.fan_from_max_cones(3, [square, square[::2]])
    assert fan.max_cones == _scan_max_cones(fan) == ((0, 1, 2, 3),)


@FAN_ORACLE
@given(_subdivided_fans())
def test_handed_over_rays_equal_fresh_conversion(fan):
    for m in fan.max_cones:
        assert tuple(fan.cone_rays(m)) == polyhedra.rays_from_constraints(
            fan.cone_hrep(m), fan.rank)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(_subdivided_fans(), st.data())
def test_min_refinement_cells_equal_fresh_conversion(fan, draw):
    coeffs = st.lists(st.integers(-2, 2), min_size=fan.rank,
                      max_size=fan.rank)
    functions = [
        pp_from_polynomial(
            fan, Polynomial.linear(draw.draw(coeffs)))
        for _ in range(draw.draw(st.integers(2, 3)))]
    ray = draw.draw(st.integers(0, len(fan.rays) - 1))
    functions.append(piecewise.courant_function(fan, ray))
    refined, _ = piecewise.min_refinement(fan, functions)
    for c in refined.cones:
        hrep = polyhedra.cone_constraints(refined.cone_rays(c), fan.rank)
        assert refined.cone_hrep(c) == hrep
        assert fans._faces_as_keys(refined, c) == faces_by_subset_scan(
            c, refined.cone_rays(c), hrep[1])
    for m in refined.max_cones:
        assert tuple(refined.cone_rays(m)) == polyhedra.rays_from_constraints(
            refined.cone_hrep(m), fan.rank)
    assert fans.validate_fan(refined) == []
    assert refined == fans.fan_from_max_cones(
        fan.rank, [refined.cone_rays(m) for m in refined.max_cones])


# ---------------------------------------------------------------------------
# faces, facets, completeness and coverage read off the kept faces


def assert_faces_equal_the_scans(fan):
    """Every face question of the fan against the scans it replaced."""
    for c in fan.cones:
        assert fans._faces_as_keys(fan, c) == faces_by_subset_scan(
            c, fan.cone_rays(c), fan.cone_hrep(c)[1])
        assert fan.facets_of(c) == facets_by_inequalities(fan, c)
    assert fan.is_complete() == is_complete_by_ridge_scan(fan)


@pytest.mark.parametrize("name", ["cube", "prism 3", "prism 6", "prism 8"]
                         + BILLERA_FANS)
def test_faces_equal_the_subset_scan(name):
    # the cube and prism fans: no top cone, or only the two caps, simplicial
    if name == "cube":
        fan = _cube_fan()
    elif name == "prism 3":
        fan = _prism_fan()
    elif name.startswith("prism"):
        fan = prism_face_fan(int(name.split()[1]))
    else:
        fan = billera_fan(name)
    assert_faces_equal_the_scans(fan)
    assert fan.is_complete()
    assert fans._covering_defect(fan, fan) is None
    assert covering_defect_by_sharers(fan, fan) is None


def _refinement_draws(rng, count):
    """Seeded (fan, min_refinement of it) pairs: the bases, the cube and
    one stellar subdivision of each, and simplicial cones of lower
    dimension, cut by the least of 2 or 3 drawn linear functions and,
    on a simplicial fan, a drawn ray function."""
    full = [fans.fan_from_max_cones(*b) for b in [*BASES.values(), CUBE]]
    full += [fans.stellar_subdivision(f, f.max_cones[0]) for f in full]
    for _ in range(count):
        if rng.random() < 0.7:
            fan = rng.choice(full)
        else:
            rank = rng.choice((3, 4))
            gens = [tuple(rng.randint(-2, 2) for _ in range(rank))
                    for _ in range(rank - 1)]
            if linalg.rank(gens) < rank - 1:
                continue
            fan = fans.fan_from_max_cones(rank, [gens])
        functions = [pp_from_polynomial(fan, Polynomial.linear(
            [rng.randint(-2, 2) for _ in range(fan.rank)]))
            for _ in range(rng.randint(2, 3))]
        if all(len(m) == fan.cone_dim(m) for m in fan.max_cones):
            functions.append(piecewise.courant_function(
                fan, rng.randrange(len(fan.rays))))
        yield fan, piecewise.min_refinement(fan, functions)[0]


def test_faces_of_min_refinement_cells_equal_the_scans():
    non_simplicial = lower = 0
    for fan, refined in _refinement_draws(random.Random(27), 40):
        assert_faces_equal_the_scans(refined)
        assert fans._covering_defect(fan, refined) is None
        assert covering_defect_by_sharers(fan, refined) is None
        # without one cell the refinement no longer covers the fan
        gone = refined.max_cones[-1]
        holed = fans.fan_from_cells(refined.rank, [
            fans._top_cell(refined, m) for m in refined.max_cones
            if m != gone])
        defect = fans._covering_defect(fan, holed)
        assert defect is not None
        assert defect == covering_defect_by_sharers(fan, holed)
        non_simplicial += sum(len(m) > refined.cone_dim(m)
                              for m in refined.max_cones)
        lower += refined.cone_dim(refined.max_cones[0]) < refined.rank
    assert non_simplicial > 0 and lower > 0


def test_facets_read_off_rows_in_a_lower_dimensional_span():
    # the cone spanned by (1, 0, 0) and (1, 1, 0) inside the plane z = 0:
    # its facets within the plane are y >= 0 and x - y >= 0, read off the
    # dual basis of its rays, or off the double description when a
    # redundant generator (2, 1, 0) makes the generators dependent
    rays = [(1, 0, 0), (1, 1, 0)]
    hrep = (((0, 0, 1),), ((0, 1, 0), (1, -1, 0)))
    assert polyhedra.cone_constraints(rays, 3) == hrep
    assert fans._cell(3, rays) == (
        tuple(rays), hrep, polyhedra.dual_basis(rays))
    assert fans._cell(3, sorted(rays + [(2, 1, 0)])) == (
        tuple(rays), hrep, None)


def _scan_assignment(fine, coarse):
    """Minimal coarse cone of each fine cone's interior point by a scan
    over all coarse cones, each ray checked against its fresh H-rep; None
    when some cone does not refine the coarse fan."""
    hreps = _fresh_hreps(coarse)
    out = {}
    for c in fine.cones:
        target = _scan_minimal_cone(coarse, hreps, fine.relint_point(c))
        if target is None or not all(polyhedra.cone_contains(hreps[target], r)
                                     for r in fine.cone_rays(c)):
            return None
        out[c] = target
    return out


@FAN_ORACLE
@given(_subdivided_fans(), st.data())
def test_subdivision_assignment_equals_scan(fan, draw):
    name = draw.draw(st.sampled_from(sorted(BASES)))
    coarse = fans.fan_from_max_cones(*BASES[name])
    for fine, target in ((fan, coarse), (coarse, fan), (fan, fan)):
        try:
            got = fans.subdivision_assignment(fine, target)
        except ValueError:
            got = None
        assert got == _scan_assignment(fine, target)


def _meet(fan, a, b):
    """Extreme rays of the meet of two cones, from the union of their
    H-reps."""
    (ea, ia), (eb, ib) = fan.cone_hrep(a), fan.cone_hrep(b)
    return polyhedra.rays_from_constraints((ea + eb, ia + ib), fan.rank)


def _pp_space_basis_by_intersection(fan, degree):
    """pp_space_basis with each meet of top cones from their H-reps."""
    monos = piecewise._degree_monomials(fan.rank, degree)
    cols = [(m, e) for m in fan.max_cones for e in monos]
    col_index = {c: i for i, c in enumerate(cols)}
    rows = []
    for a, b in itertools.combinations(fan.max_cones, 2):
        shared = _meet(fan, a, b)
        if not shared:
            continue
        for pt in piecewise._grid_points(list(shared), fan.rank, degree):
            row = [0] * len(cols)
            for e in monos:
                val = 1
                for x, k in zip(pt, e):
                    val *= x ** k
                row[col_index[(a, e)]] += val
                row[col_index[(b, e)]] -= val
            rows.append(row)
    return linalg.nullspace(rows or [[0] * len(cols)])


def _continuous_by_intersection(f):
    fan = f.fan
    for a, b in itertools.combinations(fan.max_cones, 2):
        shared = _meet(fan, a, b)
        for pt in piecewise._grid_points(list(shared), fan.rank,
                                         f.max_degree()):
            if f.pieces[a].value(pt) != f.pieces[b].value(pt):
                return False
    return True


@settings(derandomize=True, deadline=None, max_examples=25)
@given(_subdivided_fans(), st.data())
def test_meets_of_top_cones_from_shared_rays(fan, draw):
    degree = draw.draw(st.integers(0, 2))
    assert piecewise.pp_space_basis(fan, degree) == (
        _pp_space_basis_by_intersection(fan, degree))
    f = weights.courant_monomial(fan, draw.draw(st.lists(
        st.integers(0, len(fan.rays) - 1), max_size=2)))
    m = draw.draw(st.sampled_from(fan.max_cones))
    bump = Polynomial.linear(draw.draw(st.lists(
        st.integers(-1, 1), min_size=fan.rank, max_size=fan.rank)))
    g = piecewise.PiecewisePolynomial(fan, {
        c: p + bump if c == m else p for c, p in f.pieces.items()})
    assert is_continuous(f) and _continuous_by_intersection(f)
    assert is_continuous(g) == _continuous_by_intersection(g)


# ---------------------------------------------------------------------------
# home cones of pullbacks


def _scan_homes(source, matrix, target):
    """Every top cone of the target tested in order, for every source top
    cone; None when some image has no home."""
    hreps = {c: polyhedra.cone_constraints(target.cone_rays(c), target.rank)
             for c in target.max_cones}
    homes = {}
    for m in source.max_cones:
        images = [linalg.mat_vec(matrix, r) for r in source.cone_rays(m)]
        found = [c for c in target.max_cones
                 if all(polyhedra.cone_contains(hreps[c], v) for v in images)]
        if not found:
            return None
        homes[m] = found[0]
    return homes


def _homes_or_refusal(source, matrix, target):
    try:
        return piecewise.cone_homes(source, matrix, target)
    except ValueError:
        return None


@settings(derandomize=True, deadline=None, max_examples=25)
@given(_subdivided_fans(), st.data())
def test_pullback_homes_equal_linear_scan(fan, draw):
    rank, gens = BASES[draw.draw(st.sampled_from(sorted(BASES)))]
    if rank != fan.rank:
        gens = BASES["P2" if fan.rank == 2 else "P3"][1]
    base = fans.fan_from_max_cones(fan.rank, gens)
    signs = draw.draw(st.lists(st.sampled_from((1, -1)), min_size=fan.rank,
                               max_size=fan.rank))
    perm = draw.draw(st.permutations(range(fan.rank)))
    signed = [[signs[i] * (j == perm[i]) for j in range(fan.rank)]
              for i in range(fan.rank)]
    ident = linalg.identity_matrix(fan.rank)
    for source, matrix, target in ((fan, ident, base), (fan, signed, base),
                                   (fan, ident, fan), (fan, signed, fan),
                                   (fan, ident, base)):
        assert _homes_or_refusal(source, matrix, target) == _scan_homes(
            source, matrix, target)


def test_pullback_homes_depend_on_the_matrix():
    p1p1 = fans.fan_from_max_cones(*BASES["P1xP1"])
    swap, neg = [[0, 1], [1, 0]], [[-1, 0], [0, -1]]
    shear = [[1, 1], [0, 1]]  # maps the cone over (1, 0), (0, 1) nowhere
    for matrix in (linalg.identity_matrix(2), swap, neg, swap, shear):
        assert _homes_or_refusal(p1p1, matrix, p1p1) == _scan_homes(
            p1p1, matrix, p1p1)
    assert _scan_homes(p1p1, shear, p1p1) is None
    found = [piecewise.cone_homes(p1p1, m, p1p1)
             for m in (linalg.identity_matrix(2), swap, neg)]
    assert all(a != b for a, b in itertools.combinations(found, 2))
    # images in several top cones go to the first of them
    for matrix in ([[0, 0], [0, 0]], [[1, 0], [0, 0]], [[0, 0], [0, 1]]):
        homes = piecewise.cone_homes(p1p1, matrix, p1p1)
        assert homes == _scan_homes(p1p1, matrix, p1p1)
    assert set(piecewise.cone_homes(p1p1, [[0, 0], [0, 0]], p1p1).values()) \
        == {p1p1.max_cones[0]}


@settings(derandomize=True, deadline=None, max_examples=12)
@given(st.sampled_from(["P3", "P1^3"]), st.data())
def test_stellar_step_pullback_homes_equal_linear_scan(name, draw):
    # blowing up a line maps the exceptional star (rank 2) onto the star
    # of the line (rank 1) by a 1 x 2 matrix
    base = fans.fan_from_max_cones(*BASES[name])
    center = draw.draw(st.sampled_from(base.cones_of_dim(2)))
    ray = linalg.primitive_vector(base.relint_point(center))
    step = transforms._StellarStep(base, center, ray,
                                   fans.stellar_subdivision(base, center))
    source, target = step.exc_star.fan, step.cen_star.fan
    assert len(step.pull_matrix) == 1 and len(step.pull_matrix[0]) == 2
    homes = _scan_homes(source, step.pull_matrix, target)
    assert piecewise.cone_homes(source, step.pull_matrix, target) == homes
    f = weights.courant_monomial(target, draw.draw(st.sampled_from(
        target.cones)))
    pulled = piecewise.pp_pullback(source, step.pull_matrix, f)
    for m, home in homes.items():
        assert pulled.pieces[m] == f.pieces[home].compose_linear(
            step.pull_matrix)


# ---------------------------------------------------------------------------
# Minkowski weights from localized values


def _scan_pullback(source, matrix, target_pp):
    homes = _scan_homes(source, matrix, target_pp.fan)
    return piecewise.PiecewisePolynomial(source, {
        m: target_pp.pieces[h].compose_linear(matrix)
        for m, h in homes.items()})


def _product_localization_degree(f):
    """The degree by the full product route: pull back to the smooth
    resolution by the scan over top cones, then localize there by the
    integer inverses of the ray matrices (degrees_by_resolution, which
    finds that fan smooth)."""
    fan = f.fan
    if not fan.is_smooth():
        f = _scan_pullback(resolve_smooth(fan),
                           linalg.identity_matrix(fan.rank), f)
    return degrees_by_resolution([f])[0]


def _product_mw(f, codim):
    fan = f.fan
    return weights.MinkowskiWeight(fan, codim, {
        tau: _product_localization_degree(
            f * weights.courant_monomial(fan, tau))
        for tau in fan.cones_of_dim(fan.rank - codim)})


WEIGHTED = {
    # weighted projective plane P(1, 1, 2) and space P(1, 1, 1, 2)
    "P(1,1,2)": (2, [[(1, 0), (0, 1)], [(0, 1), (-1, -2)],
                     [(1, 0), (-1, -2)]]),
    "P(1,1,1,2)": (3, [list(c) for c in itertools.combinations(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)], 3)]),
}


@st.composite
def _functions(draw, fan):
    """A combination of ray monomials of mixed degrees, with a constant."""
    f = piecewise.PiecewisePolynomial.constant(fan, draw(st.integers(-2, 2)))
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, fan.rank))
        mono = draw(st.lists(st.integers(0, len(fan.rays) - 1),
                             min_size=degree, max_size=degree))
        coeff = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
        f = f + weights.courant_monomial(fan, mono).scale(coeff)
    return f


@FAN_ORACLE
@given(_subdivided_fans(), st.data())
def test_mw_of_pp_equals_product_route(fan, draw):
    f = draw.draw(_functions(fan))
    codim = draw.draw(st.integers(0, fan.rank))
    assert weights.mw_of_pp(f, codim) == _product_mw(f, codim)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.sampled_from(sorted(WEIGHTED)), st.data())
def test_mw_of_pp_equals_product_route_on_weighted_spaces(name, draw):
    fan = fans.fan_from_max_cones(*WEIGHTED[name])
    assert not fan.is_smooth()
    f = draw.draw(_functions(fan))
    codim = draw.draw(st.integers(0, fan.rank))
    assert weights.mw_of_pp(f, codim) == _product_mw(f, codim)
    assert weights.localization_degree(f) == _product_localization_degree(f)


SMOOTH_BASES = {**BASES, **RANK4}


@pytest.mark.parametrize("steps", [0, 1, 2])
@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.sampled_from(sorted(SMOOTH_BASES)), st.data())
def test_pushforward_equals_product_route(steps, name, draw):
    """pushforward_witness from a smooth complete fan after 0 to 2 stellar
    subdivisions at cones of dimension 2 and up to the fan itself, in
    every codimension, against the product route. Budget: under 3 s for
    all three step counts."""
    target = fans.fan_from_max_cones(*SMOOTH_BASES[name])
    source = target
    for _ in range(steps):
        cones = [c for c in source.cones if len(c) > 1]
        source = fans.stellar_subdivision(source, draw.draw(
            st.sampled_from(cones)))
    f = draw.draw(_functions(source))
    for codim in range(target.rank + 1):
        assert weights.pushforward_witness(source, f, codim, target) == (
            product_pushforward(source, f, codim, target)), codim


@settings(derandomize=True, deadline=None, max_examples=10)
@given(st.data())
def test_pushforward_from_a_non_smooth_source(draw):
    p2 = fans.fan_from_max_cones(*BASES["P2"])
    source = fans.insert_ray(p2, (1, 2))
    assert not source.is_smooth()
    f = draw.draw(_functions(source))
    for codim in range(3):
        assert weights.pushforward_witness(source, f, codim, p2) == (
            product_pushforward(source, f, codim, p2)), codim


def test_pushforward_refusals_equal_the_product_route():
    p2 = fans.fan_from_max_cones(*BASES["P2"])
    p1xp1 = fans.fan_from_max_cones(*BASES["P1xP1"])
    # the cube fan with every face subdivided at its centre is simplicial;
    # the cube fan has no ray functions, but degrees need none
    cube = fans.fan_from_max_cones(*CUBE)
    source = cube
    for m in cube.max_cones:
        source = fans.stellar_subdivision(source, tuple(sorted(
            source.rays.index(r) for r in cube.cone_rays(m))))
    centre = piecewise.courant_function(source, source.rays.index((1, 0, 0)))
    f = centre * centre * centre
    for route in (weights.pushforward_witness, product_pushforward):
        for codim in range(3):
            with pytest.raises(ValueError, match="no target cone"):
                route(p1xp1, piecewise.courant_function(p1xp1, 0), codim, p2)
            with pytest.raises(ValueError, match="not simplicial"):
                route(source, f, codim, cube)
    degree = weights.pushforward_witness(source, f, 3, cube)
    assert degree == product_pushforward(source, f, 3, cube)
    assert not degree.is_zero()


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_subdivided_fans(), st.data())
def test_pp_min_equals_pairwise_differences(fan, draw):
    """The same winning piece on every top cone, or the same refusal."""
    functions = draw.draw(_courant_combinations(fan))
    try:
        expected = pp_min_by_differences(fan, functions)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            piecewise.pp_min(fan, functions)
        return
    minimum = piecewise.pp_min(fan, functions)
    assert all(minimum.pieces[m] is expected.pieces[m]
               for m in fan.max_cones)


def test_pp_min_refusals_equal_pairwise_differences():
    p2 = fans.fan_from_max_cones(*BASES["P2"])
    x, y = (piecewise.courant_function(p2, i) for i in (1, 2))
    square = x * x
    for route in (piecewise.pp_min, pp_min_by_differences):
        with pytest.raises(ValueError, match="minimum is not linear"):
            route(p2, [x, y])
        with pytest.raises(ValueError, match="not homogeneous linear"):
            route(p2, [x, square])
        assert route(p2, [x, x + y]).pieces == x.pieces


def test_discontinuous_function_has_no_weight():
    # a function that is x^2 on one top cone and 0 elsewhere localizes to
    # a rational function that is not constant
    for fan in (fans.fan_from_max_cones(*BASES["P2"]),
                fans.fan_from_max_cones(*WEIGHTED["P(1,1,2)"])):
        square = Polynomial(2, {(2, 0): 1})
        f = piecewise.PiecewisePolynomial(fan, {
            m: square if m == fan.max_cones[0] else Polynomial.zero(2)
            for m in fan.max_cones})
        for route in (weights.localization_degree,
                      _product_localization_degree):
            with pytest.raises((ArithmeticError, AssertionError)):
                route(f)
        with pytest.raises(ArithmeticError, match="inconsistent"):
            weights.localization_degree(f)
        with pytest.raises(ArithmeticError, match="inconsistent"):
            weights.mw_of_pp(f, 2)


def test_weighted_plane_degrees():
    fan = fans.fan_from_max_cones(*WEIGHTED["P(1,1,2)"])
    d = {r: piecewise.courant_function(fan, i) for i, r in enumerate(fan.rays)}
    # D_(-1,-2)^2 = 1/2 and D_(1,0) . D_(-1,-2) = 1/2 on P(1, 1, 2)
    w = weights.mw_of_pp(d[(-1, -2)], 1)
    assert w.values == {(0,): Fraction(1, 2), (1,): 1, (2,): Fraction(1, 2)}
    # D_(0,1)^2 = 2 and D_(-1,-2) . D_(0,1) = 1, by both routes
    for a, b, degree in (((-1, -2), (-1, -2), Fraction(1, 2)),
                         ((0, 1), (0, 1), 2), ((-1, -2), (0, 1), 1)):
        product = d[a] * d[b]
        assert weights.localization_degree(product) == degree
        assert _product_localization_degree(product) == degree


def test_resolution_is_kept_per_fan_object():
    fan = fans.fan_from_max_cones(*WEIGHTED["P(1,1,2)"])
    fine = resolve_smooth(fan)
    assert fine.is_smooth() and resolve_smooth(fan) is fine
    p2 = fans.fan_from_max_cones(*BASES["P2"])
    assert resolve_smooth(p2) is p2


# ---------------------------------------------------------------------------
# conversions and searches not repeated


def test_building_and_pulling_back_repeat_no_search(monkeypatch):
    calls = {"rays_from_constraints": 0, "cone_contains": 0}

    def count(name):
        compute = getattr(polyhedra, name)

        def counted(*args):
            calls[name] += 1
            return compute(*args)
        monkeypatch.setattr(polyhedra, name, counted)

    count("rays_from_constraints")
    count("cone_contains")
    p3 = fans.fan_from_max_cones(*BASES["P3"])
    bl = fans.stellar_subdivision(p3, p3.max_cones[0])
    assert calls["rays_from_constraints"] == 0
    ident = linalg.identity_matrix(3)
    f = piecewise.courant_function(p3, 0)
    first = piecewise.pp_pullback(bl, ident, f)
    searched = calls["cone_contains"]
    assert searched > 0
    second = piecewise.pp_pullback(bl, ident, f * f)
    assert calls["cone_contains"] == searched
    assert second == first * first
    piecewise.pp_pullback(bl, [list(r) for r in ident], f)
    assert calls["cone_contains"] == searched
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]  # a symmetry of P3
    piecewise.pp_pullback(bl, swap, f)
    assert calls["cone_contains"] > searched
    assert calls["rays_from_constraints"] == 0


# ---------------------------------------------------------------------------
# simplicial cones read off one dual basis


def _subset_cone_constraints(generators, ambient_dim):
    """Constraint form by trying every (d-1)-subset of generators as the
    rays of a facet, for independent generators too."""
    gens = [tuple(g) for g in generators if any(g)]
    eqs = linalg.primitive_kernel(gens if gens else [[0] * ambient_dim])
    if not gens:
        return tuple(sorted(eqs)), ()
    d = linalg.rank(gens)
    basis = []
    for g in gens:
        if linalg.rank(basis + [g]) > len(basis):
            basis.append(g)
    dot = polyhedra._dot
    ineqs = set()
    for subset in itertools.combinations(gens, d - 1):
        gram = [[dot(b, s) for b in basis] for s in subset]
        ns = linalg.primitive_kernel(gram if gram else [[0] * d])
        if len(ns) != 1:
            continue
        w = tuple(sum(t * b[j] for t, b in zip(ns[0], basis))
                  for j in range(ambient_dim))
        signs = {(dot(w, g) > 0) - (dot(w, g) < 0) for g in gens} - {0}
        if len(signs) == 1:
            sign = signs.pop()
            ineqs.add(linalg.primitive_vector([sign * x for x in w]))
    return tuple(sorted(eqs)), tuple(sorted(ineqs))


def _least_norm_functional(rays, values, rank):
    """The linear functional with given values on independent rays that
    lies in their span, by a Fraction Gram solve."""
    gram = [[sum(a * b for a, b in zip(r, s)) for s in rays] for r in rays]
    w = linalg.solve(gram, values)
    return [sum(w[i] * rays[i][j] for i in range(len(rays)))
            for j in range(rank)]


@st.composite
def _independent_generators(draw):
    """1-3 independent, not necessarily primitive generators spanning a
    proper subspace of Z^3 or Z^4."""
    rank = draw(st.sampled_from((3, 4)))
    k = draw(st.integers(1, min(3, rank - 1)))
    vec = st.tuples(*[st.integers(-3, 3)] * rank)
    gens = draw(st.lists(vec, min_size=k, max_size=k).filter(
        lambda gs: linalg.rank(gs) == k))
    scales = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    return rank, [tuple(s * x for x in g) for s, g in zip(scales, gens)]


def _check_dual_basis(rays):
    basis = polyhedra.dual_basis(rays)
    assert len(basis) == len(rays)
    for i, (u, p) in enumerate(basis):
        assert p != 0 and all(type(x) is int for x in u)
        assert [sum(a * b for a, b in zip(u, r)) for r in rays] == [
            p * (i == j) for j in range(len(rays))]
        assert linalg.rank(list(rays) + [u]) == len(rays)


@FAN_ORACLE
@given(_independent_generators())
def test_independent_generators_read_off_the_dual_basis(data):
    rank, gens = data
    _check_dual_basis(gens)
    assert polyhedra.cone_constraints(gens, rank) == (
        _subset_cone_constraints(gens, rank))
    fan = fans.fan_from_max_cones(rank, [gens])
    (top,) = fan.max_cones
    assert fan.cone_dim(top) < rank
    for i in top:
        piece = piecewise.courant_function(fan, i).pieces[top]
        assert piece == Polynomial.linear(_least_norm_functional(
            fan.cone_rays(top), [int(j == i) for j in top], rank))


@FAN_ORACLE
@given(_independent_generators(), st.data())
def test_dual_basis_refuses_dependent_rays(data, draw):
    rank, gens = data
    a, b = draw.draw(st.integers(-2, 2)), draw.draw(st.integers(-2, 2))
    extra = tuple(a * x + b * y for x, y in zip(gens[0], gens[-1]))
    rays = draw.draw(st.permutations(gens + [extra]))
    with pytest.raises(ValueError, match="dependent"):
        polyhedra.dual_basis(rays)


@FAN_ORACLE
@given(_subdivided_fans())
def test_fan_cones_read_off_the_dual_basis(fan):
    for c in fan.cones:
        rays = fan.cone_rays(c)
        assert polyhedra.cone_constraints(rays, fan.rank) == (
            _subset_cone_constraints(rays, fan.rank))
        _check_dual_basis(rays)
    for i in range(len(fan.rays)):
        f = piecewise.courant_function(fan, i)
        for m in fan.max_cones:
            assert f.pieces[m] == Polynomial.linear(_least_norm_functional(
                fan.cone_rays(m), [int(j == i) for j in m], fan.rank))


def test_non_simplicial_generators_are_enumerated():
    square = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    plane = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0)]
    for gens in (square, plane, square + [(0, 0, 1)]):
        assert polyhedra.cone_constraints(gens, 3) == (
            _subset_cone_constraints(gens, 3))
    assert polyhedra.cone_constraints(square, 3)[1] == (
        (-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1))


def _enumerated_min_refinement(fan, functions):
    """min_refinement with every (top cone, function) cell enumerated from
    fresh H-reps, the fan built from generators and the minimum taken on
    pullbacks found by scanning."""
    cells = []
    for m in fan.max_cones:
        eqs, ineqs = polyhedra.cone_constraints(fan.cone_rays(m), fan.rank)
        linear = [f.pieces[m] for f in functions]
        for j, lj in enumerate(linear):
            rows = list(ineqs)
            for i, li in enumerate(linear):
                coeffs = piecewise._linear_coefficients(li - lj, fan.rank)
                if i != j and any(coeffs):
                    rows.append(linalg._integer_rows([coeffs])[0])
            cell = polyhedra.rays_from_constraints((eqs, tuple(rows)),
                                                   fan.rank)
            if linalg.rank(cell) == fan.cone_dim(m):
                cells.append(cell)
    refined = fans.fan_from_max_cones(fan.rank, cells)
    ident = linalg.identity_matrix(fan.rank)
    return refined, piecewise.pp_min(
        refined, [_scan_pullback(refined, ident, f) for f in functions])


@st.composite
def _courant_combinations(draw, fan):
    """Integer combinations of ray functions, some repeated or shifted by
    a multiple of one ray function, so that minima tie on whole cones."""
    rays = st.integers(0, len(fan.rays) - 1)
    functions = []
    for _ in range(draw(st.integers(1, 3))):
        f = piecewise.PiecewisePolynomial.zero(fan)
        for i in draw(st.lists(rays, min_size=1, max_size=3)):
            f = f + piecewise.courant_function(fan, i).scale(
                draw(st.integers(-2, 2)))
        functions.append(f)
    for _ in range(draw(st.integers(0, 2))):
        f = draw(st.sampled_from(functions))
        functions.append(f + piecewise.courant_function(
            fan, draw(rays)).scale(draw(st.integers(0, 1))))
    return draw(st.permutations(functions))


def _assert_same_refinement(fan, functions):
    refined, minimum = piecewise.min_refinement(fan, functions)
    expected, expected_min = _enumerated_min_refinement(fan, functions)
    assert refined.rays == expected.rays
    assert refined.cones == expected.cones
    for c in refined.cones:
        assert refined.cone_hrep(c) == polyhedra.cone_constraints(
            refined.cone_rays(c), fan.rank)
    assert minimum.pieces == expected_min.pieces


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_subdivided_fans(), st.data())
def test_min_refinement_equals_per_cell_enumeration(fan, draw):
    _assert_same_refinement(fan, draw.draw(_courant_combinations(fan)))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(_independent_generators(), st.data())
def test_min_refinement_on_a_lower_dimensional_cone(data, draw):
    rank, gens = data
    fan = fans.fan_from_max_cones(rank, [gens])
    _assert_same_refinement(fan, draw.draw(_courant_combinations(fan)))


def test_min_refinement_keeps_cones_where_the_minimum_is_linear(
        monkeypatch):
    calls = {"dual_basis": 0, "rays_from_constraints": 0, "split": 0}

    def count(name):
        compute = getattr(polyhedra, name)

        def counted(*args):
            calls[name] += 1
            return compute(*args)
        monkeypatch.setattr(polyhedra, name, counted)

    count("dual_basis")
    count("rays_from_constraints")
    count("split")
    p3 = fans.fan_from_max_cones(*BASES["P3"])
    centre = p3.max_cones[0]
    bl = fans.stellar_subdivision(p3, centre)
    # one elimination per simplicial top cone, made while building: its
    # H-rep and every ray function on it are read off the same one; the
    # 3 top cones the blowup keeps take P3's
    built = len(p3.max_cones) + len(bl.max_cones) - 3
    assert calls["dual_basis"] == built == 4 + 3
    rayfns = [piecewise.courant_function(bl, i) for i in range(len(bl.rays))]
    assert calls["dual_basis"] == built
    assert [piecewise.courant_function(bl, i)
            for i in range(len(bl.rays))] == rayfns
    # localization reads the same dual bases: on a smooth fan they are
    # the inverse ray matrices
    weights._localization(bl)
    assert calls["dual_basis"] == built
    for m in bl.max_cones:
        assert integral_rows(bl.cone_dual_basis(m)) == invert_unimodular(
            list(zip(*bl.cone_rays(m))))
    ident = linalg.identity_matrix(3)
    pulled = [piecewise.pp_pullback(bl, ident, piecewise.courant_function(
        p3, i)) for i in centre]
    refined, minimum = piecewise.min_refinement(bl, pulled)
    assert calls["split"] == 0
    assert refined == bl
    exc = bl.rays.index(linalg.primitive_vector(p3.relint_point(centre)))
    assert minimum.pieces == rayfns[exc].pieces
    # a minimum that bends inside a cone is still cut out: the two top
    # cones through both rays are each cut in two, out of their own rays
    mixed = [piecewise.courant_function(p3, i) for i in centre[:2]]
    refined, _ = piecewise.min_refinement(p3, mixed)
    assert calls["split"] > 0
    assert len(refined.max_cones) == len(p3.max_cones) + 2
    assert calls["rays_from_constraints"] == 0


def test_identity_pullback_reuses_pieces(monkeypatch):
    calls = []
    compose = Polynomial.compose_linear

    def counted(self, matrix):
        calls.append(matrix)
        return compose(self, matrix)
    monkeypatch.setattr(Polynomial, "compose_linear", counted)
    p3 = fans.fan_from_max_cones(*BASES["P3"])
    bl = fans.stellar_subdivision(p3, p3.max_cones[0])
    f = weights.courant_monomial(p3, [0, 1]) + piecewise.courant_function(
        p3, 2).scale(Fraction(1, 2))
    for ident in (linalg.identity_matrix(3),
                  [tuple(r) for r in linalg.identity_matrix(3)]):
        pulled = piecewise.pp_pullback(bl, ident, f)
        assert not calls
        for m, home in piecewise.cone_homes(bl, ident, p3).items():
            assert pulled.pieces[m] is f.pieces[home]
        assert pulled.pieces == _scan_pullback(bl, ident, f).pieces
        calls.clear()
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]  # symmetries of P3
    cycle = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    for matrix in (swap, cycle):
        pulled = piecewise.pp_pullback(bl, matrix, f)
        assert len(calls) == len(bl.max_cones)
        assert pulled.pieces == _scan_pullback(bl, matrix, f).pieces
        calls.clear()


# ---------------------------------------------------------------------------
# one object per live fan


def _p2_corner(fan):
    return tuple(sorted(fan.rays.index(r) for r in ((1, 0), (0, 1))))


def test_equal_fans_built_while_one_is_alive_are_one_object():
    p2 = fans.fan_from_max_cones(*BASES["P2"])
    # redundant, non-primitive generators, top cones in another order
    again = fans.fan_from_max_cones(2, [
        [(0, 3), (-2, -2)], [(2, 0), (0, 1), (1, 1)], [(-1, -1), (5, 0)]])
    assert again is p2
    blown = fans.stellar_subdivision(p2, _p2_corner(p2))
    assert fans.insert_ray(p2, (1, 1)) is blown
    assert fans.common_refinement(blown, p2) is blown
    # a minimum that is linear on every top cone refines nothing
    functions = [piecewise.courant_function(p2, 0),
                 piecewise.courant_function(p2, 0).scale(2)]
    assert piecewise.min_refinement(p2, functions)[0] is p2
    direct = fans.Fan(p2.rank, p2.rays, p2.cones)
    assert direct == p2 and direct is not p2
    assert fans.fan_from_max_cones(*BASES["P2"]) is p2


def _blowup_report(base, center, carrier):
    setup = transforms.BlowupSetup(base, center, carrier)
    cycle = transforms.ToricCycle(setup.modification, 1, {(0,): 1})
    return setup, transforms.verify_fulton_identity(cycle, setup)


def test_live_fan_table_holds_only_live_fans():
    gc.collect()
    before = set(fans._LIVE_FANS.keys())
    p2 = fans.fan_from_max_cones(*BASES["P2"])
    setup, report = _blowup_report(p2, _p2_corner(p2),
                                   fans.insert_ray(p2, (-1, 0)))
    assert report.verdict == "verified"
    live = set(fans._LIVE_FANS.keys())
    fine = setup.refined
    assert (fine.rank, fine.rays, fine.cones) in live
    assert all(step.result is fans._LIVE_FANS[
        step.result.rank, step.result.rays, step.result.cones]
        for step in setup.tower())
    del p2, setup, report, fine
    gc.collect()
    assert set(fans._LIVE_FANS.keys()) == before


def _recompute(fan, key):
    """The derived datum stored under a Fan.cached key, computed again on
    the given fan."""
    name, *args = key if isinstance(key, tuple) else (key,)
    compute = {
        "cones_by_dim": fan._cones_by_dim,
        "max_over": fan.max_cone_over,
        "smooth": fan.is_smooth,
        "dual_basis": fan.cone_dual_basis,
        "saturation": fan.cone_saturation,
        "multiplicity": fan.cone_multiplicity,
        "resolve_smooth": lambda: resolve_smooth(fan),
        "courant": lambda i: piecewise.courant_function(fan, i),
        "homes": lambda target, matrix: piecewise.cone_homes(
            fan, matrix, target),
        "assignment": lambda coarse: fans.subdivision_assignment(
            fan, coarse),
        "localization": lambda: weights._localization(fan),
        "ray_class": lambda mono: weights.ray_monomial_class(fan, mono),
        "star": lambda center: fans.star_fan(fan, center),
    }[name]
    return compute(*args)


def test_shared_derived_data_equals_a_fresh_fan():
    p1xp1 = fans.fan_from_max_cones(*BASES["P1xP1"])
    corner = tuple(sorted(p1xp1.rays.index(r) for r in ((1, 0), (0, 1))))
    setup, report = _blowup_report(p1xp1, corner,
                                   fans.insert_ray(p1xp1, (-1, -1)))
    assert report.verdict == "verified"
    shared = {setup.base, setup.blowup, setup.modification, setup.refined}
    for step in setup.tower():
        shared |= {step.base, step.result, step.exc_star.fan,
                   step.cen_star.fan}
    names = set()
    for fan in shared:
        fresh = fans.Fan(fan.rank, fan.rays, fan.cones)
        for key, value in list(fan._derived.items()):
            assert _recompute(fresh, key) == value, key
            names.add(key if isinstance(key, str) else key[0])
        for c in fan.cones:
            assert fan.cone_dim(c) == fresh.cone_dim(c)
            assert fan.cone_hrep(c) == fresh.cone_hrep(c)
            assert fans._faces_as_keys(fan, c) == fans._faces_as_keys(
                fresh, c)
    assert {"assignment", "courant", "dual_basis", "homes", "localization",
            "multiplicity", "ray_class", "smooth", "star"} <= names


@FAN_ORACLE
@given(_subdivided_fans(SMOOTH_3FANS), st.data())
def test_subdivision_assignment_equals_the_per_cone_search(fan, draw):
    coarse = fans.fan_from_max_cones(
        *SMOOTH_3FANS[draw.draw(st.sampled_from(sorted(SMOOTH_3FANS)))])
    for fine, target in ((fan, coarse), (coarse, fan), (fan, fan)):
        try:
            got = fans.subdivision_assignment(fine, target)
        except ValueError:
            got = None
        try:
            want = subdivision_assignment_per_cone(fine, target)
        except ValueError:
            want = None
        assert got == want


# ---------------------------------------------------------------------------
# stellar subdivisions keep the cells their source fan holds


def _assert_subdivisions_equal_the_generator_route(fan):
    for cone in fan.cones[1:]:
        sub = fans.stellar_subdivision(fan, cone)
        fresh = fans.Fan(sub.rank, sub.rays, sub.cones)
        assert set(sub._hrep) >= set(sub.max_cones)
        for c, hrep in sub._hrep.items():
            assert hrep == fresh.cone_hrep(c)
        for c, faces in sub._faces.items():
            assert faces == fans._faces_as_keys(fresh, c)
        for c in sub.cones:
            assert sub.cone_dim(c) == fresh.cone_dim(c)
        for m in sub.max_cones:
            held = sub._derived.get(("dual_basis", m))
            # every simplicial top cone is handed its dual basis
            if len(m) == sub.cone_dim(m):
                assert held == fresh.cone_dual_basis(m)
            else:
                assert held is None
        oracle = stellar_subdivision_by_generators(fan, cone)
        assert oracle is sub
        assert (oracle.rays, oracle.cones) == (sub.rays, sub.cones)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(_subdivided_fans(SMOOTH_3FANS))
def test_stellar_subdivision_equals_the_generator_route(fan):
    _assert_subdivisions_equal_the_generator_route(fan)


@pytest.mark.parametrize("gens", [CUBE, WEIGHTED["P(1,1,2)"]],
                         ids=["cube", "P(1,1,2)"])
def test_stellar_subdivision_of_special_fans(gens):
    _assert_subdivisions_equal_the_generator_route(
        fans.fan_from_max_cones(*gens))


def _box_size(rays):
    """The number of points parallelotope_point_by_box visits."""
    h = linalg._unimodular_echelon([list(col) for col in zip(*rays)])[0]
    return math.prod(sum(map(abs, row)) + 1 for row in h[:len(rays)])


def _multiple_cones(rank, dim, count, rng):
    """Seeded simplicial cones of one dimension and multiplicity > 1 in
    one rank, each as a fan of one top cone, with boxes of at most 2*10^4
    points."""
    found = []
    while len(found) < count:
        rays = sorted({linalg.primitive_vector(v) for v in (
            tuple(rng.randint(-3, 3) for _ in range(rank))
            for _ in range(dim)) if any(v)})
        if len(rays) != dim or linalg.rank(rays) != dim:
            continue
        fan = fans.fan_from_max_cones(rank, [rays])
        (top,) = fan.max_cones
        if fan.cone_multiplicity(top) > 1 and _box_size(rays) <= 20000:
            found.append((fan, top))
    return found


@pytest.mark.parametrize("rank, dim", [(2, 2), (3, 3), (3, 2), (4, 4),
                                       (4, 3), (4, 2)])
def test_parallelotope_point_equals_the_box_scan(rank, dim):
    """parallelotope_point visits the mult classes of lattice points
    modulo the rays through the Hermite form; the box scan visits every
    point of a box around the parallelotope. Both pick the same point."""
    rng = random.Random(f"parallelotope {rank} {dim}")
    for fan, top in _multiple_cones(rank, dim, 12, rng):
        point = parallelotope_point(fan, top)
        assert point == parallelotope_point_by_box(fan, top), fan.rays
        assert fan.minimal_cone_containing(point) not in ((), None)

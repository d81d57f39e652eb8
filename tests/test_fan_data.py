"""Derived fan data against fresh computations.

fan_from_max_cones reads extreme rays off the generators and hands them,
its H-representations, faces and cone dimensions to the fan it returns;
min_refinement hands over the rays and facets of its cells;
minimal_cone_containing locates points through the top cones;
pp_pullback keeps the home cones it finds; mw_of_pp sums localized
values instead of multiplying functions out; _generic_vector takes one
kernel per ray union of a cone pair. Each is checked here against an
independent computation: fresh polyhedra calls, scans over all cones,
the product route and the rank-based search.
"""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@st.composite
def _subdivided_fans(draw):
    """A base fan with 0-3 stellar subdivisions at drawn nonzero cones."""
    rank, gens = BASES[draw(st.sampled_from(sorted(BASES)))]
    fan = fans.fan_from_max_cones(rank, gens)
    for _ in range(draw(st.integers(0, 3))):
        nonzero = fan.cones[1:]
        fan = fans.stellar_subdivision(
            fan, nonzero[draw(st.integers(0, len(nonzero) - 1))])
    return fan


FAN_ORACLE = settings(derandomize=True, deadline=None, max_examples=50)


def _fresh_hreps(fan):
    return {c: polyhedra.cone_constraints(fan.cone_rays(c), fan.rank)
            for c in fan.cones}


def _fresh_faces(fan, cone, hrep):
    """Faces as ray sets cut out by subsets of facet inequalities."""
    faces = {()}
    for k in range(len(hrep[1]) + 1):
        for sub in itertools.combinations(hrep[1], k):
            faces.add(tuple(i for i in cone if all(
                sum(a * b for a, b in zip(w, fan.rays[i])) == 0
                for w in sub)))
    return tuple(sorted(faces))


def _scan_minimal_cone(fan, hreps, point):
    """Every cone tested; the first of least dimension that holds the
    point wins."""
    best = None
    for c in fan.cones:
        if polyhedra.cone_contains(hreps[c], point):
            if best is None or (polyhedra.span_dim(fan.cone_rays(c))
                                < polyhedra.span_dim(fan.cone_rays(best))):
                best = c
    return best


def _rank_generic_vector(fan):
    """The first (1, t, t^2, ...) raising the rank of every proper span
    of a cone pair."""
    n = fan.rank
    spans = []
    for a, b in itertools.combinations_with_replacement(fan.cones, 2):
        vecs = fan.cone_rays(a) + fan.cone_rays(b)
        if linalg.rank(vecs) < n:
            spans.append(vecs)
    for t in weights._primes():
        v = tuple(t ** i for i in range(n))
        if all(linalg.rank(vecs + [v]) > linalg.rank(vecs)
               for vecs in spans):
            return v
    raise ArithmeticError("no generic displacement found")


def _box(rank, radius=2):
    return itertools.product(range(-radius, radius + 1), repeat=rank)


@FAN_ORACLE
@given(_subdivided_fans())
def test_handed_over_data_equals_fresh_computation(fan):
    hreps = _fresh_hreps(fan)
    assert fan.cones == tuple(sorted(
        fan.cones, key=lambda c: (polyhedra.span_dim(fan.cone_rays(c)), c)))
    for c in fan.cones:
        assert fan.cone_hrep(c) == hreps[c]
        assert fans._faces_as_keys(fan, c) == _fresh_faces(fan, c, hreps[c])
        assert fan.cone_dim(c) == polyhedra.span_dim(fan.cone_rays(c))
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
    assert weights._generic_vector(fan) == _rank_generic_vector(fan)


def test_generic_vector_on_special_fans():
    p2 = fans.fan_from_max_cones(*BASES["P2"])
    p3 = fans.fan_from_max_cones(*BASES["P3"])
    line = tuple(sorted(p3.rays.index(r) for r in E3[:2]))
    # a ray through (1, 2) and one through (1, 3) rule out t = 2 and 3
    steep = fans.insert_ray(fans.insert_ray(p2, (1, 2)), (1, 3))
    for fan in (fans.stellar_subdivision(p3, line), steep,
                fans.fan_from_max_cones(0, [])):
        assert weights._generic_vector(fan) == _rank_generic_vector(fan)
    assert weights._generic_vector(steep) == (1, 5)


def test_fan_from_max_cones_computes_each_hrep_once(monkeypatch):
    calls = {"cone_constraints": 0, "span_dim": 0, "_face_keys": 0}

    def count(module, name):
        compute = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return compute(*args)
        monkeypatch.setattr(module, name, counted)

    count(polyhedra, "cone_constraints")
    count(polyhedra, "span_dim")
    count(fans, "_face_keys")
    p3 = fans.fan_from_max_cones(*BASES["P3"])
    # one H-rep and one face list per generator list, one rank per cone
    assert calls == {"cone_constraints": 4, "span_dim": 15, "_face_keys": 4}
    bl = fans.stellar_subdivision(p3, p3.max_cones[0])
    assert len(bl.max_cones) == 6 and len(bl.cones) == 1 + 5 + 9 + 6
    assert calls == {"cone_constraints": 4 + 6, "span_dim": 15 + 21,
                     "_face_keys": 4 + 6}
    for m in bl.max_cones:
        bl.cone_hrep(m)
        bl.facets_of(m)
        fans._faces_as_keys(bl, m)
        assert bl.cone_contains(m, bl.relint_point(m))
    for c in bl.cones:
        bl.cone_dim(c)
        # locating a point asks for no H-rep of a lower cone either
        assert bl.minimal_cone_containing(bl.relint_point(c)) == c
    assert calls == {"cone_constraints": 10, "span_dim": 36, "_face_keys": 10}


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
        piecewise.PiecewisePolynomial.from_polynomial(
            fan, Polynomial.linear(draw.draw(coeffs)))
        for _ in range(draw.draw(st.integers(2, 3)))]
    ray = draw.draw(st.integers(0, len(fan.rays) - 1))
    functions.append(piecewise.courant_function(fan, ray))
    refined, _ = piecewise.min_refinement(fan, functions)
    for c in refined.cones:
        hrep = polyhedra.cone_constraints(refined.cone_rays(c), fan.rank)
        assert refined.cone_hrep(c) == hrep
        assert fans._faces_as_keys(refined, c) == _fresh_faces(
            refined, c, hrep)
    for m in refined.max_cones:
        assert tuple(refined.cone_rays(m)) == polyhedra.rays_from_constraints(
            refined.cone_hrep(m), fan.rank)
    assert fans.validate_fan(refined) == []
    assert refined == fans.fan_from_max_cones(
        fan.rank, [refined.cone_rays(m) for m in refined.max_cones])


def test_facets_read_off_rows_in_a_lower_dimensional_span():
    # the cone spanned by (1, 0, 0) and (1, 1, 0) inside the plane z = 0,
    # cut from the half-plane y >= 0 by the row x - y >= 0 and a row
    # that leaves the plane
    rays = [(1, 0, 0), (1, 1, 0)]
    rows = ((0, 1, 0), (1, -1, 0), (1, -1, 5), (0, 0, 1))
    got = polyhedra.facet_constraints(rays, (((0, 0, 1),), rows))
    assert got == polyhedra.cone_constraints(rays, 3)
    assert got == (((0, 0, 1),), ((0, 1, 0), (1, -1, 0)))


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


def _pp_space_basis_by_intersection(fan, degree):
    """pp_space_basis with each meet of top cones from intersect_cones."""
    monos = piecewise._degree_monomials(fan.rank, degree)
    cols = [(m, e) for m in fan.max_cones for e in monos]
    col_index = {c: i for i, c in enumerate(cols)}
    rows = []
    for a, b in itertools.combinations(fan.max_cones, 2):
        shared = polyhedra.intersect_cones(
            fan.cone_hrep(a), fan.cone_hrep(b), fan.rank)
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
        shared = polyhedra.intersect_cones(
            fan.cone_hrep(a), fan.cone_hrep(b), fan.rank)
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
    assert f.is_continuous() and _continuous_by_intersection(f)
    assert g.is_continuous() == _continuous_by_intersection(g)


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
    resolution, take the top part and localize."""
    fan = f.fan
    n = fan.rank
    if n == 0:
        return f.pieces[()].evaluate(())
    if not fan.is_smooth():
        fine = fans.resolve_smooth(fan)
        return _product_localization_degree(
            _scan_pullback(fine, linalg.identity_matrix(n), f))
    top = f.homogeneous_component(n)
    results = []
    for point, common, mults in weights._localization_points(fan):
        total = sum(top.pieces[m].value(point) * mult
                    for m, mult in zip(fan.max_cones, mults))
        results.append(Fraction(total, common))
    assert results[0] == results[1]
    return results[0]


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
    assert weights.localization_degree(d[(-1, -2)] * d[(-1, -2)]) == (
        Fraction(1, 2))


def test_resolution_is_kept_per_fan_object():
    fan = fans.fan_from_max_cones(*WEIGHTED["P(1,1,2)"])
    fine = fans.resolve_smooth(fan)
    assert fine.is_smooth() and fans.resolve_smooth(fan) is fine
    p2 = fans.fan_from_max_cones(*BASES["P2"])
    assert fans.resolve_smooth(p2) is p2


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

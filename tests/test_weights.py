import gc
import itertools
import math
import random
from fractions import Fraction

import pytest

from helpers import (BILLERA_FANS, assert_exact, billera_fan, cauchy_bound,
                     degrees_by_resolution, displacement_past_bound,
                     fm_displaced_meets, fm_pair_counted, invert_unimodular,
                     mw_product_by_scan, pp_from_polynomial, pp_from_vector,
                     prism_face_fan, products_of_top_degree,
                     quotient_normals_by_scan,
                     thirty_prime_plane)
from tropchow import fans, io, linalg, piecewise, polyhedra, weights
from tropchow.piecewise import PiecewisePolynomial, courant_function
from tropchow.weights import (MinkowskiWeight, balanced_weight_rank,
                              courant_monomial, fundamental_weight,
                              is_balanced, localization_degree, mw_of_pp,
                              mw_product, mw_to_pp, pl_cap,
                              pushforward_witness, ray_monomial_class)


def _p1():
    return fans.fan_from_max_cones(1, [[(1,)], [(-1,)]])


def _p2():
    return fans.fan_from_max_cones(2, [
        [(1, 0), (0, 1)], [(1, 0), (-1, -1)], [(0, 1), (-1, -1)]])


def _bl_p2():
    return fans.insert_ray(_p2(), (1, 1))


def _phi(fan, ray):
    return courant_function(fan, fan.rays.index(ray))


def test_degree_on_line():
    f = _p1()
    w = mw_of_pp(_phi(f, (1,)), 1)
    assert w.values[()] == 1
    assert localization_degree(_phi(f, (1,)) * _phi(f, (-1,))) == 0


def test_degrees_on_plane():
    f = _p2()
    a, b, c = _phi(f, (1, 0)), _phi(f, (0, 1)), _phi(f, (-1, -1))
    assert localization_degree(a * b) == 1
    assert localization_degree(a * a) == 1
    assert localization_degree(a * c) == 1
    s = a + b + c
    assert localization_degree(s * s) == 9
    # degree ignores parts below the top degree
    assert localization_degree(a * b + s) == 1


def test_hyperplane_weight_is_all_ones():
    f = _p2()
    for ray in f.rays:
        w = mw_of_pp(_phi(f, ray), 1)
        assert all(v == 1 for v in w.values.values())
        assert is_balanced(w)


def test_exceptional_weight():
    bl = _bl_p2()
    w = mw_of_pp(_phi(bl, (1, 1)), 1)
    expect = {(-1, -1): 0, (0, 1): 1, (1, 0): 1, (1, 1): -1}
    for ray, val in expect.items():
        assert w.values[(bl.rays.index(ray),)] == val
    assert is_balanced(w)


def test_fundamental_weight_balanced():
    for fan in (_p1(), _p2(), _bl_p2()):
        w = mw_of_pp(PiecewisePolynomial.constant(fan, 1), 0)
        assert w == fundamental_weight(fan)
        assert is_balanced(w)


def test_unbalanced_detected():
    f = _p2()
    ray = (f.rays.index((1, 0)),)
    w = MinkowskiWeight(f, 1, {ray: 1})
    assert not is_balanced(w)


def test_product_matches_function_product():
    rng = random.Random(41)
    for fan in (_p2(), _bl_p2()):
        phis = [courant_function(fan, i) for i in range(len(fan.rays))]
        for _ in range(8):
            f = phis[rng.randrange(len(phis))]
            g = phis[rng.randrange(len(phis))]
            lhs = mw_of_pp(f * g, 2)
            rhs = mw_product(mw_of_pp(f, 1), mw_of_pp(g, 1))
            assert lhs == rhs, (fan, f, g)


def test_product_with_fundamental_is_identity():
    f = _p2()
    one = fundamental_weight(f)
    h = mw_of_pp(_phi(f, (1, 0)), 1)
    assert mw_product(one, h) == h
    assert mw_product(h, one) == h


def test_corner_locus_of_linear_is_zero():
    f = _p2()
    from tropchow.polynomials import Polynomial
    lin = pp_from_polynomial(f, Polynomial.linear([3, -2]))
    out = pl_cap(lin, fundamental_weight(f))
    assert out.is_zero()


def test_corner_locus_matches_weight_of_function():
    for fan in (_p2(), _bl_p2()):
        for ray in fan.rays:
            phi = _phi(fan, ray)
            assert pl_cap(phi, fundamental_weight(fan)) == mw_of_pp(phi, 1)


def test_corner_locus_on_blown_up_plane_chart():
    chart = fans.fan_from_max_cones(2, [[(1, 0), (1, 1)], [(1, 1), (0, 1)]])
    phi = _phi(chart, (1, 1))
    out = pl_cap(phi, fundamental_weight(chart))
    assert out.values[(chart.rays.index((1, 1)),)] == -1
    assert out.values[(chart.rays.index((1, 0)),)] == 1
    assert out.values[(chart.rays.index((0, 1)),)] == 1


def test_witness_roundtrip():
    rng = random.Random(43)
    for fan in (_p2(), _bl_p2()):
        phis = [courant_function(fan, i) for i in range(len(fan.rays))]
        for k in (1, 2):
            for _ in range(4):
                f = PiecewisePolynomial.zero(fan)
                for _ in range(k):
                    g = phis[rng.randrange(len(phis))]
                    coeff = rng.randrange(-3, 4)
                    mono = phis[rng.randrange(len(phis))] if k == 2 else g
                    f = f + (g * mono if k == 2 else g).scale(coeff)
                w = mw_of_pp(f, k)
                assert is_balanced(w)
                back = mw_to_pp(w)
                assert mw_of_pp(back, k) == w


def test_witness_rejects_unbalanced():
    f = _p2()
    ray = (f.rays.index((1, 0)),)
    with pytest.raises(ValueError):
        mw_to_pp(MinkowskiWeight(f, 1, {ray: 1}))


def test_pushforward_along_blowdown():
    coarse = _p2()
    fine = _bl_p2()
    ident = linalg.identity_matrix(2)
    # class pulled back and pushed forward returns to itself
    pulled = piecewise.pp_pullback(fine, ident, _phi(coarse, (1, 0)))
    down = pushforward_witness(fine, pulled, 1, coarse)
    assert down == mw_of_pp(_phi(coarse, (1, 0)), 1)
    # the contracted curve pushes to zero
    exc = _phi(fine, (1, 1))
    assert pushforward_witness(fine, exc, 1, coarse).is_zero()


def test_balanced_ranks():
    p2 = _p2()
    assert [balanced_weight_rank(p2, k) for k in range(3)] == [1, 1, 1]
    bl = _bl_p2()
    assert [balanced_weight_rank(bl, k) for k in range(3)] == [1, 2, 1]


def _drop_dead_fans():
    """Collect fans left by earlier tests: one that is unreachable but not
    yet collected would come back from fans._LIVE_FANS with its derived
    data, so the work a test counts would already be done."""
    gc.collect()


def test_derived_data_is_kept_per_fan_object():
    _drop_dead_fans()
    # equal fans built while one is alive are one object; a Fan
    # constructed directly is not shared and derives its own data
    f, g = _bl_p2(), _bl_p2()
    assert f is g
    fresh = fans.Fan(f.rank, f.rays, f.cones)
    assert fresh == f and fresh is not f
    assert courant_function(f, 1) is courant_function(g, 1)
    assert courant_function(fresh, 1) is not courant_function(f, 1)
    assert courant_function(fresh, 1) == courant_function(f, 1)
    assert weights._localization(f) is weights._localization(g)
    assert weights._localization(fresh) is not weights._localization(f)
    assert weights._localization(fresh) == weights._localization(f)
    assert ray_monomial_class(f, (2, 0)) is ray_monomial_class(g, (0, 2))
    assert ray_monomial_class(fresh, (0, 2)) is not ray_monomial_class(
        f, (0, 2))
    assert ray_monomial_class(f, (0, 2)) == mw_of_pp(
        courant_function(f, 0) * courant_function(f, 2), 2)
    assert f.max_cone_over((1,)) in f.max_cones
    assert set(f.max_cone_over((1,))) >= {1}


def test_generic_vector_is_kept_per_fan_object():
    # the displacement is symbolic: mw_product keeps no vector on the fan,
    # equal fans give equal products, and each pair is decided as
    # Fourier-Motzkin decides it at v(t) past the stated bound
    _drop_dead_fans()
    f = _bl_p2()
    h = fans.Fan(f.rank, f.rays, f.cones)
    a = mw_of_pp(_phi(h, (1, 0)), 1)
    before = set(h._derived)
    square = mw_product(a, a)
    assert {k if isinstance(k, str) else k[0]
            for k in set(h._derived) - before} <= {"saturation", "smooth"}
    assert mw_product(*[mw_of_pp(_phi(f, (1, 0)), 1)] * 2).values == (
        square.values)
    v = displacement_past_bound(h)
    for s1, s2 in itertools.product(h.cones, repeat=2):
        assert (weights._pair_multiplicity(h, s1, s2) != 0) == (
            fm_pair_counted(h, s1, s2, v))


def test_refusals_are_not_cached():
    square = fans.fan_from_max_cones(3, [
        [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]])
    for _ in range(2):
        with pytest.raises(ValueError, match="not simplicial"):
            courant_function(square, 0)
    # a lone extra ray is smooth but not full-dimensional
    partial = fans.fan_from_max_cones(2, [[(1, 0), (0, 1)], [(-1, 0)]])
    one = PiecewisePolynomial.constant(partial, 1)
    for _ in range(2):
        with pytest.raises(ValueError, match="not complete"):
            localization_degree(one)
    with pytest.raises(ValueError, match="not a face"):
        partial.max_cone_over((0, 1, 2))


def test_incomplete_fan_has_no_degree():
    # full-dimensional top cones, but their ridges bound the support
    quadrant = fans.fan_from_max_cones(2, [[(1, 0), (0, 1)]])
    half = fans.fan_from_max_cones(2, [[(1, 0), (0, 1)], [(0, 1), (-1, 0)]])
    p3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    p3_minus_one = fans.fan_from_max_cones(
        3, [list(c) for c in itertools.combinations(p3, 3)][1:])
    for fan in (quadrant, half, p3_minus_one):
        assert not fan.is_complete()
        top = courant_monomial(fan, range(fan.rank))
        for _ in range(2):
            with pytest.raises(ValueError, match="not complete"):
                localization_degree(top)


def _ref_localization_degree(f):
    """Per-cone Fraction sum: each localized contribution divided by its
    own denominator, at the first two valid test points."""
    fan = f.fan
    n = fan.rank
    top = f.homogeneous_component(n)
    duals = {m: invert_unimodular(list(zip(*fan.cone_rays(m))))
             for m in fan.max_cones}
    results = []
    for t in itertools.count(2):
        point = tuple(t ** i for i in range(n))
        denoms = []
        for m in fan.max_cones:
            denom = 1
            for row in duals[m]:
                denom *= sum(a * b for a, b in zip(row, point))
            denoms.append(denom)
        if 0 in denoms:
            continue
        total = Fraction(0)
        for m, denom in zip(fan.max_cones, denoms):
            total += top.pieces[m].evaluate(point) / denom
        results.append(total)
        if len(results) == 2:
            break
    assert results[0] == results[1]
    return results[0]


def test_localization_degree_matches_per_cone_fraction_sum():
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    p3 = fans.fan_from_max_cones(3, [list(c) for c in itertools.combinations(e, 3)])
    cube = fans.fan_from_max_cones(3, [
        [(a, 0, 0), (0, b, 0), (0, 0, c)]
        for a, b, c in itertools.product((1, -1), repeat=3)])
    line = tuple(sorted(p3.rays.index(r) for r in ((1, 0, 0), (0, 1, 0))))
    bl_line = fans.stellar_subdivision(p3, line)
    for fan in (p3, cube, bl_line):
        for k in range(fan.rank + 1):
            for mono in itertools.combinations_with_replacement(
                    range(len(fan.rays)), k):
                f = courant_monomial(fan, mono)
                for g in (f, f.scale(Fraction(2, 3))):
                    got = localization_degree(g)
                    assert type(got) is Fraction
                    assert got == _ref_localization_degree(g)


def _p112():
    """The weighted projective plane P(1,1,2): simplicial, not smooth."""
    return fans.fan_from_max_cones(2, [
        [(1, 0), (0, 1)], [(0, 1), (-1, -2)], [(-1, -2), (1, 0)]])


def _cube_fan():
    """The complete fan over the faces of the cube: no top cone is
    simplicial."""
    corners = list(itertools.product((1, -1), repeat=3))
    return fans.fan_from_max_cones(3, [
        [r for r in corners if r[i] == s] for i in range(3) for s in (1, -1)])


def _prism_fan():
    """The complete fan over the faces of a triangular prism: two
    simplicial top cones and three with four rays."""
    tri = [(1, 0), (0, 1), (-1, -1)]
    quads = [[a + (s,) for a in (tri[i], tri[i - 1]) for s in (1, -1)]
             for i in range(3)]
    return fans.fan_from_max_cones(
        3, [[a + (s,) for a in tri] for s in (1, -1)] + quads)


def _count_meet_calls(monkeypatch):
    """Record the pairs that mw_product decides by cone membership."""
    calls = []
    real = weights._displaced_meets
    monkeypatch.setattr(weights, "_displaced_meets",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_product_on_weighted_plane_matches_function_product(monkeypatch):
    f = _p112()
    assert not f.is_smooth()
    calls = _count_meet_calls(monkeypatch)
    for i, j in itertools.product(range(3), repeat=2):
        phi, psi = courant_function(f, i), courant_function(f, j)
        assert mw_product(mw_of_pp(phi, 1), mw_of_pp(psi, 1)) == mw_of_pp(
            phi * psi, 2)
    assert not calls  # every pair is simplicial


def _by_rays(w):
    return {tuple(w.fan.rays[i] for i in c): str(v)
            for c, v in w.values.items()}


def test_product_on_non_simplicial_cube_fan(monkeypatch):
    cube = _cube_fan()
    edges = MinkowskiWeight(cube, 1, {
        c: k + 1 for k, c in enumerate(cube.cones_of_dim(2))})
    top = MinkowskiWeight(cube, 0, {
        c: k + 1 for k, c in enumerate(cube.max_cones)})
    calls = _count_meet_calls(monkeypatch)
    m, p = -1, 1
    assert _by_rays(mw_product(edges, top)) == {
        ((m, m, m), (m, m, p)): "2", ((m, m, m), (m, p, m)): "6",
        ((m, m, m), (p, m, m)): "9", ((m, m, p), (m, p, p)): "4",
        ((m, m, p), (p, m, p)): "10", ((m, p, m), (m, p, p)): "6",
        ((m, p, m), (p, p, m)): "21", ((m, p, p), (p, p, p)): "40",
        ((p, m, m), (p, m, p)): "18", ((p, m, m), (p, p, m)): "30",
        ((p, m, p), (p, p, p)): "66", ((p, p, m), (p, p, p)): "72"}
    assert calls  # a top cone of the cube fan has four rays
    assert mw_product(top, top).values == {
        c: v * v for c, v in top.values.items()}
    # two edge cones are simplicial, but their lattices are not saturated
    assert _by_rays(mw_product(edges, edges)) == {
        ((m, m, m),): "3", ((m, m, p),): "4", ((m, p, m),): "12",
        ((m, p, p),): "48", ((p, m, m),): "27", ((p, m, p),): "99",
        ((p, p, m),): "120", ((p, p, p),): "96"}


@pytest.mark.parametrize("build", [_cube_fan, _prism_fan])
def test_displaced_meets_equals_fourier_motzkin(build):
    fan = build()
    n = fan.rank
    # the least t past every row's own bound, and the stated bound
    t = math.ceil(cauchy_bound(fan))
    generic = tuple(t ** i for i in range(n))
    assert all(x <= y for x, y in zip(generic, displacement_past_bound(fan)))
    zero = (0,) * n
    outcomes = set()
    for s1, s2 in itertools.product(fan.cones, repeat=2):
        r1, r2 = fan.cone_rays(s1), fan.cone_rays(s2)
        hreps = fan.cone_hrep(s1), fan.cone_hrep(s2)
        meets = weights._displaced_meets(fan, s1, s2)
        assert meets == fm_displaced_meets(*hreps, generic), (s1, s2)
        outcomes.add(meets)
        if linalg.rank(r1 + r2) < n:
            continue
        # the rule reads the constraint form of sigma1 - sigma2; at
        # displacements after which the cones can meet at a face only, it
        # decides membership as Fourier-Motzkin does
        neg2 = [tuple(-x for x in s) for s in r2]
        diff = polyhedra.cone_constraints(r1 + neg2, n)
        tests = dict.fromkeys([zero] + r1 + neg2 + [
            tuple(x - y for x, y in zip(r, s)) for r in r1 for s in r2])
        for v in tests:
            assert polyhedra.cone_contains(diff, v) == fm_displaced_meets(
                *hreps, v), (s1, s2, v)
    assert outcomes == {True, False}


def _rank3_fans():
    """P3, a weighted P(1,1,1,2) (simplicial, not smooth) and a stellar
    subdivision of it along a two-dimensional cone."""
    e3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    w = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)]
    p3 = fans.fan_from_max_cones(3, [list(c)
                                     for c in itertools.combinations(e3, 3)])
    p1112 = fans.fan_from_max_cones(3, [list(c)
                                        for c in itertools.combinations(w, 3)])
    edge = tuple(sorted(p1112.rays.index(r) for r in w[2:]))
    return p3, p1112, fans.stellar_subdivision(p1112, edge)


def test_linear_extension_agrees_on_the_rays_and_lies_in_their_span():
    rng = random.Random(25)
    for fan in _rank3_fans():
        phi = PiecewisePolynomial.zero(fan)
        for i in range(len(fan.rays)):
            phi = phi + courant_function(fan, i).scale(rng.randrange(-3, 4))
        for tau in fan.cones:
            ext = weights._linear_extension_on(fan, phi, tau)
            assert len(ext) == fan.rank
            for r in fan.cone_rays(tau):
                assert sum(e * x for e, x in zip(ext, r)) == (
                    phi.piece_on(tau).evaluate(r))
            for eq in fan.cone_hrep(tau)[0]:
                assert sum(e * x for e, x in zip(ext, eq)) == 0


def test_saturation_is_kept_per_cone_object(monkeypatch):
    _drop_dead_fans()
    f = _p112()
    a = mw_of_pp(_phi(f, (1, 0)), 1)
    b = mw_of_pp(_phi(f, (-1, -2)), 1)
    # saturations kept before the product (the localization needs none)
    kept = [key[1] for key in f._derived
            if isinstance(key, tuple) and key[0] == "saturation"]
    seen = []
    real = linalg.saturation_data
    monkeypatch.setattr(linalg, "saturation_data",
                        lambda cols: seen.append(cols) or real(cols))
    first = mw_product(a, b)
    assert seen  # off a smooth fan the index needs the saturations
    assert len(seen) == len({str(cols) for cols in seen})
    count = len(seen)
    assert mw_product(a, b) == first
    assert len(seen) == count
    # the balancing check shares them; each cone's is computed once
    assert is_balanced(a) and is_balanced(first)
    for cone in f.cones:
        assert f.cone_saturation(cone) is f.cone_saturation(cone)
    # the kept ones and the computed ones cover every cone exactly once
    cols = {str([[r[i] for r in f.cone_rays(c)] for i in range(f.rank)]): c
            for c in f.cones}
    assert sorted(kept + [cols[str(c)] for c in seen]) == sorted(f.cones)
    # a fan built again while f is alive is f, and computes nothing
    g = _p112()
    assert g is f
    mw_product(mw_of_pp(_phi(g, (1, 0)), 1), mw_of_pp(_phi(g, (-1, -2)), 1))
    assert len(kept) + len(seen) == len(f.cones)
    # a Fan constructed directly computes its own
    h = fans.Fan(f.rank, f.rays, f.cones)
    mw_product(mw_of_pp(_phi(h, (1, 0)), 1), mw_of_pp(_phi(h, (-1, -2)), 1))
    assert len(kept) + len(seen) > len(f.cones)


def test_product_on_the_point_fan():
    # the one top cone is the zero cone; its lattice fills the rank-0 space
    point = fans.fan_from_max_cones(0, [])
    one = fundamental_weight(point)
    assert mw_product(one, one) == one


def test_products_and_degrees_on_the_thirty_prime_plane():
    # in rank 2 a dual basis vector of a top cone vanishes at (1, t)
    # exactly when (1, t) lies on one of its rays, so the first two
    # localization points are the first t >= 2 that are no prime of the
    # fan: t = 4 and 6 (its smooth resolution has a ray through every
    # (1, t) up to t = 113, and would need t = 114 and 115)
    f = thirty_prime_plane()
    phi = courant_function(f, f.rays.index((1, 7)))
    psi = courant_function(f, f.rays.index((1, 113)))
    assert mw_product(mw_of_pp(phi, 1), mw_of_pp(psi, 1)) == mw_of_pp(
        phi * psi, 2)
    assert [p[0] for p in weights._localization(f)] == [(1, 4), (1, 6)]
    top = fundamental_weight(f)
    square = mw_product(top, top)
    assert isinstance(square, MinkowskiWeight) and square == top


def _pair_multiplicity_by_fresh_duals(fan, sigma1, sigma2):
    """weights._pair_multiplicity with the dual basis of the union of rays
    (polyhedra.dual_basis) and its determinant (linalg.det) or the index
    of the summed lattices (linalg.lattice_index) computed for each pair,
    nothing read off the fan but rays and saturations."""
    n = fan.rank
    union = sorted(set(sigma1) | set(sigma2))
    if len(union) <= n and all(len(s) == linalg.rank(fan.cone_rays(s))
                               for s in (sigma1, sigma2)):
        if len(union) < n:
            return 0
        rays = fan.cone_rays(union)
        try:
            duals = polyhedra.dual_basis(rays)
        except ValueError:
            return 0
        for i, (u, p) in zip(union, duals):
            sign = p * next(x for x in reversed(u) if x)
            if sign < 0 and i not in sigma2 or sign > 0 and i not in sigma1:
                return 0
        if fan.is_smooth():
            return abs(linalg.det(rays))
        return linalg.lattice_index(weights._saturated_sum(fan, sigma1,
                                                           sigma2))
    merged = weights._saturated_sum(fan, sigma1, sigma2)
    if (linalg.rank(merged) < n
            or not weights._displaced_meets(fan, sigma1, sigma2)):
        return 0
    return linalg.lattice_index(merged)


PAIR_FANS = {
    "Bl P2": _bl_p2,
    "P3 after 2 stellar": lambda: billera_fan("P3 after 2 stellar"),
    "(P1)^3 after 2 stellar": lambda: billera_fan("(P1)^3 after 2 stellar"),
    "P4 after 1 stellar": lambda: billera_fan("P4 after 1 stellar"),
    "P(1,1,2)": _p112,
    "thirty-prime plane": thirty_prime_plane,
}


@pytest.mark.parametrize("name", sorted(PAIR_FANS))
def test_pair_multiplicities_read_off_kept_dual_bases(monkeypatch, name):
    # every support pair of seeded products against the dual bases and
    # determinants computed per pair; a second product on the same fan
    # finds each of them kept and computes none
    _drop_dead_fans()
    fan = PAIR_FANS[name]()
    calls = []
    for fn in ("scaled_inverse", "det"):
        monkeypatch.setattr(linalg, fn, lambda *args, real=getattr(
            linalg, fn), fn=fn: calls.append(fn) or real(*args))
    rng = random.Random(f"pair multiplicities {name}")
    pairs = 0
    for _ in range(4):
        i = rng.randint(0, fan.rank)
        a, b = (mw_of_pp(courant_monomial(fan, [
            rng.randrange(len(fan.rays)) for _ in range(k)]), k)
            for k in (i, rng.randint(0, fan.rank - i)))
        first = mw_product(a, b)
        calls.clear()
        assert mw_product(a, b) == first and not calls
        for s1, s2 in itertools.product(a.support_cones(), b.support_cones()):
            assert weights._pair_multiplicity(fan, s1, s2) == (
                _pair_multiplicity_by_fresh_duals(fan, s1, s2)), (s1, s2)
            pairs += 1
    assert pairs >= 24
    # every pair of complementary dimensions, where a smooth fan's index
    # can exceed 1 (it is 2 for two pairs on P3 after 2 stellar)
    for s1, s2 in itertools.product(fan.cones, repeat=2):
        if fan.cone_dim(s1) + fan.cone_dim(s2) == fan.rank:
            assert weights._pair_multiplicity(fan, s1, s2) == (
                _pair_multiplicity_by_fresh_duals(fan, s1, s2)), (s1, s2)


@pytest.mark.parametrize("name", BILLERA_FANS)
def test_h_vector_gives_weight_ranks_and_pp_dimensions(name):
    # Billera: on a smooth complete fan both the balanced weights of
    # codimension k and the Chow group A^k have dimension h_k, and the
    # piecewise polynomials have Hilbert series h(t) / (1 - t)^n
    fan = billera_fan(name)
    n = fan.rank
    f = [len(fan.cones_of_dim(i)) for i in range(n + 1)]
    h = [sum((-1) ** (k - i) * math.comb(n - i, k - i) * f[i]
             for i in range(k + 1)) for k in range(n + 1)]
    assert h == h[::-1] and h[0] == h[n] == 1
    assert [balanced_weight_rank(fan, k) for k in range(n + 1)] == h
    for d in range(4 if n == 3 else 3):
        assert piecewise.pp_space_dimension(fan, d) == sum(
            h[j] * math.comb(d - j + n - 1, n - 1) for j in range(d + 1))


ORACLE_FANS = ["P3 after 2 stellar", "(P1)^3 after 2 stellar",
               "P4 after 1 stellar", "(P1)^4 after 1 stellar", "cube",
               "P(1,1,2)"]


def _oracle_fan(name):
    """A seeded rank-3 or rank-4 fan (billera_fan), the cube fan (no
    top cone simplicial) or P(1,1,2) (simplicial, not smooth)."""
    special = {"cube": _cube_fan, "P(1,1,2)": _p112}
    return special[name]() if name in special else billera_fan(name)


@pytest.mark.parametrize("name", ORACLE_FANS)
def test_star_equals_the_scan_over_covering_cones(name):
    # star_fan projects each ray once; per cone tau, its rays are the
    # lattice normals of the cones over tau, one star ray per cone
    fan = _oracle_fan(name)
    for tau in fan.cones:
        star = fans.star_fan(fan, tau)
        normals = {star.cone_to_source[(j,)]: ray
                   for j, ray in enumerate(star.fan.rays)}
        assert len(normals) == len(star.fan.rays)
        assert normals == quotient_normals_by_scan(fan, tau), tau
        assert star.source_to_cone == {
            src: key for key, src in star.cone_to_source.items()}
        assert set(star.source_to_cone) == {
            c for c in fan.cones if set(tau) <= set(c)}


@pytest.mark.parametrize("name", ORACLE_FANS)
def test_product_equals_the_scan_over_cones(name):
    """mw_product visits each pair of support cones once; the scan visits
    every product cone and every pair over it. Random weights, most of
    them unbalanced, and on simplicial fans balanced ray-monomial
    classes, over every split of codimensions. Budget: under 5 s in all."""
    fan = _oracle_fan(name)
    rng = random.Random(name)
    simplicial = all(len(m) == fan.cone_dim(m) for m in fan.max_cones)

    def operands(codim):
        cones = fan.cones_of_dim(fan.rank - codim)
        out = [MinkowskiWeight(fan, codim, {
            c: rng.choice((0, 1, -2, Fraction(1, 2))) for c in cones})]
        if simplicial:
            out.append(ray_monomial_class(fan, rng.choices(
                range(len(fan.rays)), k=codim)))
        return out
    seen = 0
    for i, j in itertools.product(range(fan.rank + 1), repeat=2):
        if i + j > fan.rank:
            continue
        for a, b in itertools.product(operands(i), operands(j)):
            product = mw_product(a, b)
            assert product == mw_product_by_scan(a, b), (i, j)
            seen += not product.is_zero()
    assert seen


def test_weight_values_are_int_when_integral():
    # the polynomials' number rule: the weights of integral classes on a
    # smooth fan are integral, and so ints, after every operation on them
    fine = _bl_p2()
    x, h = mw_of_pp(_phi(fine, (1, 1)), 1), mw_of_pp(_phi(fine, (1, 0)), 1)
    made = [mw_of_pp(courant_function(fine, i), 1)
            for i in range(len(fine.rays))] + [
        MinkowskiWeight(fine, 1, {c: Fraction(v) for c, v in h.values.items()}),
        x + h, x - h, h.scale(Fraction(4, 2)), mw_product(x, h),
        mw_product(x, x), mw_of_pp(_phi(fine, (1, 1)) * _phi(fine, (1, 0)), 2),
        pushforward_witness(fine, _phi(fine, (1, 0)), 1, _p2()),
        pl_cap(_phi(fine, (1, 0)), fundamental_weight(fine)),
        pl_cap(_phi(fine, (1, 1)), x)]
    for w in made:
        assert all(type(v) is int for v in w.values.values())


def test_weight_values_stay_fractions_when_not_integral():
    # P(1,1,2) has a cone of index 2, where degrees are halves
    f = _p112()
    phi, psi = _phi(f, (1, 0)), _phi(f, (-1, -2))
    a, b = mw_of_pp(phi, 1), mw_of_pp(psi, 1)
    made = [a, b, a + b, a - b, a.scale(3), mw_product(a, b),
            mw_of_pp(phi * psi, 2), pushforward_witness(f, phi * psi, 2, f),
            pl_cap(phi, b), mw_of_pp(_phi(_p2(), (1, 0)), 1).scale(
                Fraction(1, 2))]
    for w in made:
        assert_exact(w.values.values())
    assert all(Fraction(1, 2) in w.values.values()
               for w in (a, mw_product(a, b), made[-1]))


def test_int_and_fraction_weights_are_equal_and_print_alike():
    f = _p2()
    tops = f.cones_of_dim(2)
    as_int = MinkowskiWeight(f, 0, {c: 2 for c in tops})
    as_frac = MinkowskiWeight(f, 0, {c: Fraction(2) for c in tops})
    assert as_int == as_frac and repr(as_int) == repr(as_frac)
    texts = {io.print_document(io.Document("weight", io.weight_to_payload(w)))
             for w in (as_int, as_frac)}
    assert len(texts) == 1


# ---------------------------------------------------------------------------
# one localization for every complete fan, against the resolution route

def _non_smooth_simplicial_fan(name):
    """P(1,1,2), P(1,1,1,2), P3 subdivided at (1, 2, 3) inside the cone on
    the unit vectors (new cones of multiplicity 1, 2 and 3) or the
    thirty-prime plane."""
    if name == "P3 at (1,2,3)":
        p3 = _rank3_fans()[0]
        unit = tuple(sorted(p3.rays.index(r) for r in p3.rays if sum(r) == 1))
        return fans.stellar_subdivision(p3, unit, (1, 2, 3))
    return {"P(1,1,2)": _p112, "P(1,1,1,2)": lambda: _rank3_fans()[1],
            "thirty-prime plane": thirty_prime_plane}[name]()


@pytest.mark.parametrize("name", ["P(1,1,2)", "P(1,1,1,2)", "P3 at (1,2,3)",
                                  "thirty-prime plane"])
def test_localization_equals_the_resolution_route_on_simplicial_fans(name):
    """Simplicial fans that are not smooth, in every codimension k: the
    weight of seeded degree-k basis functions (pp_space_basis) at each
    cone equals the degree of their product with its ray monomial, read
    on the smooth resolution (degrees_by_resolution). Budget: about 1 s."""
    fan = _non_smooth_simplicial_fan(name)
    assert not fan.is_smooth()
    rng = random.Random(name)
    for k in range(fan.rank + 1):
        basis = piecewise.pp_space_basis(fan, k)
        for vector in rng.sample(basis, min(3, len(basis))):
            f = pp_from_vector(fan, k, vector)
            taus = fan.cones_of_dim(fan.rank - k)
            assert mw_of_pp(f, k).values == dict(zip(taus, (
                degrees_by_resolution([f * courant_monomial(fan, tau)
                                       for tau in taus])))), k


@pytest.mark.parametrize("k", [4, 6], ids=["3-cube", "6-gon prism"])
def test_localization_equals_the_resolution_route_on_non_simplicial_fans(k):
    """The face fans of the 3-cube and of a 6-gon prism, no top cone
    simplicial: each product of basis functions of top degree has the
    degree it has on the smooth resolution. Budget: about 1 s."""
    fan = prism_face_fan(k)
    assert all(len(m) > fan.rank for m in fan.max_cones)
    products = list(products_of_top_degree(fan))
    degrees = [localization_degree(f) for f in products]
    assert degrees == degrees_by_resolution(products)
    assert any(degrees)


@pytest.mark.parametrize("k", [4, 6], ids=["3-cube", "6-gon prism"])
def test_pulling_simplices_form_a_complete_fan(k):
    """The simplices that split the top cones add no rays, lie in their
    top cones and meet as a complete fan: a face of two top cones is
    split the same way in both."""
    fan = prism_face_fan(k)
    pieces = [(m, s) for m in fan.max_cones
              for s in weights._pulling_simplices(fan, m)]
    # each square is cut into 2 and each k-gon into k - 2
    assert len(pieces) == 2 * k + 2 * (k - 2)
    for m, s in pieces:
        assert set(s) < set(m) and linalg.rank(fan.cone_rays(s)) == 3
    split = fans.fan_from_max_cones(3, [fan.cone_rays(s) for _, s in pieces])
    assert fans.validate_fan(split) == [] and split.is_complete()
    assert split.rays == fan.rays
    assert sorted(split.max_cones) == sorted(s for _, s in pieces)

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (_independent_subset, fm_feasible, polytope_vertices,
                     polytope_volume)
from tropchow import fans, linalg, polyhedra, tropical


def _cone_2d(*gens):
    return polyhedra.cone_constraints(list(gens), 2)


def test_constraints_roundtrip_2d():
    cons = _cone_2d((1, 0), (0, 1))
    assert cons[0] == ()
    assert polyhedra.rays_from_constraints(cons, 2) == ((0, 1), (1, 0))
    assert polyhedra.cone_contains(cons, (3, 5))
    assert not polyhedra.cone_contains(cons, (-1, 2))


def test_constraints_lower_dimensional():
    cons = polyhedra.cone_constraints([(1, 1, 0)], 3)
    assert len(cons[0]) == 2
    assert polyhedra.cone_contains(cons, (2, 2, 0))
    assert not polyhedra.cone_contains(cons, (-1, -1, 0))
    assert not polyhedra.cone_contains(cons, (1, 1, 1))
    assert polyhedra.rays_from_constraints(cons, 3) == ((1, 1, 0),)


def test_zero_cone():
    cons = polyhedra.cone_constraints([], 2)
    assert polyhedra.cone_contains(cons, (0, 0))
    assert not polyhedra.cone_contains(cons, (1, 0))
    assert polyhedra.rays_from_constraints(cons, 2) == ()


def test_roundtrip_random():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randrange(2, 4)
        k = rng.randrange(1, 4)
        gens = []
        while len(gens) < k:
            v = tuple(rng.randrange(-3, 4) for _ in range(n))
            if any(v):
                gens.append(v)
        cons = polyhedra.cone_constraints(gens, n)
        try:
            rays = polyhedra.rays_from_constraints(cons, n)
        except ValueError:
            continue  # generated cone contained a line
        # same cone: every original generator satisfies the constraints and
        # every recovered ray is a nonnegative combination certificate
        for g in gens:
            assert polyhedra.cone_contains(cons, g)
        recons = polyhedra.cone_constraints(list(rays), n)
        for g in gens:
            assert polyhedra.cone_contains(recons, g)
        for r in rays:
            assert polyhedra.cone_contains(cons, r)


def _meet(c1, c2, n):
    """Extreme rays of the intersection of two cones in constraint form,
    from the union of their rows."""
    return polyhedra.rays_from_constraints(
        (c1[0] + c2[0], c1[1] + c2[1]), n)


def test_intersection():
    c1 = _cone_2d((1, 0), (1, 2))
    c2 = _cone_2d((2, 1), (0, 1))
    assert _meet(c1, c2, 2) == ((1, 2), (2, 1))
    # disjoint interiors meeting along a ray
    c3 = _cone_2d((1, 0), (0, 1))
    c4 = _cone_2d((0, 1), (-1, 0))
    assert _meet(c3, c4, 2) == ((0, 1),)


def test_fm_feasible():
    # x >= 1, y >= 1, x + y <= 1 is infeasible
    assert not fm_feasible(
        [], [((1, 0), 1), ((0, 1), 1), ((-1, -1), -1)], 2)
    assert fm_feasible(
        [], [((1, 0), 1), ((0, 1), 1), ((-1, -1), -3)], 2)
    # equality x = y with x + y = 3 forces x = 3/2
    assert fm_feasible(
        [((1, -1), 0), ((1, 1), 3)], [((1, 0), Fraction(3, 2))], 2)
    assert not fm_feasible(
        [((1, -1), 0), ((1, 1), 3)], [((1, 0), 2)], 2)
    # pure equality contradiction
    assert not fm_feasible([((0, 0), 1)], [], 2)


def test_polytope_vertices():
    # unit square
    ineqs = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)]
    verts, rays = polytope_vertices(ineqs, 2)
    assert rays == []
    assert verts == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # upper-right quadrant shifted: vertex with recession rays
    ineqs = [((1, 0), 2), ((0, 1), 3)]
    verts, rays = polytope_vertices(ineqs, 2)
    assert verts == [(2, 3)]
    assert rays == [(0, 1), (1, 0)]


def test_polytope_volume():
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert polytope_volume(square) == 1
    tri = [(0, 0), (2, 0), (0, 2)]
    assert polytope_volume(tri) == 2
    # extra interior and boundary points must not change anything
    assert polytope_volume(tri + [(1, 0), (Fraction(1, 2), Fraction(1, 2))]) == 2
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    assert polytope_volume(cube) == 1
    simplex3 = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert polytope_volume(simplex3) == Fraction(1, 6)
    flat = [(0, 0), (1, 1), (2, 2)]
    assert polytope_volume(flat) == 0


def test_volume_random_shear_invariance():
    rng = random.Random(23)
    for _ in range(30):
        pts = [(rng.randrange(0, 5), rng.randrange(0, 5)) for _ in range(6)]
        vol = polytope_volume(pts)
        # unimodular shear preserves area
        sheared = [(x + 2 * y, y) for x, y in pts]
        assert polytope_volume(sheared) == vol


# ---------------------------------------------------------------------------
# the former Fraction-basis conversions, kept as a reference

def _ref_primitive(v):
    den = lcm(*(Fraction(x).denominator for x in v)) if v else 1
    ints = [int(Fraction(x) * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector")
    return tuple(x // g for x in ints)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _ref_cone_constraints(generators, ambient_dim):
    gens = [tuple(g) for g in generators if any(g)]
    eqs = []
    for w in linalg.nullspace(gens if gens else [[0] * ambient_dim]):
        eqs.append(_ref_primitive(w))
    if not gens:
        eqs = [tuple(1 if j == i else 0 for j in range(ambient_dim))
               for i in range(ambient_dim)]
        return tuple(sorted(eqs)), ()
    d = linalg.rank(gens)
    basis = _independent_subset(gens, d)
    ineqs = set()
    for subset in combinations(range(len(gens)), d - 1):
        sub = [gens[i] for i in subset]
        gram = [[_dot(b, s) for b in basis] for s in sub]
        ns = linalg.nullspace(gram if gram else [[0] * d])
        if len(ns) != 1:
            continue
        t = ns[0]
        w = tuple(sum(t[i] * Fraction(basis[i][j]) for i in range(d))
                  for j in range(ambient_dim))
        pos = any(_dot(w, g) > 0 for g in gens)
        neg = any(_dot(w, g) < 0 for g in gens)
        if pos and neg:
            continue
        if neg:
            w = tuple(-x for x in w)
        ineqs.add(_ref_primitive(w))
    return tuple(sorted(eqs)), tuple(sorted(ineqs))


def _ref_rays_from_constraints(constraints, ambient_dim):
    eqs, ineqs = constraints
    basis = linalg.nullspace(eqs) if eqs else [
        tuple(Fraction(int(i == j)) for j in range(ambient_dim))
        for i in range(ambient_dim)]
    d = len(basis)
    if d == 0:
        return ()
    reduced = [[_dot(a, b) for b in basis] for a in ineqs]
    if linalg.rank(reduced) < d:
        raise ValueError("cone contains a line")
    rays = set()
    for subset in combinations(range(len(reduced)), d - 1):
        sub = [reduced[i] for i in subset]
        ns = linalg.nullspace(sub if sub else [[Fraction(0)] * d])
        if len(ns) != 1:
            continue
        y = ns[0]
        x = tuple(sum(y[i] * basis[i][j] for i in range(d))
                  for j in range(ambient_dim))
        if all(_dot(a, x) >= 0 for a in ineqs):
            rays.add(_ref_primitive(x))
        elif all(_dot(a, x) <= 0 for a in ineqs):
            rays.add(_ref_primitive([-t for t in x]))
    return tuple(sorted(rays))


def _rays_or_refusal(rays_from_constraints, constraints, n):
    try:
        return rays_from_constraints(constraints, n)
    except ValueError as e:
        return str(e)


def _in_cone(gens, point):
    """point is a nonnegative combination of gens (Fourier-Motzkin)."""
    k = len(gens)
    eqs = [([g[i] for g in gens], point[i]) for i in range(len(point))]
    ineqs = [(tuple(int(i == j) for j in range(k)), 0) for i in range(k)]
    return fm_feasible(eqs, ineqs, k)


def _extreme_rays(gens):
    """Extreme rays of a pointed cone from its generators: the directions
    not in the cone of the other directions."""
    dirs = sorted({linalg.primitive_vector(g) for g in gens if any(g)})
    return tuple(r for r in dirs
                 if not _in_cone([s for s in dirs if s != r], r))


def _is_pointed(gens):
    """No nonzero nonnegative combination of gens vanishes."""
    k, n = len(gens), len(gens[0])
    eqs = [([g[i] for g in gens], 0) for i in range(n)]
    ineqs = [(tuple(int(i == j) for j in range(k)), 0) for i in range(k)]
    ineqs.append(((1,) * k, 1))
    return not fm_feasible(eqs, ineqs, k)


@st.composite
def _generator_sets(draw):
    """Generators in rank 3-5; appending -g0 makes dependent sets with
    lineality common."""
    n = draw(st.sampled_from((3, 4, 5)))
    vec = st.tuples(*[st.integers(-3, 3)] * n)
    gens = draw(st.lists(vec, min_size=1, max_size=6))
    if draw(st.booleans()):
        gens.append(tuple(-x for x in gens[0]))
    return n, gens


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_generator_sets())
def test_integer_kernels_match_fraction_basis_reference(data):
    n, gens = data
    cons = polyhedra.cone_constraints(gens, n)
    assert cons == _ref_cone_constraints(gens, n)
    rays = _rays_or_refusal(polyhedra.rays_from_constraints, cons, n)
    assert rays == _rays_or_refusal(_ref_rays_from_constraints, cons, n)
    if any(any(g) for g in gens) and _is_pointed(gens):
        assert rays == _extreme_rays(gens)
    elif any(any(g) for g in gens):
        assert rays == "cone contains a line"
    else:
        assert rays == ()


@st.composite
def _cones_and_hyperplanes(draw):
    """A pointed cone in rank 3-5 given by redundant rows, sometimes
    inside a hyperplane, and a hyperplane to split it by."""
    n = draw(st.sampled_from((3, 4, 5)))
    vec = st.tuples(*[st.integers(-3, 3)] * n)
    eqs = tuple(e for e in draw(st.lists(vec, max_size=1)) if any(e))
    rows = draw(st.lists(vec, min_size=n, max_size=n + 2))
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows.append(tuple(x + draw(st.integers(0, 2)) * y
                          for x, y in zip(a, b)))
    rows = tuple(rows)
    try:
        _ref_rays_from_constraints((eqs, rows), n)
    except ValueError:
        # a line: the orthant rows make the cone pointed
        rows += tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return n, eqs, rows, draw(vec)


def _tight_masks(rays, rows):
    """Per ray, the flags 1 << k of the rows k that vanish on it."""
    return tuple(sum(1 << k for k, row in enumerate(rows) if not _dot(row, r))
                 for r in rays)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(_cones_and_hyperplanes())
def test_split_matches_subset_enumeration(data):
    n, eqs, rows, a = data
    rays = _ref_rays_from_constraints((eqs, rows), n)
    bit = 1 << len(rows)
    upper, lower = polyhedra.split(rays, _tight_masks(rays, rows), a, bit)
    anti = tuple(-x for x in a)
    assert upper[0] == _ref_rays_from_constraints((eqs, rows + (a,)), n)
    assert lower[0] == _ref_rays_from_constraints((eqs, rows + (anti,)), n)
    # each side carries the masks its rows give
    assert upper[1] == _tight_masks(upper[0], rows + (a,))
    assert lower[1] == _tight_masks(lower[0], rows + (anti,))
    # each side's rows cut it out again: splitting by a once more keeps it
    assert polyhedra.split(*upper, a, bit << 1)[0][0] == upper[0]
    assert polyhedra.split(*lower, a, bit << 1)[1][0] == lower[0]


THREE_LEG_CLASSES = ((1, -1, 0), (2, -2, 0), (1, 1, -2), (-1, -1, 2),
                     (0, 0, 0))


@pytest.mark.parametrize("contact", THREE_LEG_CLASSES)
def test_edge_cone_rays_match_fraction_basis_reference(monkeypatch, contact):
    seen = []
    native = tropical._edge_cone_rays

    def record(equations, ne):
        rays = native(equations, ne)
        seen.append((equations, ne, rays))
        return rays

    monkeypatch.setattr(tropical, "_edge_cone_rays", record)
    tropical.dr_subfan(1, 3, contact)
    assert seen
    for equations, ne, rays in seen:
        assert rays == _ref_rays_from_constraints(
            (equations, _orthant(ne)), ne)


def _orthant(ne):
    return tuple(tuple(int(i == j) for j in range(ne)) for i in range(ne))


@st.composite
def _edge_equations(draw):
    """0-3 integer equations on 0-6 edge lengths, with zero, duplicate,
    negated and positive rows drawn often: a positive row leaves only 0."""
    ne = draw(st.integers(0, 6))
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ("new", "new", "positive", "zero", "again", "negated")))
        drawn = [row for row in rows if any(row)]
        if kind == "zero":
            rows.append((0,) * ne)
        elif kind in ("again", "negated") and drawn:
            row = draw(st.sampled_from(drawn))
            rows.append(row if kind == "again" else tuple(-x for x in row))
        else:
            low = 1 if kind == "positive" else -3
            rows.append(draw(st.tuples(*[st.integers(low, 3)] * ne)))
    return ne, tuple(rows)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_edge_equations())
@example((3, ((1, -1, 0), (0, 1, 1))))
@example((2, ((1, 0), (0, -1))))
def test_edge_cone_rays_cut_from_the_orthant_match_reference(data):
    ne, equations = data
    rays = tropical._edge_cone_rays(equations, ne)
    assert rays == _ref_rays_from_constraints((equations, _orthant(ne)), ne)
    if any(row and min(row) > 0 for row in equations):
        assert rays == ()


# full-dimensional simplicial cones: one elimination of [R^T | I]

def _square_generator_sets(seed, count, dependent):
    """count seeded n x n integer matrices for each n = 1..5 (2..5 when
    dependent), rows as generators, all rows nonzero: full rank, or of
    rank below n when dependent (one row a combination of two others)."""
    rng = random.Random(seed)
    for n in range(1 + dependent, 6):
        found = 0
        while found < count:
            gens = [tuple(rng.randrange(-4, 5) for _ in range(n))
                    for _ in range(n if not dependent else n - 1)]
            if dependent:
                a, b = rng.randrange(-2, 3), rng.randrange(-2, 3)
                gens.append(tuple(a * x + b * y
                                  for x, y in zip(gens[0], gens[-1])))
                rng.shuffle(gens)
            if (not all(any(g) for g in gens)
                    or (linalg.rank(gens) == n) == dependent):
                continue
            found += 1
            yield n, gens


def test_full_dimensional_dual_basis_reads_facets_off_one_elimination():
    for n, gens in _square_generator_sets(31, 30, dependent=False):
        basis = polyhedra.dual_basis(gens)
        assert [[_dot(u, r) for r in gens] for u, _ in basis] == [
            [p * (i == j) for j in range(n)] for i, (_, p) in enumerate(basis)]
        assert all(p != 0 and all(type(x) is int for x in u)
                   for u, p in basis)
        # the facets are the extreme rays of the dual cone
        assert polyhedra.cone_constraints(gens, n) == (
            (), polyhedra.rays_from_constraints(((), tuple(gens)), n))


def test_dependent_square_generators_keep_the_kernel_route():
    for n, gens in _square_generator_sets(32, 12, dependent=True):
        with pytest.raises(ValueError, match="rays are dependent"):
            polyhedra.dual_basis(gens)
        cons = polyhedra.cone_constraints(gens, n)
        assert cons == _ref_cone_constraints(gens, n)
        rays = _rays_or_refusal(polyhedra.rays_from_constraints, cons, n)
        assert rays == (_extreme_rays(gens) if _is_pointed(gens)
                        else "cone contains a line")
    # a line among as many generators as coordinates is still refused
    gens = [(1, 0, 0), (-1, 0, 0), (0, 1, 0)]
    assert polyhedra.cone_constraints(gens, 3) == (((0, 0, 1),),
                                                   ((0, 1, 0),))
    with pytest.raises(ValueError, match="cone contains a line"):
        polyhedra.rays_from_constraints(polyhedra.cone_constraints(gens, 3),
                                        3)
    with pytest.raises(ValueError, match="cone contains a line"):
        fans.fan_from_max_cones(3, [gens])


def test_full_dimensional_simplicial_cone_is_one_elimination(monkeypatch):
    calls = {"_integer_echelon": 0, "primitive_kernel": 0}
    for name in calls:
        native = getattr(linalg, name)

        def counted(*args, _name=name, _native=native):
            calls[_name] += 1
            return _native(*args)
        monkeypatch.setattr(linalg, name, counted)
    cons = polyhedra.cone_constraints([(1, 0, 0), (1, 2, 0), (1, 1, 3)], 3)
    assert cons == ((), ((0, 0, 1), (0, 3, -1), (6, -3, -1)))
    assert calls == {"_integer_echelon": 1, "primitive_kernel": 0}


def test_start_cone_is_one_inverse(monkeypatch):
    calls = {"scaled_inverse": 0, "primitive_kernel": 0}
    for name in calls:
        native = getattr(linalg, name)

        def counted(*args, _name=name, _native=native):
            calls[_name] += 1
            return _native(*args)
        monkeypatch.setattr(linalg, name, counted)
    rng = random.Random(24)
    for d in range(1, 6):
        for eqs in ((), (tuple([1] + [0] * d),)):
            n = d + len(eqs)
            # d independent rows on the kernel of eqs, then redundant ones
            rows = [tuple([0] * (n - d) + [int(i == j) for j in range(d)])
                    for i in range(d)]
            rows += [tuple(rng.randrange(0, 3) for _ in range(n))
                     for _ in range(2)]
            for k in range(d - 1):  # shear the orthant, keeping det 1
                rows[k] = tuple(x + rng.randrange(0, 3) * y
                                for x, y in zip(rows[k], rows[k + 1]))
            cons = (eqs, tuple(rows))
            calls.update(dict.fromkeys(calls, 0))
            rays = polyhedra.rays_from_constraints(cons, n)
            assert calls == {"scaled_inverse": 1, "primitive_kernel": 1}
            assert rays == _ref_rays_from_constraints(cons, n)

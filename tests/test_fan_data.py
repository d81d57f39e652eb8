"""Derived fan data against fresh computations.

fan_from_max_cones hands its H-representations, faces and cone dimensions
to the fan it returns; minimal_cone_containing locates points through the
top cones; _generic_vector takes one kernel per ray union of a cone pair.
Each is checked here against an independent computation: fresh
polyhedra calls, the scan over all cones and the rank-based search.
"""
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from tropchow import fans, linalg, polyhedra, weights

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

import dataclasses
import itertools
import time

import pytest

import helpers
from helpers import (covering_defect_by_sharers, faces_by_subset_scan,
                     facets_by_inequalities, is_complete_by_ridge_scan,
                     polygon_cone_fan, prism_face_fan, resolve_smooth)
from tropchow import fans


def _projective_plane():
    return fans.fan_from_max_cones(2, [
        [(1, 0), (0, 1)], [(1, 0), (-1, -1)], [(0, 1), (-1, -1)]])


def _square():
    return fans.fan_from_max_cones(2, [
        [(1, 0), (0, 1)], [(0, 1), (-1, 0)],
        [(-1, 0), (0, -1)], [(0, -1), (1, 0)]])


def test_canonical_construction():
    f = _projective_plane()
    assert f.rays == ((-1, -1), (0, 1), (1, 0))
    assert () in f.cones
    assert len(f.cones) == 1 + 3 + 3
    assert len(f.max_cones) == 3
    assert fans.validate_fan(f) == []
    assert f.is_complete()
    assert f.is_smooth()
    # redundant and scaled generators canonicalize away
    g = fans.fan_from_max_cones(2, [
        [(2, 0), (0, 3), (1, 1)], [(1, 0), (-2, -2)], [(0, 2), (-1, -1)]])
    assert g == f


def _overlapping():
    # the cones on (1, 0), (1, 2) and on (0, 1), (1, 1) overlap
    return fans.Fan(2, ((0, 1), (1, 0), (1, 1), (1, 2)),
                    ((), (0,), (1,), (2,), (3,), (1, 3), (0, 2)))


def _redundant():
    # (1, 1) is no extreme ray of the quadrant that lists it
    return fans.Fan(2, ((0, 1), (1, 0), (1, 1)),
                    ((), (0,), (1,), (2,), (0, 1, 2)))


def test_validate_catches_overlap():
    problems = fans.validate_fan(_overlapping())
    assert any("intersection" in p for p in problems)


def test_validate_catches_redundant_generator():
    problems = fans.validate_fan(_redundant())
    assert any("non-extremal" in p for p in problems)


def test_validate_catches_a_cone_that_is_no_face_of_a_top_cone():
    # the square cone on (+-1, +-1, 1) with its diagonal cone (0, 3): each
    # cone is fine on its own, and the square is the only top cone
    square = fans.Fan(3, ((-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)),
                      ((), (0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3),
                       (1, 3), (2, 3), (0, 1, 2, 3)))
    assert square.max_cones == ((0, 1, 2, 3),)
    assert fans.validate_fan(square) == [
        "cone (0, 3) is not a face of any top cone"]


@pytest.mark.parametrize("rays,cones,problems", [
    (((0, 0), (0, 1), (1, 0)), ((), (0,), (1,), (2,), (1, 2)),
     ["ray 0 is zero", "cone (0,) has non-extremal or missing rays",
      "intersection of (0,) and (1, 2) is not a face of (0,)"]),
    (((0, 1), (2, 0)), ((), (0,), (1,), (0, 1)),
     ["ray 1 = (2, 0) is not primitive",
      "cone (0, 1) has non-extremal or missing rays"]),
    (((1, 0), (0, 1)), ((), (0,), (1,), (0, 1)),
     ["rays are not sorted and distinct"]),
    (((0, 1), (0, 1)), ((), (0,), (1,)),
     ["rays are not sorted and distinct"]),
    (((0, 1), (1, 0)), ((0,), (1,), (0, 1)),
     ["zero cone missing", "face () of cone (0, 1) is not in the fan"]),
    # the cones under a top cone with a line are not judged
    (((-1, 0), (0, 1), (1, 0)), ((), (0,), (1,), (2,), (0, 1, 2)),
     ["cone (0, 1, 2) contains a line"]),
    (((0, 1), (1, 0)), ((), (0,), (0, 1)),
     ["face (1,) of cone (0, 1) is not in the fan"]),
], ids=["zero ray", "non-primitive ray", "unsorted rays", "repeated ray",
        "no zero cone", "line", "missing face"])
def test_validate_refusals_of_directly_built_fans(rays, cones, problems):
    assert fans.validate_fan(fans.Fan(2, rays, cones)) == problems


def test_faces_of_directly_built_fans_equal_the_scans():
    # no face data is handed over: the faces, top cones, facets,
    # completeness and coverage of a Fan built directly are all derived
    for bad in (_overlapping(), _redundant()):
        for c in bad.cones:
            assert fans._faces_as_keys(bad, c) == faces_by_subset_scan(
                c, bad.cone_rays(c), bad.cone_hrep(c)[1])
            assert bad.facets_of(c) == facets_by_inequalities(bad, c)
        assert bad.max_cones == tuple(
            c for c in bad.cones if not any(set(c) < set(d)
                                            for d in bad.cones))
        assert bad.is_complete() is is_complete_by_ridge_scan(bad) is False
        assert fans._covering_defect(bad, bad) == (
            covering_defect_by_sharers(bad, bad))


def test_completeness_negative():
    orthant = fans.fan_from_max_cones(2, [[(1, 0), (0, 1)]])
    assert fans.validate_fan(orthant) == []
    assert not orthant.is_complete()


def test_stellar_subdivision():
    f = _projective_plane()
    corner = f.cones[f.cones.index((1, 2))]
    assert set(f.cone_rays(corner)) == {(0, 1), (1, 0)}
    bl = fans.stellar_subdivision(f, corner)
    assert (1, 1) in bl.rays
    assert fans.validate_fan(bl) == []
    assert bl.is_complete() and bl.is_smooth()
    assert len(bl.max_cones) == 4
    # inserting the ray directly gives the same fan
    assert fans.insert_ray(f, (2, 2)) == bl
    assert fans.insert_ray(bl, (1, 1)) is bl


def test_stellar_subdivision_refuses_a_ray_off_the_center():
    f = _projective_plane()
    edge = (0, 1)  # rays (-1, -1) and (0, 1)
    # interior rays, scaled or not, and the default sum of the rays
    for ray in ((-1, 0), (-2, 0), (-1, 1)):
        bl = fans.stellar_subdivision(f, edge, ray)
        assert fans.validate_fan(bl) == [] and len(bl.max_cones) == 4
    assert fans.stellar_subdivision(f, edge, (-1, 0)) is (
        fans.stellar_subdivision(f, edge))
    # outside the cone, on its boundary, zero, or of the wrong length
    for ray in ((1, -1), (1, 1), (0, 1), (-1, -1), (0, 0), (1, 2, 3),
                (-1,)):
        with pytest.raises(ValueError, match="relative interior"):
            fans.stellar_subdivision(f, edge, ray)
    # a ray center takes only its own direction
    with pytest.raises(ValueError, match="relative interior"):
        fans.stellar_subdivision(f, (1,), (1, 1))
    assert fans.stellar_subdivision(f, (1,), (0, 3)) is f


def test_insert_ray_locates_its_ray_once(monkeypatch):
    f = _projective_plane()
    located = []
    native = fans.Fan.minimal_cone_containing

    def counted(fan, point):
        located.append(tuple(point))
        return native(fan, point)

    monkeypatch.setattr(fans.Fan, "minimal_cone_containing", counted)
    bl = fans.insert_ray(f, (4, 2))
    assert located == [(2, 1)]
    # the public subdivision still locates the ray it is given
    assert fans.stellar_subdivision(f, (1, 2), (2, 1)) is bl
    assert located == [(2, 1), (2, 1)]
    with pytest.raises(ValueError, match="lies outside the fan support"):
        fans.insert_ray(fans.fan_from_max_cones(2, [[(1, 0), (0, 1)]]),
                        (-1, 0))


def test_multiplicity_and_resolution():
    f = fans.fan_from_max_cones(2, [[(1, 0), (1, 2)]])
    cone = f.max_cones[0]
    assert f.cone_multiplicity(cone) == 2
    res = resolve_smooth(f)
    assert res.is_smooth()
    assert (1, 1) in res.rays
    assert fans.validate_fan(res) == []

    g = fans.fan_from_max_cones(2, [[(1, 0), (1, 3)]])
    res = resolve_smooth(g)
    assert res.is_smooth()
    assert set(res.rays) == {(1, 0), (1, 1), (1, 2), (1, 3)}

    h = fans.fan_from_max_cones(3, [[(1, 0, 0), (0, 1, 0), (1, 1, 2)]])
    resh = resolve_smooth(h)
    assert resh.is_smooth()
    assert fans.validate_fan(resh) == []


def test_resolution_of_pyramids_sharing_a_square(monkeypatch):
    # subdividing a pyramid at the sum of its rays leaves a pyramid over
    # the same square face, again and again; the square comes first
    monkeypatch.setattr(helpers, "_RESOLVE_STEPS", 20)
    square = [(1, 0, 1, 0), (-1, 0, 1, 0), (0, 1, 1, 0), (0, -1, 1, 0)]
    f = fans.fan_from_max_cones(4, [square + [(0, 0, 0, s)] for s in (1, -1)])
    res = resolve_smooth(f)
    assert res.is_smooth() and fans.validate_fan(res) == []
    assert set(res.rays) == set(f.rays) | {(0, 0, 1, 0)}
    assert len(res.max_cones) == 8
    fans.subdivision_assignment(res, f)


def test_star_fan():
    f = _projective_plane()
    ray_e1 = (f.rays.index((1, 0)),)
    star = fans.star_fan(f, ray_e1)
    assert star.fan.rank == 1
    assert star.fan.is_complete()
    assert len(star.fan.max_cones) == 2
    assert star.cone_to_source[()] == ray_e1
    # projection kills the center and section splits it
    from tropchow import linalg
    assert linalg.mat_vec(star.proj, (1, 0)) == (0,)
    ps = linalg.mat_mul(star.proj, star.sect)
    assert ps == linalg.identity_matrix(1)
    # star at the origin cone is the fan itself
    whole = fans.star_fan(f, ())
    assert whole.fan == f


def test_star_is_kept_per_fan_and_frozen():
    f = _projective_plane()
    for center in f.cones:
        star = fans.star_fan(f, center)
        assert fans.star_fan(f, center) is star
        assert f._derived[("star", center)] is star
    with pytest.raises(dataclasses.FrozenInstanceError):
        star.fan = f
    with pytest.raises(dataclasses.FrozenInstanceError):
        star.cone_to_source = {}


def test_star_refusals():
    f = _projective_plane()
    with pytest.raises(ValueError, match="center is not a fan cone"):
        fans.star_fan(f, (0, 1, 2))
    # the image of the cone on the redundant ray is no quotient cone
    bad = _redundant()
    with pytest.raises(ValueError, match=r"image of \(2,\) is not a "
                                         "quotient cone"):
        fans.star_fan(bad, ())
    assert ("star", ()) not in bad._derived


def test_star_at_a_ray_of_the_cube_fan():
    # no top cone is simplicial over a ray: the image of its fourth ray
    # lies inside the image cone, which the star keys by its two rays
    corners = list(itertools.product((1, -1), repeat=3))
    cube = fans.fan_from_max_cones(3, [[r for r in corners if r[i] == s]
                                       for i in range(3) for s in (1, -1)])
    ray = cube.rays.index((1, 1, 1))
    star = fans.star_fan(cube, (ray,))
    assert star.fan.rank == 2 and star.fan.is_complete()
    assert len(star.fan.rays) == len(star.fan.max_cones) == 3
    assert sorted(star.cone_to_source[m] for m in star.fan.max_cones) == [
        m for m in cube.max_cones if ray in m]


def test_star_at_the_zero_cone_has_identity_maps():
    from tropchow import linalg
    point = fans.fan_from_max_cones(0, [])
    p3 = fans.fan_from_max_cones(3, [
        [r for r in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
         if r != skip]
        for skip in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))])
    for f in (point, _projective_plane(), _square(), p3):
        star = fans.star_fan(f, ())
        assert star.proj == linalg.identity_matrix(f.rank)
        assert star.sect == linalg.identity_matrix(f.rank)
        assert star.fan == f


def test_common_refinement():
    sq = _square()
    d1 = fans.insert_ray(sq, (1, 1))
    d2 = fans.insert_ray(sq, (1, -1))
    ref = fans.common_refinement(d1, d2)
    assert (1, 1) in ref.rays and (1, -1) in ref.rays
    assert fans.validate_fan(ref) == []
    assert ref.is_complete()
    assert len(ref.max_cones) == 6
    # refining with itself changes nothing
    assert fans.common_refinement(sq, sq) == sq


def test_common_refinement_rejects_support_mismatch():
    orthant = fans.fan_from_max_cones(2, [[(1, 0), (0, 1)]])
    try:
        fans.common_refinement(orthant, _projective_plane())
        assert False
    except ValueError:
        pass


def test_common_refinement_rejects_a_half_orthant():
    # the cell the two share is the half orthant: its facet on (1, 1)
    # lies inside the orthant and in no second cell, in either order
    orthant = fans.fan_from_max_cones(2, [[(1, 0), (0, 1)]])
    half = fans.fan_from_max_cones(2, [[(1, 0), (1, 1)]])
    message = ("supports differ: facet (1,) of cell (0, 1) inside cone "
               "(0, 1) is shared by 0 cells")
    for pair in ((orthant, half), (half, orthant)):
        with pytest.raises(ValueError) as refusal:
            fans.common_refinement(*pair)
        assert str(refusal.value) == message
    assert fans.common_refinement(half, half) is half


def test_polygonal_cones():
    # a cone over a lattice 24-gon and the face fan of the prism over a
    # 16-gon: 2^24 and 2^16 subsets of facets, but only 50 and 99 cones
    start = time.monotonic()
    cone = polygon_cone_fan(24)
    assert len(cone.rays) == 24 and len(cone.cones) == 50
    assert fans.validate_fan(cone) == [] and not cone.is_complete()
    prism = prism_face_fan(16)
    assert len(prism.max_cones) == 18 and len(prism.cones) == 99
    assert fans.validate_fan(prism) == [] and prism.is_complete()
    assert not prism.is_smooth()
    assert time.monotonic() - start < 1


def test_subdivision_assignment():
    f = _projective_plane()
    corner = (1, 2)
    bl = fans.stellar_subdivision(f, corner)
    amap = fans.subdivision_assignment(bl, f)
    assert amap[()] == ()
    new_ray = (bl.rays.index((1, 1)),)
    assert amap[new_ray] == corner
    for c in bl.cones:
        assert all(f.cone_contains(amap[c], r) for r in bl.cone_rays(c))

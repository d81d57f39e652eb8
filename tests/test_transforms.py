import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from helpers import (assert_exact, assert_principalizes, product_tower_setup,
                     resolve_smooth, setup_to_payload,
                     stellar_subdivision_by_generators, tower_sweep_setup,
                     verifies_every_cone_cycle)
from tropchow import cli, fans, io, linalg, piecewise
from tropchow.piecewise import courant_function, pp_pullback
from tropchow.transforms import (BlowupSetup, ToricCycle, cycle_from_class,
                                 fulton_correction, fundamental_cycle,
                                 strict_transform, total_transform,
                                 verify_fulton_identity)
from tropchow.weights import (mw_of_pp, mw_product, mw_to_pp,
                              pushforward_witness)


def _p2():
    return fans.fan_from_max_cones(2, [
        [(1, 0), (0, 1)], [(1, 0), (-1, -1)], [(0, 1), (-1, -1)]])


def _p1xp1():
    return fans.fan_from_max_cones(2, [
        [(1, 0), (0, 1)], [(0, 1), (-1, 0)],
        [(-1, 0), (0, -1)], [(0, -1), (1, 0)]])


def _p3():
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    return fans.fan_from_max_cones(3, [list(c) for c in combinations(e, 3)])


def _p1_cubed():
    return fans.fan_from_max_cones(3, [
        [(a, 0, 0), (0, b, 0), (0, 0, c)]
        for a, b, c in product((1, -1), repeat=3)])


def _ray_cone(fan, *rays):
    return tuple(sorted(fan.rays.index(r) for r in rays))


def _corner_setup(modification=None):
    f = _p2()
    return BlowupSetup(f, _ray_cone(f, (1, 0), (0, 1)), modification)


def test_setup_validation():
    f = _p2()
    with pytest.raises(ValueError):
        BlowupSetup(f, ())
    with pytest.raises(ValueError):
        BlowupSetup(f, (0, 1, 2))
    # a lone ray (1, 2) leaves a non-unimodular cone, which is rejected
    with pytest.raises(ValueError):
        _corner_setup(fans.insert_ray(f, (1, 2)))


def test_working_fan_refines_both():
    setup = _corner_setup()
    assert setup.blowup == fans.insert_ray(setup.base, (1, 1))
    assert setup.refined == setup.blowup
    assert setup.tower() == setup.tower()
    assert len(setup.tower()) == 1


def test_fundamental_transforms():
    setup = _corner_setup()
    v = fundamental_cycle(setup.modification)
    assert strict_transform(v, setup) == fundamental_cycle(setup.refined)
    assert total_transform(v, setup) == fundamental_cycle(setup.refined)
    corr, decomposition = fulton_correction(v, setup)
    assert corr.class_weight.is_zero()
    assert decomposition == ()


def test_line_through_center():
    setup = _corner_setup()
    f = setup.modification
    v = ToricCycle(f, 1, {_ray_cone(f, (1, 0)): 1})
    fine = setup.refined

    strict = strict_transform(v, setup)
    assert strict.coefficients == {_ray_cone(fine, (1, 0)): 1}
    sw = strict.class_weight.values
    assert sw[_ray_cone(fine, (1, 1))] == 1      # meets the new divisor once
    assert sw[_ray_cone(fine, (1, 0))] == 0      # self-pairing drops by one
    assert sw[_ray_cone(fine, (-1, -1))] == 1

    total = total_transform(v, setup)
    assert total.coefficients == {
        _ray_cone(fine, (1, 0)): 1, _ray_cone(fine, (1, 1)): 1}
    tw = total.class_weight.values
    assert tw[_ray_cone(fine, (1, 1))] == 0
    assert tw[_ray_cone(fine, (1, 0))] == 1
    assert tw[_ray_cone(fine, (0, 1))] == 1
    assert tw[_ray_cone(fine, (-1, -1))] == 1


def test_correction_for_line_is_new_divisor():
    setup = _corner_setup()
    f = setup.modification
    v = ToricCycle(f, 1, {_ray_cone(f, (1, 0)): 1})
    corr, decomposition = fulton_correction(v, setup)
    fine = setup.refined
    expected = mw_of_pp(
        courant_function(fine, fine.rays.index((1, 1))), 1)
    assert corr.class_weight == expected
    assert len(decomposition) == 1
    entry = decomposition[0]
    assert entry.new_ray == (1, 1)
    assert entry.stratum_rays == ((1, 0),)
    assert entry.slots == ((1, 0),)
    report = verify_fulton_identity(v, setup)
    assert report.verdict == "verified"


def test_point_at_center():
    setup = _corner_setup()
    f = setup.modification
    v = ToricCycle(f, 2, {_ray_cone(f, (1, 0), (0, 1)): 1})
    total = total_transform(v, setup)
    assert total.class_weight.values[()] == 1
    strict = strict_transform(v, setup)
    assert strict.coefficients == {}
    corr, decomposition = fulton_correction(v, setup)
    assert corr.class_weight.values[()] == 1
    assert [e.slots for e in decomposition] == [((0, 1),)]
    assert verify_fulton_identity(v, setup).verdict == "verified"


def test_strict_transform_reads_the_setup_assignment(monkeypatch):
    p3 = _p3()
    setup = BlowupSetup(p3, p3.max_cones[0])
    cycle = ToricCycle(p3, 1, {(0,): 1, (3,): 2})
    calls = []
    contains = fans.Fan.cone_contains

    def counted(self, cone, point):
        calls.append(cone)
        return contains(self, cone, point)
    monkeypatch.setattr(fans.Fan, "cone_contains", counted)
    strict = strict_transform(cycle, setup)
    assert calls == []
    assert strict.coefficients
    assignment = fans.subdivision_assignment(setup.refined,
                                             setup.modification)
    assert fans.subdivision_assignment(
        setup.refined, setup.modification) is assignment


def test_cycle_away_from_center():
    setup = _corner_setup()
    f = setup.modification
    away = ToricCycle(f, 2, {_ray_cone(f, (-1, -1), (0, 1)): 1})
    strict = strict_transform(away, setup)
    assert strict.coefficients == {
        _ray_cone(setup.refined, (-1, -1), (0, 1)): 1}
    assert total_transform(away, setup).class_weight == strict.class_weight
    corr, _ = fulton_correction(away, setup)
    assert corr.class_weight.is_zero()


def test_invertible_pullback_needs_no_correction():
    f = _p2()
    blown = fans.insert_ray(f, (1, 1))
    setup = _corner_setup(blown)
    assert setup.refined == blown
    assert setup.tower() == ()
    for v in (fundamental_cycle(blown),
              ToricCycle(blown, 1, {_ray_cone(blown, (1, 1)): 1})):
        report = verify_fulton_identity(v, setup)
        assert report.verdict == "verified"
        assert report.correction.class_weight.is_zero()
        assert report.total.class_weight == report.strict.class_weight


def test_divisor_center_never_corrects():
    f = _p2()
    setup = BlowupSetup(f, _ray_cone(f, (1, 0)))
    assert setup.blowup == f and setup.refined == f
    for cone in [(), _ray_cone(f, (1, 0)), _ray_cone(f, (0, 1)),
                 _ray_cone(f, (1, 0), (0, 1))]:
        v = ToricCycle(f, f.cone_dim(cone), {cone: 1})
        report = verify_fulton_identity(v, setup)
        assert report.verdict == "verified"
        assert report.correction.class_weight.is_zero()


def test_decomposition_sums_to_correction():
    f = _p2()
    wide = fans.insert_ray(fans.insert_ray(f, (-1, 0)), (0, -1))
    setup = _corner_setup(wide)
    assert len(setup.tower()) == 1
    v = ToricCycle(wide, 1, {_ray_cone(wide, (1, 0)): 1,
                             _ray_cone(wide, (-1, 0)): 2})
    corr, decomposition = fulton_correction(v, setup)
    acc = corr.class_weight.scale(0)
    for entry in decomposition:
        acc = acc + entry.weight
    assert acc == corr.class_weight
    assert verify_fulton_identity(v, setup).verdict == "verified"


def test_product_surface_line():
    f = _p1xp1()
    setup = BlowupSetup(f, _ray_cone(f, (1, 0), (0, 1)))
    fine = setup.refined
    v = ToricCycle(f, 1, {_ray_cone(f, (1, 0)): 1})
    corr, _ = fulton_correction(v, setup)
    cw = corr.class_weight.values
    assert cw[_ray_cone(fine, (1, 0))] == 1
    assert cw[_ray_cone(fine, (1, 1))] == -1
    assert cw[_ray_cone(fine, (0, 1))] == 1
    assert cw[_ray_cone(fine, (-1, 0))] == 0
    assert cw[_ray_cone(fine, (0, -1))] == 0
    assert verify_fulton_identity(v, setup).verdict == "verified"


def test_class_representatives_roundtrip():
    f = _p2()
    v = ToricCycle(f, 1, {_ray_cone(f, (1, 0)): 2, _ray_cone(f, (0, 1)): -1})
    again = cycle_from_class(f, v.class_weight)
    assert again.class_weight == v.class_weight
    pt = ToricCycle(f, 2, {_ray_cone(f, (1, 0), (0, 1)): Fraction(3)})
    assert cycle_from_class(f, pt.class_weight).class_weight == pt.class_weight


LINE = ((1, 0, 0), (0, 1, 0))


@pytest.mark.parametrize("make_fan", [_p3, _p1_cubed])
@pytest.mark.parametrize("codim", [1, 2, 3])
def test_line_blowup_verifies(make_fan, codim):
    """A rank-3 blowup along an invariant line factors through one
    stellar step at the line; cycles of codimension 1, 2 and 3 through
    the line verify, each with a nonzero correction."""
    f = make_fan()
    setup = BlowupSetup(f, _ray_cone(f, *LINE))
    (step,) = setup.tower()
    assert step.ray == (1, 1, 0)
    assert step.base == f and step.center == setup.center
    cycle_rays = (LINE + ((0, 0, 1),))[:codim]
    v = ToricCycle(f, codim, {_ray_cone(f, *cycle_rays): 1})
    report = verify_fulton_identity(v, setup)
    assert report.verdict == "verified"
    assert not report.correction.class_weight.is_zero()


def test_line_blowup_divisor_correction_is_exceptional():
    f = _p3()
    setup = BlowupSetup(f, _ray_cone(f, *LINE))
    fine = setup.refined
    v = ToricCycle(f, 1, {_ray_cone(f, (1, 0, 0)): 1})
    corr, _ = fulton_correction(v, setup)
    assert corr.class_weight == mw_of_pp(
        courant_function(fine, fine.rays.index((1, 1, 0))), 1)
    centre = ToricCycle(f, 2, {_ray_cone(f, *LINE): 1})
    assert strict_transform(centre, setup).coefficients == {}


E4 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


def _p4():
    return fans.fan_from_max_cones(4, [
        list(c) for c in combinations(E4 + [(-1, -1, -1, -1)], 4)])


def _p1_fourth():
    return fans.fan_from_max_cones(4, [
        [tuple(s * x for x in e) for s, e in zip(signs, E4)]
        for signs in product((1, -1), repeat=4)])


def _nearest_carriers(f, center, codim):
    """The three cones of one codimension sharing the most rays with a
    center."""
    return sorted(f.cones_of_dim(codim), key=lambda c: (
        -len(set(c) & set(center)), c))[:3]


@pytest.mark.parametrize("make_fan", [_p4, _p1_fourth])
def test_rank4_blowups_verify(make_fan):
    """Rank 4: blowups at cones of 2, 3 and 4 rays, each against the
    three single-cone cycles of every codimension 1 to 3 that share the
    most rays with the center. Budget: under 1.5 s for both fans."""
    f = make_fan()
    for size in (2, 3, 4):
        setup = BlowupSetup(f, _ray_cone(f, *E4[:size]))
        for codim in (1, 2, 3):
            for cone in _nearest_carriers(f, setup.center, codim):
                report = verify_fulton_identity(
                    ToricCycle(f, codim, {cone: 1}), setup)
                assert report.verdict == "verified", (size, cone)


@pytest.mark.parametrize("ray", [
    (1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, 1), (-1, 0, 0, 0), (1, 1, 1, 0)])
def test_rank4_blowups_against_subdividing_carriers(ray):
    """Rank 4: P4 blown up along the 2- and 3-cones on e1, e2 (, e3),
    against P4 with one ray inserted, each against a seeded cycle on
    three carrier cones of every codimension 1 to 3. The normalized
    blowups of the (0, 1, 1, 0) and (1, 0, 1, 1) carriers along the
    2-cone have top cones over a shared non-simplicial face, which the
    working fan, built by stellar subdivisions at smooth cones, never
    has. Budget: under 1.5 s for all five carriers."""
    f = _p4()
    carrier = fans.insert_ray(f, ray)
    for size in (2, 3):
        setup = BlowupSetup(f, _ray_cone(f, *E4[:size]), carrier)
        assert setup.refined.is_smooth()
        for codim in (1, 2, 3):
            rng = random.Random(f"{ray} {size} {codim}")
            cycle = ToricCycle(carrier, codim, {
                c: rng.choice((-2, -1, 1, 2, 3))
                for c in rng.sample(carrier.cones_of_dim(codim), 3)})
            report = verify_fulton_identity(cycle, setup)
            assert report.verdict == "verified", (size, cycle)


def _p5():
    e = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    return fans.fan_from_max_cones(5, [
        list(c) for c in combinations(e + [(-1,) * 5], 5)])


def test_rank5_blowups_verify_multi_cone_cycles():
    """Rank 5: P5 blown up at 12 seeded cones of 2 or 3 rays, against P5
    with (1, 1, 1, 1, 0) inserted and resolved, each against a seeded
    cycle on 2-4 carrier cones of every codimension 1 to 4: 48 cycles.
    Budget: under 3 s."""
    f = _p5()
    carrier = resolve_smooth(fans.insert_ray(f, (1, 1, 1, 1, 0)))
    for seed in range(12):
        rng = random.Random(f"rank5 {seed}")
        center = rng.choice([c for c in f.cones if len(c) == 2 + seed % 2])
        setup = BlowupSetup(f, center, carrier)
        for codim in range(1, 5):
            cones = rng.sample(carrier.cones_of_dim(codim), rng.randint(2, 4))
            cycle = ToricCycle(carrier, codim, {
                c: rng.choice((-2, -1, 1, 2, 3)) for c in cones})
            report = verify_fulton_identity(cycle, setup)
            assert report.verdict == "verified", (center, cycle)


@pytest.mark.parametrize("make_fan, center", [
    (_p2, ((1, 0), (0, 1))), (_p3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))],
    ids=["P2-point", "P3-point"])
def test_cycle_coefficients_are_int_when_integral(make_fan, center):
    # cycles follow the polynomials' number rule, through every transform
    f = make_fan()
    setup = BlowupSetup(f, _ray_cone(f, *center))
    for codim in range(1, f.rank + 1):
        for cone in _nearest_carriers(f, setup.center, codim):
            v = ToricCycle(f, codim, {cone: Fraction(3)})
            report = verify_fulton_identity(v, setup)
            assert report.verdict == "verified"
            for cycle in (v, report.total, report.strict, report.correction):
                assert all(type(c) is int for c in (
                    *cycle.coefficients.values(),
                    *cycle.class_weight.values.values()))
    half = ToricCycle(f, 1, {(0,): Fraction(1, 2), (1,): Fraction(4, 2)})
    assert half.coefficients == {(0,): Fraction(1, 2), (1,): 2}
    assert_exact(half.coefficients.values())
    assert_exact(half.class_weight.values.values())
    assert half == ToricCycle(f, 1, {(0,): Fraction(1, 2), (1,): 2})


E3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
PROJECTION_CENTERS = [
    (_p3, E3[:1]), (_p3, E3[:2]), (_p3, E3),
    (_p3, (E3[1], E3[2], (-1, -1, -1))),
    (_p4, E4[:1]), (_p4, E4[:2]), (_p4, E4[:3]), (_p4, E4)]


@pytest.mark.parametrize("make_fan, center", PROJECTION_CENTERS, ids=[
    "P3-ray", "P3-line", "P3-point", "P3-other-point",
    "P4-ray", "P4-plane", "P4-line", "P4-point"])
def test_projection_formula_on_blowups(make_fan, center):
    """pi_*(pi^*a . pi^*b) = a . b for the blowup pi at a center: pi^* is
    the total transform, the product is mw_product on the working fan,
    and pi_* is pushforward_witness of a witness of it (mw_to_pp) back to
    the base. a and b run over the three single-cone cycles nearest the
    center, of codimensions 1+1 and 1+2, and on P4 also 2+2: 180 ordered
    pairs over the 8 centers. Budget: about 1.5 s for all of them."""
    f = make_fan()
    setup = BlowupSetup(f, _ray_cone(f, *center))
    fine = setup.refined
    pulled = {k: [(v, total_transform(v, setup).class_weight) for v in (
        ToricCycle(f, k, {c: 1})
        for c in _nearest_carriers(f, setup.center, k))] for k in (1, 2)}
    splits = [(1, 1), (1, 2)] + ([(2, 2)] if f.rank == 4 else [])
    for ka, kb in splits:
        for a, up_a in pulled[ka]:
            for b, up_b in pulled[kb]:
                witness = mw_to_pp(mw_product(up_a, up_b))
                assert pushforward_witness(fine, witness, ka + kb, f) == (
                    mw_product(a.class_weight, b.class_weight)), (a, b)


# ---------------------------------------------------------------------------
# towers built forward by principalization


def _p3_line_setup(*extras):
    """P3 blown up along the line on (0, 0, 1) and (0, 1, 0), against P3
    with the extra directions inserted in turn."""
    f = _p3()
    carrier = f
    for v in extras:
        carrier = fans.insert_ray(carrier, v)
    return BlowupSetup(f, _ray_cone(f, (0, 0, 1), (0, 1, 0)), carrier)


def test_tower_whose_first_center_leaves_the_carrier():
    """The tower starts at the carrier's 2-cone on (-1, 1, 0) and
    (0, 0, 1), a cone off the line on which neither center function is
    least at both rays, and then subdivides the line itself. Every cone
    cycle of the carrier verifies."""
    setup = _p3_line_setup((-1, 0, 0), (-1, 1, 0))
    steps = setup.tower()
    assert [s.ray for s in steps] == [(-1, 1, 1), (0, 1, 1)]
    assert steps[0].base == setup.modification
    assert steps[0].base.cone_rays(steps[0].center) == [(-1, 1, 0),
                                                        (0, 0, 1)]
    assert steps[1].base.cone_rays(steps[1].center) == [(0, 0, 1),
                                                        (0, 1, 0)]
    assert verifies_every_cone_cycle(setup)


def test_tower_step_cap_is_an_internal_limitation(monkeypatch, capsys,
                                                  tmp_path):
    """A principalization that needs more than piecewise._TOWER_STEPS
    steps is refused with a RuntimeError, not as malformed input, and
    fulton verify exits 3 with one internal error line. The P3 line
    against two inserted rays needs 4 steps."""
    setup = _p3_line_setup((-1, 0, -1), (-1, 1, -1))
    assert len(setup.tower()) == 4
    line = ToricCycle(setup.modification, 2, {setup.center: 1})
    path = tmp_path / "setup.json"
    path.write_text(io.print_document(io.Document(
        "setup", setup_to_payload(setup, line))))
    monkeypatch.setattr(piecewise, "_TOWER_STEPS", 4)
    assert len(BlowupSetup(setup.base, setup.center,
                           setup.modification).tower()) == 4
    monkeypatch.setattr(piecewise, "_TOWER_STEPS", 3)
    with pytest.raises(RuntimeError,
                       match="^principalization did not terminate$"):
        BlowupSetup(setup.base, setup.center, setup.modification)
    assert cli.main(["fulton", "verify", "--setup", str(path)]) == 3
    assert capsys.readouterr() == (
        "", "internal error: principalization did not terminate\n")


def test_seeded_towers_verify_or_are_refused():
    """Blowups of P3 and (P1)^3 along cones of 2 or 3 rays against
    carriers with 1-3 seeded rays inserted and resolved: each verifies
    the identity for every cone cycle of its carrier, and none is
    refused. Budget: about 5 s."""
    outcomes = []
    for seed in range(40):
        setup = tower_sweep_setup(seed)
        try:
            outcomes.append(verifies_every_cone_cycle(setup))
        except RuntimeError:
            outcomes.append(None)
    assert (outcomes.count(True), outcomes.count(None)) == (40, 0)


def test_principalized_working_fans_against_the_resolution_route():
    """Seeds 0-119 of the tower sweep: the working fan refines the
    normalized blowup of the carrier at the center (min_refinement of
    the center's functions), has at most as many top cones as
    resolve_smooth of it, and is reached from the carrier by the
    recorded steps, each a smooth stellar subdivision at the sum of its
    center's rays. Budget: about 2 s."""
    for seed in range(120):
        setup = tower_sweep_setup(seed)
        fan = setup.modification
        ident = linalg.identity_matrix(fan.rank)
        coarse = assert_principalizes(fan, [
            pp_pullback(fan, ident, courant_function(setup.base, i))
            for i in setup.center], setup.refined, setup._principalization)
        assert len(setup.refined.max_cones) <= len(
            resolve_smooth(coarse).max_cones)


@pytest.mark.parametrize("m", [4, 8])
def test_rank4_tower_with_a_long_link(m):
    """F x (P1)^2 blown up along the (P1)^2 factor: the new ray's link has
    m + 2 rays, and the tower is the one stellar subdivision at the
    center, as rebuilt from generators."""
    setup = product_tower_setup(m)
    (step,) = setup.tower()
    assert (step.base, step.center, step.ray) == (
        setup.base, setup.center, (0, 0, 1, 1))
    assert setup.refined == step.result == stellar_subdivision_by_generators(
        setup.base, setup.center)

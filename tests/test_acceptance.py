"""Acceptance suite: one test per headline guarantee, with time budgets.

Each test prints a single pass line; a failed assert is the fail line.
Suites share computed data through the memoized helpers so the balancing
sweep in criterion 5 sees every weight the earlier suites produced.
"""
import functools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from helpers import ideal_to_payload, pp_from_polynomial, pp_from_vector
from tropchow import io
from tropchow.fans import fan_from_max_cones, insert_ray, stellar_subdivision
from tropchow.ideals import MonomialIdeal, pullback_ideal, segre_class
from tropchow.linalg import identity_matrix, rank
from tropchow.piecewise import (PiecewisePolynomial, _grid_points,
                                courant_function, excess_chern_class,
                                pp_pullback, pp_space_basis,
                                pp_space_dimension)
from tropchow.polynomials import Polynomial
from tropchow.transforms import (BlowupSetup, ToricCycle, fundamental_cycle,
                                 verify_fulton_identity)
from tropchow.tropical import (WeightedDualGraph, dr_subfan,
                               enumerate_stable_graphs, rubber_subdivision)
from tropchow.weights import (MinkowskiWeight, balanced_weight_rank,
                              courant_monomial, is_balanced, mw_of_pp,
                              mw_product, mw_to_pp, pushforward_witness)


def _p2():
    return fan_from_max_cones(2, [
        [(1, 0), (0, 1)], [(1, 0), (-1, -1)], [(0, 1), (-1, -1)]])


def _p1xp1():
    return fan_from_max_cones(2, [
        [(1, 0), (0, 1)], [(0, 1), (-1, 0)],
        [(-1, 0), (0, -1)], [(0, -1), (1, 0)]])


def _blp2():
    return stellar_subdivision(_p2(), (1, 2))


@functools.lru_cache(maxsize=None)
def suite_blowup_identities():
    """Blowups of both surfaces, at a point and along a divisor, against
    three carrier subdivisions and five cycles each; the input cycles
    come last."""
    t0 = time.monotonic()
    reports = []
    weights = []
    inputs = []
    for base, extras in ((_p2(), [(-1, 0), (0, -1)]),
                         (_p1xp1(), [(-1, -1), (-1, 1)])):
        corner = tuple(sorted((base.rays.index((0, 1)),
                               base.rays.index((1, 0)))))
        for center in (corner, (base.rays.index((1, 0)),)):
            mods = [None]
            f = base
            for ray in extras:
                f = insert_ray(f, ray)
                mods.append(f)
            for mod in mods:
                setup = BlowupSetup(base, center, mod)
                carrier = setup.modification
                maxes = carrier.max_cones
                cycles = [
                    fundamental_cycle(carrier),
                    ToricCycle(carrier, 1, {(0,): 1}),
                    ToricCycle(carrier, 1, {(len(carrier.rays) - 1,): 2}),
                    ToricCycle(carrier, 2, {maxes[0]: 1}),
                    ToricCycle(carrier, 2, {maxes[-1]: 3}),
                ]
                inputs.extend(cycles)
                for cycle in cycles:
                    rep = verify_fulton_identity(cycle, setup)
                    reports.append(rep)
                    weights.extend([rep.total.class_weight,
                                    rep.strict.class_weight,
                                    rep.correction.class_weight])
                    weights.extend(c.weight for c in rep.decomposition)
    return reports, weights, time.monotonic() - t0, inputs


def _oracle_ideals():
    p2 = _p2()
    named = [("point", MonomialIdeal(p2, ((0, 0, 1), (0, 1, 0)))),
             ("fat point", MonomialIdeal(p2, ((0, 0, 2), (0, 1, 1),
                                              (0, 2, 0))))]
    for i in range(3):
        gen = tuple(1 if j == i else 0 for j in range(3))
        named.append((f"divisor {i}", MonomialIdeal(p2, (gen,))))
    return named


@functools.lru_cache(maxsize=None)
def suite_segre_oracles():
    t0 = time.monotonic()
    results = {name: segre_class(ideal) for name, ideal in _oracle_ideals()}
    weights = [w for data in results.values() for w in data.pieces.values()]
    return results, weights, time.monotonic() - t0


@functools.lru_cache(maxsize=None)
def suite_birational_invariance():
    """Segre classes recomputed after one more ambient subdivision and
    pushed back down."""
    base_results, _, _ = suite_segre_oracles()
    p2 = _p2()
    t0 = time.monotonic()
    weights = []
    checked = 0
    for cone in ((1, 2), (0, 1)):
        fine = stellar_subdivision(p2, cone)
        for name, ideal in _oracle_ideals():
            up = segre_class(pullback_ideal(ideal, fine))
            for k in (1, 2):
                pushed = pushforward_witness(fine, mw_to_pp(up.pieces[k]),
                                             k, p2)
                assert pushed == base_results[name].pieces[k], (name, k)
                weights.extend([up.pieces[k], pushed])
                checked += 1
    return checked, weights, time.monotonic() - t0


@functools.lru_cache(maxsize=None)
def suite_ring_consistency():
    """Products of random squarefree-or-not ray function monomials,
    composed two ways."""
    rng = random.Random(20260822)
    fans = [_p2(), _p1xp1(), _blp2()]
    t0 = time.monotonic()
    weights = []
    pairs = 0
    while pairs < 50:
        fan = fans[pairs % 3]
        da = rng.randrange(0, 3)
        db = rng.randrange(0, 3 - da)
        a = tuple(rng.randrange(len(fan.rays)) for _ in range(da))
        b = tuple(rng.randrange(len(fan.rays)) for _ in range(db))
        f, g = courant_monomial(fan, a), courant_monomial(fan, b)
        fa, gb = mw_of_pp(f, da), mw_of_pp(g, db)
        lhs = mw_of_pp(f * g, da + db)
        rhs = mw_product(fa, gb)
        assert lhs == rhs, (fan.rays, a, b)
        weights.extend([fa, gb, lhs, rhs])
        pairs += 1
    return pairs, weights, time.monotonic() - t0


def test_criterion_1_blowup_identity_suite():
    reports, _, elapsed, _ = suite_blowup_identities()
    assert len(reports) >= 30
    assert all(r.verdict == "verified" for r in reports)
    assert elapsed < 60
    print(f"criterion 1 (blowup identity suite, {len(reports)} instances, "
          f"{elapsed:.2f}s): PASS", flush=True)


def test_cycle_classes_are_the_weights_of_their_witnesses():
    # ToricCycle sums cached ray-monomial classes; mw_of_pp of the witness
    # is the independent route
    reports, _, _, inputs = suite_blowup_identities()
    cycles = inputs + [c for r in reports
                       for c in (r.total, r.strict, r.correction)]
    assert len(cycles) == 4 * len(reports)
    for cycle in cycles:
        assert cycle.class_weight == mw_of_pp(cycle.witness, cycle.codim)


def test_criterion_2_segre_oracles():
    p2 = _p2()
    results, _, elapsed = suite_segre_oracles()
    point = results["point"].pieces
    assert point[1].is_zero()
    assert point[2] == MinkowskiWeight(p2, 2, {(): Fraction(1)})
    fat = results["fat point"].pieces
    assert fat[1].is_zero()
    assert fat[2] == MinkowskiWeight(p2, 2, {(): Fraction(4)})
    for i in range(3):
        pieces = results[f"divisor {i}"].pieces
        assert pieces[1] == mw_of_pp(courant_function(p2, i), 1)
        assert pieces[2] == MinkowskiWeight(p2, 2, {(): Fraction(-1)})
    assert elapsed < 5
    print(f"criterion 2 (segre oracles, {elapsed:.2f}s): PASS", flush=True)


def test_criterion_3_birational_invariance():
    checked, _, elapsed = suite_birational_invariance()
    assert checked == 20
    assert elapsed < 10
    print(f"criterion 3 (birational invariance, {checked} pushes, "
          f"{elapsed:.2f}s): PASS", flush=True)


def test_criterion_4_ring_consistency():
    pairs, _, elapsed = suite_ring_consistency()
    assert pairs == 50
    assert elapsed < 30
    print(f"criterion 4 (ring consistency, {pairs} pairs, "
          f"{elapsed:.2f}s): PASS", flush=True)


def test_criterion_5_balancing_sweep():
    weights = []
    for suite in (suite_blowup_identities, suite_segre_oracles,
                  suite_birational_invariance, suite_ring_consistency):
        weights.extend(suite()[1])
    assert len(weights) > 300
    assert all(is_balanced(w) for w in weights)
    print(f"criterion 5 (balancing, {len(weights)} weights): PASS",
          flush=True)


def _linear_span_rank(fan, degree):
    """Rank of { coordinate * f } inside the degree-d function space."""
    if degree == 0:
        return 0
    prev = [pp_from_vector(fan, degree - 1, v)
            for v in pp_space_basis(fan, degree - 1)]
    coords = []
    for i in range(fan.rank):
        e = tuple(1 if j == i else 0 for j in range(fan.rank))
        coords.append(pp_from_polynomial(
            fan, Polynomial(fan.rank, {e: Fraction(1)})))
    products = [c * f for c in coords for f in prev]
    points = set()
    for cone in fan.max_cones:
        points.update(_grid_points([fan.rays[i] for i in cone],
                                   fan.rank, degree))
    points = sorted(points)
    rows = [[p.evaluate(pt) for pt in points] for p in products]
    return rank(rows) if rows else 0


def test_criterion_6_function_space_ranks():
    t0 = time.monotonic()
    for fan, expected in ((_p2(), (1, 1, 1)), (_blp2(), (1, 2, 1))):
        got = []
        for k in range(3):
            quotient = pp_space_dimension(fan, k) - _linear_span_rank(fan, k)
            assert quotient == balanced_weight_rank(fan, k)
            got.append(quotient)
        assert tuple(got) == expected
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    print(f"criterion 6 (function space ranks, {elapsed:.2f}s): PASS",
          flush=True)


def test_criterion_7_excess_chern():
    for fan in (_p2(), _p1xp1()):
        for i in range(len(fan.rays)):
            f = courant_function(fan, i)
            assert (excess_chern_class(fan, [f], f, 0)
                    == PiecewisePolynomial.constant(fan, 1))
        center = tuple(sorted((fan.rays.index((0, 1)),
                               fan.rays.index((1, 0)))))
        blow = stellar_subdivision(fan, center)
        ident = identity_matrix(2)
        l1 = pp_pullback(blow, ident, courant_function(fan, center[0]))
        l2 = pp_pullback(blow, ident, courant_function(fan, center[1]))
        lt = courant_function(blow, blow.rays.index((1, 1)))
        chern = excess_chern_class(blow, [l1, l2], lt, 1)
        assert (chern.homogeneous_component(0)
                == PiecewisePolynomial.constant(blow, 1))
        assert chern.homogeneous_component(1) == l1 + l2 - lt.scale(1)
    print("criterion 7 (excess chern): PASS", flush=True)


def test_criterion_8_tropical_dr():
    t0 = time.monotonic()
    assert len(enumerate_stable_graphs(0, 3)) == 1
    assert len(enumerate_stable_graphs(1, 1)) == 2
    assert len(enumerate_stable_graphs(1, 2)) == 5
    sf = dr_subfan(1, 2, (1, -1), 2)
    smooth = sf.piece_for(WeightedDualGraph((1,), (), (0, 0)))
    assert [(c.rays, c.full_support) for c in smooth.cones] == [((), True)]
    loop = sf.piece_for(WeightedDualGraph((0,), ((0, 0),), (0, 0)))
    assert [(c.rays, c.full_support) for c in loop.cones] == [
        (((1,),), True)]
    banana = sf.piece_for(WeightedDualGraph((0, 0), ((0, 1), (0, 1)),
                                            (0, 1)))
    assert {c.rays for c in banana.cones} == {((0, 1),), ((1, 0),)}
    assert not any(c.full_support for c in banana.cones)
    pieces = rubber_subdivision(1, 2, (1, -1), 2)
    assert pieces
    assert all(p.simplicial for p in pieces)
    assert all(p.dimension_ok for p in pieces)
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    print(f"criterion 8 (tropical dr, {elapsed:.2f}s): PASS", flush=True)


def _cli_run(argv, tmp, seed):
    # The child runs in ``tmp``, where a relative PYTHONPATH entry such as
    # ``src`` no longer resolves: put the directory holding the tropchow
    # this suite imported first, and keep the caller's entries after it.
    root = os.path.dirname(os.path.dirname(os.path.abspath(io.__file__)))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from tropchow.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, cwd=tmp, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_9_cli_determinism(tmp_path):
    p2 = _p2()
    docs = {
        "p2.json": ("fan", io.fan_to_payload(p2)),
        "setup.json": ("setup", {
            "base": io.fan_to_payload(p2),
            "center": [[0, 1], [1, 0]],
            "modification": None,
            "cycle": {"codim": 1,
                      "coefficients": [{"cone": [[1, 0]], "value": 1}]}}),
        "pt.json": ("ideal", ideal_to_payload(
            MonomialIdeal(p2, ((0, 0, 1), (0, 1, 0))))),
        "m2.json": ("ideal", ideal_to_payload(
            MonomialIdeal(p2, ((0, 0, 2), (0, 1, 1), (0, 2, 0))))),
        "h.json": ("weight", io.weight_to_payload(
            mw_of_pp(courant_function(p2, 2), 1))),
        "sq.json": ("weight", io.weight_to_payload(
            mw_product(mw_of_pp(courant_function(p2, 2), 1),
                       mw_of_pp(courant_function(p2, 2), 1)))),
        "l.json": ("pp", io.pp_to_payload(courant_function(p2, 2))),
    }
    for name, (kind, payload) in docs.items():
        (tmp_path / name).write_text(
            io.print_document(io.Document(kind, payload)))
    invocations = [
        (["--format", "json", "fan", "validate", "--fan", "p2.json"], 0),
        (["fan", "stellar", "--fan", "p2.json", "--cone", "1,2"], 0),
        (["--format", "json", "fulton", "verify", "--setup",
          "setup.json"], 0),
        (["fulton", "verify", "--setup", "setup.json"], 0),
        (["--format", "json", "segre", "--ideal", "pt.json"], 0),
        (["segre", "--ideal", "m2.json"], 0),
        (["chow", "product", "--weight", "h.json", "--other", "h.json"], 0),
        (["chow", "degree", "--weight", "sq.json"], 0),
        (["chow", "balance", "--weight", "h.json"], 0),
        (["chow", "of-pp", "--pp", "l.json", "--codim", "1"], 0),
        (["pp", "excess-chern", "--fan", "p2.json", "--cone", "1,2"], 0),
        (["tropdr", "graphs", "--g", "1", "--n", "2"], 0),
        (["--format", "json", "tropdr", "subfan", "--g", "1", "--n", "2",
          "--contact", "1,-1", "--bound", "2"], 0),
        (["--format", "json", "tropdr", "rubber", "--g", "1", "--n", "2",
          "--contact", "1,-1", "--bound", "2"], 0),
        (["--format", "json", "tropdr", "tc", "--g", "1", "--n", "2",
          "--contact", "1,-1", "--contact2", "0,0"], 0),
    ]
    tmp = str(tmp_path)
    for argv, want in invocations:
        first = _cli_run(argv, tmp, "1")
        second = _cli_run(argv, tmp, "2")
        assert first == second, argv
        assert first[0] == want, (argv, first)
        assert first[1] or first[2]
    print(f"criterion 9 (cli determinism, {len(invocations)} invocations "
          "x2 runs): PASS", flush=True)

"""Seeded instance sets of the benchmark workloads, and their checks.

An instance receives only plain data (generator lists, exponent tuples,
argv lists) and builds every tropchow object inside ``run``, so no
per-object cache carries over between instances or passes. ``oracle``
and the digest comparison run outside the timed region.

The seed varies the inputs inside fixed strata (fan, degrees, cone
positions, contact vectors up to leg order), so every seed asks
for about the same amount of work and run-to-run spread stays small.
Every seeded choice is drawn from a finite pool. ``pool(workload)`` lists
each instance any seed can draw, keyed by the computation it performs,
so ``record.py`` can store the digest of every output once; a run then
checks each output against that table.
"""
from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Calls go through the module attributes, so the traced run's wrappers,
# installed in these namespaces, also see the calls made from here.
from tropchow import (cli, fans, ideals, io, piecewise, transforms, tropical,
                      weights)

WORKLOADS = ("blowup2", "rank3", "tropdr")
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


class CheckFailed(Exception):
    """An output disagrees with its oracle or its recorded digest."""


@dataclass
class Instance:
    name: str                        # unique within one run
    family: str
    run: Callable[[], object]        # the timed computation
    oracle: Callable[[object], None]  # raises CheckFailed on a wrong answer
    document: Callable[[object], str]  # canonical io document of the output
    digest_key: str                  # the computation, shared across seeds


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


def _report(payload) -> str:
    return io.print_document(io.Document("report", payload))


# -- fans as plain generator lists -------------------------------------------

def _p3_gens():
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    return [list(c) for c in itertools.combinations(e, 3)]


def _p1_cube_gens():
    return [[tuple(s[i] if j == i else 0 for j in range(3)) for i in range(3)]
            for s in itertools.product((1, -1), repeat=3)]


def _bl_p3_line_gens():
    """P3 blown up along the invariant line of the cone <e1, e2>."""
    e1, e2, e3, e0, v = (1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 0)
    return [[e1, v, e3], [v, e2, e3], [e1, v, e0], [v, e2, e0],
            [e1, e3, e0], [e2, e3, e0]]


FANS = {
    "P2": (2, [[(1, 0), (0, 1)], [(1, 0), (-1, -1)], [(0, 1), (-1, -1)]]),
    "P1xP1": (2, [[(1, 0), (0, 1)], [(0, 1), (-1, 0)],
                  [(-1, 0), (0, -1)], [(0, -1), (1, 0)]]),
    "BlP2": (2, [[(1, 0), (1, 1)], [(1, 1), (0, 1)],
                 [(0, 1), (-1, -1)], [(-1, -1), (1, 0)]]),
    "P3": (3, _p3_gens()),
    "P1^3": (3, _p1_cube_gens()),
    "BlP3": (3, _bl_p3_line_gens()),
}
NUM_RAYS = {name: len({tuple(r) for cone in gens for r in cone})
            for name, (_, gens) in FANS.items()}


def _fan(name):
    rank, gens = FANS[name]
    return fans.fan_from_max_cones(rank, gens)


# -- blowup identities ---------------------------------------------------------

def _cycle(carrier, spec):
    """spec = (codim, index into the cones of that dimension, coefficient);
    codim 0 with coefficient 1 is the fundamental cycle."""
    codim, index, coeff = spec
    cone = carrier.cones_of_dim(codim)[index]
    return transforms.ToricCycle(carrier, codim, {cone: coeff})


def _blowup_document(report) -> str:
    return _report({
        "verdict": report.verdict,
        "total": io.cycle_to_payload(report.total),
        "strict": io.cycle_to_payload(report.strict),
        "correction": io.cycle_to_payload(report.correction),
        "decomposition": [
            {"step": c.step, "new_ray": list(c.new_ray),
             "stratum": sorted(list(r) for r in c.stratum_rays),
             "slots": [list(s) for s in c.slots],
             "weight": io.weight_values_payload(c.weight)}
            for c in report.decomposition]})


def _verified(report):
    _require(report.verdict == "verified", f"verdict {report.verdict}")


def blowup(fan_name, center_rays, extras, cycle):
    """verify_fulton_identity for one cycle on one blowup setup; the
    carrier is the base with ``extras`` rays inserted in order."""
    def run():
        base = _fan(fan_name)
        center = tuple(sorted(base.rays.index(r) for r in center_rays))
        carrier = base
        for ray in extras:
            carrier = fans.insert_ray(carrier, ray)
        setup = transforms.BlowupSetup(base, center,
                                       carrier if extras else None)
        return transforms.verify_fulton_identity(
            _cycle(setup.modification, cycle), setup)
    key = (f"blowup/{fan_name}/center={center_rays}/extras={extras}"
           f"/cycle={cycle}")
    return Instance(key, "blowup", run, _verified, _blowup_document, key)


def _blowup2_suite():
    """Both surfaces, a point and a divisor centre, three carriers and
    five cycles each: the 60 setups of acceptance criterion 1."""
    out = []
    for name, extras in (("P2", [(-1, 0), (0, -1)]),
                         ("P1xP1", [(-1, -1), (-1, 1)])):
        for center in ([(0, 1), (1, 0)], [(1, 0)]):
            for k in range(3):
                for cycle in ((0, 0, 1), (1, 0, 1), (1, -1, 2), (2, 0, 1),
                              (2, -1, 3)):
                    out.append(blowup(name, center, extras[:k], cycle))
    return out


RANK3_CYCLES = ((0, 0), (1, 0), (2, 0), (3, -1))  # (codim, cone index)


def _point_center(fan_name):
    return [tuple(r) for r in FANS[fan_name][1][0]]


def _rank3_blowups(coeffs, center_size):
    """P3 and (P1)^3 blown up at a point (centre of 3 rays) or along a
    line (2 rays), one cycle per codimension 0..3 with the given
    coefficients."""
    return [blowup(name, _point_center(name)[:center_size], [],
                   (codim, index, c))
            for name in ("P3", "P1^3")
            for (codim, index), c in zip(RANK3_CYCLES, coeffs)]


def _rank3_coeffs(seed):
    rng = random.Random(f"rank3-cycles/{seed}")
    return [rng.randrange(1, 4) for _ in RANK3_CYCLES]


def line_blowup_probes(seed):
    """The line blowups the stellar-tower defect refuses, with the cycles
    of the run's point blowups; ``rank3`` runs them after its metrics are
    taken (see README.md)."""
    return _rank3_blowups(_rank3_coeffs(seed), 2)


# -- ring consistency ---------------------------------------------------------

def ring_pair(fan_name, a, b, index):
    """mw_of_pp(f*g) against mw_product(mw_of_pp(f), mw_of_pp(g)) for
    monomials in the ray functions."""
    def run():
        fan = _fan(fan_name)
        f = weights.courant_monomial(fan, a)
        g = weights.courant_monomial(fan, b)
        lhs = weights.mw_of_pp(f * g, len(a) + len(b))
        rhs = weights.mw_product(weights.mw_of_pp(f, len(a)),
                                 weights.mw_of_pp(g, len(b)))
        return lhs, rhs

    def oracle(out):
        _require(out[0] == out[1], "mw_of_pp(f*g) != mw_product")

    def document(out):
        return io.print_document(
            io.Document("weight", io.weight_to_payload(out[0])))
    # the product depends only on the multiset of rays
    key = f"ring/{fan_name}/{sorted(a + b)}"
    return Instance(f"ring#{index}/{fan_name}/a={list(a)}/b={list(b)}",
                    "ring", run, oracle, document, key)


def _ring_pairs(rng, fan_names, max_degree, rounds):
    """Every fan with every degree split (da, db), 0 < da + db <=
    max_degree, ``rounds`` times; the seed draws the rays."""
    splits = [(da, db) for da in range(max_degree + 1)
              for db in range(max_degree + 1 - da) if da + db]
    out = []
    for name, (da, db) in itertools.product(fan_names, splits * rounds):
        a = tuple(rng.randrange(NUM_RAYS[name]) for _ in range(da))
        b = tuple(rng.randrange(NUM_RAYS[name]) for _ in range(db))
        out.append(ring_pair(name, a, b, len(out)))
    return out


def _ring_pool(fan_names, max_degree):
    return [ring_pair(name, m, (), 0) for name in fan_names
            for d in range(1, max_degree + 1)
            for m in itertools.combinations_with_replacement(
                range(NUM_RAYS[name]), d)]


# -- Segre classes -------------------------------------------------------------

def _segre_document(data) -> str:
    return _report({
        "pieces": [{"codim": k, "values": io.weight_values_payload(w)}
                   for k, w in sorted(data.pieces.items())],
        "certificates": [
            {"codim": k, "support": [{"cone": list(c),
                                      "value": io.format_rational(v)}
                                     for c, v in sorted(cert.items())]}
            for k, cert in sorted(data.certificates.items())]})


def _mw(fan, codim, value):
    return weights.MinkowskiWeight(fan, codim, {(): Fraction(value)})


def _p2_segre_ideals():
    named = [("point", ((0, 0, 1), (0, 1, 0))),
             ("fat point", ((0, 0, 2), (0, 1, 1), (0, 2, 0)))]
    for i in range(3):
        named.append((f"divisor {i}",
                      (tuple(int(j == i) for j in range(3)),)))
    return named


def p2_segre(label, gens):
    """The oracles of acceptance criterion 2: point 1, fat point 4, a
    coordinate line its own class and -1."""
    def run():
        return ideals.segre_class(ideals.MonomialIdeal(_fan("P2"), gens))

    def oracle(data):
        p2 = _fan("P2")
        if label.startswith("divisor"):
            i = int(label.split()[1])
            _require(data.pieces[1] == weights.mw_of_pp(
                piecewise.courant_function(p2, i), 1), "s_1 of a divisor")
            _require(data.pieces[2] == _mw(p2, 2, -1), "s_2 of a divisor")
        else:
            _require(data.pieces[1].is_zero(), "s_1 of a point")
            want = 1 if label == "point" else 4
            _require(data.pieces[2] == _mw(p2, 2, want), f"s_2 of {label}")
    key = f"segre/P2/{label}"
    return Instance(key, "segre", run, oracle, _segre_document, key)


def _power(gens, k):
    n = len(gens[0])
    return tuple(sorted({tuple(sum(g[i] for g in combo) for i in range(n))
                         for combo in itertools.combinations_with_replacement(
                             gens, k)}))


def p3_segre(coords, k):
    """Segre class of I^k on P3, I cut out by the coordinates of the
    given rays: a point (3 rays) has s_3 = k^3; a line (2 rays) has
    s_2 = k^2 [L] and s_3 = -2 k^3, so s_j(I^k) = k^j s_j(I)."""
    base = tuple(tuple(int(j == i) for j in range(4)) for i in coords)
    gens = _power(base, k)

    def run():
        return ideals.segre_class(ideals.MonomialIdeal(_fan("P3"), gens))

    def oracle(data):
        p3 = _fan("P3")
        _require(data.pieces[1].is_zero(), "s_1")
        if len(coords) == 3:
            _require(data.pieces[2].is_zero(), "s_2 of a point")
            _require(data.pieces[3] == _mw(p3, 3, k ** 3), "s_3 of a point")
        else:
            line = weights.mw_of_pp(weights.courant_monomial(p3, coords), 2)
            _require(data.pieces[2] == line.scale(k ** 2), "s_2 of a line")
            _require(data.pieces[3] == _mw(p3, 3, -2 * k ** 3),
                     "s_3 of a line")
    key = f"segre/P3/coords={list(coords)}/k={k}"
    return Instance(key, "segre", run, oracle, _segre_document, key)


def _p3_segre_pool():
    return [p3_segre(coords, k) for size in (3, 2)
            for coords in itertools.combinations(range(4), size)
            for k in (1, 2, 3)]


def birational(label, gens, cone):
    """Segre class recomputed after one more subdivision and pushed back
    down: it must equal the class on P2 (acceptance criterion 3)."""
    def run():
        p2 = _fan("P2")
        fine = fans.stellar_subdivision(p2, cone)
        ideal = ideals.MonomialIdeal(p2, gens)
        up = ideals.segre_class(ideals.pullback_ideal(ideal, fine))
        return {k: weights.pushforward_witness(
                    fine, weights.mw_to_pp(up.pieces[k]), k, p2)
                for k in (1, 2)}

    def oracle(pushed):
        base = ideals.segre_class(ideals.MonomialIdeal(_fan("P2"), gens))
        for k in (1, 2):
            _require(pushed[k] == base.pieces[k], f"pushed s_{k}")

    def document(pushed):
        return _report([{"codim": k, "values": io.weight_values_payload(w)}
                        for k, w in sorted(pushed.items())])
    key = f"birational/P2/cone={list(cone)}/{label}"
    return Instance(key, "birational", run, oracle, document, key)


def _p2_segre_family():
    """The Segre oracles and their birational-invariance pushes."""
    named = _p2_segre_ideals()
    return ([p2_segre(label, gens) for label, gens in named]
            + [birational(label, gens, cone) for cone in ((1, 2), (0, 1))
               for label, gens in named])


# -- tropical DR through the command line ------------------------------------

GRAPH_COUNTS = {(0, 3): 1, (0, 4): 4, (0, 5): 26, (2, 0): 7, (3, 0): 42}
GRAPH_CASES = ((0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 0),
               (2, 1), (2, 2), (3, 0))


def _cli(argv):
    out = _stdio.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def tropdr(command, g, n, contact=(), bound=None, contact2=None):
    """``tropchow --format json tropdr <command>`` run in process."""
    argv = ["--format", "json", "tropdr", command, "--g", str(g),
            "--n", str(n)]
    if command != "graphs":
        argv.append("--contact=" + ",".join(map(str, contact)))
    if contact2 is not None:
        argv.append("--contact2=" + ",".join(map(str, contact2)))
    if bound is not None:
        argv += ["--bound", str(bound)]

    def oracle(out):
        code, text = out
        _require(code == 0, f"exit code {code}")
        if command == "graphs" and (g, n) in GRAPH_COUNTS:
            count = json.loads(text)["payload"]["count"]
            _require(count == GRAPH_COUNTS[g, n], f"{count} stable graphs")
        if command == "subfan":
            subfan = tropical.dr_subfan(g, n, contact, bound)
            _require(not tropical.verify_face_closure(subfan),
                     "face closure violated")
    key = " ".join(argv[2:])
    return Instance(key, command, lambda: _cli(argv), oracle,
                    lambda out: out[1], key)


def _sum_zero(n, low, high):
    return [c for c in itertools.product(range(low, high + 1), repeat=n)
            if sum(c) == 0]


def _shuffled(rng, contact):
    """The contact vector with its legs shuffled: the same amount of work
    on other inputs."""
    contact = list(contact)
    rng.shuffle(contact)
    return tuple(contact)


# the contact vectors in [-2, 2]^3 that sum to zero, up to leg order
THREE_LEG_CLASSES = ((1, -1, 0), (2, -2, 0), (1, 1, -2), (-1, -1, 2),
                     (0, 0, 0))


def _tropdr_instances(rng):
    out = [tropdr("graphs", g, n) for g, n in GRAPH_CASES]
    out += [tropdr("subfan", 1, 3, _shuffled(rng, c))
            for c in THREE_LEG_CLASSES[:3]]
    out += [tropdr("rubber", 1, 3, _shuffled(rng, c))
            for c in THREE_LEG_CLASSES[::2]]
    out.append(tropdr("tc", 1, 2, _shuffled(rng, (1, -1)), None, (0, 0)))
    out += [tropdr("subfan", 1, 3, _shuffled(rng, c), bound)
            for bound in (1, 2) for c in THREE_LEG_CLASSES]
    for a, bound in itertools.product((1, 2, 3), (1, 2, 3)):
        both = ("subfan", "rubber")
        for command in both if bound == 3 else (both[(a + bound) % 2],):
            out.append(tropdr(command, 1, 2, _shuffled(rng, (a, -a)), bound))
    for c in rng.sample(_sum_zero(4, -2, 2), 7):
        out.append(tropdr(rng.choice(("subfan", "rubber")), 0, 4, c))
    # 46 calls: the median falls among the six g=1 n=2 bound-3 calls and
    # p75 (11 calls above it) among the three cheapest bound-2 subfans;
    # each group costs about the same, so neither order statistic sits on
    # a gap between unlike calls, where it would jump from run to run
    return out


def _tropdr_pool():
    three = _sum_zero(3, -2, 2)
    out = [tropdr("graphs", g, n) for g, n in GRAPH_CASES]
    out += [tropdr(cmd, 1, 3, c) for c in three for cmd in ("subfan", "rubber")]
    out += [tropdr("subfan", 1, 3, c, b) for c in three for b in (1, 2)]
    out += [tropdr("tc", 1, 2, c, None, (0, 0)) for c in ((1, -1), (-1, 1))]
    out += [tropdr(cmd, 1, 2, (s * a, -s * a), b) for a in (1, 2, 3)
            for b in (1, 2, 3) for s in (1, -1)
            for cmd in ("subfan", "rubber")]
    out += [tropdr(cmd, 0, 4, c) for c in _sum_zero(4, -2, 2)
            for cmd in ("subfan", "rubber")]
    return out


# -- workloads -----------------------------------------------------------------

def instances(workload, seed):
    """The instance set of one run; the same seed gives the same set."""
    out = _draw(workload, random.Random(f"{workload}/{seed}"), seed)
    seen = {}
    for inst in out:  # a computation drawn twice runs twice, named apart
        seen[inst.name] = seen.get(inst.name, 0) + 1
        if seen[inst.name] > 1:
            inst.name += f" #{seen[inst.name]}"
    return out


def _draw(workload, rng, seed):
    if workload == "blowup2":
        return (_blowup2_suite()
                + _ring_pairs(rng, ("P2", "P1xP1", "BlP2"), 2, 3)
                + _p2_segre_family())
    if workload == "rank3":
        return (_rank3_blowups(_rank3_coeffs(seed), 3)
                # a point to the powers 1 and 2, a line to 1, 2 and 3: the
                # cube of a point took about 1 s a pass, and without it p75
                # moves off the top of the group of ring pairs of about
                # equal cost, where the seed's draw set its value
                + [p3_segre(tuple(sorted(rng.sample(range(4), size))), k)
                   for size, powers in ((3, (1, 2)), (2, (1, 2, 3)))
                   for k in powers]
                + _ring_pairs(rng, ("P3", "P1^3", "BlP3"), 3, 1))
    if workload == "tropdr":
        return _tropdr_instances(rng)
    raise ValueError(f"unknown workload {workload!r}")


def pool(workload):
    """Every computation that some seed can draw, one instance each."""
    if workload == "blowup2":
        out = (_blowup2_suite() + _ring_pool(("P2", "P1xP1", "BlP2"), 2)
               + _p2_segre_family())
    elif workload == "rank3":
        out = ([i for c in (1, 2, 3) for i in _rank3_blowups([c] * 4, 3)]
               + _p3_segre_pool() + _ring_pool(("P3", "P1^3", "BlP3"), 3))
    else:
        out = _tropdr_pool()
    return out


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check(inst, out, expected, oracle):
    """The oracle (some are slow, so a caller may skip it after the first
    execution), then the digest recorded for this computation."""
    if oracle:
        inst.oracle(out)
    want = expected.get(inst.digest_key)
    _require(want is not None, "no digest recorded for this computation")
    _require(digest(inst.document(out)) == want, "output digest differs")

"""Test-side helpers that no command or library path needs: payload
writers and readers the command line never calls, constructors of
functions from raw data, polytope and staircase routines, and checks
that tests use as oracles."""
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import (combinations, combinations_with_replacement, count,
                       islice)
from itertools import product as iproduct
from math import atan2, gcd, isqrt, prod
from random import Random

from tropchow import fans, io, linalg, polyhedra, weights
from tropchow.ideals import MonomialIdeal, SegreData, _support_certificate
from tropchow.piecewise import (PiecewisePolynomial, _degree_monomials,
                                _grid_points, _linear_coefficients,
                                _shared_rays, courant_function,
                                min_refinement, pp_pullback, pp_space_basis)
from tropchow.polynomials import Polynomial
from tropchow.transforms import (BlowupSetup, ToricCycle,
                                 verify_fulton_identity)
from tropchow.tropical import WeightedDualGraph
from tropchow.weights import (MinkowskiWeight, courant_monomial,
                              localization_degree)


def assert_exact(values):
    """Each value is an int when it is integral and a Fraction otherwise,
    the rule polynomial coefficients follow; never a float."""
    for v in values:
        assert type(v) in (int, Fraction), v
        assert type(v) is (int if v.denominator == 1 else Fraction), v


def ideal_to_payload(ideal):
    return {"fan": io.fan_to_payload(ideal.fan),
            "generators": [list(g) for g in ideal.generators]}


def graph_from_payload(payload) -> WeightedDualGraph:
    io._expect_keys(payload, ("genus", "edges", "legs"), "graph")
    if not isinstance(payload["edges"], list):
        raise io.DocumentError("edges must be a list")
    try:
        return WeightedDualGraph(
            io._int_list(payload["genus"], "genus"),
            tuple(io._int_list(e, "edge") for e in payload["edges"]),
            io._int_list(payload["legs"], "legs"))
    except ValueError as e:
        raise io.DocumentError(f"invalid graph: {e}")


def setup_to_payload(setup, cycle):
    return {"base": io.fan_to_payload(setup.base),
            "center": io._cone_payload(setup.base, setup.center),
            "modification": io.fan_to_payload(setup.modification),
            "cycle": {"codim": cycle.codim,
                      "coefficients": [
                          {"cone": io._cone_payload(cycle.fan, c),
                           "value": io.format_rational(v)}
                          for c, v in sorted(cycle.coefficients.items())]}}


def variable(nvars: int, i: int) -> Polynomial:
    """The polynomial x_i in nvars variables."""
    return Polynomial.linear([int(j == i) for j in range(nvars)])


def power(p: Polynomial, k: int) -> Polynomial:
    out = Polynomial.constant(p.nvars, 1)
    for _ in range(k):
        out = out * p
    return out


def integral_rows(pairs):
    """The rows u_i / p_i of scaled pairs (as from linalg.scaled_inverse)
    as integer lists; raises ValueError when one is not integral."""
    if any(x % p for u, p in pairs for x in u):
        raise ValueError("matrix is not unimodular")
    return [[x // p for x in u] for u, p in pairs]


def invert_unimodular(a):
    """Exact inverse of a unimodular integer matrix."""
    return integral_rows(linalg.scaled_inverse(a))


def pp_from_polynomial(fan, p: Polynomial) -> PiecewisePolynomial:
    """The same polynomial on every top cone."""
    if p.nvars != fan.rank:
        raise ValueError("variable count must match the fan rank")
    return PiecewisePolynomial(fan, {c: p for c in fan.max_cones})


def pp_from_vector(fan, degree: int, vector) -> PiecewisePolynomial:
    """Inverse of the coefficient-vector encoding used by pp_space_basis."""
    monos = _degree_monomials(fan.rank, degree)
    pieces = {}
    idx = 0
    for m in fan.max_cones:
        terms = {}
        for e in monos:
            terms[e] = Fraction(vector[idx])
            idx += 1
        pieces[m] = Polynomial(fan.rank, terms)
    return PiecewisePolynomial(fan, pieces)


def is_continuous(f: PiecewisePolynomial) -> bool:
    """Whether the pieces agree on every meet of two top cones.

    Assumes a fan that passes validate_fan, where two top cones meet in
    the face spanned by their shared rays.
    """
    maxes = f.fan.max_cones
    degree = f.max_degree()
    for i in range(len(maxes)):
        for j in range(i + 1, len(maxes)):
            shared = _shared_rays(f.fan, maxes[i], maxes[j])
            p, q = f.pieces[maxes[i]], f.pieces[maxes[j]]
            for pt in _grid_points(shared, f.fan.rank, degree):
                if p.value(pt) != q.value(pt):
                    return False
    return True


def product_pushforward(source, witness, codim, target) -> MinkowskiWeight:
    """pushforward_witness by the product route: at each codimension-k
    cone of the target, the degree of the witness times that cone's ray
    monomial pulled back to the source."""
    ident = linalg.identity_matrix(target.rank)
    return MinkowskiWeight(target, codim, {
        tau: localization_degree(witness * pp_pullback(
            source, ident, courant_monomial(target, tau)))
        for tau in target.cones_of_dim(target.rank - codim)})


def restrict_to_star(star, pp: PiecewisePolynomial) -> PiecewisePolynomial:
    """Push a function down to the star fan of a cone via the fixed
    integer section of the quotient map."""
    pieces = {}
    for m in star.fan.max_cones:
        src = star.cone_to_source[m]
        pieces[m] = pp.piece_on(src).compose_linear(star.sect)
    return PiecewisePolynomial(star.fan, pieces)


def gysin_degree_by_restriction(fan, star, f, tau) -> Fraction:
    """Weight at tau of the pushforward of f from the orbit closure of a
    ray, by restriction: the degree on the star fan of f times tau's ray
    monomial restricted there."""
    return localization_degree(
        f * restrict_to_star(star, courant_monomial(fan, tau)))


def pp_min_by_differences(fan, functions) -> PiecewisePolynomial:
    """pp_min by the pairwise-difference rule: on each top cone the first
    piece l_j with l_i - l_j >= 0 at every ray, for every piece l_i."""
    pieces = {}
    for m in fan.max_cones:
        rays = fan.cone_rays(m)
        linear = [f.pieces[m] for f in functions]
        for p in linear:
            _linear_coefficients(p, fan.rank)
        winner = next((lj for lj in linear if all(
            (li - lj).value(r) >= 0 for li in linear for r in rays)), None)
        if winner is None:
            raise ValueError(f"minimum is not linear on cone {m}")
        pieces[m] = winner
    return PiecewisePolynomial(fan, pieces)


def total_genus(graph: WeightedDualGraph) -> int:
    return sum(graph.genus) + graph.betti


def degenerations_by_masks(graph: WeightedDualGraph):
    """tropical._degenerations as a loop over all 2^ends masks of the ends
    at each vertex, the rejected ones included: the raw (genus, edges,
    legs) of every stable candidate, in the multiplicity it is built."""
    genus, edges, legs = graph.genus, graph.edges, graph.legs
    new = len(genus)
    for v, h in enumerate(genus):
        if h:
            yield (genus[:v] + (h - 1,) + genus[v + 1:], edges + ((v, v),),
                   legs)
        ends = [(i, k) for i, e in enumerate(edges) for k in (0, 1)
                if e[k] == v]
        ends += [(j, None) for j, x in enumerate(legs) if x == v]
        for moved in iproduct((0, 1), repeat=len(ends)):
            if moved[:1] == (1,):
                continue  # mirrors the split keeping the first end at v
            out = {end for end, m in zip(ends, moved) if m}
            low = max(0, 1 - (len(ends) - len(out)) // 2)
            high = h - max(0, 1 - len(out) // 2)
            split_edges = tuple(
                tuple(sorted(new if (i, k) in out else x
                             for k, x in enumerate(e)))
                for i, e in enumerate(edges)) + ((v, new),)
            split_legs = tuple(new if (j, None) in out else x
                               for j, x in enumerate(legs))
            for h1 in range(low, high + 1):
                yield (genus[:v] + (h1,) + genus[v + 1:] + (h - h1,),
                       split_edges, split_legs)


def subdivision_assignment_per_cone(fine, coarse) -> dict:
    """fans.subdivision_assignment with a home sought for every cone: the
    first top coarse cone holding the cone's relative interior point,
    whose minimal face holding the cone's rays is its target."""
    out = {}
    for c in fine.cones:
        pt = fine.relint_point(c)
        home = next((m for m in coarse.max_cones
                     if coarse.cone_contains(m, pt)), None)
        target = None if home is None else fans._minimal_face_containing_all(
            coarse, home, fine.cone_rays(c))
        if target is None:
            raise ValueError(f"cone {c} does not refine the target fan")
        out[c] = target
    return out


def quotient_normals_by_scan(fan, tau) -> dict:
    """The star of a cone by a scan over the cones one dimension up: per
    cone sigma over tau, the primitive image of its rays off tau under
    the projection killing tau's span, which must be one vector."""
    proj = fan.cone_saturation(tau)[0]
    covers = {}
    for sigma in fan.cones_of_dim(fan.cone_dim(tau) + 1):
        if not set(tau) <= set(sigma):
            continue
        images = set()
        for i in sigma:
            if i in tau:
                continue
            v = linalg.mat_vec(proj, fan.rays[i])
            if any(v):
                images.add(linalg.primitive_vector(v))
        if len(images) != 1:
            raise ValueError(f"cone {sigma} is not simplicial over {tau}")
        covers[sigma] = images.pop()
    return covers


def mw_product_by_scan(a, b) -> MinkowskiWeight:
    """weights.mw_product by a scan over the product's cones tau and every
    pair of cones of the two weights' dimensions that contains tau."""
    fan = a.fan
    codim = a.codim + b.codim
    values = {}
    for tau in fan.cones_of_dim(fan.rank - codim):
        total = 0
        for s1 in fan.cones_of_dim(fan.rank - a.codim):
            if not set(tau) <= set(s1) or a.values[s1] == 0:
                continue
            for s2 in fan.cones_of_dim(fan.rank - b.codim):
                if not set(tau) <= set(s2) or b.values[s2] == 0:
                    continue
                idx = weights._pair_multiplicity(fan, s1, s2)
                if idx:
                    total += idx * a.values[s1] * b.values[s2]
        values[tau] = total
    return MinkowskiWeight(fan, codim, values)


def _stellar_top_rays(fan, cone, ray):
    """The rays of each top cone of the stellar subdivision at a cone by a
    ray in its relative interior: the top cones away from the center as
    they are, and each facet missing the center of one around it with the
    ray added."""
    for m in fan.max_cones:
        if not set(cone) <= set(m):
            yield fan.cone_rays(m)
            continue
        for f in fan.facets_of(m):
            if not set(cone) <= set(f):
                yield fan.cone_rays(f) + [ray]


def stellar_subdivision_by_generators(fan, cone, new_ray=None):
    """fans.stellar_subdivision with every top cone rebuilt from its
    generators (_stellar_top_rays) by fan_from_max_cones."""
    ray = linalg.primitive_vector(
        fan.relint_point(cone) if new_ray is None else new_ray)
    return fans.fan_from_max_cones(fan.rank,
                                   list(_stellar_top_rays(fan, cone, ray)))


def assert_principalizes(fan, functions, fine, steps=None):
    """fine, smooth, refines min_refinement's fan for the functions (the
    normalized blowup fan), which is returned; each of the steps, when
    given, is a stellar subdivision of the fan before it at a smooth
    cone of at least two rays by the sum of its rays, as rebuilt from
    generators, and they lead from fan to fine."""
    coarse, _ = min_refinement(fan, functions)
    fans.subdivision_assignment(fine, coarse)
    assert fine.is_smooth()
    current = fan
    for base, center, ray, result in steps or ():
        assert base is current and len(center) >= 2
        assert base.cone_multiplicity(center) == 1
        assert ray == tuple(map(sum, zip(*base.cone_rays(center))))
        assert result == stellar_subdivision_by_generators(base, center)
        current = result
    assert steps is None or current is fine
    return coarse


# ---------------------------------------------------------------------------
# the smooth resolution, the second route that localization is checked by

_RESOLVE_STEPS = 1000  # refinements before resolve_smooth gives up


def resolve_smooth(fan):
    """Refine until every cone is unimodular.

    While some top cone is not simplicial, the fan is subdivided at its
    least-dimensional non-simplicial cone (by (dimension, rays)): every
    face of that cone is simplicial, so every new cone of its dimension
    is too, and the count of non-simplicial cones of that dimension
    falls. Then simplicial cones of multiplicity m > 1 are split at a
    parallelotope lattice point chosen to have minimal coefficient sum;
    this strictly decreases multiplicities, so the loop terminates.
    Computed once per fan object, which then returns the same fan.
    """
    return fan.cached("resolve_smooth", lambda: _resolve_smooth(fan))


def _resolve_smooth(fan):
    current = fan
    for _ in range(_RESOLVE_STEPS):
        target = None
        for c in sorted(current.max_cones,
                        key=lambda c: (current.cone_dim(c), c)):
            mult = current.cone_multiplicity(c)
            if mult is None or mult > 1:
                target = c
                break
        if target is None:
            return current
        if current.cone_multiplicity(target) is None:
            current = fans.stellar_subdivision(current, min(
                (c for c in current.cones if len(c) != current.cone_dim(c)),
                key=lambda c: (current.cone_dim(c), c)))
            continue
        current = fans.insert_ray(current,
                                  parallelotope_point(current, target))
    raise RuntimeError("resolution did not terminate")


def parallelotope_point(fan, cone):
    """Nonzero lattice point of the half-open ray parallelotope with the
    smallest coefficient sum (lex tie-break on the ambient vector).

    The Hermite form h = u * R of the ray columns R (linalg's
    _unimodular_echelon) holds, in its first k rows, the rays' coordinates
    in a basis of the saturated lattice of their span, upper triangular
    with a positive diagonal. So the vectors y with 0 <= y_i < h_ii are
    the lattice points modulo the rays, each once, mult of them, and
    t = frac(h^-1 y) are the coefficients of each one's parallelotope
    point."""
    rays = fan.cone_rays(cone)
    h = linalg._unimodular_echelon([list(col) for col in zip(*rays)])[0]
    inverse = linalg.scaled_inverse(h[:len(rays)])
    keys = []
    for y in islice(iproduct(*(range(h[i][i]) for i in range(len(rays)))),
                    1, None):
        t = [Fraction(sum(a * b for a, b in zip(u, y)), p) % 1
             for u, p in inverse]
        keys.append((sum(t), tuple(int(sum(c * r[i] for c, r in zip(t, rays)))
                                   for i in range(fan.rank))))
    return min(keys)[1]


def degrees_by_resolution(functions):
    """weights.localization_degree of functions on one complete fan by
    the resolution route: each pulled back to resolve_smooth of the fan,
    whose top cones' dual bases are the integer inverses of their ray
    matrices, and its top part localized there, each cone's contribution
    over its own denominator, at the first two test points
    (1, t, ..., t^(n-1)), t = 2, 3, ..., where no dual basis vector
    vanishes."""
    fine = resolve_smooth(functions[0].fan)
    n = fine.rank
    ident = linalg.identity_matrix(n)
    tops = [pp_pullback(fine, ident, f).homogeneous_component(n)
            for f in functions]
    duals = {m: invert_unimodular(list(zip(*fine.cone_rays(m))))
             for m in fine.max_cones}
    results = []
    for t in count(2):
        point = tuple(t ** i for i in range(n))
        denoms = {m: prod(polyhedra._dot(u, point) for u in rows)
                  for m, rows in duals.items()}
        if 0 not in denoms.values():
            results.append([sum(Fraction(top.pieces[m].value(point), d)
                                for m, d in denoms.items()) for top in tops])
            if len(results) == 2:
                break
    assert results[0] == results[1]
    return results[0]


def products_of_top_degree(fan):
    """Every product of pp_space_basis elements whose degrees sum to the
    rank, in each split of the rank into degrees, each multiset of
    factors once."""
    n = fan.rank
    basis = {d: [pp_from_vector(fan, d, v)
                 for v in pp_space_basis(fan, d)] for d in range(1, n + 1)}
    for split in range(1, n + 1):
        for degrees in combinations_with_replacement(range(1, n + 1), split):
            if sum(degrees) != n:
                continue
            for groups in iproduct(*(
                    combinations_with_replacement(basis[d], c)
                    for d, c in Counter(degrees).items())):
                factors = [f for group in groups for f in group]
                out = factors[0]
                for g in factors[1:]:
                    out = out * g
                yield out


def parallelotope_point_by_box(fan, cone):
    """parallelotope_point by a scan of the box of coordinates x in
    the saturated basis of the cone's span that can hold a parallelotope
    point; the coefficients in the rays are t = a^-1 x."""
    rays = fan.cone_rays(cone)
    sat = fan.cone_saturation(cone)[2]
    coords = [linalg.solve(sat, r) for r in rays]
    assert all(x.denominator == 1 for c in coords for x in c)
    a = [[int(c[i]) for c in coords] for i in range(len(rays))]
    inverse = linalg.scaled_inverse(a)
    best = None
    for x in iproduct(*(range(sum(min(0, y) for y in row),
                              sum(max(0, y) for y in row) + 1) for row in a)):
        t = [Fraction(sum(y * z for y, z in zip(u, x)), p) for u, p in inverse]
        if any(t) and all(0 <= c < 1 for c in t):
            key = (sum(t), tuple(sum(y * z for y, z in zip(row, x))
                                 for row in sat))
            best = key if best is None else min(best, key)
    return None if best is None else best[1]


def tower_sweep_setup(seed: int):
    """The blowup of P3 (even seeds) or (P1)^3 (odd seeds) at a seeded
    cone of at least two rays, against a carrier made from the base by 1-3
    seeded directions with entries in -2..2, each inserted by insert_ray
    and resolved by resolve_smooth."""
    rng = Random(seed)
    base = billera_fan("(P1)^3" if seed % 2 else "P3")
    carrier = base
    for _ in range(rng.randint(1, 3)):
        v = (0, 0, 0)
        while not any(v) or linalg.primitive_vector(v) in carrier.rays:
            v = tuple(rng.randint(-2, 2) for _ in range(3))
        carrier = resolve_smooth(fans.insert_ray(carrier, v))
    center = rng.choice([c for c in base.cones if len(c) >= 2])
    return BlowupSetup(base, center, carrier)


def verifies_every_cone_cycle(setup) -> bool:
    """Whether the blowup identity verifies for the cycle of each cone of
    the carrier, in every codimension."""
    fan = setup.modification
    return all(verify_fulton_identity(ToricCycle(fan, k, {c: 1}),
                                      setup).verdict == "verified"
               for k in range(fan.rank + 1) for c in fan.cones_of_dim(k))


def product_tower_setup(m: int):
    """F x (P1)^2, F the smooth complete 2-fan on the m >= 4 rays (1, k)
    for 0 <= k <= m - 4, (0, 1), (-1, 0) and (0, -1), blown up along the
    2-cone of the (P1)^2 factor: one tower step, whose new ray has a link
    of m + 2 rays."""
    f = [(1, k) for k in range(m - 3)] + [(0, 1), (-1, 0), (0, -1)]
    base = fans.fan_from_max_cones(4, [
        [a + (0, 0), b + (0, 0), (0, 0, s, 0), (0, 0, 0, t)]
        for a, b in zip(f, f[1:] + f[:1])
        for s, t in iproduct((1, -1), repeat=2)])
    center = tuple(sorted(base.rays.index(r)
                          for r in ((0, 0, 1, 0), (0, 0, 0, 1))))
    return BlowupSetup(base, center)


# ---------------------------------------------------------------------------
# oracles for cone questions

def fm_feasible(equalities, inequalities, nvars: int) -> bool:
    """Exact feasibility of {x : Ex = e, Ax >= b} by variable elimination.

    Rows are (coefficients, rhs) pairs with rational entries. Fourier-
    Motzkin elimination over Fractions, without pruning.
    """
    eqs = [([Fraction(c) for c in a], Fraction(b)) for a, b in equalities]
    ineqs = [([Fraction(c) for c in a], Fraction(b)) for a, b in inequalities]
    live = list(range(nvars))
    while eqs:
        a, b = eqs.pop()
        j = next((k for k in live if a[k] != 0), None)
        if j is None:
            if b != 0:
                return False
            continue
        piv = a[j]
        for rows in (eqs, ineqs):
            for idx, (c, d0) in enumerate(rows):
                if c[j] == 0:
                    continue
                f = c[j] / piv
                newc = [c[k] - f * a[k] for k in range(nvars)]
                newc[j] = Fraction(0)
                rows[idx] = (newc, d0 - f * b)
        live.remove(j)
    for j in live:
        lowers = [r for r in ineqs if r[0][j] > 0]
        uppers = [r for r in ineqs if r[0][j] < 0]
        rest = [r for r in ineqs if r[0][j] == 0]
        for (ap, bp) in lowers:
            for (aq, bq) in uppers:
                coef = [-aq[j] * ap[k] + ap[j] * aq[k] for k in range(nvars)]
                rest.append((coef, -aq[j] * bp + ap[j] * bq))
        ineqs = rest
    return all(b <= 0 for _, b in ineqs)


def fm_displaced_meets(hrep1, hrep2, v) -> bool:
    """Whether the cone hrep1 meets the cone hrep2 + v, both in
    constraint form, by fm_feasible."""
    (e1, i1), (e2, i2) = hrep1, hrep2

    def shift(a):
        return sum(x * y for x, y in zip(a, v))
    return fm_feasible(
        [(e, 0) for e in e1] + [(e, shift(e)) for e in e2],
        [(a, 0) for a in i1] + [(a, shift(a)) for a in i2], len(v))


def fm_pair_counted(fan, s1, s2, v) -> bool:
    """Whether the displacement rule counts two cones at v: their rays
    span the space and, by fm_displaced_meets, s1 meets s2 + v."""
    return (linalg.rank(fan.cone_rays(s1) + fan.cone_rays(s2)) == fan.rank
            and fm_displaced_meets(fan.cone_hrep(s1), fan.cone_hrep(s2), v))


def displacement_past_bound(fan):
    """v(t) = (1, t, ..., t^(n-1)) at the least integer t at or past the
    bound that weights._pair_multiplicity states, 1 + ((n-1) R^2)^((n-1)/2)
    with R the largest absolute ray entry."""
    n = fan.rank
    big = max((abs(x) for r in fan.rays for x in r), default=1)
    square = ((n - 1) * big * big) ** max(n - 1, 0)
    root = isqrt(square)
    t = 1 + root + (root * root < square)
    return tuple(t ** i for i in range(n))


def cauchy_bound(fan) -> Fraction:
    """The largest Cauchy bound 1 + max_j |a_j / a_d|, a_d the last nonzero
    entry, over the rows that decide a pair of cones, computed fresh: the
    facet normals of sigma1 - sigma2 and, when the rays of the pair are a
    basis, the rows of their inverse, or, when they span a proper
    subspace, the functionals vanishing on it."""
    n = fan.rank
    rows = []
    # sigma2 - sigma1 has the negated facets of sigma1 - sigma2
    for s1, s2 in combinations_with_replacement(fan.cones, 2):
        rays = fan.cone_rays(sorted(set(s1) | set(s2)))
        if linalg.rank(rays) < n:
            rows += linalg.primitive_kernel(rays or [[0] * n])
            continue
        gens = fan.cone_rays(s1) + [tuple(-x for x in r)
                                    for r in fan.cone_rays(s2)]
        rows += polyhedra.cone_constraints(gens, n)[1]
        if len(rays) == n:
            rows += [linalg.primitive_kernel(rays[:k] + rays[k + 1:])[0]
                     for k in range(n)]
    bound = Fraction(1)
    for row in rows:
        *low, last = row
        while not last:
            *low, last = low
        bound = max(bound, 1 + Fraction(max(map(abs, low), default=0),
                                        abs(last)))
    return bound


def thirty_prime_plane():
    """P2 with a ray through (1, p) for each of the first 30 primes p, so
    that no (1, p) is a generic displacement; its smooth resolution has a
    ray through (1, t) for every t up to 113."""
    fan = fans.fan_from_max_cones(2, [
        [(1, 0), (0, 1)], [(1, 0), (-1, -1)], [(0, 1), (-1, -1)]])
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113):
        fan = fans.insert_ray(fan, (1, p))
    return fan


def raises_every_proper_span(fan, v) -> bool:
    """Whether v raises the rank of the rays of every pair of cones that
    span a proper subspace."""
    for a, b in combinations_with_replacement(fan.cones, 2):
        rays = fan.cone_rays(a) + fan.cone_rays(b)
        rank = linalg.rank(rays)
        if rank < fan.rank and linalg.rank(rays + [v]) == rank:
            return False
    return True


def _independent_subset(vectors, target_rank):
    """The first vectors, in order, that raise the rank, up to target_rank."""
    out = []
    for v in vectors:
        if linalg.rank(out + [v]) > len(out):
            out.append(v)
            if len(out) == target_rank:
                break
    return out


# ---------------------------------------------------------------------------
# fans with many or non-simplicial cones, and the face scans they replace

BILLERA_FANS = [base + (f" after {k} stellar" if k else "")
                for base in ("P3", "(P1)^3", "P4", "(P1)^4") for k in range(3)]


def billera_fan(name):
    """P3, (P1)^3, P4 or (P1)^4 after the stellar subdivisions the name
    counts, at cones drawn by a seeded generator: a smooth complete fan."""
    base, _, steps = name.partition(" after ")
    n = int(base[-1])
    e = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    if base[0] == "P":
        simplex = e + [tuple([-1] * n)]
        cones = [list(c) for c in combinations(simplex, n)]
    else:
        cones = [[tuple(s * x for x in v) for s, v in zip(signs, e)]
                 for signs in iproduct((1, -1), repeat=n)]
    fan = fans.fan_from_max_cones(n, cones)
    rng = Random(base)
    for _ in range(int(steps[0]) if steps else 0):
        fan = fans.stellar_subdivision(
            fan, rng.choice([c for c in fan.cones if len(c) > 1]))
    return fan


def lattice_polygon(k: int):
    """Vertices, in counterclockwise order, of a convex lattice k-gon (k
    even) symmetric about the origin: its edges are twice the k/2
    shortest primitive directions of the upper half-plane, in order of
    angle, then their negatives."""
    m = k // 2
    dirs = sorted(((a, b) for a in range(-m, m + 1) for b in range(m + 1)
                   if (b > 0 or a > 0) and gcd(a, b) == 1),
                  key=lambda d: (d[0] ** 2 + d[1] ** 2, atan2(d[1], d[0])))
    dirs = sorted(dirs[:m], key=lambda d: atan2(d[1], d[0]))
    x, y = -sum(a for a, _ in dirs), -sum(b for _, b in dirs)
    vertices = []
    for a, b in dirs + [(-a, -b) for a, b in dirs]:
        vertices.append((x, y))
        x, y = x + 2 * a, y + 2 * b
    return vertices


def polygon_cone_fan(k: int):
    """The fan of one cone, over a lattice k-gon at height 1: k rays and
    k facets, so 2k + 2 cones."""
    return fans.fan_from_max_cones(
        3, [[(x, y, 1) for x, y in lattice_polygon(k)]])


def prism_face_fan(k: int):
    """The complete face fan of the prism over a lattice k-gon: k square
    top cones and two k-gon ones, 3k + 3 cones below them."""
    p = lattice_polygon(k)
    sides = [[(x, y, z) for x, y in (p[i], p[i - 1]) for z in (1, -1)]
             for i in range(k)]
    caps = [[(x, y, z) for x, y in p] for z in (1, -1)]
    return fans.fan_from_max_cones(3, sides + caps)


def faces_by_subset_scan(cone, rays, ineqs):
    """Faces of a cone with the given ray indices, rays and facet
    inequalities: the rays on which each subset of inequalities vanishes,
    all 2^facets subsets visited."""
    faces = {()}
    for k in range(len(ineqs) + 1):
        for sub in combinations(ineqs, k):
            faces.add(tuple(idx for idx, r in zip(cone, rays)
                            if all(polyhedra._dot(w, r) == 0 for w in sub)))
    return tuple(sorted(faces))


def facets_by_inequalities(fan, cone):
    """Facets of a fan cone: the rays on which each inequality of its
    H-representation vanishes."""
    return tuple(sorted({tuple(i for i in cone
                               if polyhedra._dot(a, fan.rays[i]) == 0)
                         for a in fan.cone_hrep(cone)[1]}))


def is_complete_by_ridge_scan(fan) -> bool:
    """Completeness by a scan of every ridge against every top cone: the
    top cones are full-dimensional and each ridge is a face, found by
    the subset scan, of exactly two."""
    if fan.rank == 0:
        return True
    maxes = fan.max_cones
    if not maxes or any(fan.cone_dim(c) != fan.rank for c in maxes):
        return False
    return all(
        sum(set(ridge) <= set(m) and ridge in faces_by_subset_scan(
            m, fan.cone_rays(m), fan.cone_hrep(m)[1]) for m in maxes) == 2
        for ridge in fan.cones_of_dim(fan.rank - 1))


def covering_defect_by_sharers(coarse, fine):
    """fans._covering_defect by containment: every facet, by its
    inequalities, of a cell inside a coarse top cone and off its boundary
    lies in exactly one other such cell."""
    for m in coarse.max_cones:
        d = coarse.cone_dim(m)
        cells = [c for c in fine.max_cones
                 if fine.cone_dim(c) == d
                 and all(coarse.cone_contains(m, r) for r in fine.cone_rays(c))]
        if not cells:
            return f"cone {m} holds no full-dimensional cell"
        ineqs = coarse.cone_hrep(m)[1]
        for cell in cells:
            for facet in facets_by_inequalities(fine, cell):
                pts = fine.cone_rays(facet)
                if any(all(polyhedra._dot(a, p) == 0 for p in pts)
                       for a in ineqs):
                    continue
                sharers = [c for c in cells if c != cell
                           and all(fine.cone_contains(c, p) for p in pts)]
                if len(sharers) != 1:
                    return (f"facet {facet} of cell {cell} inside cone {m} "
                            f"is shared by {len(sharers)} cells")
    return None


# ---------------------------------------------------------------------------
# polytopes

def polytope_vertices(inequalities, dim: int):
    """Vertices and recession rays of {x : a.x >= b for (a, b) given}.

    The recession cone must be pointed. Returns (vertices, rays) with
    vertices as Fraction tuples and rays as primitive integer tuples.
    """
    hom = [tuple(a) + (-Fraction(b),) for a, b in inequalities]
    hom.append((0,) * dim + (1,))
    gens = polyhedra.rays_from_constraints(((), tuple(hom)), dim + 1)
    verts = []
    rays = []
    for g in gens:
        if g[-1] == 0:
            rays.append(g[:-1])
        else:
            verts.append(tuple(Fraction(x, g[-1]) for x in g[:-1]))
    return sorted(verts), sorted(rays)


def _affine_coords(points):
    """Coordinates of points within their affine hull; returns (coords, rank)."""
    p0 = points[0]
    diffs = [tuple(Fraction(a) - Fraction(b) for a, b in zip(p, p0))
             for p in points[1:]]
    basis = _independent_subset([d for d in diffs if any(d)], len(p0))
    k = len(basis)
    coords = []
    for p in points:
        diff = [Fraction(a) - Fraction(b) for a, b in zip(p, p0)]
        if k == 0:
            coords.append(())
            continue
        sol = linalg.solve([list(col) for col in zip(*basis)], diff)
        coords.append(tuple(sol))
    return coords, k


def _triangulate(points):
    """Simplices (as point lists) triangulating the convex hull."""
    dot = polyhedra._dot
    pts = sorted(set(tuple(Fraction(x) for x in p) for p in points))
    coords, k = _affine_coords(pts)
    if k == 0:
        return [[pts[0]]]
    if k == 1:
        order = sorted(range(len(pts)), key=lambda i: coords[i])
        return [[pts[order[0]], pts[order[-1]]]]
    apex = pts[0]
    apex_c = coords[0]
    simplices = []
    seen = set()
    for subset in combinations(range(len(pts)), k):
        sub = [coords[i] for i in subset]
        base = sub[0]
        rel = [[x - y for x, y in zip(s, base)] for s in sub[1:]]
        ns = linalg.nullspace(rel if rel else [[Fraction(0)] * k])
        if len(ns) != 1:
            continue
        a = ns[0]
        b = dot(a, base)
        vals = [dot(a, c) - b for c in coords]
        if any(v > 0 for v in vals) and any(v < 0 for v in vals):
            continue
        if any(v < 0 for v in vals):
            a = tuple(-x for x in a)
            b = -b
        key = linalg.primitive_vector(
            linalg._integer_rows([tuple(a) + (b,)])[0])
        if key in seen:
            continue
        seen.add(key)
        if dot(a, apex_c) == b:
            continue
        facet_pts = [pts[i] for i, v in enumerate(vals) if v == 0]
        for s in _triangulate(facet_pts):
            simplices.append([apex] + s)
    return simplices


def polytope_volume(points) -> Fraction:
    """Exact euclidean volume of the convex hull of full-dimensional points.

    Returns 0 when the hull is lower-dimensional.
    """
    if not points:
        return Fraction(0)
    d = len(points[0])
    _, k = _affine_coords([tuple(Fraction(x) for x in p) for p in points])
    if k < d:
        return Fraction(0)
    fact = 1
    for i in range(1, d + 1):
        fact *= i
    total = Fraction(0)
    for simplex in _triangulate(points):
        base = simplex[0]
        mat = [[p[i] - base[i] for i in range(d)] for p in simplex[1:]]
        total += abs(linalg.det(mat))
    return total / fact


# ---------------------------------------------------------------------------
# staircases

@dataclass(frozen=True)
class NewtonRegion:
    """Staircase data of exponent points: the hull of their translated
    orthants and the region left under it."""
    ambient: int
    generators: tuple
    facets: tuple              # rows (a, b) meaning a.x >= b on the hull
    bounded: bool
    volume: Fraction | None    # of the region under the staircase
    lattice_points: tuple | None   # integer points strictly under the hull


def newton_region(points) -> NewtonRegion:
    pts = {tuple(int(x) for x in p) for p in points}
    if not pts:
        raise ValueError("need at least one point")
    n = len(next(iter(pts)))
    if any(len(p) != n or min(p) < 0 for p in pts):
        raise ValueError("points must be nonnegative and of equal length")
    minimal = tuple(sorted(
        p for p in pts
        if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in pts)))
    hom = [p + (1,) for p in minimal]
    hom += [tuple(int(j == i) for j in range(n)) + (0,) for i in range(n)]
    _, cone_ineqs = polyhedra.cone_constraints(hom, n + 1)
    facets = tuple(sorted((row[:-1], -row[-1]) for row in cone_ineqs
                          if any(row[:-1])))
    bounded = all(any(all(x == 0 for j, x in enumerate(p) if j != i)
                      for p in minimal) for i in range(n))
    volume = None
    lattice = None
    if bounded:
        big = max(x for p in minimal for x in p)
        box = []
        for i in range(n):
            e = tuple(int(j == i) for j in range(n))
            box.append((e, 0))
            box.append((tuple(-x for x in e), -big))
        verts, rays = polytope_vertices(list(facets) + box, n)
        assert not rays
        hull_vol = polytope_volume(verts) if verts else Fraction(0)
        volume = Fraction(big) ** n - hull_vol
        lattice = tuple(sorted(
            q for q in iproduct(range(big + 1), repeat=n)
            if not all(sum(a * x for a, x in zip(row, q)) >= b
                       for row, b in facets)))
    return NewtonRegion(n, minimal, facets, bounded, volume, lattice)


def order_function(ideal: MonomialIdeal):
    """Minimum of the generator divisor functions, on the coarsest
    refinement where it is conewise linear (the normalized blowup fan)."""
    functions = [ideal.divisor_function(g) for g in ideal.generators]
    return min_refinement(ideal.fan, functions)


def segre_class_by_resolution(ideal: MonomialIdeal) -> SegreData:
    """ideals.segre_class read on resolve_smooth of the normalized blowup
    fan (order_function) instead of on that fan itself: an oracle whose
    localization meets only unimodular cones."""
    blow_fan, ordf = order_function(ideal)
    blow_fan = resolve_smooth(blow_fan)
    exc = pp_pullback(blow_fan, linalg.identity_matrix(blow_fan.rank), ordf)
    data = SegreData(ideal.fan)
    power = PiecewisePolynomial.constant(blow_fan, 1)
    for k in range(1, ideal.fan.rank + 1):
        power = power * exc
        data.pieces[k] = weights.pushforward_witness(
            blow_fan, power, k, ideal.fan).scale((-1) ** (k + 1))
        data.certificates[k] = _support_certificate(ideal, data.pieces[k], k)
    return data


def exceptional_class(ideal: MonomialIdeal) -> PiecewisePolynomial:
    """The exceptional divisor function on the normalized blowup fan,
    expanded over that fan's ray functions."""
    blow_fan, ordf = order_function(ideal)
    for m in blow_fan.max_cones:
        if len(m) != blow_fan.cone_dim(m):
            raise ValueError(
                "normalized blowup fan is not simplicial; refine the ideal's "
                "fan by stellar subdivisions and retry")
    out = PiecewisePolynomial.zero(blow_fan)
    for i, r in enumerate(blow_fan.rays):
        v = ordf.evaluate(r)
        if v:
            out = out + courant_function(blow_fan, i).scale(v)
    return out

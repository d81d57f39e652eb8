"""Balanced weights on fan cones and the intersection calculus on them.

A weight assigns a rational number to every cone of one codimension, an
int when it is integral and a Fraction otherwise, the number rule of
polynomial coefficients (polynomials._exact): integral classes on a
smooth fan have integral weights, so their calculus runs in int
arithmetic. The calculus here stays in the degree encoding: the weight
of a cone is the degree of the class multiplied with that cone's orbit
closure. Balancing and the corner locus read the lattice normals at a
cone off its star, which the fan keeps (fans.star_fan). Products
displace by (1, t, ..., t^(n-1)) for large t; a pair whose rays form a
basis reads its signs off the dual basis the fan keeps for the union of
those rays. Piecewise polynomial witnesses move classes back and
forth. One exact localization kernel,
pushforward_witness, reads every weight off a function: the weight of
a function on its own fan (mw_of_pp), degrees and pushforwards to a
coarser fan all sum values at test points, never products of functions.
Brion's localization formula reads those values off simplicial cones, so
a non-simplicial top cone is split by a pulling triangulation, which
adds no rays, and no fan is resolved. The corner locus (pl_cap) reads
each linear extension along a cone off the dual basis the fan keeps for
that cone (_linear_extension_on).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count
from math import lcm, prod

from . import linalg, polyhedra
from .fans import Fan, cone_homes, star_fan
from .piecewise import PiecewisePolynomial, courant_function
from .polynomials import _exact


class MinkowskiWeight:
    """Weight on all cones of one codimension of a fan; each value an int
    when integral, else a Fraction."""

    __slots__ = ("fan", "codim", "values")

    def __init__(self, fan: Fan, codim: int, values=None):
        if not 0 <= codim <= fan.rank:
            raise ValueError("codimension out of range")
        self.fan = fan
        self.codim = codim
        cones = fan.cones_of_dim(fan.rank - codim)
        vals = dict(values or {})
        unknown = set(vals) - set(cones)
        if unknown:
            raise ValueError(f"values given on non-cones: {sorted(unknown)}")
        self.values = {c: _exact(vals.get(c, 0)) for c in cones}

    def support_cones(self):
        return tuple(c for c, v in self.values.items() if v != 0)

    def __add__(self, other):
        self._compatible(other)
        return MinkowskiWeight(self.fan, self.codim, {
            c: self.values[c] + other.values[c] for c in self.values})

    def __sub__(self, other):
        self._compatible(other)
        return MinkowskiWeight(self.fan, self.codim, {
            c: self.values[c] - other.values[c] for c in self.values})

    def scale(self, t):
        t = _exact(t)
        return MinkowskiWeight(self.fan, self.codim,
                               {c: t * v for c, v in self.values.items()})

    def __neg__(self):
        return self.scale(-1)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values.values())

    def _compatible(self, other):
        if self.fan != other.fan or self.codim != other.codim:
            raise ValueError("weights live on different fans or codimensions")

    def __eq__(self, other):
        return (isinstance(other, MinkowskiWeight) and self.fan == other.fan
                and self.codim == other.codim and self.values == other.values)

    def __repr__(self):
        vals = {c: str(v) for c, v in self.values.items() if v != 0}
        return f"MinkowskiWeight(codim={self.codim}, {vals})"


def fundamental_weight(fan: Fan) -> MinkowskiWeight:
    return MinkowskiWeight(fan, 0, {c: 1 for c in fan.cones_of_dim(fan.rank)})


def _balance_rows(fan: Fan, codim: int):
    """The balancing conditions on weights of one codimension: per cone
    tau of one dimension less and per coordinate of its star, of
    dimension codim + 1, each star ray's entry at its source cone."""
    for tau in fan.cones_of_dim(fan.rank - codim - 1):
        star = star_fan(fan, tau)
        for coord in range(codim + 1):
            yield {star.cone_to_source[(j,)]: ray[coord]
                   for j, ray in enumerate(star.fan.rays)}


def is_balanced(w: MinkowskiWeight) -> bool:
    return all(sum(w.values[sigma] * x for sigma, x in row.items()) == 0
               for row in _balance_rows(w.fan, w.codim))


# ---------------------------------------------------------------------------
# localization

def localization_degree(f: PiecewisePolynomial) -> Fraction:
    """Degree of the top homogeneous part of a function on a complete
    fan: its weight on the zero cone, by mw_of_pp, returned as a Fraction
    even when it is integral."""
    return Fraction(mw_of_pp(f, f.fan.rank).values[()])


def _pulling_simplices(fan: Fan, cone):
    """The pulling triangulation of a cone in the order of the fan's rays:
    the cone itself when it is simplicial, else its first ray joined to
    the triangulation of each facet that misses that ray. It adds no
    rays, and a face of two cones is split the same way in both."""
    if len(cone) == fan.cone_dim(cone):
        return [cone]
    return [(cone[0],) + s for f in fan.facets_of(cone) if cone[0] not in f
            for s in _pulling_simplices(fan, f)]


def _localization(fan: Fan):
    """Localization data of a complete fan, found once per fan.

    Brion's formula needs simplicial cones only: the degree of a function
    f is the sum, over the simplices s of the top cones' pulling
    triangulations, of f_s(p) * prod p_i / (mult(s) * prod u_i . p), with
    f_s the piece of the top cone holding s, (u_i, p_i) the dual basis of
    s (Fan.cone_dual_basis) and p a point where no u_i . p vanishes. The
    test points are the first two p = (1, t, ..., t^(n-1)), t = 2, 3, ...,
    of that kind (all but finitely many t are). Per test point: the
    point, the lcm of the simplices' denominators and, per top cone, the
    numerator multiplier its simplices sum to.
    """
    def compute():
        if not fan.is_complete():
            raise ValueError("fan is not complete")
        simplices = [(m, fan.cone_multiplicity(s), fan.cone_dual_basis(s))
                     for m in fan.max_cones
                     for s in _pulling_simplices(fan, m)]
        points = []
        for t in count(2):
            point = tuple(t ** i for i in range(fan.rank))
            denoms = []
            for _, denom, duals in simplices:
                for u, _ in duals:
                    denom *= sum(a * b for a, b in zip(u, point))
                if denom == 0:
                    break
                denoms.append(denom)
            else:
                common = lcm(*denoms)
                mults = dict.fromkeys(fan.max_cones, 0)
                for (m, _, duals), denom in zip(simplices, denoms):
                    mults[m] += prod(p for _, p in duals) * (common // denom)
                points.append((point, common, list(mults.items())))
                if len(points) == 2:
                    return points
    return fan.cached("localization", compute)


def courant_monomial(fan: Fan, ray_indices) -> PiecewisePolynomial:
    out = None
    for i in ray_indices:
        f = courant_function(fan, i)
        out = f if out is None else out * f
    return PiecewisePolynomial.constant(fan, 1) if out is None else out


def monomial_function(fan: Fan, coefficients) -> PiecewisePolynomial:
    """The combination sum c * x^m of ray monomials, given as a mapping
    from ray-index tuples m to coefficients c."""
    out = PiecewisePolynomial.zero(fan)
    for mono, c in sorted(coefficients.items()):
        if c:
            out = out + courant_monomial(fan, mono).scale(c)
    return out


def monomial_coordinates(fan: Fan, monomials, w: MinkowskiWeight):
    """Coefficients, nonzero ones only, of a combination of ray monomials
    whose weight is w; None when no combination has it."""
    taus = fan.cones_of_dim(fan.rank - w.codim)
    columns = [ray_monomial_class(fan, mono).values for mono in monomials]
    sol = linalg.solve([[col[tau] for col in columns] for tau in taus],
                       [w.values[tau] for tau in taus])
    if sol is None:
        return None
    return {mono: c for mono, c in zip(monomials, sol) if c}


def ray_monomial_class(fan: Fan, ray_indices) -> MinkowskiWeight:
    """Weight of a monomial in the ray functions; computed once per fan
    object, which then returns the same weight."""
    mono = tuple(sorted(ray_indices))
    return fan.cached(("ray_class", mono), lambda: mw_of_pp(
        courant_monomial(fan, mono), len(mono)))


def mw_of_pp(f: PiecewisePolynomial, codim: int) -> MinkowskiWeight:
    """Weight of a degree-k function: at each codimension-k cone, the
    degree of the function multiplied by that cone's ray functions. The
    case of pushforward_witness where the witness's fan is the target."""
    return pushforward_witness(f.fan, f, codim, f.fan)


# ---------------------------------------------------------------------------
# product by displacement

def _last_nonzero(row):
    """Last nonzero entry: the sign of sum row[j] * t^j for all large t."""
    return next(x for x in reversed(row) if x)


def _pair_multiplicity(fan: Fan, sigma1, sigma2) -> int:
    """Fulton-Sturmfels multiplicity of two cones displaced by v(t) =
    (1, t, ..., t^(n-1)) for all large t: the index of the sum of their
    lattices in the ambient lattice when the spans fill the space and
    sigma1 meets sigma2 + v(t), else 0.

    Every sign read is that of a.v(t) = sum a_j t^j for a nonzero integer
    row a (a row of the elimination below, or a facet normal of sigma1 -
    sigma2): by Cauchy's bound, that of the last nonzero a_d for all
    t >= 1 + max_j |a_j / a_d|. These rows, and functionals vanishing on
    the proper spans of cone pairs, are proportional to (n-1)-minors of
    rays and unit vectors, so by Hadamard's inequality one bound
    t >= 1 + ((n-1) R^2)^((n-1)/2), R the largest absolute ray entry,
    covers every pair: v(t) is then one concrete generic vector.

    For simplicial cones whose rays number at most the rank together, the
    meet holds exactly when v(t) = sum c_k r_k over the union of rays has
    c_k >= 0 on the rays of sigma1 alone and c_k <= 0 on those of sigma2
    alone. The rays are a basis when they span the space, and then their
    dual basis, kept on the fan per union (Fan.cone_dual_basis), gives
    p_k c_k = u_k . v(t), u_k a nonzero row. On a smooth fan the index is
    the determinant of the rays, kept likewise (Fan.cone_multiplicity).
    Other pairs are decided by cone membership (_displaced_meets).
    """
    n = fan.rank
    union = tuple(sorted(set(sigma1) | set(sigma2)))
    if (len(union) <= n and len(sigma1) == fan.cone_dim(sigma1)
            and len(sigma2) == fan.cone_dim(sigma2)):
        if len(union) < n or fan.cone_dim(union) < n:
            return 0
        for i, (u, p) in zip(union, fan.cone_dual_basis(union)):
            sign = p * _last_nonzero(u)
            if sign < 0 and i not in sigma2 or sign > 0 and i not in sigma1:
                return 0
        if fan.is_smooth():
            return fan.cone_multiplicity(union)
        return linalg.lattice_index(_saturated_sum(fan, sigma1, sigma2))
    merged = _saturated_sum(fan, sigma1, sigma2)
    if linalg.rank(merged) < n or not _displaced_meets(fan, sigma1, sigma2):
        return 0
    return linalg.lattice_index(merged)


def _saturated_sum(fan: Fan, sigma1, sigma2):
    """Columns of the saturated bases of both cone lattices, side by side."""
    sat1 = fan.cone_saturation(sigma1)[2]
    sat2 = fan.cone_saturation(sigma2)[2]
    return [a + b for a, b in zip(sat1, sat2)]


def _displaced_meets(fan: Fan, sigma1, sigma2) -> bool:
    """Whether sigma1 meets sigma2 + v(t) for all large t, that is, whether
    v(t) lies in the cone spanned by the rays of sigma1 and the negated
    rays of sigma2: that cone has no equalities, and every facet row is
    positive on v(t)."""
    gens = fan.cone_rays(sigma1) + [tuple(-x for x in r)
                                    for r in fan.cone_rays(sigma2)]
    eqs, ineqs = polyhedra.cone_constraints(gens, fan.rank)
    return not eqs and all(_last_nonzero(a) > 0 for a in ineqs)


def mw_product(a: MinkowskiWeight, b: MinkowskiWeight) -> MinkowskiWeight:
    """Cup product of two balanced weights by the displacement rule.

    The product's weight at a cone tau sums a(sigma1) * b(sigma2) times
    the multiplicity of the pair displaced by v(t) = (1, t, ..., t^(n-1))
    for large t (_pair_multiplicity), over the cones sigma1 and sigma2 of
    the two weights' dimensions that contain tau (Fulton-Sturmfels). In a
    valid fan a pair of nonzero multiplicity meets in one such tau, the
    cone on their common rays, so each pair of support cones is visited
    once. It is defined for balanced weights only, which this does not
    check: only for them is it the same for every generic displacement.
    """
    if a.fan != b.fan:
        raise ValueError("weights live on different fans")
    fan = a.fan
    codim = a.codim + b.codim
    if codim > fan.rank:
        raise ValueError("product codimension exceeds the fan rank")
    values = dict.fromkeys(fan.cones_of_dim(fan.rank - codim), 0)
    for s1 in a.support_cones():
        for s2 in b.support_cones():
            tau = tuple(sorted(set(s1) & set(s2)))
            if tau in values:
                values[tau] += (_pair_multiplicity(fan, s1, s2)
                                * a.values[s1] * b.values[s2])
    return MinkowskiWeight(fan, codim, values)


# ---------------------------------------------------------------------------
# pushforward along a subdivision

def pushforward_witness(source_fan: Fan, witness: PiecewisePolynomial,
                        codim: int, target_fan: Fan) -> MinkowskiWeight:
    """Weight on a coarse fan of the class of a degree-k witness function
    on a refinement of it: at each codimension-k cone of the target, the
    degree of the witness multiplied by that cone's ray functions pulled
    back to the source.

    Each degree is a sum of localized contributions at a test point of
    the source (_localization), which sums the simplices of each top
    cone into one multiplier. The degree-k part of the witness and the
    target's ray functions are evaluated once per top cone, the latter
    on the target top cone holding it (cone_homes), so each weight is a
    sum of products of numbers, without forming the product of
    functions; the source need not be smooth or simplicial. The
    contributions share one common denominator per test point, so each
    sum runs over the numerators and divides once. The underlying
    rational function of the test point is constant, so the first two
    evaluation points with nonvanishing denominators must agree; this is
    asserted.
    """
    if witness.fan != source_fan:
        raise ValueError("functions live on different fans")
    k = target_fan.rank - codim
    taus = target_fan.cones_of_dim(k)
    if not taus:
        return MinkowskiWeight(target_fan, codim)
    part = {m: p.homogeneous_component(codim)
            for m, p in witness.pieces.items()}
    # weights on the zero cone need no ray function, nor a simplicial fan
    rayfns = ([courant_function(target_fan, i)
               for i in range(len(target_fan.rays))] if k else [])
    homes = (dict(zip(source_fan.max_cones, source_fan.max_cones))
             if source_fan is target_fan else cone_homes(
                 source_fan, linalg.identity_matrix(target_fan.rank),
                 target_fan))
    results = {tau: [] for tau in taus}
    for point, common, cones in _localization(source_fan):
        totals = dict.fromkeys(taus, 0)
        for home, mult in cones:
            value = part[home].value(point) * mult
            if not value:
                continue
            cone = homes[home]
            at = ([rayfns[i].pieces[cone].value(point) for i in cone]
                  if k else [])
            for sub in combinations(range(len(cone)), k):
                tau = tuple(cone[j] for j in sub)
                if tau in totals:
                    term = value
                    for j in sub:
                        term *= at[j]
                    totals[tau] += term
        for tau in taus:
            q, r = divmod(totals[tau], common)
            results[tau].append(Fraction(totals[tau], common) if r else q)
    for first, second in results.values():
        if first != second:
            raise ArithmeticError("localization gave inconsistent values")
    return MinkowskiWeight(target_fan, codim,
                           {tau: vals[0] for tau, vals in results.items()})


# ---------------------------------------------------------------------------
# corner locus

def _linear_extension_on(fan: Fan, phi: PiecewisePolynomial, tau):
    """Least-norm linear functional agreeing with phi on a cone: the sum
    of phi(r_i) u_i / p_i over the cone's dual basis (Fan.cone_dual_basis),
    whose u_i lie in the span of its rays."""
    piece = phi.piece_on(tau)
    ext = [Fraction(0)] * fan.rank
    for r, (u, p) in zip(fan.cone_rays(tau), fan.cone_dual_basis(tau)):
        c = Fraction(piece.value(r), p)
        ext = [e + c * x for e, x in zip(ext, u)]
    return ext


def pl_cap(phi: PiecewisePolynomial, w: MinkowskiWeight) -> MinkowskiWeight:
    """Corner locus of a conewise linear function against a weight.

    At each cone of one higher codimension the multiplicity is the bend
    of phi weighted by w: the sum of the piece values on lattice normals,
    the rays of the cone's star (star_fan) lifted through its section,
    minus the linear extension along the cone applied to their sum.
    """
    fan = w.fan
    if phi.fan != fan:
        raise ValueError("function and weight live on different fans")
    if phi.max_degree() > 1 or any((0,) * fan.rank in p.terms
                                   for p in phi.pieces.values()):
        raise ValueError("corner locus needs conewise linear homogeneous "
                         "pieces")
    values = {}
    for tau in fan.cones_of_dim(fan.rank - w.codim - 1):
        star = star_fan(fan, tau)
        ext = _linear_extension_on(fan, phi, tau)
        bend = Fraction(0)
        drift = [Fraction(0)] * fan.rank
        for j, image in enumerate(star.fan.rays):
            sigma = star.cone_to_source[(j,)]
            z = w.values[sigma]
            if z == 0:
                continue
            lift = linalg.mat_vec(star.sect, image)
            bend += z * phi.piece_on(sigma).evaluate(lift)
            drift = [d + z * x for d, x in zip(drift, lift)]
        bend -= sum(e * x for e, x in zip(ext, drift))
        values[tau] = bend
    return MinkowskiWeight(fan, w.codim + 1, values)


# ---------------------------------------------------------------------------
# witnesses for weights

def mw_to_pp(w: MinkowskiWeight) -> PiecewisePolynomial:
    """A piecewise polynomial witness of a balanced weight: a function of
    matching degree whose weight equals the input, a combination of the
    ray monomials of the cones of its codimension (as cycle_from_class
    reads a class)."""
    fan = w.fan
    monomials = fan.cones_of_dim(w.codim)
    if not monomials:
        raise ValueError("no candidate witnesses")
    coords = monomial_coordinates(fan, monomials, w)
    if coords is None:
        raise ValueError("weight admits no witness; is it balanced?")
    return monomial_function(fan, coords)


def balanced_weight_rank(fan: Fan, codim: int) -> int:
    """Dimension of the space of balanced weights of one codimension."""
    cones = fan.cones_of_dim(fan.rank - codim)
    rows = [[row.get(c, 0) for c in cones]
            for row in _balance_rows(fan, codim)]
    return len(cones) - linalg.rank(rows)

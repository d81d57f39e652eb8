"""Continuous piecewise polynomial functions on a fan.

A function is stored as one polynomial per top cone, in ambient
coordinates. Continuity along shared faces is checked by evaluating on
the integer grid {sum c_i u_i : c_i >= 0, sum c_i <= degree} spanned by
the face rays; that grid determines a polynomial of bounded degree on the
cone, so agreement there is agreement everywhere on the face.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product

from . import linalg, polyhedra
from .fans import (Fan, StarFan, _cell, _top_cell, cone_homes, fan_from_cells,
                   stellar_subdivision)
from .polynomials import Polynomial


def _grid_points(rays, rank, degree):
    d = max(degree, 0)
    return [tuple(sum(c * r[j] for c, r in zip(cs, rays)) for j in range(rank))
            for cs in product(range(d + 1), repeat=len(rays)) if sum(cs) <= d]


class PiecewisePolynomial:
    """One polynomial per top cone of a fixed fan."""

    __slots__ = ("fan", "pieces")

    def __init__(self, fan: Fan, pieces):
        if set(pieces) != set(fan.max_cones):
            raise ValueError("pieces must cover exactly the top cones")
        self.fan = fan
        self.pieces = {c: pieces[c] for c in fan.max_cones}

    @classmethod
    def zero(cls, fan: Fan) -> "PiecewisePolynomial":
        return cls(fan, {c: Polynomial.zero(fan.rank) for c in fan.max_cones})

    @classmethod
    def constant(cls, fan: Fan, value) -> "PiecewisePolynomial":
        return cls(fan, {c: Polynomial.constant(fan.rank, value)
                         for c in fan.max_cones})

    def _binary(self, other, op):
        if self.fan != other.fan:
            raise ValueError("functions live on different fans")
        return PiecewisePolynomial(
            self.fan, {c: op(self.pieces[c], other.pieces[c])
                       for c in self.fan.max_cones})

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return PiecewisePolynomial(
            self.fan, {k: p.scale(c) for k, p in self.pieces.items()})

    def truncate(self, max_degree: int):
        return PiecewisePolynomial(
            self.fan, {k: p.truncate(max_degree) for k, p in self.pieces.items()})

    def homogeneous_component(self, k: int):
        return PiecewisePolynomial(
            self.fan, {c: p.homogeneous_component(k)
                       for c, p in self.pieces.items()})

    def max_degree(self) -> int:
        return max((p.degree() for p in self.pieces.values()), default=-1)

    def evaluate(self, point) -> Fraction:
        for c in self.fan.max_cones:
            if self.fan.cone_contains(c, point):
                return self.pieces[c].evaluate(point)
        raise ValueError(f"point ({', '.join(map(str, point))}) is outside "
                         "the fan support")

    def piece_on(self, cone) -> Polynomial:
        """Piece of some top cone containing the given fan cone."""
        return self.pieces[self.fan.max_cone_over(cone)]

    def is_zero(self) -> bool:
        for c in self.fan.max_cones:
            p = self.pieces[c]
            d = p.degree()
            if d < 0:
                continue
            rays = self.fan.cone_rays(c)
            for pt in _grid_points(rays, self.fan.rank, d):
                if p.value(pt) != 0:
                    return False
        return True

    def __eq__(self, other):
        if not isinstance(other, PiecewisePolynomial):
            return NotImplemented
        if self.fan != other.fan:
            return False
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("piecewise polynomials are not hashable")


def _shared_rays(fan: Fan, a, b):
    """Rays of the face in which two cones of a valid fan meet."""
    return fan.cone_rays(sorted(set(a) & set(b)))


def courant_function(fan: Fan, ray_index: int) -> PiecewisePolynomial:
    """Conewise linear function taking 1 at one ray and 0 at the others.

    Requires a simplicial fan. On each top cone through the ray the linear
    piece is the ray's vector of the dual basis within the span of the
    cone (Fan.cone_dual_basis), which keeps the choice canonical on top
    cones of less than full dimension; values on the fan support do not
    depend on it. Computed once per fan object, which then returns the
    same function.
    """
    return fan.cached(("courant", ray_index),
                      lambda: _courant_function(fan, ray_index))


def _courant_function(fan: Fan, ray_index: int) -> PiecewisePolynomial:
    pieces = {}
    for m in fan.max_cones:
        if len(m) != fan.cone_dim(m):
            raise ValueError("fan is not simplicial")
        if ray_index not in m:
            pieces[m] = Polynomial.zero(fan.rank)
            continue
        u, p = fan.cone_dual_basis(m)[m.index(ray_index)]
        pieces[m] = Polynomial.linear(
            [Fraction(x, p) if x % p else x // p for x in u])
    return PiecewisePolynomial(fan, pieces)


def pp_pullback(source_fan: Fan, matrix, target_pp: PiecewisePolynomial
                ) -> PiecewisePolynomial:
    """Compose a piecewise polynomial with a linear map that maps every
    source cone into some target cone. Under the identity each source
    cone takes its home cone's piece as it is."""
    identity = [list(row) for row in matrix] == linalg.identity_matrix(
        source_fan.rank)
    pieces = {}
    for m, home in cone_homes(source_fan, matrix, target_pp.fan).items():
        piece = target_pp.pieces[home]
        if not identity:
            piece = piece.compose_linear(matrix)
        if piece.nvars != source_fan.rank:
            # an empty matrix cannot carry its column count
            piece = Polynomial.constant(
                source_fan.rank, piece.terms.get((), Fraction(0)))
        pieces[m] = piece
    return PiecewisePolynomial(source_fan, pieces)


def pushforward_from_star(fan: Fan, star: StarFan, f: PiecewisePolynomial
                          ) -> PiecewisePolynomial:
    """Witness on a simplicial fan of the pushforward of a function's class
    from the orbit closure of a ray (Fulton, Intersection Theory, 6.7):
    on each top cone through the ray, the ray function x times the
    function's piece composed with the star's projection; 0 elsewhere.
    x * h depends only on the restriction of h to the star, so this is
    x * h for every h restricting to f."""
    (ray,) = star.center
    x = courant_function(fan, ray)
    pieces = {}
    for m in fan.max_cones:
        if ray in m:
            pieces[m] = x.pieces[m] * f.pieces[
                star.source_to_cone[m]].compose_linear(star.proj)
        else:
            pieces[m] = Polynomial.zero(fan.rank)
    return PiecewisePolynomial(fan, pieces)


def _linear_coefficients(p: Polynomial, rank: int):
    """Coefficient vector of a homogeneous linear polynomial."""
    if p.degree() > 1 or (0,) * rank in p.terms:
        raise ValueError("function piece is not homogeneous linear")
    out = [0] * rank
    for e, c in p.terms.items():
        out[e.index(1)] = c
    return out


def pp_min(fan: Fan, functions) -> PiecewisePolynomial:
    """Pointwise minimum of conewise linear functions, required to be
    linear on each top cone of the given fan: on each, the first piece
    that takes the least value at every ray."""
    pieces = {}
    for m in fan.max_cones:
        rays = fan.cone_rays(m)
        linear = [f.pieces[m] for f in functions]
        for p in linear:
            _linear_coefficients(p, fan.rank)
        values = [[lj.value(r) for r in rays] for lj in linear]
        least = [min(column) for column in zip(*values)]
        winner = next((lj for lj, vj in zip(linear, values) if vj == least),
                      None)
        if winner is None:
            raise ValueError(f"minimum is not linear on cone {m}")
        pieces[m] = winner
    return PiecewisePolynomial(fan, pieces)


def min_refinement(fan: Fan, functions):
    """Refine a fan so the pointwise minimum of conewise linear functions
    becomes conewise linear; returns (refined fan, minimum).

    A top cone on which one function is at most every other at every ray
    is its own cell, the fan's cell for it (fans._top_cell): any other
    cell of full dimension there lies where its function equals that one,
    which is the whole cone again. When every top cone is, the fan is
    returned as it is, with pp_min of the functions on it. Any other top
    cone's rays are split by the inequalities l_j <= l_i, starting from
    each ray's mask of tight facets, found once per top cone; cells of
    full dimension in their cone survive, each converted as any cone's
    rays are (fans._cell). Everything is closed over faces and
    deduplicated.
    """
    cells, whole = [], True
    for m in fan.max_cones:
        rays = fan.cone_rays(m)
        linear = [f.pieces[m] for f in functions]
        values = [[lj.value(r) for r in rays] for lj in linear]
        if any(all(a <= b for vi in values for a, b in zip(vj, vi))
               for vj in values):
            cells.append(_top_cell(fan, m))
            continue
        whole = False
        ineqs = fan.cone_hrep(m)[1]
        masks = [sum(1 << k for k, w in enumerate(ineqs)
                     if not polyhedra._dot(w, r)) for r in rays]
        for j, lj in enumerate(linear):
            cell, tight, bit = tuple(rays), masks, 1 << len(ineqs)
            for i, li in enumerate(linear):
                if i == j:
                    continue
                coeffs = _linear_coefficients(li - lj, fan.rank)
                if any(coeffs):
                    row = linalg._integer_rows([coeffs])[0]
                    cell, tight = polyhedra.split(cell, tight, row, bit)[0]
                    bit <<= 1
            if linalg.rank(cell) == fan.cone_dim(m):
                cells.append(_cell(fan.rank, cell))
    if whole:
        return fan, pp_min(fan, functions)
    refined = fan_from_cells(fan.rank, cells)
    out = pp_min(refined, [pp_pullback(refined, linalg.identity_matrix(fan.rank), f)
                           for f in functions])
    return refined, out


_TOWER_STEPS = 1000  # stellar subdivisions before principalize gives up


def principalize(fan: Fan, functions):
    """Subdivide a smooth fan until the pointwise minimum of conewise
    linear functions is linear on every cone: toric principalization of
    the ideal they stand for (compare Goward, Trans. AMS 357, 2005).
    Returns the final fan and its steps (base, center, ray, result),
    bottom-up.

    At each ray every function's excess over the least value there is
    kept. A cone is bad when each function's excess, summed over the
    cone's rays, is positive: no function is least at all of them. The
    center is a least-dimensional bad cone, the one whose sums, sorted
    from the largest, are largest, then the first by key, and
    stellar_subdivision at the sum of its rays keeps the fan smooth. The
    new ray's values are the sums of its center's, so its excesses are
    the center's sums less their least one. For two functions the
    centers are 2-cones at whose rays their difference is p > 0 and
    -q < 0: each step removes the one with the largest (max(p, q),
    min(p, q)), and every bad 2-cone it makes has a smaller pair, so the
    loop ends. For more functions no such bound is known here:
    RuntimeError when more than _TOWER_STEPS steps would be needed.
    """
    excess = {}
    for i, r in enumerate(fan.rays):
        v = [f.piece_on((i,)).value(r) for f in functions]
        excess[r] = [x - min(v) for x in v]
    steps = []
    while True:
        bad = {}
        for c in fan.cones[1:]:
            sums = [sum(col) for col in zip(*(excess[r]
                                              for r in fan.cone_rays(c)))]
            if min(sums):
                bad[c] = sums
        if not bad:
            return fan, tuple(steps)
        if len(steps) == _TOWER_STEPS:
            raise RuntimeError("principalization did not terminate")
        center = min(bad, key=lambda c: (len(c), sorted(-s for s in bad[c]),
                                         c))
        ray = tuple(map(sum, zip(*fan.cone_rays(center))))
        excess[ray] = [s - min(bad[center]) for s in bad[center]]
        result = stellar_subdivision(fan, center)
        steps.append((fan, center, ray, result))
        fan = result


def excess_chern_class(fan: Fan, center_functions, exceptional: PiecewisePolynomial,
                       top_degree: int) -> PiecewisePolynomial:
    """Total Chern class of the excess bundle of a blowup.

    center_functions are the divisor functions of the center's rays pulled
    back to the subdivided fan; exceptional must equal their pointwise
    minimum, which is checked. A negative top degree is refused: the
    class starts with the constant 1.
    """
    if top_degree < 0:
        raise ValueError("excess Chern degree must be nonnegative")
    if pp_min(fan, center_functions) != exceptional:
        raise ValueError("exceptional function is not the minimum of the "
                         "center functions")
    total = PiecewisePolynomial.constant(fan, 1)
    for f in center_functions:
        total = total * (PiecewisePolynomial.constant(fan, 1) + f)
        total = total.truncate(top_degree)
    geom = PiecewisePolynomial.constant(fan, 1)
    term = PiecewisePolynomial.constant(fan, 1)
    for _ in range(top_degree):
        term = (term * exceptional.scale(-1)).truncate(top_degree)
        geom = geom + term
    return (total * geom).truncate(top_degree)


def pp_space_dimension(fan: Fan, degree: int) -> int:
    """Dimension of the space of continuous piecewise polynomials that are
    homogeneous of the given degree on a complete simplicial fan."""
    basis = pp_space_basis(fan, degree)
    return len(basis)


def _degree_monomials(rank: int, degree: int):
    return [e for e in product(range(degree + 1), repeat=rank)
            if sum(e) == degree]


def pp_space_basis(fan: Fan, degree: int):
    """Basis of homogeneous degree-d continuous piecewise polynomials,
    as coefficient vectors indexed by (top cone, monomial).

    Assumes a fan that passes validate_fan, where two top cones meet in
    the face spanned by their shared rays.
    """
    monos = _degree_monomials(fan.rank, degree)
    maxes = fan.max_cones
    cols = [(m, e) for m in maxes for e in monos]
    col_index = {c: i for i, c in enumerate(cols)}
    rows = []
    for i in range(len(maxes)):
        for j in range(i + 1, len(maxes)):
            shared = _shared_rays(fan, maxes[i], maxes[j])
            if not shared:
                continue
            for pt in _grid_points(shared, fan.rank, degree):
                row = [0] * len(cols)
                for e in monos:
                    val = 1
                    for x, k in zip(pt, e):
                        val *= x ** k
                    row[col_index[(maxes[i], e)]] += val
                    row[col_index[(maxes[j], e)]] -= val
                rows.append(row)
    if not rows:
        rows = [[0] * len(cols)]
    return linalg.nullspace(rows)

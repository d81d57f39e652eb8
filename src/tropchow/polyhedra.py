"""Exact polyhedral primitives on cones, in int arithmetic.

Cones are handled in two representations. Generator form is a list of
integer vectors; constraint form is a pair (equalities, inequalities) of
primitive integer functionals, with equalities cutting out the linear span
and inequalities the facets within it. A simplicial cone is read off the
dual basis of its rays within their span (dual_basis), which gives every
facet normal up to scale: a full-dimensional one from the inverse of its
ray matrix, with no kernel solve, and a lower-dimensional one from the
kernel of its rays and the inverse of their Gram matrix; both inverses
are one linalg.scaled_inverse. Every other conversion is built from
split, one double-description step that cuts a cone's extreme rays by a
hyperplane. rays_from_constraints starts from the simplicial cone that d
independent rows cut out, whose rays are the columns of their inverse
(one scaled_inverse, no kernel per ray), and splits it by the other
rows. Generators that are not independent get their facets from
rays_from_constraints by duality: the facets of cone(G) within span(G)
are the extreme rays of the dual cone {w in span(G) : g.w >= 0 for g in
G}, which is pointed there; their extreme rays are the rays that
rays_from_constraints reads off those facets in turn. So every
conversion is dual_basis or split. Every kernel vector is a primitive
integer vector read off the integer echelon form
(linalg.primitive_kernel). Nothing here decides affine feasibility:
whether cone s1 meets s2 + v is whether v lies in the cone spanned by
the rays of s1 and minus those of s2.
"""
from __future__ import annotations

from itertools import product

from . import linalg


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def dual_basis(rays):
    """Dual basis of independent integer rays within their span.

    Returns one pair (u_i, p_i) per ray: u_i an integer vector in the span
    of the rays and p_i a nonzero integer with u_i . r_j = p_i if i == j
    and 0 otherwise, so u_i / p_i is the dual basis vector. As many rays as
    coordinates give linalg.scaled_inverse(R^T) as it is, R the matrix
    with the rays as rows (u_i R^T = p_i e_i). Fewer rays are read off the
    scaled_inverse of their Gram matrix instead: its rows are the
    coefficients of each u_i in the rays, which keeps u_i in their span.
    Raises ValueError when the rays are dependent.
    """
    full = not rays or len(rays) == len(rays[0])
    try:
        pairs = linalg.scaled_inverse(
            list(zip(*rays)) if full else
            [[_dot(r, s) for s in rays] for r in rays])
    except ValueError:
        raise ValueError("rays are dependent") from None
    if full:
        return pairs
    return tuple(
        (tuple(sum(w * r[c] for w, r in zip(row, rays))
               for c in range(len(rays[0]))), p)
        for row, p in pairs)


def cone_constraints(generators, ambient_dim: int):
    """Constraint form of the cone spanned by integer generators.

    Independent generators have the facets of their dual basis. Otherwise
    the facets are the extreme rays of the dual cone within the span,
    {w : e.w = 0 for the equalities e, g.w >= 0 for the generators g},
    from rays_from_constraints; lineality among the generators needs no
    special case, since that dual cone is always pointed.

    Returns:
        (equalities, inequalities): sorted tuples of primitive integer
        functionals. Equalities vanish on the cone; inequalities are
        nonnegative on it and supporting within its span.
    """
    return _constraints_and_basis(generators, ambient_dim)[0]


def _constraints_and_basis(generators, ambient_dim: int):
    """cone_constraints, with the dual_basis of the nonzero generators
    that its facets were read off when those are independent, else None.
    As many independent generators as coordinates need no kernel solve:
    the cone is full-dimensional, with no equalities."""
    gens = [tuple(g) for g in generators if any(g)]
    if gens and len(gens) == ambient_dim:
        try:
            duals = dual_basis(gens)
        except ValueError:
            pass  # dependent: the kernel route below
        else:
            return ((), _signed_facets(duals)), duals
    eqs = linalg.primitive_kernel(gens if gens else [[0] * ambient_dim])
    if not gens:
        return (tuple(sorted(eqs)), ()), None
    if len(gens) == ambient_dim - len(eqs):
        duals = dual_basis(gens)
        return (tuple(sorted(eqs)), _signed_facets(duals)), duals
    ineqs = rays_from_constraints((eqs, tuple(gens)), ambient_dim)
    return (tuple(sorted(eqs)), ineqs), None


def _signed_facets(duals):
    """The facets of a simplicial cone, sorted: each u_i of its dual
    basis, made primitive and nonnegative on the rays."""
    return tuple(sorted({
        linalg.primitive_vector(u if p > 0 else [-x for x in u])
        for u, p in duals}))


def cone_contains(constraints, point) -> bool:
    eqs, ineqs = constraints
    return (all(_dot(e, point) == 0 for e in eqs)
            and all(_dot(a, point) >= 0 for a in ineqs))


def rays_from_constraints(constraints, ambient_dim: int):
    """Extreme rays of the pointed cone {x : Ex = 0, Ax >= 0}, A possibly
    rational: d independent rows of A cut out a simplicial cone on the
    kernel of E, and the other rows split it. The start cone's rays are
    read off one linalg.scaled_inverse of those rows transposed: u_i,
    signed by p_i, is tight on every start row but row i. Raises
    ValueError when the cone contains a line.
    """
    eqs, ineqs = constraints
    basis = linalg.primitive_kernel(eqs or [[0] * ambient_dim])
    d = len(basis)
    reduced = linalg._integer_rows([[_dot(a, b) for b in basis]
                                    for a in ineqs])
    start = linalg._integer_echelon(list(zip(*reduced)))[1]
    rows = [reduced[i] for i in start]
    if len(rows) < d:
        raise ValueError("cone contains a line")
    rays = [linalg.primitive_vector(u if p > 0 else [-x for x in u])
            for u, p in linalg.scaled_inverse(list(zip(*rows)))]
    for a in reduced:
        if a not in rows:
            rays = split(rays, rows, a)[0]
            rows.append(a)
    return tuple(sorted(linalg.primitive_vector(
        [_dot(y, col) for col in zip(*basis)]) for y in rays))


def split(rays, rows, a):
    """One double-description step (Fukuda and Prodon 1996): the extreme
    rays of the pointed cone C on each side of a.x = 0, sorted and
    primitive, a.x >= 0 first. C has the given extreme rays; rows, maybe
    redundant, cut it out within its span. Rays with a.r = 0 go to both
    sides, and so does one ray per adjacent pair a.p > 0 > a.n, adjacent
    when no third ray is tight on every row tight on both.
    """
    side = [_dot(a, r) for r in rays]
    pos = [i for i, s in enumerate(side) if s > 0]
    neg = [i for i, s in enumerate(side) if s < 0]
    cut = []
    if pos and neg:
        tight = [sum(1 << k for k, row in enumerate(rows) if not _dot(row, r))
                 for r in rays]
        for p, n in product(pos, neg):
            both = tight[p] & tight[n]
            if sum(t & both == both for t in tight) == 2:
                cut.append(linalg.primitive_vector(
                    [side[p] * x - side[n] * y
                     for x, y in zip(rays[n], rays[p])]))
    return (tuple(sorted([r for r, s in zip(rays, side) if s >= 0] + cut)),
            tuple(sorted([r for r, s in zip(rays, side) if s <= 0] + cut)))

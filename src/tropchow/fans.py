"""Rational polyhedral fans with exact combinatorics.

A Fan stores primitive ray vectors in lex order and every cone (including
the zero cone) as a sorted tuple of ray indices. Builders canonicalize
arbitrary generator input, so two fans with the same support and cones
compare equal. Subdivision, quotient (star) and refinement all return
canonical fans, and an equal fan that is still alive is returned as it
is (see Fan).
"""
from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import gcd

from . import linalg, polyhedra

ConeKey = tuple[int, ...]


class Fan:
    """Immutable fan; build through fan_from_max_cones or module helpers.

    Data derived from the rays and cones (H-representations, faces, cone
    dimensions, dual bases, multiplicities, smoothness, ray functions, the
    star of each cone (star_fan), and per target fan and matrix the
    carrier of each ray, cone homes and subdivision assignments, ...) is
    computed on first use and kept on this object, so a Fan must never
    be mutated. Each ray is located in a target fan once (_carriers):
    homes and assignments are read off those carriers, with no
    containment test per cone. The kept faces of a cone
    answer every face question: its facets, completeness (facets of top
    cones) and the coverage check of common_refinement read them.
    Construction hands over what it computes while closing over faces:
    the extreme rays, H-representation and faces of every input cone, the
    dimension of every cone and the top cones (a Fan built directly finds
    them as fan_from_cells does, from the cones holding each ray). Every
    new cell is converted by _cell, which computes one H-representation
    per generator list, reads the rays off independent generators or else
    off that H-representation, and keeps the dual basis that the
    H-representation of a simplicial cone is read off: fan_from_max_cones
    converts each generator list, and a stellar subdivision and
    piecewise.min_refinement convert only their new cells and hand each
    top cone they keep whole the cell the source fan holds for it
    (_top_cell).

    Every builder ends in fan_from_cells, which returns the live fan equal
    to the one it builds when there is one, so equal fans built while one
    of them is alive are one object and share all derived data. The table
    of live fans holds them weakly: a fan no caller holds any more is
    dropped (at the next garbage collection when its cached functions
    refer back to it), so nothing outlives the computation that built
    it. The table is module state without a lock; the library is
    single-threaded. A Fan constructed directly is never shared.
    """

    def __init__(self, rank: int, rays, cones):
        self.rank = rank
        self.rays = tuple(tuple(r) for r in rays)
        self.cones = tuple(tuple(c) for c in cones)
        self._hrep: dict[ConeKey, tuple] = {}
        self._faces: dict[ConeKey, tuple] = {}
        self._dim: dict[ConeKey, int] = {}
        self._max: tuple[ConeKey, ...] | None = None
        self._derived: dict = {}

    def cached(self, key, compute):
        """compute() on first use, then the same object for this fan.

        A call that raises stores nothing, so a refusal is raised again
        on every call.
        """
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]

    # -- basic queries ------------------------------------------------------

    def cone_rays(self, cone: ConeKey):
        return [self.rays[i] for i in cone]

    def cone_dim(self, cone: ConeKey) -> int:
        if cone not in self._dim:
            self._dim[cone] = linalg.rank(self.cone_rays(cone))
        return self._dim[cone]

    def cone_hrep(self, cone: ConeKey):
        if cone not in self._hrep:
            self._hrep[cone] = polyhedra.cone_constraints(
                self.cone_rays(cone), self.rank)
        return self._hrep[cone]

    def cone_contains(self, cone: ConeKey, point) -> bool:
        return polyhedra.cone_contains(self.cone_hrep(cone), point)

    @property
    def max_cones(self):
        if self._max is None:
            self._max = _top_keys(set(self.cones), self.cones)
        return self._max

    def cones_of_dim(self, d: int):
        return self.cached("cones_by_dim", self._cones_by_dim).get(d, ())

    def _cones_by_dim(self):
        by_dim: dict[int, list] = {}
        for c in self.cones:
            by_dim.setdefault(self.cone_dim(c), []).append(c)
        return {d: tuple(cs) for d, cs in by_dim.items()}

    def max_cone_over(self, cone: ConeKey) -> ConeKey:
        """First top cone having the given cone as a face."""
        def first():
            for m in self.max_cones:
                if set(cone) <= set(m):
                    return m
            raise ValueError("cone is not a face of any top cone")
        return self.cached(("max_over", cone), first)

    def relint_point(self, cone: ConeKey):
        pt = [0] * self.rank
        for i in cone:
            for j, x in enumerate(self.rays[i]):
                pt[j] += x
        return tuple(pt)

    def facets_of(self, cone: ConeKey):
        """Codimension-one faces of a cone, as sorted ray-index tuples: its
        kept faces (_faces_as_keys) of one dimension less."""
        d = self.cone_dim(cone) - 1
        return tuple(f for f in _faces_as_keys(self, cone)
                     if self.cone_dim(f) == d)

    def minimal_cone_containing(self, point):
        """Smallest fan cone containing the point, or None if outside.

        Assumes a fan that passes validate_fan, and returns the smallest
        face of the first top cone that holds the point; in such a fan
        that is the unique cone with the point in its relative interior.
        """
        for m in self.max_cones:
            face = _minimal_face_containing_all(self, m, [point])
            if face is not None:
                return face
        return None

    def cone_multiplicity(self, cone: ConeKey):
        """Lattice index of a simplicial cone, or of any independent set of
        ray indices (a sorted tuple), kept per key; None for a dependent
        set. For as many rays as the rank that is |det| of the rays."""
        def compute():
            rays = self.cone_rays(cone)
            if len(rays) != self.cone_dim(cone):
                return None
            if not rays:
                return 1
            if len(rays) == self.rank:
                return abs(linalg.det(rays))
            return linalg.lattice_index(
                [[r[i] for r in rays] for i in range(self.rank)])
        return self.cached(("multiplicity", cone), compute)

    def is_smooth(self) -> bool:
        return self.cached("smooth", lambda: all(
            self.cone_multiplicity(c) == 1 for c in self.max_cones))

    def cone_dual_basis(self, cone: ConeKey):
        """polyhedra.dual_basis of a simplicial cone's rays, or of any
        independent set of ray indices (a sorted tuple), kept per key; a
        dependent set raises ValueError and keeps nothing."""
        return self.cached(("dual_basis", cone),
                           lambda: polyhedra.dual_basis(self.cone_rays(cone)))

    def cone_saturation(self, cone: ConeKey):
        """linalg.saturation_data of a cone's ray columns, kept per cone:
        (proj, sect, sat) with sat a basis of the saturated lattice of the
        cone's span."""
        def compute():
            rays = self.cone_rays(cone)
            return linalg.saturation_data(
                [[r[i] for r in rays] for i in range(self.rank)])
        return self.cached(("saturation", cone), compute)

    def is_complete(self) -> bool:
        """Whether the top cones are full-dimensional and every cone of
        codimension one (a ridge) is a facet of exactly two of them,
        counted in one pass over their facets."""
        if self.rank == 0:
            return True
        maxes = self.max_cones
        if not maxes or any(self.cone_dim(c) != self.rank for c in maxes):
            return False
        counts = Counter(f for m in maxes for f in self.facets_of(m))
        return all(counts[r] == 2 for r in self.cones_of_dim(self.rank - 1))

    def __eq__(self, other):
        return (isinstance(other, Fan) and self.rank == other.rank
                and self.rays == other.rays and self.cones == other.cones)

    def __hash__(self):
        return hash((self.rank, self.rays, self.cones))

    def __repr__(self):
        return f"Fan(rank={self.rank}, rays={len(self.rays)}, cones={len(self.cones)})"


def _faces_as_keys(fan: Fan, cone: ConeKey):
    if cone not in fan._faces:
        fan._faces[cone] = _face_keys(
            cone, fan.cone_rays(cone), fan.cone_hrep(cone)[1])
    return fan._faces[cone]


def _face_keys(cone: ConeKey, rays, ineqs):
    """Faces of a cone with the given ray indices, rays and facet
    inequalities: the cone, the zero cone and every intersection of
    facets, a facet being the rays on which one inequality vanishes. Each
    face of a pointed cone is an intersection of facets, so closing the
    facets under intersection finds them all."""
    facets = {frozenset(i for i, r in zip(cone, rays)
                        if not polyhedra._dot(w, r)) for w in ineqs}
    faces, new = {frozenset(cone), frozenset()}, facets
    while new:
        faces |= new
        new = {f & g for f in new for g in facets} - faces
    return tuple(sorted(tuple(i for i in cone if i in f) for f in faces))


def fan_from_max_cones(rank: int, generator_lists) -> Fan:
    """Build a canonical fan from generator sets of its top cones.

    Generators may be redundant or non-primitive; faces are closed over
    automatically. No fan axioms are checked here; see validate_fan.
    Raises ValueError when a generator set spans a cone with a line.
    """
    cleaned = ({linalg.primitive_vector(g) for g in gens if any(g)}
               for gens in generator_lists)
    return fan_from_cells(rank, [_cell(rank, sorted(c)) for c in cleaned if c])


def _cell(rank: int, gens):
    """The cell (see fan_from_cells) of the cone on sorted, distinct,
    primitive, nonzero generators. Independent generators are its rays
    as they are; the rays of dependent ones are read off the H-rep by
    polyhedra.rays_from_constraints, which raises ValueError when the
    cone contains a line."""
    hrep, basis = polyhedra._constraints_and_basis(gens, rank)
    if basis is None:
        gens = polyhedra.rays_from_constraints(hrep, rank)
    return tuple(gens), hrep, basis


def _top_cell(fan: Fan, m: ConeKey):
    """The cell of a top cone, as the fan holds it."""
    return (tuple(fan.cone_rays(m)), fan.cone_hrep(m),
            fan._derived.get(("dual_basis", m)))


# every live fan that fan_from_cells returned, keyed by (rank, rays, cones)
_LIVE_FANS = weakref.WeakValueDictionary()


def fan_from_cells(rank: int, cells) -> Fan:
    """Build a canonical fan from its top cones given as cells (rays,
    H-rep, dual basis or None), each from _cell or _top_cell: the sorted
    extreme primitive rays of each cone, its constraint form as
    polyhedra.cone_constraints gives it and maybe the polyhedra.dual_basis
    of a simplicial cone's rays. All are handed to the fan as they are;
    faces are closed over automatically. A simplicial cell's faces are
    the subsets of its rays.

    Returns the live fan with the same rank, rays and cones when there
    is one, so that its derived data is shared (see Fan).
    """
    all_rays = sorted({r for rs, _, _ in cells for r in rs})
    index = {r: i for i, r in enumerate(all_rays)}
    hreps, bases = {}, {}
    faces = {(): ((),)}
    dims = {(): 0}
    for rs, hrep, basis in cells:
        key = tuple(sorted(index[r] for r in rs))
        if key not in faces:
            # sorted primitive functionals: the same for any generators
            hreps[key] = hrep
            if basis is not None:
                bases[("dual_basis", key)] = basis
            # the equalities are a basis of the functionals vanishing on
            # the cell, so it is simplicial when its rays number rank - eqs
            if len(key) == rank - len(hrep[0]):
                faces[key] = tuple(sorted(f for k in range(len(key) + 1)
                                          for f in combinations(key, k)))
                dims.update((f, len(f)) for f in faces[key])
            else:
                faces[key] = _face_keys(key, [all_rays[i] for i in key],
                                        hrep[1])
    for c in {c for fs in faces.values() for c in fs} - dims.keys():
        dims[c] = linalg.rank([all_rays[i] for i in c])
    cones = tuple(sorted(dims, key=lambda c: (dims[c], c)))
    key = (rank, tuple(all_rays), cones)
    fan = _LIVE_FANS.get(key)
    if fan is None:
        fan = Fan(rank, all_rays, cones)
        fan._hrep.update(hreps)
        fan._faces.update(faces)
        fan._dim.update(dims)
        fan._derived.update(bases)
        fan._max = _top_keys(faces, cones)
        _LIVE_FANS[key] = fan
    return fan


def _top_keys(keys, cones):
    """The cones, in their order, that are keys and lie in no other key:
    every cone of the fan lies in some key, so these are the cones that
    lie in no other cone."""
    holders: dict[int, set] = {}
    for c in keys:
        for i in c:
            holders.setdefault(i, set()).add(c)
    return tuple(c for c in cones if c in keys and (
        set.intersection(*(holders[i] for i in c)) == {c} if c
        else len(keys) == 1))


def validate_fan(fan: Fan) -> list[str]:
    """Check fan axioms; returns a list of violations (empty when valid).

    The extreme rays of each top cone are read off its H-representation,
    and every cone must be one of the top cones' faces (cones under a top
    cone that contains a line are not judged); each pair of top cones
    must meet in a face of both."""
    problems = []
    for i, r in enumerate(fan.rays):
        if not any(r):
            problems.append(f"ray {i} is zero")
        elif gcd(*r) != 1:
            problems.append(f"ray {i} = {r} is not primitive")
    if list(fan.rays) != sorted(set(fan.rays)):
        problems.append("rays are not sorted and distinct")
    if () not in fan.cones:
        problems.append("zero cone missing")
    cone_set, faces = set(fan.cones), set()
    maxes = fan.max_cones
    for c in maxes:
        try:
            extreme = polyhedra.rays_from_constraints(fan.cone_hrep(c), fan.rank)
        except ValueError:
            problems.append(f"cone {c} contains a line")
            faces.update(f for f in cone_set if set(f) <= set(c))
            continue
        if set(extreme) != set(fan.cone_rays(c)):
            problems.append(f"cone {c} has non-extremal or missing rays")
        for f in _faces_as_keys(fan, c):
            faces.add(f)
            if f not in cone_set:
                problems.append(f"face {f} of cone {c} is not in the fan")
    problems += [f"cone {c} is not a face of any top cone"
                 for c in fan.cones if c not in faces]
    for a, b in combinations(maxes, 2):
        (ea, ia), (eb, ib) = fan.cone_hrep(a), fan.cone_hrep(b)
        inter = polyhedra.rays_from_constraints((ea + eb, ia + ib), fan.rank)
        for cone in (a, b):
            mf = _minimal_face_containing_all(fan, cone, inter)
            if mf is None or set(fan.cone_rays(mf)) != set(inter):
                problems.append(
                    f"intersection of {a} and {b} is not a face of {cone}")
                break
    return problems


def _minimal_face_containing_all(fan: Fan, cone: ConeKey, points):
    eqs, ineqs = fan.cone_hrep(cone)
    for p in points:
        if not fan.cone_contains(cone, p):
            return None
    active = [a for a in ineqs
              if all(sum(x * y for x, y in zip(a, p)) == 0 for p in points)]
    return tuple(i for i in cone
                 if all(sum(x * y for x, y in zip(a, fan.rays[i])) == 0
                        for a in active))


# ---------------------------------------------------------------------------
# subdivision

def stellar_subdivision(fan: Fan, cone: ConeKey, new_ray=None) -> Fan:
    """Subdivide at a cone by a ray through its relative interior, by
    default the sum of its rays; the top cones away from the center keep
    their cells. Raises ValueError for any other ray."""
    if cone not in fan.cones or not cone:
        raise ValueError("stellar center must be a nonzero fan cone")
    if new_ray is None:
        new_ray = fan.relint_point(cone)
    elif (len(new_ray) != fan.rank
          or fan.minimal_cone_containing(new_ray) != cone):
        raise ValueError(f"ray {tuple(new_ray)} is not a rank-{fan.rank} "
                         f"vector in the relative interior of cone {cone}")
    return _stellar(fan, cone, linalg.primitive_vector(new_ray))


def _stellar(fan: Fan, cone: ConeKey, ray):
    """stellar_subdivision by a primitive ray known to lie in the relative
    interior of the cone, without locating it again: each top cone around
    the cone gives way to its facets that miss the cone, each with the ray
    added, which lies off the facet, so every ray of the new cells is
    extreme."""
    cells = []
    for m in fan.max_cones:
        if not set(cone) <= set(m):
            cells.append(_top_cell(fan, m))
            continue
        cells += [_cell(fan.rank, sorted(fan.cone_rays(f) + [ray]))
                  for f in fan.facets_of(m) if not set(cone) <= set(f)]
    return fan_from_cells(fan.rank, cells)


def insert_ray(fan: Fan, ray) -> Fan:
    """Refine so that the given direction becomes a fan ray."""
    ray = linalg.primitive_vector(ray)
    if ray in fan.rays:
        return fan
    home = fan.minimal_cone_containing(ray)
    if home is None:
        raise ValueError(f"direction {ray} lies outside the fan support")
    return _stellar(fan, home, ray)


def common_refinement(fan1: Fan, fan2: Fan) -> Fan:
    """Coarsest fan refining both inputs; they must share their support."""
    if fan1.rank != fan2.rank:
        raise ValueError("rank mismatch")
    pieces = []
    for a in fan1.max_cones:
        for b in fan2.max_cones:
            (ea, ia), (eb, ib) = fan1.cone_hrep(a), fan2.cone_hrep(b)
            pieces.append(polyhedra.rays_from_constraints(
                (ea + eb, ia + ib), fan1.rank))
    refined = fan_from_max_cones(fan1.rank, pieces)
    for coarse in (fan1, fan2):
        msg = _covering_defect(coarse, refined)
        if msg:
            raise ValueError(f"supports differ: {msg}")
    return refined


def _covering_defect(coarse: Fan, fine: Fan):
    """Check that fine tiles every top cone of coarse; None when it does.

    The cells of fine inside a top cone must include one of its
    dimension, and among those cells every facet off the top cone's
    boundary must be a facet of exactly two, counted in one pass as
    is_complete counts ridges."""
    for m in coarse.max_cones:
        d = coarse.cone_dim(m)
        cells = [c for c in fine.max_cones
                 if fine.cone_dim(c) == d
                 and all(coarse.cone_contains(m, r) for r in fine.cone_rays(c))]
        if not cells:
            return f"cone {m} holds no full-dimensional cell"
        ineqs = coarse.cone_hrep(m)[1]
        counts = Counter(f for c in cells for f in fine.facets_of(c))
        for cell in cells:
            for facet in fine.facets_of(cell):
                if counts[facet] != 2 and not any(
                        all(not polyhedra._dot(a, p)
                            for p in fine.cone_rays(facet)) for a in ineqs):
                    return (f"facet {facet} of cell {cell} inside cone {m} "
                            f"is shared by {counts[facet] - 1} cells")
    return None


def _carriers(source: Fan, matrix, target: Fan) -> tuple:
    """Per source ray, the target cone holding its image under the matrix
    in its relative interior: () for a zero image, the target ray itself
    for an image that is one, else Fan.minimal_cone_containing, None when
    the image lies outside the target support. Each ray is located once
    per (source fan, target fan, matrix), kept on the source fan."""
    def compute():
        index = {r: (j,) for j, r in enumerate(target.rays)}
        images = (linalg.mat_vec(matrix, r) for r in source.rays)
        return tuple(() if not any(v) else index.get(v)
                     or target.minimal_cone_containing(v) for v in images)
    key = ("carriers", target, tuple(tuple(row) for row in matrix))
    return source.cached(key, compute)


def _carried(carriers, cone: ConeKey):
    """The target rays of the carriers of a cone's rays, as a set; None
    when some ray's image lies outside the target support."""
    held = [carriers[i] for i in cone]
    return None if None in held else set().union(*held)


def cone_homes(source_fan: Fan, matrix, target: Fan) -> dict:
    """Per top cone of the source fan, the first top cone of the target
    holding its image under the matrix: the first whose rays include the
    carriers (_carriers) of its rays. In a valid target fan a top cone
    holds a point exactly when the point's carrier is one of its faces,
    which is when its rays include the carrier's. Found once per (source
    fan, target fan, matrix) and kept on the source fan; raises ValueError
    when some image lies in no target cone."""
    def compute():
        carriers = _carriers(source_fan, matrix, target)
        homes = {}
        for m in source_fan.max_cones:
            union = _carried(carriers, m)
            homes[m] = None if union is None else next(
                (c for c in target.max_cones if union <= set(c)), None)
            if homes[m] is None:
                raise ValueError(f"image of cone {m} lies in no target cone")
        return homes
    key = ("homes", target, tuple(tuple(row) for row in matrix))
    return source_fan.cached(key, compute)


def subdivision_assignment(fine: Fan, coarse: Fan) -> dict:
    """Map each cone of a refinement to the coarse cone holding its interior.

    Each cone maps to the least face (_faces_as_keys) of the home
    (cone_homes under the identity) of its top cone (Fan.max_cone_over)
    whose rays include the carriers of its rays (_carriers). In a valid
    coarse fan that is the coarse cone holding the cone's interior,
    whichever top cone the cone is read from. Kept on the fine fan per
    coarse fan; raises ValueError when some top cone has no home.
    """
    def compute():
        ident = linalg.identity_matrix(fine.rank)
        homes = cone_homes(fine, ident, coarse)
        carriers = _carriers(fine, ident, coarse)
        out = {}
        for c in fine.cones:
            union = _carried(carriers, c)
            out[c] = min((f for f in _faces_as_keys(
                coarse, homes[fine.max_cone_over(c)]) if union <= set(f)),
                key=len)
        return out
    return fine.cached(("assignment", coarse), compute)


# ---------------------------------------------------------------------------
# quotients

@dataclass(frozen=True)
class StarFan:
    """Quotient fan at a cone, with the lattice maps realizing it.

    proj maps the ambient lattice onto the quotient; sect is an integer
    right inverse. cone_to_source maps each quotient cone back to the
    unique fan cone containing the center whose image it is, and
    source_to_cone the other way. Kept on the fan and shared, so frozen.
    """
    fan: Fan
    center: ConeKey
    proj: list
    sect: list
    cone_to_source: dict
    source_to_cone: dict


def star_fan(fan: Fan, center: ConeKey) -> StarFan:
    """Star of a fan cone: the cones over it projected along its span,
    each ray once; the one such projection, kept on the fan per center."""
    if center not in fan.cones:
        raise ValueError("center is not a fan cone")

    def compute():
        proj, sect, _ = fan.cone_saturation(center)
        d = fan.cone_dim(center)
        over = [c for c in fan.cones if set(center) <= set(c)]
        images = {}  # the primitive image of each ray off the center
        for i in {i for c in over for i in c} - set(center):
            v = linalg.mat_vec(proj, fan.rays[i])
            if any(v):
                images[i] = linalg.primitive_vector(v)
        quotient = fan_from_max_cones(fan.rank - d, [
            [images[i] for i in m if i in images]
            for m in fan.max_cones if set(center) <= set(m)])
        index = {r: j for j, r in enumerate(quotient.rays)}
        cones = set(quotient.cones)
        to_source, to_cone = {}, {}
        for src in over:
            # the images that are quotient rays span the image cone
            key = tuple(sorted({index[images[i]] for i in src
                                if images.get(i) in index}))
            if (key not in cones
                    or quotient.cone_dim(key) != fan.cone_dim(src) - d):
                raise ValueError(f"image of {src} is not a quotient cone")
            to_source[key], to_cone[src] = src, key
        return StarFan(quotient, center, proj, sect, to_source, to_cone)
    return fan.cached(("star", center), compute)

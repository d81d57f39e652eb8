"""Tropical moduli of curves at desk scale.

Stable weighted dual graphs, their moduli cones, the subfan of points
admitting balanced functions with prescribed contact slopes, rubber
combinatorial types, the simplicial refinement by rubber type, and
fiber products of two such subfans over the moduli complex.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from . import linalg, polyhedra
from .polynomials import _exact


@dataclass(frozen=True)
class WeightedDualGraph:
    """Connected graph with vertex genera, multi-edges, loops, and
    labelled legs; every vertex satisfies 2h(v) - 2 + val(v) > 0."""

    genus: tuple
    edges: tuple
    legs: tuple

    def __post_init__(self):
        nv = len(self.genus)
        if nv == 0:
            raise ValueError("graph needs at least one vertex")
        if any(h < 0 for h in self.genus):
            raise ValueError("vertex genus must be nonnegative")
        edges = tuple(tuple(sorted(e)) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "genus", tuple(self.genus))
        object.__setattr__(self, "legs", tuple(self.legs))
        for a, b in edges:
            if not (0 <= a < nv and 0 <= b < nv):
                raise ValueError("edge endpoint out of range")
        if any(not 0 <= v < nv for v in self.legs):
            raise ValueError("leg vertex out of range")
        if len(self._paths) != nv:
            raise ValueError("graph must be connected")
        for v in range(nv):
            if 2 * self.genus[v] - 2 + self.valence(v) <= 0:
                raise ValueError(f"vertex {v} is unstable")

    @cached_property
    def _paths(self):
        """The spanning tree of a depth-first walk from vertex 0: per
        vertex reached, in the order reached, the signed edge incidence of
        its tree path from vertex 0, +1 on an edge walked from its stored
        low endpoint to its high one and -1 on one walked back."""
        paths = {0: (0,) * len(self.edges)}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for i, (a, b) in enumerate(self.edges):
                if v in (a, b):
                    y, sign = (b, 1) if v == a else (a, -1)
                    if y not in paths:
                        path = list(paths[v])
                        path[i] = sign
                        paths[y] = tuple(path)
                        frontier.append(y)
        return paths

    @cached_property
    def _cycles(self):
        """Per edge i = (a, b) off the tree of _paths, loops included, in
        stored order: its fundamental cycle e_i + path[a] - path[b]."""
        paths = self._paths
        out = []
        for i, (a, b) in enumerate(self.edges):
            if not (paths[a][i] or paths[b][i]):
                cycle = [x - y for x, y in zip(paths[a], paths[b])]
                cycle[i] = 1
                out.append(tuple(cycle))
        return tuple(out)

    @property
    def num_vertices(self) -> int:
        return len(self.genus)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def valence(self, v: int) -> int:
        """Edge-endpoints at v (loops twice) plus incident legs."""
        out = sum((a == v) + (b == v) for a, b in self.edges)
        return out + sum(x == v for x in self.legs)

    @property
    def betti(self) -> int:
        return self.num_edges - self.num_vertices + 1

    @classmethod
    def _trusted(cls, genus, edges, legs):
        """A graph known to be stable and connected, with sorted edge
        pairs, built without the checks of the constructor."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "genus", genus)
        object.__setattr__(graph, "edges", edges)
        object.__setattr__(graph, "legs", legs)
        return graph

    def canonical(self):
        """(canonical graph, vertex relabelling onto it).

        The canonical graph is the relabelling with the smallest key
        (genus tuple, sorted edges, legs); among relabellings with that
        key, the lexicographically smallest one is returned. Only the
        relabellings that sort the genus tuple can reach the smallest key,
        so a depth-first search fills positions 0, 1, ... in order, each
        from the unplaced vertices whose genus belongs there.

        With the positions below k filled, the sorted edge list of every
        completion is bounded from below entry by entry: an edge with both
        ends placed is exact, one with one end placed at a is at least
        (a, k), and one with neither end placed is at least (k, k). The
        children of a node are tried in the order of their bounds, and a
        child is cut only when its bound is strictly above the best edge
        list found so far. Ties are not cut: a child whose bound equals
        the best list may still reach it, and then its legs and its
        relabelling decide, at the leaf, exactly as the key does. An edge
        list is held as one number with a digit per pair (a, b), most
        significant first, counting the edges at that pair: a smaller list
        is a larger number, and a child's bound is its parent's plus a few
        terms.
        """
        genus, edges, legs = self.genus, self.edges, self.legs
        nv = len(genus)
        if nv == 1:
            return self, (0,)
        loops = [0] * nv
        links = [{} for _ in genus]  # per vertex: neighbour -> edge count
        for a, b in edges:
            if a == b:
                loops[a] += 1
            else:
                links[a][b] = links[a].get(b, 0) + 1
                links[b][a] = links[b].get(a, 0) + 1
        degree = [sum(row.values()) for row in links]
        target = sorted(genus)
        # the digit of the pair (a, b) is the (a * side + b)-th from the top
        # and width bits wide: no digit exceeds the edge count, so none
        # carries, and the pair (a, b + 1) is one digit right of (a, b)
        side = nv + 1
        width = len(edges).bit_length()
        unit = [1 << width * c for c in range(side * side, 0, -1)]
        pos = [nv] * nv  # nv: not placed yet
        best = None

        def descend(k, bound, pending, free):
            # bound: the node's bound; pending: the part of it from the
            # edges with one end placed, each at (a, k); free: the count of
            # edges with no end placed, each at (k, k)
            nonlocal best
            column = unit[k::side]  # column[a]: the unit of (a, k)
            here = unit[k * side + k]
            beside, below = here >> width, unit[(k + 1) * side + k + 1]
            children = []
            for v in range(nv):
                if pos[v] < nv or genus[v] != target[k]:
                    continue
                rest, own = pending, degree[v]
                for u, m in links[v].items():
                    if pos[u] < k:
                        rest -= m * column[pos[u]]
                        own -= m
                # placing v at k: the pending edges not onto v move on to
                # (a, k + 1), v's edges to unplaced vertices to (k, k + 1),
                # and the other free edges to (k + 1, k + 1)
                moved = rest >> width
                others = free - loops[v] - own
                child = (bound - rest + moved + own * (beside - here)
                         + others * (below - here))
                # a smaller key is a smaller edge list
                children.append((-child, v, moved + own * beside, others))
            children.sort()
            for key, v, child_pending, child_free in children:
                if best is not None and key > best[0]:
                    break
                pos[v] = k
                if k + 2 == nv:
                    # the vertex left takes the last position, so the bound
                    # is the exact edge list
                    w = pos.index(nv)
                    pos[w] = k + 1
                    leaf = (key, tuple(pos[x] for x in legs), tuple(pos))
                    if best is None or leaf < best:
                        best = leaf
                    pos[w] = nv
                else:
                    descend(k + 1, -key, child_pending, child_free)
                pos[v] = nv

        descend(0, len(edges) * unit[0], 0, len(edges))
        _, legs, perm = best
        edges = tuple(sorted(tuple(sorted((perm[a], perm[b])))
                             for a, b in edges))
        return WeightedDualGraph._trusted(tuple(target), edges, legs), perm

    def canonical_key(self):
        graph, _ = self.canonical()
        return (graph.genus, graph.edges, graph.legs)


def _degenerations(graph: WeightedDualGraph):
    """Every stable graph with one more edge that contracts back to this
    one: a unit of genus traded for a loop, or a vertex split in two
    joined by a new edge, sharing out its genus, its half-edges (a loop
    has two) and its legs. The first end at the vertex stays, which
    skips each split's mirror image, and the ends that move are drawn as
    combinations, only of the sizes that leave a genus range where both
    vertices are stable, 2h - 2 + val > 0. The new edge keeps the graph
    connected, so every candidate is built without the checks of the
    constructor."""
    genus, edges, legs = graph.genus, graph.edges, graph.legs
    new = len(genus)
    for v, h in enumerate(genus):
        if h:
            yield WeightedDualGraph._trusted(
                genus[:v] + (h - 1,) + genus[v + 1:], edges + ((v, v),),
                legs)
        # (index, is a leg) per end at v; a loop gives two equal ends
        ends = [(i, False) for i, e in enumerate(edges) for x in e if x == v]
        ends += [(j, True) for j, x in enumerate(legs) if x == v]
        for size in range(len(ends[1:]) + 1):
            # genus range keeping 2h - 2 + val > 0 on both sides, where
            # each side also holds one end of the new edge
            low = max(0, 1 - (len(ends) - size) // 2)
            high = h - max(0, 1 - size // 2)
            if low > high:
                continue
            for out in itertools.combinations(ends[1:], size):
                split_edges, split_legs = list(edges), list(legs)
                for i, is_leg in out:
                    if is_leg:
                        split_legs[i] = new
                    else:
                        # the end at v moves; a loop moved twice ends at
                        # (new, new)
                        a, b = split_edges[i]
                        split_edges[i] = (b, new) if a == v else (a, new)
                split_edges = tuple(split_edges) + ((v, new),)
                split_legs = tuple(split_legs)
                for h1 in range(low, high + 1):
                    yield WeightedDualGraph._trusted(
                        genus[:v] + (h1,) + genus[v + 1:] + (h - h1,),
                        split_edges, split_legs)


def enumerate_stable_graphs(g: int, n: int, max_edges=None):
    """All stable weighted dual graphs of genus g with n labelled legs and
    at most max_edges edges, one per isomorphism class, in canonical order.

    Graphs are grown edge by edge from the one-vertex graph: any edge of
    a stable graph contracts to a stable graph, and none has more than
    3g - 3 + n edges. Each layer keeps one graph per canonical key, and
    only stable degenerations are ever built (_degenerations). Negative
    g, n or max_edges are refused.
    """
    if g < 0 or n < 0:
        raise ValueError("genus and leg count must be nonnegative")
    if max_edges is not None and max_edges < 0:
        raise ValueError("edge cap must be nonnegative")
    if 2 * g - 2 + n <= 0:
        raise ValueError("no stable graphs: 2g - 2 + n must be positive")
    cap = 3 * g - 3 + n if max_edges is None else min(max_edges, 3 * g - 3 + n)
    found = {}
    layer = (WeightedDualGraph((g,), (), (0,) * n),)
    for _ in range(cap + 1):
        kept = {}
        for graph in layer:
            canon, _ = graph.canonical()
            kept[(canon.genus, canon.edges, canon.legs)] = canon
        found.update(kept)
        layer = (cand for graph in kept.values()
                 for cand in _degenerations(graph))
    return [found[key] for key in sorted(found)]


@dataclass(frozen=True)
class SlopeAssignment:
    """Integer slope per edge, read along the stored (low, high) endpoint
    order, balancing the contact slopes on the legs at every vertex."""

    graph: WeightedDualGraph
    contact: tuple
    slopes: tuple

    def __post_init__(self):
        object.__setattr__(self, "contact", tuple(self.contact))
        object.__setattr__(self, "slopes", tuple(self.slopes))
        if len(self.contact) != len(self.graph.legs):
            raise ValueError("one contact slope per leg is required")
        if len(self.slopes) != self.graph.num_edges:
            raise ValueError("one slope per edge is required")
        for v in range(self.graph.num_vertices):
            if self.outflow(v) != 0:
                raise ValueError(f"slopes do not balance at vertex {v}")

    def outflow(self, v: int):
        """Sum of outgoing slopes at v; loops cancel themselves."""
        total = 0
        for (a, b), m in zip(self.graph.edges, self.slopes):
            if a == v:
                total += m
            if b == v:
                total -= m
        for x, s in zip(self.graph.legs, self.contact):
            if x == v:
                total += s
        return total

    @classmethod
    def _trusted(cls, graph, contact, slopes):
        """An assignment known to balance, with tuple contact and slopes,
        built without the checks of the constructor."""
        assignment = object.__new__(cls)
        object.__setattr__(assignment, "graph", graph)
        object.__setattr__(assignment, "contact", contact)
        object.__setattr__(assignment, "slopes", slopes)
        return assignment


def balanced_slopes(graph: WeightedDualGraph, contact, bound: int):
    """Every integer slope assignment with all |slope| <= bound, sorted.

    The slopes on the edges off the spanning tree (loops included) are
    free. Sending each contact slope from vertex 0 to its leg's vertex
    along the tree balances every vertex; each choice t in [-bound, bound]
    per free edge adds t times its fundamental cycle, and the choices
    whose tree slopes stay within the bound are kept.
    """
    contact = tuple(contact)
    if len(contact) != len(graph.legs):
        raise ValueError("one contact slope per leg is required")
    if sum(contact) != 0:
        raise ValueError("contact slopes must sum to zero")
    if bound < 0:
        raise ValueError("slope bound must be nonnegative")
    paths, cycles = graph._paths, graph._cycles
    base = [0] * graph.num_edges
    for x, s in zip(graph.legs, contact):
        for i, p in enumerate(paths[x]):
            base[i] += s * p
    out = []
    for choice in itertools.product(range(-bound, bound + 1),
                                    repeat=len(cycles)):
        slopes = list(base)
        for t, cycle in zip(choice, cycles):
            for i, c in enumerate(cycle):
                slopes[i] += t * c
        if all(-bound <= m <= bound for m in slopes):
            out.append(SlopeAssignment._trusted(graph, contact,
                                                tuple(slopes)))
    out.sort(key=lambda a: a.slopes)
    return out


def _cycle_rows(graph: WeightedDualGraph, slopes):
    """One row per independent cycle: the slope-weighted, orientation-
    signed length functional that a balanced function must annihilate."""
    rows = (tuple(c * m for c, m in zip(cycle, slopes))
            for cycle in graph._cycles)
    return tuple(row for row in rows if any(row))


@dataclass(frozen=True)
class DRCone:
    """Edge-length cone of an assignment: the nonnegative orthant cut by
    the cycle conditions, described by its extreme rays."""

    assignment: SlopeAssignment
    equations: tuple
    rays: tuple
    full_support: bool

    @property
    def graph(self) -> WeightedDualGraph:
        return self.assignment.graph

    @property
    def dim(self) -> int:
        return linalg.rank(self.rays)

    def contains(self, point) -> bool:
        """Whether the point has no negative length and every equation
        vanishes on it."""
        if any(x < 0 for x in point):
            return False
        return all(sum(c * x for c, x in zip(row, point)) == 0
                   for row in self.equations)

    def relint_point(self):
        return tuple(sum(r[i] for r in self.rays)
                     for i in range(self.graph.num_edges))


def _wall_key(vec):
    """The primitive multiple of a nonzero integer vector whose first
    nonzero entry is positive."""
    out = linalg.primitive_vector(vec)
    return out if next(x for x in out if x) > 0 else tuple(-x for x in out)


def dr_cone(graph: WeightedDualGraph, assignment: SlopeAssignment) -> DRCone:
    return _dr_cone(graph, assignment, {})


def _dr_cone(graph, assignment, solved: dict) -> DRCone:
    """dr_cone, taking the rays from solved when it holds the same cone:
    keyed by the edge count and the set of cycle rows, each made
    primitive with its first nonzero entry positive, which leaves the
    cone unchanged."""
    if assignment.graph != graph:
        raise ValueError("assignment does not belong to this graph")
    ne = graph.num_edges
    equations = _cycle_rows(graph, assignment.slopes)
    key = (ne, frozenset(map(_wall_key, equations)))
    if key not in solved:
        solved[key] = _edge_cone_rays(equations, ne)
    rays = solved[key]
    full = all(any(r[i] for r in rays) for i in range(ne))
    return DRCone(assignment, equations, rays, full)


def _edge_cone_rays(equations, ne: int):
    """Extreme rays of {x >= 0 : equations vanish} in the edge-length
    space, computed inside the kernel of the equations."""
    return polyhedra.rays_from_constraints(
        (equations, linalg.identity_matrix(ne)), ne)


@dataclass(frozen=True)
class DRPiece:
    graph: WeightedDualGraph
    bound: int
    cones: tuple


@dataclass(frozen=True)
class DRSubfan:
    genus: int
    num_legs: int
    contact: tuple
    pieces: tuple

    @cached_property
    def _piece_by_key(self):
        return {piece.graph.canonical_key(): piece for piece in self.pieces}

    def piece_for(self, graph: WeightedDualGraph) -> DRPiece:
        try:
            return self._piece_by_key[graph.canonical_key()]
        except KeyError:
            raise KeyError("graph is not part of this subfan") from None


def _maximal_cones(cones):
    uniq = []
    seen = set()
    for cone in cones:
        if cone.rays not in seen:
            seen.add(cone.rays)
            uniq.append(cone)
    kept = []
    for cone in uniq:
        inside = any(other.rays != cone.rays and
                     all(other.contains(r) for r in cone.rays)
                     for other in uniq)
        if not inside:
            kept.append(cone)
    return tuple(kept)


def default_bound(contact, num_edges: int) -> int:
    return max(sum(max(s, 0) for s in contact), 1) * num_edges


def dr_subfan(g: int, n: int, contact, bound=None) -> DRSubfan:
    """Per stable graph, the maximal edge-length cones admitting a
    balanced function with the given contact slopes and |slope| <= bound.

    Many assignments share a cone; within one call the rays of each
    distinct cone are solved once. Completeness is always relative to
    the bound; no finiteness claim beyond the box is made.
    """
    return _dr_subfans(g, n, [(contact, bound)])[0]


def _dr_subfans(g: int, n: int, requests):
    """dr_subfan of each (contact, bound) in turn, all over one list of
    the stable graphs, so that they share each graph's spanning tree and
    the rays of each distinct cone. Each request is refused as dr_subfan
    refuses it, in order."""
    graphs = None
    solved = {}
    out = []
    for contact, bound in requests:
        contact = tuple(contact)
        if len(contact) != n:
            raise ValueError("one contact slope per leg is required")
        if graphs is None:
            graphs = enumerate_stable_graphs(g, n)
        pieces = []
        for graph in graphs:
            b = (default_bound(contact, graph.num_edges) if bound is None
                 else bound)
            cones = [_dr_cone(graph, assignment, solved)
                     for assignment in balanced_slopes(graph, contact, b)]
            pieces.append(DRPiece(graph, b, _maximal_cones(cones)))
        out.append(DRSubfan(g, n, contact, tuple(pieces)))
    return out


def contract_edge(graph: WeightedDualGraph, e: int):
    """Contract edge e; a loop becomes a unit of genus instead.

    Returns the contracted graph together with the surviving edge
    indices in their inherited order.
    """
    a, b = graph.edges[e]
    kept = [i for i in range(graph.num_edges) if i != e]
    if a == b:
        genus = list(graph.genus)
        genus[a] += 1
        return (WeightedDualGraph(
            tuple(genus), tuple(graph.edges[i] for i in kept), graph.legs),
            kept)

    def relabel(v):
        if v == b:
            return a
        return v - 1 if v > b else v

    genus = [h for v, h in enumerate(graph.genus) if v != b]
    genus[a] += graph.genus[b]
    edges = tuple(tuple(sorted((relabel(x), relabel(y))))
                  for i in kept for x, y in [graph.edges[i]])
    legs = tuple(relabel(v) for v in graph.legs)
    return WeightedDualGraph(tuple(genus), edges, legs), kept


def _transport_to_canonical(graph: WeightedDualGraph, vectors):
    """Rewrite per-edge vectors in the coordinates of the canonical
    representative; parallel edges are matched in stored order, which is
    harmless because swapping them is an automorphism."""
    canon, perm = graph.canonical()
    images = [tuple(sorted((perm[a], perm[b]))) for a, b in graph.edges]
    used = [False] * canon.num_edges
    position = []
    for pair in images:
        for j, target in enumerate(canon.edges):
            if not used[j] and target == pair:
                used[j] = True
                position.append(j)
                break
    out = []
    for vec in vectors:
        moved = [0] * canon.num_edges
        for i, j in enumerate(position):
            moved[j] = vec[i]
        out.append(tuple(moved))
    return canon, out


def verify_face_closure(subfan: DRSubfan):
    """Check each zero-length face of each cone lands inside a cone of
    the contracted graph's piece; returns the list of violations."""
    bad = []
    for piece in subfan.pieces:
        graph = piece.graph
        for cone in piece.cones:
            for e in range(graph.num_edges):
                face = [r for r in cone.rays if r[e] == 0]
                smaller, kept = contract_edge(graph, e)
                projected = [tuple(r[i] for i in kept) for r in face]
                canon, moved = _transport_to_canonical(smaller, projected)
                target = subfan.piece_for(canon)
                if not any(all(c.contains(v) for v in moved)
                           for c in target.cones) and moved:
                    bad.append((graph, cone, e))
    return bad


def _potential_rows(graph: WeightedDualGraph, slopes):
    """Per vertex, the linear functional of the edge lengths giving its
    value under a balanced function normalised to zero at vertex 0."""
    paths = graph._paths
    return [tuple(p * m for p, m in zip(paths[v], slopes))
            for v in range(graph.num_vertices)]


@dataclass(frozen=True)
class RubberType:
    """Combinatorics of a balanced function at one metric point: the
    level line, the level-subdivided source graph, and its map down.

    Subdivided edges are listed in stored edge order, traversed from the
    lower stored endpoint; crossing vertices are appended after the
    original ones with genus 0.  An edge whose endpoints share a level
    maps to that level's vertex, even if its slope is nonzero and only
    its length vanishes; all others span one consecutive level pair,
    recorded by the lower level.
    """

    graph: WeightedDualGraph
    slopes: tuple
    num_levels: int
    vertex_level: tuple
    pieces: tuple        # (u, v, slope, kind, level) with kind "v" or "e"
    new_vertices: int
    potentials: tuple = field(compare=False)

    @property
    def target_edges(self) -> int:
        return self.num_levels - 1

    @property
    def contracted_free_edges(self) -> int:
        return sum(1 for _, _, m, kind, _ in self.pieces
                   if kind == "v" and m == 0)

    @property
    def expected_dimension(self) -> int:
        return self.contracted_free_edges + self.target_edges


def rubber_type(graph: WeightedDualGraph, assignment: SlopeAssignment,
                lengths) -> RubberType:
    lengths = tuple(_exact(x) for x in lengths)
    if len(lengths) != graph.num_edges or any(x < 0 for x in lengths):
        raise ValueError("one nonnegative length per edge is required")
    rows = _potential_rows(graph, assignment.slopes)
    pot = [_exact(sum(c * x for c, x in zip(row, lengths))) for row in rows]
    for (a, b), m, l in zip(graph.edges, assignment.slopes, lengths):
        if pot[b] - pot[a] != m * l:
            raise ValueError(
                "lengths are inconsistent with the slopes; "
                "the point lies outside the cone")
    levels = sorted(set(pot))
    level_of = {value: i for i, value in enumerate(levels)}
    vertex_level = tuple(level_of[p] for p in pot)
    pieces = []
    next_vertex = graph.num_vertices
    for (a, b), m in zip(graph.edges, assignment.slopes):
        la, lb = vertex_level[a], vertex_level[b]
        if la == lb:
            pieces.append((a, b, m, "v", la))
            continue
        step = 1 if lb > la else -1
        stops = list(range(la, lb + step, step))
        chain = [a]
        for _ in stops[1:-1]:
            chain.append(next_vertex)
            next_vertex += 1
        chain.append(b)
        for u, v, lo in zip(chain, chain[1:], stops):
            pieces.append((u, v, m, "e", min(lo, lo + step)))
    return RubberType(graph, assignment.slopes, len(levels), vertex_level,
                      tuple(pieces), next_vertex - graph.num_vertices,
                      tuple(pot))


@dataclass(frozen=True)
class RubberPiece:
    cone: DRCone
    rays: tuple
    rubber: RubberType
    simplicial: bool
    smooth: bool
    dimension_ok: bool

    @property
    def graph(self) -> WeightedDualGraph:
        return self.cone.graph

    @property
    def dim(self) -> int:
        return linalg.rank(self.rays)


def rubber_pieces(cone: DRCone):
    """Split a cone along every hyperplane equating two vertex levels,
    so the level picture is constant on each piece's interior. Each
    region holds its rays and the rows cutting it out of its span."""
    graph = cone.graph
    ne = graph.num_edges
    potential = _potential_rows(graph, cone.assignment.slopes)
    walls = {_wall_key([a - b for a, b in zip(pu, pv)])
             for pu, pv in itertools.combinations(potential, 2) if pu != pv}
    regions = [(linalg.identity_matrix(ne), cone.rays)]
    for wall in sorted(walls):
        anti = tuple(-c for c in wall)
        cut = []
        for rows, rays in regions:
            upper, lower = polyhedra.split(rays, rows, wall)
            if upper == rays:
                cut.append((rows + [wall], rays))
            elif lower == rays:
                cut.append((rows + [anti], rays))
            else:
                cut.append((rows + [wall], upper))
                cut.append((rows + [anti], lower))
        regions = cut
    out = []
    for rays in dict.fromkeys(rays for _, rays in regions):
        point = [sum(r[i] for r in rays) for i in range(ne)]
        rt = rubber_type(graph, cone.assignment, point)
        dim = linalg.rank(rays)
        simplicial = len(rays) == dim
        columns = [tuple(r[i] for r in rays) for i in range(ne)]
        smooth = simplicial and (
            not rays or linalg.lattice_index(columns) == 1)
        out.append(RubberPiece(cone, rays, rt, simplicial, smooth,
                               dim == rt.expected_dimension))
    return tuple(out)


def rubber_subdivision(g: int, n: int, contact, bound=None):
    """The subfan refined until the rubber type is constant on every
    open piece, with simpliciality and dimension verdicts per piece."""
    out = []
    for piece in dr_subfan(g, n, contact, bound).pieces:
        for cone in piece.cones:
            out.extend(rubber_pieces(cone))
    return tuple(out)


@dataclass(frozen=True)
class TCCone:
    graph: WeightedDualGraph
    left: SlopeAssignment
    right: SlopeAssignment
    equations: tuple
    rays: tuple

    contains = DRCone.contains  # the same rule on the joint equations


@dataclass(frozen=True)
class TCPiece:
    graph: WeightedDualGraph
    cones: tuple


@dataclass(frozen=True)
class TCComplex:
    genus: int
    num_legs: int
    contacts: tuple
    pieces: tuple


def tc_fiber_product(a: DRSubfan, b: DRSubfan) -> TCComplex:
    """Cone-wise intersection of two subfans over the shared moduli
    complex: the locus meeting both slope conditions at once."""
    if a.genus != b.genus or a.num_legs != b.num_legs:
        raise ValueError("fiber product needs matching genus and leg count")
    pieces = []
    for left_piece, right_piece in zip(a.pieces, b.pieces):
        assert left_piece.graph == right_piece.graph
        graph = left_piece.graph
        ne = graph.num_edges
        cones = []
        for cl in left_piece.cones:
            for cr in right_piece.cones:
                equations = tuple(dict.fromkeys(cl.equations + cr.equations))
                cones.append(TCCone(graph, cl.assignment, cr.assignment,
                                    equations,
                                    _edge_cone_rays(equations, ne)))
        pieces.append(TCPiece(graph, _maximal_cones(cones)))
    return TCComplex(a.genus, a.num_legs, (a.contact, b.contact),
                     tuple(pieces))

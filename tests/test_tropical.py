import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (assert_exact, degenerations_by_masks, polytope_vertices,
                     total_genus)
from tropchow import linalg, polyhedra, tropical
from tropchow.tropical import (SlopeAssignment, WeightedDualGraph,
                               balanced_slopes, dr_cone, dr_subfan,
                               enumerate_stable_graphs, rubber_pieces,
                               rubber_subdivision, rubber_type,
                               tc_fiber_product, verify_face_closure)

LOOP = WeightedDualGraph((0,), ((0, 0),), (0, 0))
BANANA = WeightedDualGraph((0, 0), ((0, 1), (0, 1)), (0, 1))


def test_graph_validation():
    with pytest.raises(ValueError):
        WeightedDualGraph((0,), (), (0,))          # valence 1 at genus 0
    with pytest.raises(ValueError):
        WeightedDualGraph((1, 1), (), (0, 1))      # disconnected
    assert LOOP.valence(0) == 4
    assert total_genus(LOOP) == 1
    assert total_genus(BANANA) == 1


def test_enumeration_counts():
    assert len(enumerate_stable_graphs(0, 3)) == 1
    assert len(enumerate_stable_graphs(1, 1)) == 2
    graphs = enumerate_stable_graphs(1, 2)
    assert len(graphs) == 5
    shapes = sorted((g.num_vertices, g.num_edges) for g in graphs)
    assert shapes == [(1, 0), (1, 1), (2, 1), (2, 2), (2, 2)]
    with pytest.raises(ValueError):
        enumerate_stable_graphs(0, 2)


def test_enumeration_edge_cap():
    assert len(enumerate_stable_graphs(1, 2, max_edges=0)) == 1
    with pytest.raises(ValueError, match="edge cap"):
        enumerate_stable_graphs(1, 2, max_edges=-1)
    capped = enumerate_stable_graphs(1, 2, max_edges=1)
    assert capped == [g for g in enumerate_stable_graphs(1, 2)
                      if g.num_edges <= 1]
    assert sorted((g.num_vertices, g.num_edges) for g in capped) == [
        (1, 0), (1, 1), (2, 1)]


def _relabelled_key(graph, perm):
    """(genus, sorted edges, legs) of the graph with each vertex v moved
    to perm[v]."""
    genus = [0] * graph.num_vertices
    for v, h in enumerate(graph.genus):
        genus[perm[v]] = h
    return (tuple(genus),
            tuple(sorted(tuple(sorted((perm[a], perm[b])))
                         for a, b in graph.edges)),
            tuple(perm[v] for v in graph.legs))


def _full_scan_canonical(graph):
    """Every vertex permutation; the smallest key, and among tied keys
    the first permutation in lexicographic order."""
    best = best_perm = None
    for perm in itertools.permutations(range(graph.num_vertices)):
        key = _relabelled_key(graph, perm)
        if best is None or key < best:
            best, best_perm = key, perm
    return WeightedDualGraph(*best), best_perm


def _brute_force_graphs(g, n):
    """Second algorithm: every genus vector x edge multiset x leg
    placement with the right Betti number, kept up to isomorphism by the
    full permutation scan, which shares no code with canonical()."""
    found = {}
    # the per-vertex surpluses 2h - 2 + val sum to 2g - 2 + n, each >= 1
    for nv in range(1, 2 * g - 2 + n + 1):
        pairs = [(i, j) for i in range(nv) for j in range(i, nv)]
        for genus in itertools.product(range(g + 1), repeat=nv):
            b1 = g - sum(genus)
            if b1 < 0:
                continue
            for edges in itertools.combinations_with_replacement(
                    pairs, nv - 1 + b1):
                for legs in itertools.product(range(nv), repeat=n):
                    try:
                        graph = WeightedDualGraph(genus, edges, legs)
                    except ValueError:
                        continue
                    canon, _ = _full_scan_canonical(graph)
                    found.setdefault(
                        (canon.genus, canon.edges, canon.legs), graph)
    return [WeightedDualGraph(*key) for key in sorted(found)]


@pytest.mark.parametrize("g, n", [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2),
                                  (1, 3), (2, 0), (2, 1), (2, 2)])
def test_degeneration_matches_brute_force(g, n):
    assert enumerate_stable_graphs(g, n) == _brute_force_graphs(g, n)


@pytest.mark.parametrize("n, count", [(3, 1), (4, 4), (5, 26), (6, 236)])
def test_genus_zero_counts(n, count):
    # OEIS A000311: boundary strata of M_{0,n}-bar, the interior included
    graphs = enumerate_stable_graphs(0, n)
    assert len(graphs) == count
    assert all(g.betti == 0 and total_genus(g) == 0 for g in graphs)


def test_genus_one_four_legs_count():
    graphs = enumerate_stable_graphs(1, 4)
    assert len(graphs) == 163
    assert max(g.num_edges for g in graphs) == 4


def test_balanced_slopes_frozen():
    one = WeightedDualGraph((1,), (), (0, 0))
    empty = balanced_slopes(one, (1, -1), 5)
    assert [a.slopes for a in empty] == [()]

    loops = balanced_slopes(LOOP, (1, -1), 3)
    assert [a.slopes for a in loops] == [(m,) for m in range(-3, 4)]

    bananas = balanced_slopes(BANANA, (1, -1), 2)
    assert [a.slopes for a in bananas] == [(-2, 1), (-1, 0), (0, -1), (1, -2)]

    with pytest.raises(ValueError):
        balanced_slopes(LOOP, (1, 1), 2)


def test_balanced_slopes_build_checked_assignments_without_rechecking(
        monkeypatch):
    outflows = []
    native = SlopeAssignment.outflow

    def counted(assignment, v):
        outflows.append(v)
        return native(assignment, v)

    monkeypatch.setattr(SlopeAssignment, "outflow", counted)
    found = [a for graph in enumerate_stable_graphs(1, 2)
             for a in balanced_slopes(graph, (1, -1), 2)]
    assert found and outflows == []
    for a in found:
        assert a == SlopeAssignment(a.graph, list(a.contact), list(a.slopes))
        assert type(a.contact) is tuple and type(a.slopes) is tuple
    # the constructor still checks the balance at every vertex
    with pytest.raises(ValueError, match="do not balance at vertex 0"):
        SlopeAssignment(BANANA, (1, -1), (1, 1))
    with pytest.raises(ValueError, match="do not balance at vertex 0"):
        SlopeAssignment(LOOP, (1, 1), (0,))


def test_balanced_slopes_refuse_a_contact_vector_of_the_wrong_length():
    for graph in [BANANA] + enumerate_stable_graphs(1, 2):
        for contact in ((5, -5, 0), (0,), ()):
            for bound in range(3):
                with pytest.raises(ValueError, match="one contact slope"):
                    balanced_slopes(graph, contact, bound)


def test_dr_cone_frozen():
    flat = dr_cone(LOOP, SlopeAssignment(LOOP, (1, -1), (0,)))
    assert flat.rays == ((1,),)
    assert flat.full_support

    pinched = dr_cone(LOOP, SlopeAssignment(LOOP, (1, -1), (1,)))
    assert pinched.rays == ()
    assert pinched.dim == 0

    side = dr_cone(BANANA, SlopeAssignment(BANANA, (1, -1), (-1, 0)))
    assert side.rays == ((0, 1),)
    assert not side.full_support
    assert side.contains((0, 5)) and not side.contains((1, 1))


def test_dr_cone_scaling():
    a = dr_cone(BANANA, SlopeAssignment(BANANA, (1, -1), (-1, 0)))
    b = dr_cone(BANANA, SlopeAssignment(BANANA, (2, -2), (-2, 0)))
    assert a.rays == b.rays


def test_dr_subfan_frozen():
    fan = dr_subfan(1, 2, (1, -1), 2)
    piece = fan.piece_for(BANANA)
    assert {c.rays for c in piece.cones} == {((0, 1),), ((1, 0),)}
    assert all(not c.full_support for c in piece.cones)

    loop_piece = fan.piece_for(LOOP)
    assert [c.rays for c in loop_piece.cones] == [((1,),)]

    dims = sorted(max((c.dim for c in p.cones), default=-1)
                  for p in fan.pieces)
    assert dims == [0, 1, 1, 1, 2]
    assert verify_face_closure(fan) == []


def test_dr_subfan_zero_contact():
    fan = dr_subfan(1, 2, (0, 0), 1)
    for piece in fan.pieces:
        assert len(piece.cones) == 1
        cone = piece.cones[0]
        assert cone.full_support
        assert cone.dim == piece.graph.num_edges


def test_rubber_type_banana_ray():
    m = SlopeAssignment(BANANA, (1, -1), (-1, 0))
    rt = rubber_type(BANANA, m, (0, 1))
    assert rt.num_levels == 1
    assert rt.new_vertices == 0
    assert [p[3] for p in rt.pieces] == ["v", "v"]
    assert rt.contracted_free_edges == 1
    assert rt.expected_dimension == 1
    with pytest.raises(ValueError):
        rubber_type(BANANA, m, (1, 1))


def test_rubber_type_loop():
    m = SlopeAssignment(LOOP, (1, -1), (0,))
    rt = rubber_type(LOOP, m, (1,))
    assert rt.num_levels == 1
    assert rt.pieces == ((0, 0, 0, "v", 0),)
    assert rt.expected_dimension == 1


def test_rubber_subdivision_frozen():
    pieces = rubber_subdivision(1, 2, (1, -1), 2)
    assert len(pieces) == 6
    assert all(p.simplicial for p in pieces)
    assert all(p.smooth for p in pieces)
    assert all(p.dimension_ok for p in pieces)
    assert sorted(p.dim for p in pieces) == [0, 1, 1, 1, 1, 2]


def test_rubber_split_on_level_crossing():
    chain = WeightedDualGraph((1, 0, 1), ((0, 1), (1, 2)), (0, 1, 2))
    m = SlopeAssignment(chain, (-1, 2, -1), (1, -1))
    cone = dr_cone(chain, m)
    assert cone.rays == ((0, 1), (1, 0))
    pieces = rubber_pieces(cone)
    assert {p.rays for p in pieces} == {((0, 1), (1, 1)), ((1, 0), (1, 1))}
    for p in pieces:
        assert p.simplicial and p.smooth and p.dim == 2
        assert p.rubber.num_levels == 3
        assert p.rubber.expected_dimension == 2
        assert p.dimension_ok
    levels = {p.rubber.vertex_level for p in pieces}
    assert levels == {(0, 2, 1), (1, 2, 0)}
    kinds = {tuple(q[3] for q in p.rubber.pieces) for p in pieces}
    assert kinds == {("e", "e", "e")}
    assert all(p.rubber.new_vertices == 1 for p in pieces)


def test_fiber_product_idempotent():
    fan = dr_subfan(1, 2, (1, -1), 2)
    prod = tc_fiber_product(fan, fan)
    for piece, tc in zip(fan.pieces, prod.pieces):
        assert {c.rays for c in piece.cones} == {c.rays for c in tc.cones}


def test_fiber_product_zero_contact_is_neutral():
    fan = dr_subfan(1, 2, (1, -1), 2)
    free = dr_subfan(1, 2, (0, 0), 1)
    prod = tc_fiber_product(fan, free)
    for piece, tc in zip(fan.pieces, prod.pieces):
        assert {c.rays for c in piece.cones} == {c.rays for c in tc.cones}


def test_fiber_product_scaled_contact():
    fan = dr_subfan(1, 2, (1, -1), 2)
    doubled = dr_subfan(1, 2, (2, -2))
    banana = doubled.piece_for(BANANA)
    assert ((1, 1),) in {c.rays for c in banana.cones}
    prod = tc_fiber_product(fan, doubled)
    for piece, tc in zip(fan.pieces, prod.pieces):
        assert {c.rays for c in piece.cones} == {c.rays for c in tc.cones}
    with pytest.raises(ValueError):
        tc_fiber_product(fan, dr_subfan(1, 1, (0,), 1))


def test_relint_point():
    side = dr_cone(BANANA, SlopeAssignment(BANANA, (1, -1), (-1, 0)))
    assert side.relint_point() == (Fraction(0), Fraction(1))


def test_lengths_and_potentials_follow_the_number_rule():
    # int at integer points, a Fraction kept where a value is not integral
    side = dr_cone(BANANA, SlopeAssignment(BANANA, (1, -1), (-1, 0)))
    assert all(type(x) is int for x in side.relint_point())
    chain = WeightedDualGraph((1, 0, 1), ((0, 1), (1, 2)), (0, 1, 2))
    m = SlopeAssignment(chain, (-1, 2, -1), (1, -1))
    cone = dr_cone(chain, m)
    assert all(type(x) is int for x in cone.relint_point())
    for piece in rubber_pieces(cone):
        assert all(type(x) is int for x in piece.rubber.potentials)
    for lengths in ((1, 1), (Fraction(2), Fraction(4, 2))):
        assert all(type(x) is int
                   for x in rubber_type(chain, m, lengths).potentials)
    thirds = rubber_type(chain, m, (Fraction(1, 3), 1)).potentials
    assert_exact(thirds)
    assert thirds == (0, Fraction(1, 3), Fraction(-2, 3))
    halves = rubber_type(BANANA, side.assignment, (0, Fraction(1, 2)))
    assert all(type(x) is int for x in halves.potentials)


def _homogenised_rays(equations, walls, ne):
    """The former route to edge-length cone rays: each equation as two
    inequalities, plus a homogenising coordinate."""
    ineqs = [(tuple(int(i == j) for j in range(ne)), 0) for i in range(ne)]
    ineqs += [(tuple(w), 0) for w in walls]
    for row in equations:
        ineqs += [(tuple(row), 0), (tuple(-c for c in row), 0)]
    vertices, rays = polytope_vertices(ineqs, ne)
    assert vertices == [(0,) * ne]
    return tuple(sorted(rays))


THREE_LEG_CLASSES = ((1, -1, 0), (2, -2, 0), (1, 1, -2), (-1, -1, 2),
                     (0, 0, 0))


@pytest.mark.parametrize("contact", THREE_LEG_CLASSES)
def test_dr_cone_rays_match_homogenised_route(contact):
    fan = dr_subfan(1, 3, contact)
    for piece in fan.pieces:
        ne = piece.graph.num_edges
        # every cone of the piece's bound, not only the maximal ones kept
        for a in balanced_slopes(piece.graph, contact, piece.bound):
            cone = dr_cone(piece.graph, a)
            assert cone.rays == (
                _homogenised_rays(cone.equations, (), ne) if ne else ())
    assert verify_face_closure(fan) == []


def _homogenised_regions(cone):
    """The rays of the regions a cone is cut into along its level walls,
    each region solved from its full constraint set (the cone's
    equations, the orthant and one side of every wall so far) by the
    homogenised route. A wall leaving a region whole on one side does not
    cut it."""
    ne = cone.graph.num_edges
    potential = tropical._potential_rows(cone.graph, cone.assignment.slopes)
    walls = {tropical._wall_key(tuple(a - b for a, b in zip(pu, pv)))
             for pu, pv in itertools.combinations(potential, 2) if pu != pv}

    def rays(sides):
        return _homogenised_rays(cone.equations, sides, ne)
    regions = [()]
    for wall in sorted(walls):
        anti = tuple(-c for c in wall)
        cut = []
        for sides in regions:
            whole = rays(sides)
            if rays(sides + (wall,)) == whole:
                cut.append(sides + (wall,))
            elif rays(sides + (anti,)) == whole:
                cut.append(sides + (anti,))
            else:
                cut += [sides + (wall,), sides + (anti,)]
        regions = cut
    return tuple(dict.fromkeys(rays(sides) for sides in regions))


# a genus-2 chain of three rational vertices with a loop at each end:
# every cone of its slopes below 3 for contact (-1, 2, -1) is cut
LOOPED_CHAIN = WeightedDualGraph(
    (0, 0, 0), ((0, 0), (0, 1), (1, 2), (2, 2)), (0, 1, 2))


def _level_crossing_cones():
    return [dr_cone(LOOPED_CHAIN, a)
            for a in balanced_slopes(LOOPED_CHAIN, (-1, 2, -1), 2)]


def test_rubber_rays_match_homogenised_route():
    cones = [cone for piece in dr_subfan(1, 3, (1, 1, -2)).pieces
             for cone in piece.cones]
    cut = 0
    for cone in cones + _level_crossing_cones():
        expected = _homogenised_regions(cone)
        assert tuple(p.rays for p in rubber_pieces(cone)) == expected
        cut += len(expected) > 1
    assert cut == 25


# genus-2 cones for contact (-1, 2, -1) and slopes of size at most 1, each
# with a region that a wall leaves whole on its lower side
_BELOW_A_WALL = [
    (((0, 0, 1), ((0, 1), (0, 1), (0, 2)), (1, 0, 2)), (-1, 0, -1)),
    (((0, 0, 0), ((0, 1), (0, 1), (0, 2), (1, 2)), (0, 2, 0)),
     (1, 0, 1, 1)),
    (((0, 0, 0, 0, 0), ((0, 1), (0, 1), (0, 2), (2, 3), (3, 4), (3, 4)),
      (1, 2, 4)), (-1, 0, 1, -1, -1, 0)),
]


def test_rubber_regions_below_a_wall_match_homogenised_route(monkeypatch):
    below = 0
    compute = polyhedra.split

    def counted(rays, rows, wall):
        nonlocal below
        upper, lower = compute(rays, rows, wall)
        below += upper != rays and lower == rays
        return upper, lower
    for parts, slopes in _BELOW_A_WALL:
        graph = WeightedDualGraph(*parts)
        (a,) = [a for a in balanced_slopes(graph, (-1, 2, -1), 1)
                if a.slopes == slopes]
        cone = dr_cone(graph, a)
        with monkeypatch.context() as patch:
            patch.setattr(polyhedra, "split", counted)
            got = tuple(p.rays for p in rubber_pieces(cone))
        assert got == _homogenised_regions(cone)
    assert below == 5


def test_rubber_pieces_split_the_rays_they_hold(monkeypatch):
    cones = _level_crossing_cones()
    calls = {"rays_from_constraints": 0, "split": 0}

    def count(name):
        compute = getattr(polyhedra, name)

        def counted(*args):
            calls[name] += 1
            return compute(*args)
        monkeypatch.setattr(polyhedra, name, counted)

    count("rays_from_constraints")
    count("split")
    for cone in cones:
        rubber_pieces(cone)
    assert calls["split"] > 0
    assert calls["rays_from_constraints"] == 0


def test_face_closure_and_piece_lookup_on_four_legs():
    fan = dr_subfan(1, 4, (1, 1, -1, -1), 2)
    assert verify_face_closure(fan) == []
    for piece in fan.pieces:
        assert fan.piece_for(piece.graph) is piece
    with pytest.raises(KeyError):
        fan.piece_for(LOOP)          # a graph of genus 1 with 2 legs


# ---------------------------------------------------------------------------
# the enumeration, canonical form, slopes and cone rays against the former
# algorithms, kept here as test-only references

SMALL_MODULI = [(g, n) for g in range(3) for n in range(4)
                if 2 * g - 2 + n > 0] + [(3, 0)]


def _shuffled(graph, rng):
    """The graph under a random vertex relabelling, with its edges in a
    random order and each written either way round."""
    perm = list(range(graph.num_vertices))
    rng.shuffle(perm)
    genus = [0] * graph.num_vertices
    for v, h in enumerate(graph.genus):
        genus[perm[v]] = h
    edges = [(perm[a], perm[b])[::rng.choice((1, -1))]
             for a, b in graph.edges]
    rng.shuffle(edges)
    return WeightedDualGraph(tuple(genus), tuple(edges),
                             tuple(perm[v] for v in graph.legs))


@pytest.mark.parametrize("g, n", SMALL_MODULI)
def test_canonical_matches_full_permutation_scan(g, n):
    rng = random.Random(f"{g},{n}")
    for graph in enumerate_stable_graphs(g, n):
        assert graph.canonical() == _full_scan_canonical(graph)
        for _ in range(2):
            moved = _shuffled(graph, rng)
            canon, perm = moved.canonical()
            assert (canon, perm) == _full_scan_canonical(moved)
            assert canon == graph
            assert moved.canonical_key() == (
                graph.genus, graph.edges, graph.legs)


def test_canonical_matches_full_scan_where_the_search_cuts():
    """Graphs whose genus-0 blocks hold four or five vertices, where the
    bound cuts branches and ties between them are common: every graph of
    g=0 n=6 and g=1 n=4, and a seeded sample of the five-vertex graphs
    of g=0 n=7, each under a random relabelling."""
    rng = random.Random("cut search")
    five = [graph for graph in enumerate_stable_graphs(0, 7)
            if graph.num_vertices == 5]
    graphs = (enumerate_stable_graphs(0, 6) + enumerate_stable_graphs(1, 4)
              + rng.sample(five, 150))
    for graph in graphs:
        moved = _shuffled(graph, rng)
        canon, perm = moved.canonical()
        assert (canon, perm) == _full_scan_canonical(moved)
        assert canon == graph


def _automorphism_count(graph):
    own = _relabelled_key(graph, range(graph.num_vertices))
    return sum(_relabelled_key(graph, perm) == own for perm in
               itertools.permutations(range(graph.num_vertices)))


# cubic genus-4 graphs with 12 and 72 automorphisms
PRISM = WeightedDualGraph((0,) * 6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                     (3, 5), (0, 3), (1, 4), (2, 5)), ())
K33 = WeightedDualGraph((0,) * 6, tuple((a, b) for a in range(3)
                                        for b in range(3, 6)), ())


def test_canonical_breaks_ties_by_the_first_permutation():
    """On graphs with automorphisms (parallel edges, the g=3 n=0
    bananas, two symmetric cubic graphs) several relabellings reach the
    smallest key, and the lexicographically first one is returned."""
    rng = random.Random("automorphisms")
    graphs = [graph for graph in enumerate_stable_graphs(3, 0)
              if _automorphism_count(graph) > 1]
    assert len(graphs) == 20
    assert [_automorphism_count(g) for g in (PRISM, K33)] == [12, 72]
    for graph in graphs + [PRISM, K33]:
        for _ in range(3):
            moved = _shuffled(graph, rng)
            assert moved.canonical() == _full_scan_canonical(moved)


@pytest.mark.parametrize("g, n", [(g, n) for g, n in SMALL_MODULI if g <= 2])
def test_degenerations_match_the_mask_loop(g, n):
    """The combinations of moved ends give the same candidates, counted
    with multiplicity, as the loop over every mask of ends."""
    for graph in enumerate_stable_graphs(g, n):
        built = Counter((cand.genus, cand.edges, cand.legs)
                        for cand in tropical._degenerations(graph))
        assert built == Counter(degenerations_by_masks(graph))


def _fraction_box_slopes(graph, contact, bound):
    """Balancing solved once over the rationals, a particular solution
    plus the free coordinates of a nullspace basis run over the box, and
    the integral points within the bound kept."""
    rows = [[(a == v) - (b == v) for a, b in graph.edges]
            for v in range(graph.num_vertices)]
    rhs = [-sum(s for x, s in zip(graph.legs, contact) if x == v)
           for v in range(graph.num_vertices)]
    if not graph.edges:
        return [] if any(rhs) else [()]
    part = linalg.solve(rows, rhs)
    if part is None:
        return []
    kernel = linalg.nullspace(rows)
    out = []
    for coeffs in itertools.product(range(-bound, bound + 1),
                                    repeat=len(kernel)):
        m = list(part)
        for t, vec in zip(coeffs, kernel):
            m = [x + t * y for x, y in zip(m, vec)]
        if all(abs(x) <= bound and x.denominator == 1 for x in m):
            out.append(tuple(int(x) for x in m))
    return sorted(out)


@pytest.mark.parametrize("g, n", SMALL_MODULI)
def test_balanced_slopes_match_fraction_box(g, n):
    contacts = [c for c in itertools.product(range(-2, 3), repeat=n)
                if sum(c) == 0]
    for k, graph in enumerate(enumerate_stable_graphs(g, n)):
        # at g=2 n=3 (555 graphs) each graph takes one contact vector in
        # turn; the box reference would take about 40 s on all of them
        for contact in (contacts if (g, n) != (2, 3)
                        else [contacts[k % len(contacts)]]):
            for bound in range(4):
                slopes = [a.slopes
                          for a in balanced_slopes(graph, contact, bound)]
                assert slopes == _fraction_box_slopes(graph, contact, bound)


def test_tree_rows_match_the_incidence_kernel():
    """The cycle rows span what the rational kernel of the vertex-edge
    incidence matrix gives, z * slopes per basis vector z. The potentials
    vanish at vertex 0; the edges (a, b) with pot[b] - pot[a] exactly
    slope * length join every vertex, and on any edge the two differ by
    a combination of the cycle rows. Under 2 s: one contact vector per
    graph in turn, bound 2."""
    for g, n in SMALL_MODULI:
        contacts = [c for c in itertools.product(range(-1, 2), repeat=n)
                    if sum(c) == 0]
        for k, graph in enumerate(enumerate_stable_graphs(g, n)):
            ne, nv = graph.num_edges, graph.num_vertices
            incidence = [[(a == v) - (b == v) for a, b in graph.edges]
                         for v in range(nv)]
            kernel = linalg.primitive_kernel(incidence)
            for a in balanced_slopes(graph, contacts[k % len(contacts)], 2):
                rows = tropical._cycle_rows(graph, a.slopes)
                oracle = [[z * m for z, m in zip(vec, a.slopes)]
                          for vec in kernel]
                pot = tropical._potential_rows(graph, a.slopes)
                assert pot[0] == (0,) * ne
                steps, exact = [], []
                for i, ((u, v), m) in enumerate(zip(graph.edges, a.slopes)):
                    step = [y - x for x, y in zip(pot[u], pot[v])]
                    step[i] -= m
                    steps.append(step)
                    if not any(step):
                        exact.append(i)
                rank = linalg.rank(oracle)
                assert linalg.rank(rows) == rank
                assert linalg.rank(list(rows) + oracle + steps) == rank
                assert linalg.rank([[row[i] for i in exact]
                                    for row in incidence]) == nv - 1


def test_balanced_slopes_build_no_fraction(monkeypatch):
    graphs = enumerate_stable_graphs(2, 2)
    expected = [[a.slopes for a in balanced_slopes(graph, (1, -1), 2)]
                for graph in graphs]

    def refuse(*args, **kwargs):
        raise AssertionError("balanced_slopes called into linalg")
    for name in ("solve", "nullspace", "rref"):
        monkeypatch.setattr(linalg, name, refuse)
    assert [[a.slopes for a in balanced_slopes(graph, (1, -1), 2)]
            for graph in graphs] == expected


SUBFAN_CASES = ([(1, 3, c, None) for c in THREE_LEG_CLASSES]
                + [(0, 4, (2, 1, -1, -2), None), (2, 2, (1, -1), 2),
                   (1, 4, (1, 1, -1, -1), 2)])


@pytest.mark.parametrize("g, n, contact, bound", SUBFAN_CASES)
def test_dr_subfan_cones_match_fresh_solves(g, n, contact, bound):
    for piece in dr_subfan(g, n, contact, bound).pieces:
        ne = piece.graph.num_edges
        for cone in piece.cones:
            assert cone.rays == tropical._edge_cone_rays(cone.equations, ne)
            assert cone == dr_cone(piece.graph, cone.assignment)


def _equation_set(ne, rows):
    """The rows made primitive with their first nonzero entry positive."""
    out = set()
    for row in rows:
        row = linalg.primitive_vector(row)
        lead = next(x for x in row if x)
        out.add(row if lead > 0 else tuple(-x for x in row))
    return ne, frozenset(out)


def test_dr_subfan_solves_each_distinct_cone_once(monkeypatch):
    g, n, contact, bound = 2, 2, (1, -1), 2
    distinct = set()
    total = 0
    for graph in enumerate_stable_graphs(g, n):
        for a in balanced_slopes(graph, contact, bound):
            total += 1
            distinct.add(_equation_set(
                graph.num_edges, dr_cone(graph, a).equations))
    solves = []
    original = polyhedra.rays_from_constraints

    def counted(*args):
        solves.append(args)
        return original(*args)
    monkeypatch.setattr(polyhedra, "rays_from_constraints", counted)
    dr_subfan(g, n, contact, bound)
    assert len(solves) == len(distinct) < total
    # a second call shares nothing with the first
    dr_subfan(g, n, contact, bound)
    assert len(solves) == 2 * len(distinct)


def test_enumeration_builds_only_stable_graphs(monkeypatch):
    checks = {"run": 0, "refused": 0}
    original = WeightedDualGraph.__post_init__

    def counted(self):
        checks["run"] += 1
        try:
            original(self)
        except ValueError:
            checks["refused"] += 1
            raise
    monkeypatch.setattr(WeightedDualGraph, "__post_init__", counted)
    graphs = enumerate_stable_graphs(2, 2)
    assert len(graphs) == 75
    # only the one-vertex graph the degenerations start from is checked
    assert checks == {"run": 1, "refused": 0}
    for graph in graphs:
        assert WeightedDualGraph(graph.genus, graph.edges, graph.legs) == graph
    assert checks == {"run": 1 + 75, "refused": 0}


def test_enumeration_refuses_negative_input():
    with pytest.raises(ValueError, match="genus and leg count"):
        enumerate_stable_graphs(-1, 5)
    with pytest.raises(ValueError, match="genus and leg count"):
        enumerate_stable_graphs(3, -1)
    with pytest.raises(ValueError, match="genus and leg count"):
        dr_subfan(-1, 5, (0,) * 5)

import itertools
from fractions import Fraction

import pytest

from tropchow import tropical
from tropchow.polyhedra import polytope_vertices
from tropchow.tropical import (DRCone, SlopeAssignment, WeightedDualGraph,
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
    assert LOOP.total_genus == 1
    assert BANANA.total_genus == 1


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
    assert enumerate_stable_graphs(1, 2, max_edges=-1) == []
    capped = enumerate_stable_graphs(1, 2, max_edges=1)
    assert capped == [g for g in enumerate_stable_graphs(1, 2)
                      if g.num_edges <= 1]
    assert sorted((g.num_vertices, g.num_edges) for g in capped) == [
        (1, 0), (1, 1), (2, 1)]


def _brute_force_graphs(g, n):
    """Second algorithm: every genus vector x edge multiset x leg
    placement with the right Betti number, kept up to isomorphism."""
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
                    found.setdefault(graph.canonical_key(), graph)
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
    assert all(g.betti == 0 and g.total_genus == 0 for g in graphs)


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


def test_rubber_rays_match_homogenised_route(monkeypatch):
    native = rubber_subdivision(1, 3, (1, 1, -2))
    monkeypatch.setattr(tropical, "_edge_cone_rays", _homogenised_rays)
    assert rubber_subdivision(1, 3, (1, 1, -2)) == native


def test_face_closure_and_piece_lookup_on_four_legs():
    fan = dr_subfan(1, 4, (1, 1, -1, -1), 2)
    assert verify_face_closure(fan) == []
    for piece in fan.pieces:
        assert fan.piece_for(piece.graph) is piece
    with pytest.raises(KeyError):
        fan.piece_for(LOOP)          # a graph of genus 1 with 2 legs

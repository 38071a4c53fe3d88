"""Graph core: construction checks, genus, loop decomposition, chains."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from tropctl.errors import ValidationError
from tropctl.graphs import AbstractGraph, Edge, fundamental_cycle, spanning_forest
from tropctl.randgen import random_trivalent_graph

import fixtures
import oracles


def theta_graph():
    return AbstractGraph(
        ["x", "y"],
        [
            ("a", ("x", "y"), 1),
            ("b", ("x", "y"), 1),
            ("c", ("x", "y"), 2),
            ("ux", ("x", None), 1),
            ("uy", ("y", None), 1),
        ],
    )


def endpoints_connected_without(g, eid):
    """Search from one end of eid, never crossing eid, for the other end."""
    a, b = g.edges[eid].ends
    seen, todo = {a}, [a]
    while todo:
        v = todo.pop()
        for fid, slot in g.incident(v):
            o = g.edges[fid].ends[1 - slot]
            if fid != eid and o is not None and o not in seen:
                seen.add(o)
                todo.append(o)
    return b in seen


def test_construction_rejects_bad_input():
    with pytest.raises(ValidationError):
        AbstractGraph([], [])
    with pytest.raises(ValidationError):
        AbstractGraph(["v", "v"], [("e", ("v", None), 1)])
    with pytest.raises(ValidationError):
        AbstractGraph(["v"], [("e", ("v", "w"), 1)])
    with pytest.raises(ValidationError):
        AbstractGraph(["v"], [("e", ("v", None), 0)])
    with pytest.raises(ValidationError):
        AbstractGraph(["v", "w"], [("e", ("v", None), 1), ("f", ("w", None), 1)])
    with pytest.raises(ValidationError):
        AbstractGraph(["v", "w"], [("e", ("v", "w"), 1), ("e", ("v", "w"), 1)])


def test_construction_takes_vertices_from_a_generator():
    g = AbstractGraph((v for v in ["y", "x"]), [("e", ("x", "y"), 1), ("ux", ("x", None), 1), ("uy", ("y", None), 1)])
    assert g.vertex_ids == ("x", "y")


def test_counts_and_valence():
    g = theta_graph()
    assert g.genus() == 2
    assert g.valence("x") == 4
    assert not g.is_trivalent()
    v, e_inn, e = len(g.vertex_ids), len(g.bounded_edge_ids()), len(g.unbounded_edge_ids())
    assert (v, e_inn, e, len(g.edge_ids)) == (2, 3, 2, 5)
    assert 1 - g.genus() == v - e_inn


def test_selfloop_counts_twice():
    g = AbstractGraph(
        ["v"],
        [("loop", ("v", "v"), 1), ("u", ("v", None), 1)],
    )
    assert g.valence("v") == 3
    assert g.genus() == 1
    assert g.loop_part == frozenset({"loop"})


def test_loop_part_of_square():
    g = fixtures.curve(fixtures.square_loop_doc()).graph
    assert g.loop_part == frozenset({"s01", "s12", "s23", "s30"})
    chains = g.loop_decomposition
    assert len(chains) == 1
    assert chains[0].closed
    assert set(chains[0].edges) == {"s01", "s12", "s23", "s30"}


def test_loop_part_excludes_bridges_and_trees():
    # two triangles joined by a bridge; a tree twig hangs off one corner
    edges = [
        ("a1", ("p", "q"), 1),
        ("a2", ("q", "r"), 1),
        ("a3", ("r", "p"), 1),
        ("b1", ("s", "t"), 1),
        ("b2", ("t", "w"), 1),
        ("b3", ("w", "s"), 1),
        ("bridge", ("p", "s"), 1),
        ("twig", ("q", "z"), 1),
        ("uz", ("z", None), 1),
        ("ur", ("r", None), 1),
        ("ut", ("t", None), 1),
        ("uw", ("w", None), 1),
    ]
    g = AbstractGraph(["p", "q", "r", "s", "t", "w", "z"], edges)
    assert g.genus() == 2
    assert g.loop_part == {"a1", "a2", "a3", "b1", "b2", "b3"}


def test_theta_chains_run_junction_to_junction():
    g = theta_graph()
    chains = g.loop_decomposition
    assert g.loop_part == {"a", "b", "c"}
    assert len(chains) == 3
    for ch in chains:
        assert not ch.closed
        assert len(ch.edges) == 1
        assert set(ch.vertices) == {"x", "y"}


def test_random_trivalent_graphs_have_requested_genus():
    rng = random.Random(20260816)
    for _ in range(40):
        genus = rng.randint(0, 5)
        g = random_trivalent_graph(rng, genus)
        assert g.genus() == genus
        assert all(g.valence(v) == 3 for v in g.vertex_ids)
        # exactly the bounded edges whose removal keeps their endpoints connected
        assert g.loop_part == {
            eid for eid in g.bounded_edge_ids() if endpoints_connected_without(g, eid)
        }


def reaches_every_vertex(vertices, edges):
    seen, todo = {vertices[0]}, [vertices[0]]
    while todo:
        v = todo.pop()
        for _eid, (a, b), _weight in edges:
            for x, y in ((a, b), (b, a)):
                if x == v and y is not None and y not in seen:
                    seen.add(y)
                    todo.append(y)
    return len(seen) == len(vertices)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.booleans())
def test_random_multigraphs_loop_part_and_connectivity(seed, connected):
    vertices, edges = fixtures.random_multigraph(random.Random(seed), connected)
    if not reaches_every_vertex(vertices, edges):
        with pytest.raises(ValidationError) as err:
            AbstractGraph(vertices, edges)
        assert err.value.kind == "disconnected"
        return
    g = AbstractGraph(vertices, edges)
    assert g.loop_part == {
        eid for eid in g.bounded_edge_ids() if endpoints_connected_without(g, eid)
    }
    assert g.genus() == len(g.bounded_edge_ids()) - len(g.vertex_ids) + 1
    assert all(list(g.incident(v)) == sorted(g.incident(v)) for v in g.vertex_ids)
    # the chains partition the loop part, in the order of their smallest edge
    chains = g.loop_decomposition
    assert sorted(e for ch in chains for e in ch.edges) == sorted(g.loop_part)
    assert [min(ch.edges) for ch in chains] == sorted(min(ch.edges) for ch in chains)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.booleans())
def test_fundamental_cycles_match_the_root_path_reference(seed, connected):
    vertices, edges = fixtures.random_multigraph(random.Random(seed), connected)
    # the fields that spanning_forest reads, also of a disconnected graph
    g = SimpleNamespace(
        vertex_ids=tuple(sorted(vertices)),
        edges={eid: Edge(eid, pair, weight) for eid, pair, weight in edges},
    )
    bounded = sorted(eid for eid, (_a, b), _w in edges if b is not None)
    # the orders of the abundancy map and of the reduced abundancy map
    for order in (bounded, bounded[::-1]):
        forest = spanning_forest(g, order)
        rest, root, cycles = oracles.root_path_cycles(g, order)
        assert (forest.rest, forest.root) == (rest, root)
        for eid in forest.rest:
            cycle = fundamental_cycle(g, forest, eid)
            assert cycle == cycles[eid]
            boundary = {}
            for e, sign in cycle.items():
                a, b = g.edges[e].ends
                boundary[b] = boundary.get(b, 0) + sign
                boundary[a] = boundary.get(a, 0) - sign
            assert set(boundary.values()) <= {0}


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_the_stored_edge_split_is_the_unbounded_filter(seed):
    vertices, edges = fixtures.random_multigraph(random.Random(seed))
    g = AbstractGraph(vertices, edges)
    assert g.bounded_edge_ids() == tuple(sorted(eid for eid, e in g.edges.items() if not e.is_unbounded))
    assert g.unbounded_edge_ids() == tuple(sorted(eid for eid, e in g.edges.items() if e.is_unbounded))
    # each call hands out the one stored tuple, which no caller can change
    assert g.bounded_edge_ids() is g.bounded_edge_ids() and type(g.bounded_edge_ids()) is tuple
    assert g.unbounded_edge_ids() is g.unbounded_edge_ids() and type(g.unbounded_edge_ids()) is tuple

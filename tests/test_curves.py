"""Curve model: parsing, balancing, image contraction, star replacement."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropctl.curves import (
    CombinatorialType,
    MAX_EDGES,
    MAX_VERTICES,
    TropicalCurve,
    balancing_residuals,
    contract_image,
    degree,
    expected_dim,
    is_immersive,
    parse_curve,
    replace_star,
    serialize_curve,
)
from tropctl.errors import PreconditionError, ValidationError
from tropctl.graphs import AbstractGraph, Flag
from tropctl.inputs import MAX_DIM
from tropctl.randgen import random_genus1_curve, random_immersive_curve, random_loopchain_curve

import fixtures


def test_parse_square_loop():
    c = fixtures.curve(fixtures.square_loop_doc())
    assert c.n == 3
    assert c.graph.genus() == 1
    assert is_immersive(c)
    assert all(not any(r) for _v, r in balancing_residuals(c))
    # directions of bounded edges are inferred from positions
    assert c.directions["s01"] == (1, 0, 0)
    assert c.directions["s12"] == (0, 1, 0)
    assert c.edge_length("s01") == 1


def test_parse_rejects_direction_mismatch():
    doc = fixtures.square_loop_doc()
    doc["edges"][0]["direction"] = [0, 1, 0]  # s01 really points along x
    with pytest.raises(ValidationError) as err:
        parse_curve(doc)
    assert err.value.kind == "direction-mismatch"


def test_parse_rejects_unbalanced():
    doc = fixtures.square_loop_doc()
    doc["edges"][-1]["direction"] = [-1, 1, 1]
    with pytest.raises(ValidationError) as err:
        parse_curve(doc)
    assert err.value.kind == "unbalanced"


def test_curve_rejects_non_integral_leg_directions():
    # balanced, and gcd(-1/2, 3/2) truncated to integers is 1, but a
    # direction with a non-integral entry is not primitive
    g = AbstractGraph(
        ["v", "w"],
        [("b", ("v", "w"), 1), ("l1", ("v", None), 1), ("l2", ("v", None), 1), ("l3", ("w", None), 1), ("l4", ("w", None), 1)],
    )
    half = Fraction(1, 2)
    directions = {"l1": (-half, 3 * half), "l2": (-half, -3 * half), "l3": (1, 1), "l4": (0, -1)}
    with pytest.raises(ValidationError) as err:
        TropicalCurve(g, 2, {"v": (0, 0), "w": (1, 0)}, directions)
    assert err.value.kind == "non-primitive"
    assert err.value.context["edge"] == "l1"
    # the same curve with integral Fractions is accepted
    directions["l1"], directions["l2"] = (Fraction(-1), Fraction(1)), (Fraction(0), Fraction(-1))
    directions["l3"] = (Fraction(1), Fraction(1))
    c = TropicalCurve(g, 2, {"v": (0, 0), "w": (1, 0)}, directions)
    assert all(x.denominator == 1 for u, _count in degree(c) for x in u)


def test_parse_rejects_missing_leg_direction():
    doc = fixtures.square_loop_doc()
    del doc["edges"][-1]["direction"]
    with pytest.raises(ValidationError) as err:
        parse_curve(doc)
    assert err.value.kind == "missing-direction"


def test_parse_rejects_dimension_cap():
    doc = fixtures.square_loop_doc()
    doc["ambient_dim"] = MAX_DIM + 1
    with pytest.raises(ValidationError) as err:
        parse_curve(doc)
    assert err.value.kind == "dimension-cap"


@pytest.mark.parametrize("key", ["vertices", "edges"])
def test_parse_bounds_curve_size(key):
    bound = {"vertices": MAX_VERTICES, "edges": MAX_EDGES}[key]
    extra = {
        "vertices": lambda i: {"id": f"x{i}", "position": ["0", "0", "0"]},
        "edges": lambda i: {"id": f"x{i}", "ends": ["a", None], "direction": [1, 0, 0]},
    }[key]
    doc = fixtures.square_loop_doc()
    doc[key] += [extra(i) for i in range(bound - len(doc[key]))]
    # at the bound the padding fails later checks; one more fails the size check first
    with pytest.raises(ValidationError) as err:
        parse_curve(doc)
    assert err.value.kind != "limit"
    doc[key].append(extra(bound))
    with pytest.raises(ValidationError) as err:
        parse_curve(doc)
    assert err.value.kind == "limit"


def test_parse_accepts_a_curve_at_the_edge_bound():
    c = random_loopchain_curve(random.Random(5), 2, (MAX_EDGES - 1) // 5)
    assert len(c.graph.edge_ids) == MAX_EDGES
    assert parse_curve(serialize_curve(c)).graph.edge_ids == c.graph.edge_ids


@pytest.mark.parametrize(
    "edit, kind",
    [
        (lambda d: d.update(ambient_dim=True), "schema"),
        (lambda d: d["edges"][0].update(weight=True), "bad-weight"),
        (lambda d: d["edges"][0].update(direction=[True]), "schema"),
    ],
    ids=["ambient_dim", "weight", "direction"],
)
def test_parse_rejects_bool_integers(edit, kind):
    # a line through the origin in Q^1, valid until the edit
    doc = {
        "ambient_dim": 1,
        "vertices": [{"id": "a", "position": ["0"]}],
        "edges": [
            {"id": "l", "ends": ["a", None], "direction": [-1]},
            {"id": "r", "ends": ["a", None], "direction": [1]},
        ],
    }
    parse_curve(doc)
    edit(doc)
    with pytest.raises(ValidationError) as err:
        parse_curve(doc)
    assert err.value.kind == kind


def _edge(doc, eid):
    return next(item for item in doc["edges"] if item["id"] == eid)


def _two_faults(*edits):
    """The square loop with each edit applied in turn."""
    doc = fixtures.square_loop_doc()
    for edit in edits:
        edit(doc)
    return doc


@pytest.mark.parametrize(
    "doc, kind, message, context",
    [
        (
            _two_faults(lambda d: _edge(d, "s01").update(weight=0), lambda d: _edge(d, "u3").update(ends="d")),
            "bad-weight", "edge s01 weight must be a positive integer", {"edge": "s01"},
        ),
        (
            # the unknown endpoint comes first in the file, but the graph is
            # checked only after every edge is read
            _two_faults(
                lambda d: d["vertices"][1].update(position=["0", "0", "0"]),
                lambda d: d["edges"].insert(0, {"id": "x", "ends": ["zz", None], "direction": [1, 0, 0]}),
            ),
            "missing-direction", "contracted edge s01 needs a direction entry (zero vector for none)", {"edge": "s01"},
        ),
        (
            _two_faults(
                lambda d: _edge(d, "s01").update(direction=[0, 1, 0]),
                lambda d: _edge(d, "u3").update(direction=[-1, 1, 1]),
            ),
            "direction-mismatch", "edge s01 direction does not match endpoint positions", {"edge": "s01"},
        ),
        (
            _two_faults(lambda d: _edge(d, "s12").update(weight="2"), lambda d: d["edges"][3].update(id="s01")),
            "bad-weight", "edge s12 weight must be a positive integer", {"edge": "s12"},
        ),
        (
            _two_faults(lambda d: d["edges"][3].update(id="s01"), lambda d: _edge(d, "u3").update(weight=-1)),
            "bad-weight", "edge u3 weight must be a positive integer", {"edge": "u3"},
        ),
        (
            # validation runs in sorted id order, not in file order
            _two_faults(
                lambda d: _edge(d, "u0").update(direction=[-2, -2, 0]),
                lambda d: _edge(d, "s12").update(direction=[1, 0, 0]),
                lambda d: d["edges"].reverse(),
            ),
            "direction-mismatch", "edge s12 direction does not match endpoint positions", {"edge": "s12"},
        ),
    ],
    ids=[
        "weight-then-schema",
        "contracted-then-unknown-endpoint",
        "mismatch-then-unbalanced",
        "weight-then-duplicate",
        "duplicate-then-weight",
        "sorted-not-file-order",
    ],
)
def test_parse_reports_the_first_fault_of_two(doc, kind, message, context):
    with pytest.raises(ValidationError) as err:
        parse_curve(doc)
    assert (err.value.kind, err.value.message, err.value.context) == (kind, message, context)


def test_serialize_round_trip():
    for doc in (
        fixtures.square_loop_doc(),
        fixtures.gamma1_doc(),
        fixtures.gamma2_doc(),
        fixtures.ex534_doc(),
        fixtures.ex536_doc(),
    ):
        c = parse_curve(doc)
        again = parse_curve(serialize_curve(c))
        assert again == c


def test_random_curves_round_trip_and_balance():
    rng = random.Random(7)
    for _ in range(25):
        c = random_immersive_curve(rng, rng.choice([2, 3, 4]))
        assert all(not any(r) for _v, r in balancing_residuals(c))
        assert is_immersive(c)
        assert parse_curve(serialize_curve(c)) == c


def test_degree_and_expected_dim():
    c = fixtures.curve(fixtures.square_loop_doc())
    deg = dict(degree(c))
    assert deg == {(-1, -1, 0): 1, (1, -1, 0): 1, (1, 1, 0): 1, (-1, 1, 0): 1}
    assert expected_dim(c) == 4  # e + (n-3)(1-g) = 4 + 0


def test_contracted_edge_with_virtual_direction_balances():
    # a 3-valent vertex pair joined by a contracted edge whose virtual
    # direction enters the balancing sum
    doc = {
        "ambient_dim": 2,
        "vertices": [
            {"id": "a", "position": ["0", "0"]},
            {"id": "b", "position": ["0", "0"]},
        ],
        "edges": [
            {"id": "m", "ends": ["a", "b"], "weight": 2, "direction": [1, 0]},
            {"id": "p", "ends": ["a", None], "weight": 1, "direction": [-1, 1]},
            {"id": "q", "ends": ["a", None], "weight": 1, "direction": [-1, -1]},
            {"id": "r", "ends": ["b", None], "weight": 1, "direction": [1, 1]},
            {"id": "s", "ends": ["b", None], "weight": 1, "direction": [1, -1]},
        ],
    }
    c = parse_curve(doc)
    assert not is_immersive(c)
    assert c.is_contracted("m")
    assert all(not any(r) for _v, r in balancing_residuals(c))
    image = contract_image(c)
    assert image.graph.vertex_ids == ("a",)
    assert set(image.graph.edge_ids) == {"p", "q", "r", "s"}


def test_contract_image_is_identity_on_immersive():
    c = fixtures.curve(fixtures.square_loop_doc())
    assert contract_image(c) is c


def test_contracted_loop_is_rejected():
    # both endpoints collide and the contracted edges close a cycle
    doc = {
        "ambient_dim": 2,
        "vertices": [
            {"id": "a", "position": ["0", "0"]},
            {"id": "b", "position": ["0", "0"]},
        ],
        "edges": [
            {"id": "m1", "ends": ["a", "b"], "weight": 1, "direction": [0, 0]},
            {"id": "m2", "ends": ["a", "b"], "weight": 1, "direction": [0, 0]},
            {"id": "p", "ends": ["a", None], "weight": 1, "direction": [-1, 1]},
            {"id": "q", "ends": ["a", None], "weight": 1, "direction": [1, -1]},
            {"id": "r", "ends": ["b", None], "weight": 1, "direction": [1, 1]},
            {"id": "s", "ends": ["b", None], "weight": 1, "direction": [-1, -1]},
        ],
    }
    c = parse_curve(doc)
    with pytest.raises(PreconditionError) as err:
        contract_image(c)
    assert err.value.kind == "contracted-loop"


def test_replace_star_on_ex536():
    ct = fixtures.curve(fixtures.ex536_doc())
    out = replace_star(ct, "V", fixtures.EX536_SPLIT, new_prefix="nv_")
    assert out.graph.is_trivalent()
    assert out.graph.genus() == 2
    # one new vertex carrying the P-side pair, one new bridge edge
    new_vertices = set(out.graph.vertex_ids) - set(ct.graph.vertex_ids)
    assert len(new_vertices) == 1
    (nv,) = new_vertices
    new_edges = set(out.graph.edge_ids) - set(ct.graph.edge_ids)
    assert len(new_edges) == 1
    (ne,) = new_edges
    # bridge direction: weighted sum of the flags behind the new node
    # (0,-1,1) + (-1,0,-1) = (-1,-1,0)
    assert out.directions[ne] == (-1, -1, 0)
    assert out.graph.edges[ne].weight == 1
    ends = set(out.graph.edges[ne].ends)
    assert ends == {"V", nv}


def test_replace_star_errors():
    ct = fixtures.curve(fixtures.ex536_doc())
    with pytest.raises(PreconditionError) as err:
        replace_star(ct, "V", ("e1_va", "e2_cv", "e3_vp"), new_prefix="nv_")
    assert err.value.kind == "bad-replacement"
    with pytest.raises(PreconditionError):
        replace_star(
            ct, "V", ("e1_va", "e2_cv", ("e3_vp", ("e4_sv", "f1_ab"))), new_prefix="nv_"
        )
    # a leaf that is not an edge id is not one of the vertex's edges
    for leaf in (1, None):
        with pytest.raises(PreconditionError) as err:
            replace_star(ct, "V", (leaf, "e2_cv", ("e3_vp", "e4_sv")), "p")
        assert (err.value.kind, err.value.message) == (
            "bad-replacement",
            "replacement tree for V must use exactly its incident edges",
        )


def _random_split(rng, leaves):
    """A random binary tree over leaves, which holds at least one item."""
    if len(leaves) == 1:
        return leaves[0]
    k = rng.randint(1, len(leaves) - 1)
    return (_random_split(rng, leaves[:k]), _random_split(rng, leaves[k:]))


def _expected_nodes(tree, above, prefix, weighted, found):
    """Walk tree below the vertex above as replace_star's docstring says:
    found["leaves"] maps each leaf to the vertex above it, found["nodes"]
    lists (node, vertex above) in pre-order and found["edges"] (node,
    weighted direction sum of its leaves) in post-order.  Returns the
    subtree's weighted direction sum."""
    if isinstance(tree, str):
        found["leaves"][tree] = above
        return weighted[tree]
    node = f"{prefix}{len(found['nodes']) + 1}"
    found["nodes"].append((node, above))
    left, right = (_expected_nodes(t, node, prefix, weighted, found) for t in tree)
    total = tuple(x + y for x, y in zip(left, right))
    found["edges"].append((node, total))
    return total


def test_replace_star_on_random_stars():
    """Random 3-valent trees over stars of valence 4 to 8: the result
    balances, the vertex and every new vertex are 3-valent, the genus stays,
    each new edge carries the weighted direction sum of the leaves below it,
    each leaf hangs from the node above it, and the new vertices and edges
    are named in pre-order and post-order."""
    rng = random.Random(29)
    resolved = 0
    while resolved < 200:
        ct = random_genus1_curve(rng, rng.choice([2, 3]), extra_legs=rng.randint(1, 5))
        g = ct.graph
        (v,) = [u for u in g.vertex_ids if g.valence(u) > 3]
        weighted = {}
        for eid, slot in g.incident(v):
            u = ct.flag_direction(Flag(v, eid, slot))
            weighted[eid] = tuple(g.edges[eid].weight * x for x in u)
        star = list(weighted)
        rng.shuffle(star)
        cuts = [0, *sorted(rng.sample(range(1, len(star)), 2)), len(star)]
        tree = tuple(_random_split(rng, star[i:j]) for i, j in zip(cuts, cuts[1:]))
        found = {"leaves": {}, "nodes": [], "edges": []}
        for part in tree:
            _expected_nodes(part, v, "n", weighted, found)
        if any(not any(total) for _node, total in found["edges"]):
            with pytest.raises(PreconditionError) as err:
                replace_star(ct, v, tree, "n")
            assert err.value.kind == "zero-direction-split"
            continue
        out = replace_star(ct, v, tree, "n")
        og = out.graph
        assert all(not any(r) for _u, r in balancing_residuals(out))
        assert og.genus() == g.genus()
        nodes = dict(found["nodes"])
        assert list(nodes) == [f"n{i}" for i in range(1, g.valence(v) - 2)]
        assert og.vertex_ids == tuple(sorted([*g.vertex_ids, *nodes]))
        assert all(og.valence(u) == 3 for u in [v, *nodes])
        for eid, above in found["leaves"].items():
            assert og.edges[eid].ends == tuple(above if x == v else x for x in g.edges[eid].ends)
        for i, (node, total) in enumerate(found["edges"], 1):
            e = og.edges[f"nedge{i}"]
            assert e.ends == (nodes[node], node)
            assert tuple(e.weight * x for x in out.directions[e.id]) == total
        resolved += 1


def test_replace_star_rejects_cancelling_pair():
    from tropctl.curves import CombinatorialType

    g = AbstractGraph(
        ["V"],
        [
            ("u1", ("V", None), 1),
            ("u2", ("V", None), 1),
            ("u3", ("V", None), 1),
            ("u4", ("V", None), 1),
        ],
    )
    ct = CombinatorialType(
        g, 2, {"u1": (1, 0), "u2": (-1, 0), "u3": (0, 1), "u4": (0, -1)}
    )
    # grouping the two opposite horizontal legs makes the new edge's
    # direction sum vanish
    with pytest.raises(PreconditionError) as err:
        replace_star(ct, "V", (("u1", "u2"), "u3", "u4"), new_prefix="nv_")
    assert err.value.kind == "zero-direction-split"
    # a non-cancelling grouping works and carries the weighted sum
    out = replace_star(ct, "V", (("u1", "u3"), "u2", "u4"), new_prefix="nv_")
    (ne,) = [e for e in out.graph.edge_ids if e.startswith("nv_")]
    assert out.directions[ne] == (1, 1)


def test_selfloop_star_is_rejected():
    g = AbstractGraph(
        ["v"],
        [
            ("loop", ("v", "v"), 1),
            ("u1", ("v", None), 1),
            ("u2", ("v", None), 1),
        ],
    )
    ct = CombinatorialType(
        g, 2, {"loop": (1, 0), "u1": (-1, 1), "u2": (-1, -1)}
    )
    with pytest.raises(PreconditionError) as err:
        replace_star(ct, "v", ("loop", "u1", "u2"), new_prefix="nv_")
    assert err.value.kind == "selfloop-star"


def _flag_residuals(c):
    """balancing_residuals by its definition: at each vertex, the sum of
    weight times flag direction over the flags there."""
    out = []
    for v in c.graph.vertex_ids:
        total = (0,) * c.n
        for eid, slot in c.graph.incident(v):
            w = c.graph.edges[eid].weight
            total = tuple(t + w * x for t, x in zip(total, c.flag_direction(Flag(v, eid, slot))))
        out.append((v, total))
    return out


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_balancing_residuals_sum_weighted_flag_directions(seed):
    """Random curves and a weighted graph with a self-loop, with their
    directions replaced by random ones (some None), so most vertices are
    unbalanced."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    base = random_immersive_curve(rng, n, genus=rng.randint(0, 3))
    loop = AbstractGraph(["v", "w"], [("loop", ("v", "v"), 2), ("b", ("v", "w"), 3), ("u", ("w", None), 1)])
    for graph in (base.graph, loop):
        ct = CombinatorialType(graph, n, {})
        for eid in graph.edge_ids:
            ct.directions[eid] = None if rng.random() < 0.2 else tuple(rng.randint(-3, 3) for _ in range(n))
        assert balancing_residuals(ct) == _flag_residuals(ct)


def test_flag_direction_signs():
    c = fixtures.curve(fixtures.square_loop_doc())
    f0 = Flag("a", "s01", 0)
    f1 = Flag("b", "s01", 1)
    assert c.flag_direction(f0) == (1, 0, 0)
    assert c.flag_direction(f1) == (-1, 0, 0)


def _contract_bridge(c, positions, eid):
    """Positions with the side of bridge eid that holds ends[1] moved so the
    bridge is contracted; every other edge keeps its length and direction."""
    a, b = c.graph.edges[eid].ends
    shift = [x - y for x, y in zip(positions[a], positions[b])]
    side, stack = {b}, [b]
    while stack:
        for e, _slot in c.graph.incident(stack.pop()):
            for w in c.graph.edges[e].ends:
                if e != eid and w is not None and w not in side:
                    side.add(w)
                    stack.append(w)
    return {v: tuple(x + s for x, s in zip(p, shift)) if v in side else p for v, p in positions.items()}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
    st.lists(st.fractions(min_value=-1000, max_value=1000, max_denominator=1000), min_size=4, max_size=4),
)
def test_stored_lengths_measure_each_edge(seed, scale, shift):
    """Random curves, scaled and translated by rationals, some with bridges
    contracted to a point that keep their direction as a virtual one."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    base = random_immersive_curve(rng, n, genus=rng.randint(0, 3))
    positions = {v: tuple(scale * x + t for x, t in zip(p, shift)) for v, p in base.positions.items()}
    bridges = [eid for eid in base.graph.bounded_edge_ids() if eid not in base.graph.loop_part]
    contracted = [eid for eid in bridges if rng.random() < 0.5]
    for eid in contracted:
        positions = _contract_bridge(base, positions, eid)
    c = TropicalCurve(base.graph, n, positions, base.directions)
    for eid in c.graph.edge_ids:
        e = c.graph.edges[eid]
        if e.is_unbounded:
            with pytest.raises(PreconditionError) as info:
                c.edge_length(eid)
            assert info.value.kind == "unbounded-length"
            assert not c.is_contracted(eid)
            continue
        length = c.edge_length(eid)
        diff = tuple(Fraction(y) - Fraction(x) for x, y in zip(positions[e.ends[0]], positions[e.ends[1]]))
        assert diff == tuple(Fraction(length) * x for x in c.directions[eid])
        assert c.is_contracted(eid) == (length == 0)
        assert c.is_contracted(eid) == (eid in contracted)
        if eid not in contracted:
            assert length == scale * base.edge_length(eid)
    ends = [c.graph.edges[eid].ends for eid in c.graph.bounded_edge_ids()]
    assert is_immersive(c) == all(positions[a] != positions[b] for a, b in ends)

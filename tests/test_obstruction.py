"""Obstruction duals: numberings, chain method, abundancy, classification."""

import random

import pytest

from tropctl import obstruction
from tropctl.curves import parse_curve
from tropctl.errors import PreconditionError
from tropctl.graphs import AbstractGraph, Flag
from tropctl.obstruction import (
    abundancy_map,
    classify_report,
    compatible_numbering_space,
    dual_obstruction_chain,
    dual_obstruction_dim,
    flag_assembly,
    parameter_dimension,
    reduced_abundancy_map,
)
from tropctl.curves import CombinatorialType, contract_image, expected_dim
from tropctl.randgen import (
    random_genus1_curve,
    random_immersive_curve,
    random_loopchain_curve,
    random_marked_coords,
    random_trivalent_graph,
)
from tropctl.residues import xi_map

import fixtures
import oracles


def test_numbering_dim_is_genus_on_small_graphs():
    theta = AbstractGraph(
        ["x", "y"],
        [
            ("a", ("x", "y"), 1),
            ("b", ("x", "y"), 1),
            ("c", ("x", "y"), 1),
            ("ux", ("x", None), 1),
            ("uy", ("y", None), 1),
        ],
    )
    assert compatible_numbering_space(theta)["dim"] == 2
    tree = AbstractGraph(
        ["p", "q"],
        [
            ("m", ("p", "q"), 1),
            ("u1", ("p", None), 1),
            ("u2", ("p", None), 1),
            ("u3", ("q", None), 1),
            ("u4", ("q", None), 1),
        ],
    )
    assert compatible_numbering_space(tree)["dim"] == 0


def test_numbering_members_satisfy_rules():
    g = fixtures.curve(fixtures.square_loop_doc()).graph
    out = compatible_numbering_space(g)
    assert out["dim"] == 1
    flags = out["flag_order"]
    (assignment,) = out["basis"]
    values = {f: assignment[f][0] for f in flags}
    # both flags of an edge sum to zero; vertex sums vanish
    for eid in g.bounded_edge_ids():
        e = g.edges[eid]
        from tropctl.graphs import Flag

        assert values[Flag(e.ends[0], eid, 0)] + values[Flag(e.ends[1], eid, 1)] == 0
    for v in g.vertex_ids:
        s = sum(values.get(f, 0) for f in flags if f.vertex == v)
        assert s == 0


def test_numbering_agrees_with_naive_oracle():
    rng = random.Random(99)
    for _ in range(25):
        g = random_trivalent_graph(rng, rng.randint(0, 4))
        assert compatible_numbering_space(g)["dim"] == oracles.numbering_dimension(g)


def test_chain_square_loop():
    c = fixtures.curve(fixtures.square_loop_doc())
    out = dual_obstruction_chain(c)
    assert out["dim"] == 1
    assert sorted(out) == ["basis", "dim", "flag_order"]
    loop = ["s01", "s12", "s23", "s30"]
    assert [(f.edge, f.slot) for f in out["flag_order"]] == [(eid, s) for eid in loop for s in (0, 1)]
    # the lone basis covector is perpendicular to the loop plane and
    # alternates sign around the cycle
    (assignment,) = out["basis"]
    from tropctl.graphs import Flag

    w = assignment[Flag("a", "s01", 0)]
    assert w[0] == w[1] == 0 and w[2] != 0
    assert assignment[Flag("b", "s01", 1)] == tuple(-x for x in w)
    assert assignment[Flag("b", "s12", 0)] == w


def test_chain_requires_trivalent():
    c = fixtures.curve(fixtures.ex536_doc())
    with pytest.raises(PreconditionError) as err:
        dual_obstruction_chain(c)
    assert err.value.kind == "not-trivalent"


def test_chain_gamma_pair():
    g1 = fixtures.curve(fixtures.gamma1_doc())
    out1 = dual_obstruction_chain(g1)
    assert out1["dim"] == 1
    assert len(g1.graph.loop_decomposition) == 3
    perps = oracles.chain_perps(g1)
    assert perps[0] == oracles.canonical_span(3, [(1, 0, 0)])
    assert perps[1] == oracles.canonical_span(3, [(0, 1, 0)])
    assert perps[2] == oracles.canonical_span(3, [(1, -1, 0)])
    assert parameter_dimension(g1) == 7

    g2 = fixtures.curve(fixtures.gamma2_doc())
    out2 = dual_obstruction_chain(g2)
    assert out2["dim"] == 0
    assert parameter_dimension(g2) == 8


def test_chain_method_eliminates_once(monkeypatch):
    """One `kernel` per call, the flag system's, on every 3-valent fixture
    and on a loop chain of six closed chains."""
    calls = []
    kernel = obstruction.kernel

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(obstruction, "kernel", counted)
    docs = (fixtures.square_loop_doc, fixtures.gamma1_doc, fixtures.gamma2_doc, fixtures.junction_chains_doc)
    for c in [fixtures.curve(doc()) for doc in docs] + [random_loopchain_curve(random.Random(5), 3, 6)]:
        calls.clear()
        dual_obstruction_chain(c)
        assert len(calls) == 1


def test_abundancy_square_loop():
    c = fixtures.curve(fixtures.square_loop_doc())
    rank, surjective = abundancy_map(c)
    assert (rank, surjective) == (2, False)
    rrank, cut = reduced_abundancy_map(c)
    assert rrank == 1
    assert cut == ["s01"]
    # genus * (n-1) = 2, so the reduced map misses a 1-dimensional piece,
    # matching the chain dimension
    assert dual_obstruction_chain(c)["dim"] == 1 * (3 - 1) - rrank


def test_classify_square_loop():
    c = fixtures.curve(fixtures.square_loop_doc())
    rep = classify_report(c)
    assert rep["dim_obstruction_dual"] == 1
    assert rep["expected_dim"] == 4
    assert rep["parameter_dim"] == 5
    assert rep["superabundant_def1"] is True
    assert rep["superabundant_def2"] is True
    assert rep["abundancy_rank"] == 2
    assert rep["abundancy_target_dim"] == 3


def test_classify_tree_is_never_superabundant():
    rng = random.Random(5)
    c = random_immersive_curve(rng, 3, genus=0)
    rep = classify_report(c)
    assert rep["dim_obstruction_dual"] == 0
    assert rep["superabundant_def1"] is False
    assert rep["superabundant_def2"] is False


def test_abundancy_identity_on_random_curves():
    rng = random.Random(31)
    for _ in range(20):
        c = random_immersive_curve(rng, rng.choice([2, 3, 4]))
        image = contract_image(c)
        genus = image.graph.genus()
        n = c.n
        rank, surjective = abundancy_map(image)
        rrank, _cut = reduced_abundancy_map(image)
        dim_h = dual_obstruction_chain(c)["dim"]
        assert dim_h == (n - 1) * genus - rrank
        assert surjective == (rank == genus * n)
        assert (rrank == (n - 1) * genus) == surjective


def _rank_path_curves():
    """The fixtures, random curves and loop chains."""
    rng = random.Random(2323)
    docs = (fixtures.square_loop_doc, fixtures.gamma1_doc, fixtures.gamma2_doc, fixtures.ex534_doc, fixtures.ex536_doc)
    curves = [fixtures.curve(doc()) for doc in docs]
    curves += [random_immersive_curve(rng, rng.choice([2, 3, 4])) for _ in range(20)]
    curves += [random_genus1_curve(rng, rng.choice([2, 3]), extra_legs=rng.randint(0, 3)) for _ in range(6)]
    curves += [random_loopchain_curve(rng, rng.choice([2, 3, 5]), genus) for genus in (1, 3, 6)]
    return curves


def test_chain_rank_is_the_chain_kernel_dimension():
    for c in _rank_path_curves():
        try:
            expected = dual_obstruction_chain(c)["dim"]
        except PreconditionError as err:
            with pytest.raises(PreconditionError) as again:
                dual_obstruction_dim(c)
            assert again.value.payload() == err.payload()
            continue
        assert dual_obstruction_dim(c) == expected
        assert parameter_dimension(c) == expected_dim(c) + expected
        assert classify_report(c)["dim_obstruction_dual"] == expected


def test_abundancy_ranks_match_the_oracle():
    # in R^5 some cut edges have a zero last coordinate, so the reduced
    # map's annihilator rows pivot below the last column, and some have a
    # negative entry at the last nonzero one
    rng = random.Random(2727)
    curves = _rank_path_curves()
    curves += [random_immersive_curve(rng, 5) for _ in range(12)]
    curves += [random_loopchain_curve(rng, 5, genus) for genus in (3, 6, 9)]
    zero_last = negative = 0
    for c in curves:
        image = contract_image(c)
        full, reduced = oracles.abundancy_ranks(image)
        assert abundancy_map(image)[0] == full
        rank, cut = reduced_abundancy_map(image)
        assert rank == reduced
        for eid in cut:
            d = image.directions[eid]
            q = max(k for k in range(image.n) if d[k])
            zero_last += q < image.n - 1
            negative += d[q] < 0
    assert zero_last >= 5 and negative >= 10


def test_parameter_dimension_formula():
    c = fixtures.curve(fixtures.square_loop_doc())
    # e + (n-3)(1-g) + dim H = 4 + 0 + 1
    assert parameter_dimension(c) == 5


def dense_chain_kernel(ct, flag_order):
    """The chain-method kernel, solved densely by the oracle and expanded to
    every flag of flag_order: +w_e on slot 0 and -w_e on slot 1 of each loop
    edge e, and zero on every other flag."""
    g, n = ct.graph, ct.n
    loop = sorted(g.loop_part)
    base = {eid: i * n for i, eid in enumerate(loop)}
    width = len(loop) * n
    rows = []
    for eid in loop:  # w_e is perpendicular to the direction of e
        row = [0] * width
        row[base[eid] : base[eid] + n] = ct.directions[eid]
        rows.append(row)
    for v in g.vertex_ids:  # the signed covectors at v sum to zero
        for k in range(n):
            row = [0] * width
            for eid, slot in g.incident(v):
                if eid in base:
                    row[base[eid] + k] += 1 if slot == 0 else -1
            rows.append(row)
    expanded = []
    for w in oracles.nullspace(rows, width):
        dense = []
        for f in flag_order:
            if f.edge not in base:
                dense += [0] * n
            else:
                cov = w[base[f.edge] : base[f.edge] + n]
                dense += cov if f.slot == 0 else [-x for x in cov]
        expanded.append(dense)
    return expanded


def test_sparse_basis_spans_the_dense_kernel():
    rng = random.Random(1010)
    curves = [random_immersive_curve(rng, rng.choice([2, 3, 4])) for _ in range(15)]
    curves += [random_loopchain_curve(rng, rng.choice([2, 3, 5]), genus) for genus in (1, 2, 4, 7)]
    for c in curves:
        for out in (dual_obstruction_chain(c), xi_map(c)):
            flags = out["flag_order"]
            n = c.n
            zero = (0,) * n
            for assignment in out["basis"]:
                assert set(assignment) <= set(flags)
                for f, cov in assignment.items():
                    assert len(cov) == n and any(cov)
                    if f.slot == 1:
                        twin = Flag(c.graph.edges[f.edge].ends[0], f.edge, 0)
                        assert assignment[twin] == tuple(-x for x in cov)
                    else:
                        assert Flag(c.graph.edges[f.edge].ends[1], f.edge, 1) in assignment
            width = len(flags) * n
            densified = [[x for f in flags for x in assignment.get(f, zero)] for assignment in out["basis"]]
            expected = oracles.canonical_span(width, dense_chain_kernel(c, flags))
            assert len(densified) == out["dim"] == len(expected)
            assert oracles.canonical_span(width, densified) == expected


def _same_flag_system(out, reference):
    """Equal dim, flag_order and basis, the keys of a reference."""
    return {key: out[key] for key in reference} == reference


def _padded(c, n) -> CombinatorialType:
    """The type of c with its directions padded with zeros into Q^n."""
    pad = (0,) * (n - c.n)
    return CombinatorialType(c.graph, n, {eid: d + pad for eid, d in c.directions.items()})


def _wedge(c1, c2) -> CombinatorialType:
    """The two types glued at their first vertices.  Both stars there are
    balanced, so their union is, and the glued vertex carries loop flags of
    both types."""
    v, w = c1.graph.vertex_ids[0], c2.graph.vertex_ids[0]
    name = {x: "b" + x for x in c2.graph.vertex_ids} | {w: v, None: None}
    vertices = c1.graph.vertex_ids + tuple(name[x] for x in c2.graph.vertex_ids if x != w)
    edges = list(c1.graph.edges.values())
    edges += [("b" + e.id, tuple(name[x] for x in e.ends), e.weight) for e in c2.graph.edges.values()]
    directions = c1.directions | {"b" + eid: d for eid, d in c2.directions.items()}
    return CombinatorialType(AbstractGraph(vertices, edges), c1.n, directions)


def _random_coords(rng, ct) -> dict:
    g = ct.graph
    return {v: random_marked_coords(rng, g.valence(v) - 1) for v in g.vertex_ids if g.valence(v) > 3}


def test_flag_system_matches_per_vertex_assembly():
    """The shared conditions, written once per edge and vertex over the loop
    part, give the kernel that restating them at every vertex over every
    bounded edge gives; and the residue sums, written only at the vertices
    of valence above 3, give the kernel that every vertex's residue
    coefficients give."""
    rng = random.Random(1717)
    graphs = [random_trivalent_graph(rng, rng.randint(0, 4)) for _ in range(12)]
    curves = [random_immersive_curve(rng, rng.choice([2, 3, 4]), genus) for genus in (0, 1, 2, 3) for _ in range(3)]
    curves += [random_loopchain_curve(rng, rng.choice([2, 3, 4]), genus) for genus in (1, 3, 5)]
    # the references solve over every bounded edge, the package over the
    # loop part: these test that bridges and twigs are forced to zero
    assert any(set(g.bounded_edge_ids()) - g.loop_part for g in graphs)
    assert any(set(c.graph.bounded_edge_ids()) - c.graph.loop_part for c in curves)
    for g in graphs:
        assert _same_flag_system(compatible_numbering_space(g), oracles.per_vertex_numbering(g))
    for c in curves:
        chain = dual_obstruction_chain(c)
        assert _same_flag_system(chain, oracles.per_vertex_chain(c))
        residues = oracles.per_vertex_xi(c)
        assert _same_flag_system(xi_map(c), residues)
        # the chain method's columns are the loop edges, the same variables
        assert (chain["dim"], chain["basis"]) == (residues["dim"], residues["basis"])
    # the 4-valent vertex V of ex536 at random coordinates
    c = fixtures.curve(fixtures.ex536_doc())
    for _ in range(6):
        coords = _random_coords(rng, c)
        assert _same_flag_system(xi_map(c, coords), oracles.per_vertex_xi(c, coords))
    # curves in Q^k padded with zeros into Q^n: for n > k the covectors
    # vanishing on Q^k give the kernel a nonzero basis to compare
    for _ in range(12):
        k = rng.choice([2, 3])
        ct = _padded(random_genus1_curve(rng, k, extra_legs=rng.randint(1, 5)), rng.randint(k, 4))
        coords = _random_coords(rng, ct)
        assert _same_flag_system(xi_map(ct, coords), oracles.per_vertex_xi(ct, coords))
    # two loops through one vertex, where the residue sums often cut the kernel
    for _ in range(12):
        k = rng.choice([2, 3])
        n = rng.randint(k, 4)
        c1, c2 = (_padded(random_genus1_curve(rng, k, extra_legs=rng.randint(0, 2)), n) for _ in "12")
        ct = _wedge(c1, c2)
        coords = _random_coords(rng, ct)
        assert _same_flag_system(xi_map(ct, coords), oracles.per_vertex_xi(ct, coords))


def test_numbering_space_matches_per_vertex_assembly_on_random_multigraphs():
    """Self-loops, parallel edges, random orientations and random ids: the
    chain signs and the junction sums give the per-vertex numberings."""
    rng = random.Random(3141)
    graphs = []
    while len(graphs) < 300:
        vertices, edges = fixtures.random_multigraph(rng)
        graphs.append(AbstractGraph(vertices, edges))
    assert sum(any(g.edges[eid].ends[0] == g.edges[eid].ends[1] for eid in g.loop_part) for g in graphs) > 100
    assert sum(any(not chain.closed for chain in g.loop_decomposition) for g in graphs) > 100
    for g in graphs:
        assert _same_flag_system(compatible_numbering_space(g), oracles.per_vertex_numbering(g))


def _reversed_loop_edges(rng, ct) -> CombinatorialType:
    """The type of ct with a random set of its loop edges turned around:
    ends swapped and direction negated, so every flag keeps its direction."""
    g = ct.graph
    turn = {eid for eid in sorted(g.loop_part) if rng.random() < 0.5}
    edges = [(e.id, e.ends[::-1] if e.id in turn else e.ends, e.weight) for e in g.edges.values()]
    directions = {eid: tuple(-x for x in d) if eid in turn else d for eid, d in ct.directions.items()}
    return CombinatorialType(AbstractGraph(g.vertex_ids, edges), ct.n, directions)


def test_chain_and_xi_match_per_vertex_assembly_on_reversed_loop_edges():
    """Loop edges that point either way along their chains, so the chain
    signs, the smallest edge's among them, take both values."""
    rng = random.Random(2024)
    types = [random_immersive_curve(rng, rng.choice([2, 3, 4]), genus) for genus in (1, 2, 3) for _ in range(4)]
    types += [random_loopchain_curve(rng, rng.choice([2, 3]), genus) for genus in (2, 4)]
    types += [fixtures.curve(doc()) for doc in (fixtures.gamma1_doc, fixtures.junction_chains_doc)]
    types = [_reversed_loop_edges(rng, c) for c in types for _ in range(2)]
    against_walk = 0
    for ct in types:
        g = ct.graph
        for chain in g.loop_decomposition:
            j = chain.edges.index(min(chain.edges))
            against_walk += g.edges[chain.edges[j]].ends[0] != chain.vertices[j]
            forward = [g.edges[eid].ends[0] == v for eid, v in zip(chain.edges, chain.vertices)]
            assert chain.signs == tuple(1 if f == forward[j] else -1 for f in forward)
        assert _same_flag_system(dual_obstruction_chain(ct), oracles.per_vertex_chain(ct))
        assert _same_flag_system(xi_map(ct), oracles.per_vertex_xi(ct))
    assert against_walk >= 5
    # a 4-valent vertex on a loop, at random coordinates
    for _ in range(6):
        ct = _reversed_loop_edges(rng, random_genus1_curve(rng, 3, extra_legs=rng.randint(1, 3)))
        coords = _random_coords(rng, ct)
        assert _same_flag_system(xi_map(ct, coords), oracles.per_vertex_xi(ct, coords))


def test_flag_assembly_has_one_covector_per_chain_and_sums_only_at_junctions():
    for (n, genus), shape in {(3, 40): (120, 120), (16, 50): (150, 800)}.items():
        c = random_loopchain_curve(random.Random(1), n, genus)
        chains, _place, rows = flag_assembly(c.graph, n, c.directions)
        assert (len(rows), len(chains) * n) == shape
        # a loop chain's triangles are closed chains: no junction, no vertex sum
        assert flag_assembly(c.graph, n, None)[2] == []
    square = fixtures.curve(fixtures.square_loop_doc())
    assert flag_assembly(square.graph, 3, None)[2] == []
    # the n sums at each of the two junctions J and K
    c = fixtures.curve(fixtures.junction_chains_doc())
    chains, place, rows = flag_assembly(c.graph, 3, None)
    assert len(chains) == 4 and len(rows) == 2 * 3
    assert place["a1"] == (0, 1) and place["a3"] == (0, -1) and place["t2"] == (9, -1)

"""Local residue systems, xi assembly, genus-1 span test, degenerations."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from tropctl.curves import CombinatorialType, contract_image, parse_curve
from tropctl.errors import PreconditionError, ValidationError
from tropctl.graphs import AbstractGraph, Flag
from tropctl.linalg import echelon, residual
from tropctl.obstruction import dual_obstruction_chain, flag_assembly
from tropctl.randgen import (
    random_genus1_curve,
    random_immersive_curve,
    random_loopchain_curve,
    random_marked_coords,
)
from tropctl import residues
from tropctl.residues import (
    MAX_VALENCE,
    LocalModel,
    a_system,
    a_values,
    b_system,
    degeneration_compare,
    genus1_loop_criterion,
    model_from_doc,
    standard_local_model,
    vertex_phylo,
    xi_map,
)

import fixtures
import oracles


def local_dim_formula(r: int, n: int, s: int) -> int:
    if s <= 1:
        return 0
    return r * (s - 2) + (n - r - 1) * (s - 1)


def test_standard_model_full_bounded_dims():
    # all edges bounded: s = r + 2
    for r, n in [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]:
        model = standard_local_model(r, n, coords=list(range(r + 1)))
        out = a_system(model)
        assert out["dim"] == local_dim_formula(r, n, r + 2)


def test_standard_model_unbounded_slots_reduce_dim():
    # make the last two edges unbounded: s = r
    r, n = 2, 3
    model = standard_local_model(
        r, n, coords=[0, 1, 2], bounded=[True, True, False, False]
    )
    out = a_system(model)
    assert out["dim"] == local_dim_formula(r, n, r)
    assert out["variables"] == ["E1", "E2"]


def test_three_valent_star_has_zero_local_dim():
    # r = 1 in R^2: the full model has dimension 1*(3-2) + 0 = 1... for n = 2;
    # with one unbounded edge s = 2 and the dimension drops to 0
    model = standard_local_model(1, 2, coords=[0, 1], bounded=[True, True, False])
    assert a_system(model)["dim"] == local_dim_formula(1, 2, 2)


def test_infinity_slot_choice_does_not_change_dim():
    # same star, every admissible choice of which bounded edge sits at
    # infinity: the kernel dimension is invariant
    base = {
        "ambient_dim": 3,
        "edges": [
            {"label": "A", "direction": [1, 0, 0]},
            {"label": "B", "direction": [0, 1, 0]},
            {"label": "C", "direction": [0, 0, 1]},
            {"label": "D", "direction": [-1, -1, -1]},
        ],
    }
    dims = set()
    for order in itertools.permutations(base["edges"]):
        doc = {"ambient_dim": 3, "edges": list(order)}
        dims.add(a_system(model_from_doc(doc))["dim"])
    assert dims == {local_dim_formula(2, 3, 4)}


def test_model_from_doc_validation():
    with pytest.raises(ValidationError):
        model_from_doc({"ambient_dim": 0, "edges": []})
    with pytest.raises(ValidationError):
        model_from_doc(
            {
                "ambient_dim": 2,
                "edges": [
                    {"direction": [1, 0]},
                    {"direction": [0, 1]},
                    {"direction": [-1, 0]},  # does not balance
                ],
            }
        )
    with pytest.raises(ValidationError):
        model_from_doc(
            {
                "ambient_dim": 2,
                "edges": [
                    {"direction": [2, 0]},  # not primitive
                    {"direction": [-1, 0]},
                    {"direction": [-1, 0]},
                ],
            }
        )


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(ambient_dim=True),
        lambda d: d["edges"][0].update(weight=True),
        lambda d: d["edges"][0].update(direction=[True]),
    ],
    ids=["ambient_dim", "weight", "direction"],
)
def test_model_from_doc_rejects_bool_integers(edit):
    # a balanced 3-valent star in Q^1, valid until the edit
    doc = {
        "ambient_dim": 1,
        "edges": [{"direction": [1]}, {"direction": [1]}, {"direction": [-1], "weight": 2}],
    }
    model_from_doc(doc)
    edit(doc)
    with pytest.raises(ValidationError) as err:
        model_from_doc(doc)
    assert err.value.kind == "bad-model"


def test_model_coords_validation():
    doc = {
        "ambient_dim": 2,
        "edges": [
            {"direction": [1, 0]},
            {"direction": [0, 1]},
            {"direction": [-1, -1]},
        ],
    }
    doc["coords"] = ["1", "2"]  # first must be zero
    with pytest.raises(ValidationError):
        model_from_doc(doc)
    doc["coords"] = ["0", "0"]  # must be distinct
    with pytest.raises(ValidationError):
        model_from_doc(doc)


def test_a_values_of_kernel_member():
    model = standard_local_model(2, 3, coords=[0, 1, 2])
    out = a_system(model)
    for assignment in out["basis"]:
        vals = a_values(model, assignment)
        # the residue polynomial coefficients vanish for kernel members:
        # here m = 3 finite slots, so A_1 = sum of all pair values and
        # A_0 = -sum over pairs of the omitted point times the pair value
        a_sum = sum(vals.values())
        assert a_sum == 0
        a0 = Fraction(0)
        pts = {1: Fraction(0), 2: Fraction(1), 3: Fraction(2)}
        for (i, j), val in vals.items():
            (l,) = [k for k in (1, 2, 3) if k not in (i, j)]
            a0 -= pts[l] * val
        assert a0 == 0


def test_b_system_tripod_and_caterpillar():
    # r = 1: one internal node over two leaves
    out = b_system((1, 2))
    assert out["rank"] == 1
    assert out["internal_nodes"] == 1
    # caterpillar with 4 leaves: 3 internal nodes
    out2 = b_system((((1, 2), 3), 4))
    assert out2["rank"] == 3
    # balanced with 4 leaves
    out3 = b_system(((1, 2), (3, 4)))
    assert out3["rank"] == 3
    with pytest.raises(ValidationError):
        b_system(((1, 1), 2))


def test_b_system_reads_a_comb_deeper_than_the_recursion_limit():
    # a repeated leaf is found before the depth^2 pair columns are built
    tree = 0
    for label in range(1, sys.getrecursionlimit() + 100):
        tree = (tree, label)
    with pytest.raises(ValidationError) as exc:
        b_system((tree, 7))
    assert exc.value.kind == "bad-tree"
    assert exc.value.message == "leaf labels must be distinct"
    # each internal node's leaves are a slice of the left-to-right leaf list
    assert residues._pair_tree_leaves((((1, 2), 3), (4, 5))) == (
        [1, 2, 3, 4, 5],
        [(0, 2), (0, 3), (3, 5), (0, 5)],
    )


def test_xi_square_loop_matches_chain():
    c = fixtures.curve(fixtures.square_loop_doc())
    xi = xi_map(c)
    ch = dual_obstruction_chain(c)
    assert xi["dim"] == ch["dim"] == 1
    # same flag covectors on the loop flags
    (xv,) = xi["basis"]
    (cv,) = ch["basis"]
    scale = None
    for f, w in cv.items():
        xw = xv[f]
        nz = [(a, b) for a, b in zip(xw, w) if b != 0]
        assert nz
        s = nz[0][0] / nz[0][1]
        assert all(a == s * b for a, b in zip(xw, w))
        if scale is None:
            scale = s
        assert s == scale
    assert scale != 0


def test_xi_higher_valent_needs_coords():
    c = fixtures.curve(fixtures.ex536_doc())
    with pytest.raises(PreconditionError) as err:
        xi_map(c)
    assert err.value.kind == "missing-config"


def test_xi_ex536_dimension_and_pair_values():
    c = fixtures.curve(fixtures.ex536_doc())
    out = xi_map(c, {"V": [0, 1, 2]})
    assert out["dim"] == 1
    (assignment,) = out["basis"]
    model = out["models"]["V"]
    by_label = {
        rec.label: assignment[rec.flag] for rec in model.slots if rec.flag in assignment
    }
    vals = a_values(model, by_label)
    assert vals[(1, 2)] == 0 and vals[(2, 1)] == 0
    assert vals[(1, 3)] != 0
    assert vals[(1, 3)] == vals[(3, 2)] == -vals[(3, 1)] == -vals[(2, 3)]


def _without_direction(doc, eid, rename):
    """The type of a fixture curve with edge eid's direction removed, and
    its vertices renamed by the mapping rename."""
    for v in doc["vertices"]:
        v["id"] = rename.get(v["id"], v["id"])
    for e in doc["edges"]:
        e["ends"] = [rename.get(x, x) for x in e["ends"]]
    c = fixtures.curve(doc)
    return CombinatorialType(c.graph, c.n, {**c.directions, eid: None})


@pytest.mark.parametrize(
    "eid, rename, coords, kind, context",
    [
        # a 3-valent vertex with no model still rejects a directionless edge
        ("s01", {}, {}, "zero-direction-local", {"edge": "s01", "vertex": "a"}),
        # vertex order: B and C come before V, whose coordinates are missing
        ("f2_bc", {}, {}, "zero-direction-local", {"edge": "f2_bc", "vertex": "B"}),
        ("f2_bc", {}, {"V": [0, 1, 2]}, "zero-direction-local", {"edge": "f2_bc", "vertex": "B"}),
        ("e1_va", {}, {"V": [0, 1, 2]}, "zero-direction-local", {"edge": "e1_va", "vertex": "A"}),
        # with V renamed O, O comes before P and Q
        ("f3_pq", {"V": "O"}, {}, "missing-config", {"vertex": "O"}),
        ("f3_pq", {"V": "O"}, {"O": [0, 1, 2]}, "zero-direction-local", {"edge": "f3_pq", "vertex": "P"}),
        ("f3_pq", {"V": "O"}, {"O": [0, 1, 1]}, "bad-coords", {"vertex": "O"}),
        # a 3-valent vertex given coordinates is modelled, and they are checked
        ("f2_bc", {}, {"A": [0, 0], "V": [0, 1, 2]}, "bad-coords", {"vertex": "A"}),
        ("f2_bc", {}, {"A": [0, 1], "V": [0, 1, 2]}, "zero-direction-local", {"edge": "f2_bc", "vertex": "B"}),
    ],
)
def test_xi_reports_the_first_fault_in_vertex_order(eid, rename, coords, kind, context):
    doc = fixtures.square_loop_doc() if eid == "s01" else fixtures.ex536_doc()
    ct = _without_direction(doc, eid, rename)
    with pytest.raises((PreconditionError, ValidationError)) as err:
        xi_map(ct, coords)
    assert err.value.kind == kind
    assert err.value.context == context


def test_marked_coordinates_are_ints_or_fractions():
    # binary floats would pass as coordinates such as 3602879701896397/36028797018963968
    ct = fixtures.curve(fixtures.ex536_doc())
    for coords in ([0, 0.1, 0.7], [0, 1, True], [0, 1, "2"], [0.0, 1, 2]):
        with pytest.raises(ValidationError) as err:
            xi_map(ct, {"V": coords})
        assert (err.value.kind, err.value.context) == ("bad-coords", {"vertex": "V"})
    assert xi_map(ct, {"V": [0, Fraction(1, 10), 7]})["models"]["V"].coords == (0, Fraction(1, 10), 7)


def test_xi_rejects_an_unbalanced_type():
    # with no residue sums at 3-valent vertices, the answer would rest on a
    # balancing that this hand-built type does not have
    c = fixtures.curve(fixtures.square_loop_doc())
    ct = CombinatorialType(c.graph, c.n, {**c.directions, "u0": (0, 0, 1)})
    with pytest.raises(ValidationError) as err:
        xi_map(ct)
    assert (err.value.kind, err.value.message) == ("unbalanced", "balancing fails at: a")
    assert err.value.context == {"vertices": ["a"]}


def test_xi_models_only_the_vertices_of_valence_above_3(monkeypatch):
    # the residue sums of a vertex of valence at most 3 follow from the
    # other rows, so xi_map builds it no model, unless it is given
    # coordinates to check
    calls = []
    from_star = LocalModel.from_star.__func__

    def counting_from_star(cls, obj, vertex, coords=None):
        calls.append(vertex)
        return from_star(cls, obj, vertex, coords)

    monkeypatch.setattr(LocalModel, "from_star", classmethod(counting_from_star))
    out = xi_map(random_loopchain_curve(random.Random(5), 3, 6))
    assert calls == [] and out["models"] == {}
    c = fixtures.curve(fixtures.ex536_doc())
    out = xi_map(c, {"V": [0, 1, 2]})
    assert calls == ["V"] and list(out["models"]) == ["V"]
    calls.clear()
    assert xi_map(c, {"A": [0, 5], "V": [0, 1, 2]})["basis"] == out["basis"]
    assert calls == ["A", "V"]


def test_genus1_criterion_square_loop():
    c = fixtures.curve(fixtures.square_loop_doc())
    out = genus1_loop_criterion(c)
    assert out["span_dim"] == 2
    assert out["dim_h"] == 1
    assert not out["smoothable"]
    assert oracles.canonical_span(3, out["h_basis"]) == oracles.canonical_span(3, [(0, 0, 1)])


def test_genus1_criterion_ex534():
    c = fixtures.curve(fixtures.ex534_doc())
    out = genus1_loop_criterion(c)
    assert out["smoothable"]
    assert out["dim_h"] == 0
    assert out["loop_vertices"] == ["A", "B", "C", "V"]


def test_genus1_criterion_rejects_other_genus():
    c = fixtures.curve(fixtures.gamma1_doc())
    with pytest.raises(PreconditionError) as err:
        genus1_loop_criterion(c)
    assert err.value.kind == "not-genus1"


def test_vertex_phylo_labels_are_edge_ids():
    c = fixtures.curve(fixtures.ex536_doc())
    model = LocalModel.from_star(c, "V")
    from tropctl.laurent import LaurentSeries, clusters

    series = [
        LaurentSeries.zero(),
        LaurentSeries([(-3, 1)]),
        LaurentSeries([(-5, 1)]),
    ]
    tree = vertex_phylo(model, series)
    assert frozenset({"e1_va", "e2_cv", "e3_vp"}) in clusters(tree)


def test_vertex_phylo_checks_the_series():
    c = fixtures.curve(fixtures.ex536_doc())
    model = LocalModel.from_star(c, "V")
    from tropctl.laurent import LaurentSeries

    for series in (
        [LaurentSeries.zero(), LaurentSeries([(-3, 1)])],  # one series short
        [LaurentSeries([(-1, 1)]), LaurentSeries([(-3, 1)]), LaurentSeries([(-5, 1)])],
    ):
        with pytest.raises(ValidationError) as err:
            vertex_phylo(model, series)
        assert err.value.kind == "bad-laurent"
        assert err.value.context == {"vertex": "V"}


def test_compare_models_and_checks_each_star_once(monkeypatch):
    # compare solves no xi_map and writes no residue sums at the 3-valent
    # vertices, so they get no LocalModel: V's star is read once, when it
    # is resolved, its chain columns are found once, and V's series are
    # checked once; each evaluation point changes only the coordinates
    c = fixtures.curve(fixtures.ex536_doc())
    from tropctl.laurent import LaurentSeries

    series = {"V": [LaurentSeries.zero(), LaurentSeries([(-3, 1)]), LaurentSeries([(-5, 1)])]}
    calls = []
    from_star = LocalModel.from_star.__func__
    phylo = residues.vertex_phylo
    chain_columns = residues._chain_columns

    def counting_from_star(cls, obj, vertex, coords=None):
        calls.append(("model", vertex))
        return from_star(cls, obj, vertex, coords)

    def counting_phylo(model, series_list):
        calls.append(("series", model.vertex))
        return phylo(model, series_list)

    def counting_columns(model, g):
        calls.append(("columns", model.vertex))
        return chain_columns(model, g)

    def no_xi(*args):
        raise AssertionError("compare solved an xi system")

    monkeypatch.setattr(LocalModel, "from_star", classmethod(counting_from_star))
    monkeypatch.setattr(residues, "xi_map", no_xi)
    monkeypatch.setattr(residues, "vertex_phylo", counting_phylo)
    monkeypatch.setattr(residues, "_chain_columns", counting_columns)
    rep = degeneration_compare(c, series)
    assert rep["d"] == 1
    assert len(rep["dims_seen"]) == 2
    assert sorted(calls) == [("columns", "V"), ("model", "V"), ("series", "V")]


def _implied_low_valence_residues(ct) -> int:
    """How many residue rows with a nonzero entry the vertices of valence at
    most 3 of ct have, after checking that each reduces to nothing modulo
    the flag_assembly rows (perpendicularity and vertex sums), as
    degeneration_compare assumes when it leaves them out."""
    g, n = ct.graph, ct.n
    kept = echelon(len(g.loop_decomposition) * n, flag_assembly(g, n, ct.directions))
    models = [LocalModel.from_star(ct, v) for v in g.vertex_ids if g.valence(v) <= 3]
    low = [row for m in models for row in residues._residue_rows(m, residues._chain_columns(m, g))]
    assert all(not residual(row, kept) for row in low)
    return sum(any(row.values()) for row in low)


def test_residue_rows_at_low_valence_vertices_follow_from_the_flag_rows():
    docs = (fixtures.square_loop_doc, fixtures.gamma1_doc, fixtures.gamma2_doc, fixtures.ex534_doc, fixtures.ex536_doc)
    curves = [contract_image(fixtures.curve(doc())) for doc in docs]
    rng = random.Random(2718)
    curves += [contract_image(random_immersive_curve(rng, rng.choice([2, 3, 4]))) for _ in range(30)]
    curves += [contract_image(random_genus1_curve(rng, 3, extra_legs=2)) for _ in range(10)]
    curves += [contract_image(random_loopchain_curve(rng, 3, 6)) for _ in range(3)]
    assert sum(_implied_low_valence_residues(ct) for ct in curves) > 100


def test_local_model_valence_cap():
    r = MAX_VALENCE - 2  # the largest star accepted
    assert standard_local_model(r, r + 1, coords=range(r + 1)).r == r
    with pytest.raises(ValidationError) as err:
        standard_local_model(r + 1, r + 2, coords=range(r + 2))
    assert err.value.kind == "limit"


def test_degeneration_compare_ex536():
    c = fixtures.curve(fixtures.ex536_doc())
    from tropctl.laurent import LaurentSeries

    series = {
        "V": [
            LaurentSeries.zero(),
            LaurentSeries([(-3, 1)]),
            LaurentSeries([(-5, 1)]),
        ]
    }
    rep = assert_compare_matches_the_basis_paths(c, series)
    assert rep["semicontinuous"]
    assert rep["stabilized"]
    assert rep["d"] == 1  # one admissible configuration family: dim stays 1
    assert rep["d0"] == 2
    assert rep["resolved_type"].graph.is_trivalent()
    assert 0 < rep["t_used"] < 1


def assert_compare_matches_the_basis_paths(c, series, t0=None):
    """degeneration_compare's ranks against the kernels they stand for: d is
    xi_map's dimension at the coordinates evaluated at tUsed, and d0 the
    resolved type's dual_obstruction_chain dimension."""
    rep = degeneration_compare(c, series, t0)
    coords = {v: [s.evaluate(rep["t_used"]) for s in series[v]] for v in rep["trees"]}
    assert rep["d"] == xi_map(contract_image(c), coords)["dim"]
    assert rep["d0"] == dual_obstruction_chain(rep["resolved_type"])["dim"]
    return rep


def test_degeneration_compare_random_cases():
    rng = random.Random(424242)
    done = 0
    while done < 16:
        c, v, series = fixtures.random_higher_valent_case(rng)
        t0 = (None, Fraction(1, 100), Fraction(2, 7))[done % 3]
        try:
            rep = assert_compare_matches_the_basis_paths(c, series, t0)
        except PreconditionError:
            continue  # a split direction vanished; draw another case
        assert rep["d"] <= rep["d0"]
        assert rep["stabilized"]
        done += 1


def test_compare_resolves_before_it_checks_the_evaluation_point():
    # a resolution error wins over a bad t, as it did when d0 came from a basis
    rng = random.Random(1)
    while True:
        c, _v, series = fixtures.random_higher_valent_case(rng)
        try:
            residues.resolve_by_phylo(contract_image(c), series)
        except PreconditionError as exc:
            first = exc.payload()
            break
    with pytest.raises(PreconditionError) as err:
        degeneration_compare(c, series, Fraction(2))
    assert err.value.payload() == first


def test_compare_evaluates_at_an_int_or_a_fraction_only():
    from tropctl.laurent import LaurentSeries

    c = fixtures.curve(fixtures.ex536_doc())
    series = {"V": [LaurentSeries.zero(), LaurentSeries([(-3, 1)]), LaurentSeries([(-5, 1)])]}
    for t0 in (0.1, True, 0.5, "1/10"):
        with pytest.raises(ValidationError) as err:
            degeneration_compare(c, series, t0)
        assert err.value.kind == "bad-evaluation-point"
    rep = degeneration_compare(c, series, Fraction(1, 10))
    assert rep["t_used"] == Fraction(1, 10_000) and type(rep["t_used"]) is Fraction


def test_selfloop_star_local_model_labels():
    g = AbstractGraph(
        ["v"],
        [
            ("loop", ("v", "v"), 1),
            ("u1", ("v", None), 1),
            ("u2", ("v", None), 1),
        ],
    )
    # the self-loop meets v twice, so its two flags get distinct slot labels
    ct = CombinatorialType(g, 2, {"loop": (1, 2), "u1": (0, -1), "u2": (0, 1)})
    model = LocalModel.from_star(ct, "v")
    labels = [rec.label for rec in model.slots]
    assert set(labels) == {"loop#0", "loop#1", "u1", "u2"}
    assert model.infinity.label == "loop#1"
    assert model.r == 2


def test_local_model_zero_direction_rejected():
    c = fixtures.curve(fixtures.square_loop_doc())
    dirs = dict(c.directions)
    dirs["s01"] = None  # a directionless contracted edge in the star
    ct = CombinatorialType(c.graph, 3, dirs)
    with pytest.raises(PreconditionError) as err:
        LocalModel.from_star(ct, "a")
    assert err.value.kind == "zero-direction-local"


def _integer_row_stars():
    """(model, at) pairs for `_residue_rows`: standard local models at mixed
    int and Fraction coordinates, in the columns `_local_rows` gives them,
    and the higher-valent stars of random genus-one curves, in their chain
    columns (`_chain_columns`)."""
    rng = random.Random(3141)
    for r, n in [(1, 2), (2, 3), (3, 4), (4, 6)]:
        bounded = [rng.random() < 0.8 for _ in range(r + 2)]
        coords = [0] + [q if q.denominator > 1 else int(q) for q in random_marked_coords(rng, r + 1)[1:]]
        model = standard_local_model(r, n, coords, bounded=bounded)
        at = {rec.label: (i * n, 1) for i, rec in enumerate(rec for rec in model.slots if rec.bounded)}
        yield model, at
    for _ in range(12):
        c, v, _series = fixtures.random_higher_valent_case(rng)
        ct = contract_image(c)
        try:
            model = LocalModel.from_star(ct, v, random_marked_coords(rng, ct.graph.valence(v) - 1))
        except PreconditionError:
            continue  # an edge at v was contracted to a point
        yield model, residues._chain_columns(model, ct.graph)


def _residue_sums(model, at) -> list[dict]:
    """The residue sums as their definition writes them, in Fractions:
    sum over finite j != k of (a[k,j] + a[j,k]) / (p_k - p_j), with
    a[i,j] = weight_i * w_j(direction_i), for the first m - 1 finite k."""
    finite, p = model.finite, model.coords
    rows = []
    for k in range(len(finite) - 1):
        row = {}
        for j in range(len(finite)):
            if j == k:
                continue
            for src, dst in ((finite[k], finite[j]), (finite[j], finite[k])):
                if dst.label in at:
                    base, sign = at[dst.label]
                    for t, x in enumerate(src.direction):
                        f = Fraction(sign * src.weight * x) / (p[k] - p[j])
                        row[base + t] = row.get(base + t, 0) + f
        rows.append({col: x for col, x in row.items() if x})
    return rows


def test_residue_rows_are_primitive_integer_multiples_of_the_sums():
    stars = list(_integer_row_stars())
    assert len(stars) > 10
    for model, at in stars:
        rows = residues._residue_rows(model, at)
        sums = _residue_sums(model, at)
        assert len(rows) == len(sums) == len(model.finite) - 1
        for row, expected in zip(rows, sums):
            assert all(type(x) is int and x != 0 for x in row.values())
            assert row.keys() == expected.keys()
            if not row:
                continue
            assert gcd(*row.values()) == 1
            col = next(iter(row))
            scale = Fraction(row[col]) / expected[col]
            assert scale > 0 and all(x == scale * expected[j] for j, x in row.items())


def test_residue_rows_depend_on_the_coordinates_up_to_scale():
    # scaling every coordinate by a scales every sum by 1/a: the primitive
    # rows stay, and turn over when a < 0
    for model, at in _integer_row_stars():
        rows = residues._residue_rows(model, at)
        for a in (3, Fraction(2, 7), Fraction(5, 2), -1, Fraction(-4, 3)):
            coords = [a * p for p in model.coords]
            coords = [q if type(q) is int or q.denominator > 1 else int(q) for q in coords]
            scaled = LocalModel(model.slots, coords, model.n, model.vertex)
            assert scaled.coords == tuple(coords)
            assert [type(q) for q in scaled.coords] == [type(q) for q in coords]
            sign = 1 if a > 0 else -1
            assert residues._residue_rows(scaled, at) == [{j: sign * x for j, x in row.items()} for row in rows]


def test_residue_rows_make_no_fraction(monkeypatch):
    stars = list(_integer_row_stars())
    assert any(type(p) is Fraction for model, _at in stars for p in model.coords)
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    rows = [residues._residue_rows(model, at) for model, at in stars]
    monkeypatch.undo()
    assert made == [] and any(rows)


@st.composite
def local_model_docs(draw):
    """A balanced star of valence 3 to 8 in Q^1..Q^3 with random weights,
    bounded flags and distinct marked coordinates (after the pinned 0),
    negative and non-integer ones among them."""
    n = draw(st.integers(1, 3))
    valence = draw(st.integers(3, 8))
    direction = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)
    dirs = [draw(direction) for _ in range(valence - 1)]
    dirs = [[x // gcd(*d) for x in d] for d in dirs]
    weights = [draw(st.integers(1, 3)) for _ in range(valence - 1)]
    total = [-sum(w * d[t] for w, d in zip(weights, dirs)) for t in range(n)]
    assume(any(total))
    content = gcd(*total)
    dirs.append([x // content for x in total])
    weights.append(content)
    coords = draw(
        st.lists(
            st.fractions(-5, 5, max_denominator=4).filter(bool),
            min_size=valence - 2,
            max_size=valence - 2,
            unique=True,
        )
    )
    edges = [
        {"weight": w, "direction": d, "bounded": draw(st.booleans())}
        for w, d in zip(weights, dirs)
    ]
    return {"ambient_dim": n, "edges": edges, "coords": ["0"] + [str(c) for c in coords]}


@settings(max_examples=60, deadline=None)
@given(local_model_docs())
def test_residue_sums_span_the_residue_coefficients(doc):
    # the residue-sum rows and the oracle's coefficient rows span one space
    model = model_from_doc(doc)
    rows, _bounded = residues._local_rows(model)
    expected, nvars = oracles.residue_coefficient_rows(model)
    assert len(rows) == len(expected)
    assert oracles.canonical_span(nvars, rows) == oracles.canonical_span(nvars, expected)
    # the oracle takes dense rows
    dense = [[row.get(j, 0) for j in range(nvars)] for row in rows]
    rank = oracles.matrix_rank(expected)
    assert oracles.matrix_rank(dense) == rank == oracles.matrix_rank(dense + expected)


@pytest.mark.parametrize(
    "seed, count, digest",
    [
        (7, 229, "ec3a19c4d7c29cf7143b51eee7788cd3a0c51ce59eab7dc76a53987f2d1e523e"),
        (1, 40, "898c8d81af36eda4bd0865be302673201514c1e31cf7c6645d778367727e51ef"),
    ],
)
def test_marked_coords_draw_distinct_values_of_the_pool(seed, count, digest):
    # digests recorded before the pool bound was checked: the draws are unchanged
    coords = random_marked_coords(random.Random(seed), count)
    assert coords[0] == 0 and len(set(coords)) == count
    assert set(coords) <= {Fraction(a, b) for a in range(-30, 31) for b in range(1, 7)}
    assert hashlib.sha256(" ".join(map(str, coords)).encode()).hexdigest() == digest


def test_marked_coords_past_the_pool_raise_rather_than_loop():
    # 229 values a/b with |a| <= 30 and 1 <= b <= 6 exist; a subprocess with a
    # timeout fails this test, instead of hanging it, if the draw never ends
    assert len({Fraction(a, b) for a in range(-30, 31) for b in range(1, 7)}) == 229
    probe = (
        "import random\n"
        "from tropctl.randgen import GenerationError, random_marked_coords\n"
        "try:\n    random_marked_coords(random.Random(0), 230)\n"
        "except GenerationError as err:\n    print(err)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0
    assert proc.stdout == "cannot draw 230 distinct coordinates from 229 values\n"

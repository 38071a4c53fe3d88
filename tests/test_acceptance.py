"""Acceptance gate: one test per shipped guarantee, each printing PASS.

Every check here is exact (rational arithmetic, zero tolerance) and runs in
seconds.  Random draws use fixed seeds so failures reproduce.
"""

import random
from fractions import Fraction

import pytest

import fixtures
import oracles
from tropctl.curves import contract_image, replace_star
from tropctl.graphs import Flag
from tropctl.laurent import clusters, phylo_tree, rebase
from tropctl.obstruction import (
    abundancy_map,
    compatible_numbering_space,
    dual_obstruction_chain,
    parameter_dimension,
    reduced_abundancy_map,
)
from tropctl.randgen import (
    GenerationError,
    random_ascending_series,
    random_immersive_curve,
    random_marked_coords,
    random_trivalent_graph,
)
from tropctl.residues import (
    a_system,
    a_values,
    b_system,
    degeneration_compare,
    genus1_loop_criterion,
    standard_local_model,
    xi_map,
)
from tropctl.errors import PreconditionError


def test_criterion_01_numbering_dimension_equals_genus():
    rng = random.Random(101)
    for i in range(200):
        genus = i % 6
        g = random_trivalent_graph(rng, genus)
        assert g.genus() == genus
        dim = compatible_numbering_space(g)["dim"]
        assert dim == genus
        assert oracles.numbering_dimension(g) == genus
    print("ACCEPTANCE 01: PASS")


def test_criterion_02_reference_pair_regression():
    c1 = fixtures.curve(fixtures.gamma1_doc())
    c2 = fixtures.curve(fixtures.gamma2_doc())
    res1 = dual_obstruction_chain(c1)
    res2 = dual_obstruction_chain(c2)
    assert res1["dim"] == 1
    assert res2["dim"] == 0
    expected_perps = [(1, 0, 0), (0, 1, 0), (1, -1, 0)]
    assert len(c1.graph.loop_decomposition) == 3
    assert oracles.chain_perps(c1) == [oracles.canonical_span(3, [target]) for target in expected_perps]
    assert parameter_dimension(c1) == 7
    assert parameter_dimension(c2) == 8
    print("ACCEPTANCE 02: PASS")


def test_criterion_03_genus1_span_corollary():
    rng = random.Random(303)
    for i in range(100):
        n = 3 if i % 2 == 0 else 4
        c = random_immersive_curve(rng, n, 1)
        loop = sorted(c.graph.loop_part)
        span = oracles.span_dimension([c.directions[eid] for eid in loop])
        dim = dual_obstruction_chain(c)["dim"]
        assert dim == n - span
        assert genus1_loop_criterion(c)["dim_h"] == dim
    print("ACCEPTANCE 03: PASS")


def test_criterion_04_abundancy_identity_and_agreement():
    rng = random.Random(404)
    for i in range(100):
        genus = i % 4
        n = 2 + (i % 3)
        c = random_immersive_curve(rng, n, genus)
        dim = dual_obstruction_chain(c)["dim"]
        rank, surjective = abundancy_map(c)
        rrank, _cut = reduced_abundancy_map(c)
        assert dim == (n - 1) * genus - rrank
        assert surjective == (rrank == (n - 1) * genus)
    print("ACCEPTANCE 04: PASS")


def test_criterion_05_local_model_dimension_formula():
    rng = random.Random(505)
    for r in range(1, 6):
        for n in range(r + 1, r + 4):
            for s in range(r + 3):
                for _ in range(20):
                    mask = [False] * (r + 2)
                    for idx in rng.sample(range(r + 2), s):
                        mask[idx] = True
                    coords = random_marked_coords(rng, r + 1)
                    model = standard_local_model(r, n, coords, bounded=mask)
                    dim = a_system(model)["dim"]
                    if s <= 1:
                        assert dim == 0
                    else:
                        assert dim == r * (s - 2) + (n - r - 1) * (s - 1)
    print("ACCEPTANCE 05: PASS")


def binary_shapes(k):
    """All unordered rooted binary tree shapes with k leaves."""
    if k == 1:
        return [None]
    out = []
    for i in range(1, k // 2 + 1):
        left = binary_shapes(i)
        right = binary_shapes(k - i)
        if i == k - i:
            for ai, a in enumerate(left):
                for b in right[ai:]:
                    out.append((a, b))
        else:
            for a in left:
                for b in right:
                    out.append((a, b))
    return out


def label_shape(shape, counter):
    if shape is None:
        counter[0] += 1
        return counter[0]
    return (label_shape(shape[0], counter), label_shape(shape[1], counter))


def test_criterion_06_pair_tree_rank_full():
    expected_counts = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}
    total = 0
    for k in range(2, 9):
        shapes = binary_shapes(k)
        assert len(shapes) == expected_counts[k]
        for shape in shapes:
            tree = label_shape(shape, [0])
            res = b_system(tree)
            assert res["internal_nodes"] == k - 1
            assert res["rank"] == k - 1
            total += 1
    assert total == 47
    print("ACCEPTANCE 06: PASS")


def test_criterion_07_methods_give_equal_subspaces():
    rng = random.Random(707)
    for i in range(100):
        n = 2 + (i % 3)
        c = random_immersive_curve(rng, n)
        chain = dual_obstruction_chain(c)
        xi = xi_map(c)
        # every vertex's residue polynomial, coefficient by coefficient
        residues = oracles.per_vertex_xi(c)
        assert chain["dim"] == xi["dim"] == residues["dim"]
        flags = xi["flag_order"]
        width = len(flags) * n
        zero = tuple(Fraction(0) for _ in range(n))

        def flatten(assignment):
            return tuple(sum((list(assignment.get(f, zero)) for f in flags), []))

        s_chain = oracles.canonical_span(width, [flatten(a) for a in oracles.flag_basis(chain)])
        s_xi = oracles.canonical_span(width, [flatten(a) for a in oracles.flag_basis(xi)])
        s_residues = oracles.canonical_span(width, [flatten(a) for a in residues["basis"]])
        assert s_chain == s_xi == s_residues  # canonical bases: equal iff each contains the other
    print("ACCEPTANCE 07: PASS")


def test_criterion_08_spanning_star_kills_obstructions():
    rng = random.Random(808)
    c = fixtures.curve(fixtures.ex534_doc())
    for _ in range(50):
        coords = random_marked_coords(rng, 3)
        assert xi_map(c, {"V": coords})["dim"] == 0
    crit = genus1_loop_criterion(c)
    assert crit["smoothable"] is True
    assert crit["span_dim"] == 3
    assert crit["dim_h"] == 0
    print("ACCEPTANCE 08: PASS")


def test_criterion_09_obstructed_star_and_resolution():
    rng = random.Random(909)
    c = fixtures.curve(fixtures.ex536_doc())
    configs = [[Fraction(0), Fraction(1), Fraction(2)]]
    configs += [random_marked_coords(rng, 3) for _ in range(10)]
    for coords in configs:
        xi = xi_map(c, {"V": coords})
        assert xi["dim"] == 1
        gen = oracles.flag_basis(xi)[0]
        model = xi["models"]["V"]
        by_label = {
            rec.label: gen[rec.flag] for rec in model.slots if rec.flag in gen
        }
        vals = a_values(model, by_label)
        assert vals[(1, 2)] == 0 and vals[(2, 1)] == 0
        assert vals[(1, 3)] != 0
        assert vals[(1, 3)] == vals[(3, 2)]
        assert vals[(1, 3)] == -vals[(3, 1)]
        assert vals[(1, 3)] == -vals[(2, 3)]
    resolved = replace_star(c, "V", fixtures.EX536_SPLIT, "r")
    assert dual_obstruction_chain(resolved)["dim"] == 2
    print("ACCEPTANCE 09: PASS")


def test_criterion_10_phylo_regression_and_rebase_invariance():
    tree = phylo_tree(fixtures.r7_series())
    fam = clusters(tree)
    assert fam == fixtures.R7_CLUSTERS
    assert frozenset({2, 3, 4, 5}) in fam
    assert frozenset({2, 3, 4}) in fam
    assert frozenset({6, 7, 8}) in fam
    two_subsets = [s for s in fam if s < frozenset({6, 7, 8}) and len(s) == 2]
    assert len(two_subsets) == 1  # caterpillar below {6,7,8}

    rng = random.Random(1010)
    for _ in range(100):
        k = rng.randint(3, 6)
        items = list(enumerate(random_ascending_series(rng, k), start=1))
        base_fam = clusters(phylo_tree(items))
        for label, _s in items:
            rebased = rebase(items, label)
            assert rebased[0][0] == label
            assert clusters(phylo_tree(rebased)) == base_fam
    print("ACCEPTANCE 10: PASS")


def test_criterion_11_semicontinuity_under_degeneration():
    rng = random.Random(1111)
    done = 0
    attempts = 0
    while done < 100:
        attempts += 1
        assert attempts < 500, "too many rejected draws"
        try:
            c, v, series = fixtures.random_higher_valent_case(rng)
            rep = degeneration_compare(c, series)
        except (PreconditionError, GenerationError):
            continue
        assert rep["semicontinuous"] is True
        assert rep["d"] <= rep["d0"]
        assert rep["stabilized"] is True
        done += 1
    print("ACCEPTANCE 11: PASS")


def test_criterion_12_deformation_system_oracle():
    rng = random.Random(1212)
    for i in range(30):
        genus = i % 3
        c = random_immersive_curve(rng, 3, genus)
        assert oracles.deformation_dimension(c) == parameter_dimension(c)
    print("ACCEPTANCE 12: PASS")

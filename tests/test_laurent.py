"""Laurent series order, rebasing, and phylogenetic trees."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropctl.errors import ValidationError
from tropctl.laurent import (
    MAX_EXPONENT,
    LaurentSeries,
    clusters,
    is_strictly_ascending,
    laurent_cmp,
    laurent_greater,
    laurent_less,
    parse_series,
    phylo_tree,
    PhyloLeaf,
    PhyloNode,
    rebase,
)
from tropctl.randgen import random_ascending_series

import fixtures
import oracles


def _s(*terms):
    return LaurentSeries(terms)


def test_series_basics():
    s = _s((-5, 1), (-2, 1))
    assert s.order() == -5
    assert s.coeff(-2) == 1
    assert s.coeff(-3) == 0
    assert not s.is_zero()
    assert LaurentSeries.zero().is_zero()
    # exponent collisions merge; zero coefficients drop out
    assert _s((-1, 1), (-1, -1)).is_zero()
    assert s.evaluate(Fraction(1, 2)) == 32 + 4


def test_order_examples():
    # a deeper second term dominates a shallower one
    a = _s((-5, 1), (-2, 1))
    b = _s((-5, 1), (-3, 1))
    assert laurent_less(a, b)
    assert laurent_greater(b, a)
    assert laurent_cmp(a, b) == -1
    # nonzero series dominate the zero series regardless of sign
    assert laurent_greater(_s((-4, -2)), LaurentSeries.zero())
    # equal series compare as equal
    assert laurent_cmp(a, a) == 0


def test_incomparable_pair():
    # same order, different leading coefficients: neither dominates
    a = _s((-5, 1))
    b = _s((-5, 2))
    assert not laurent_less(a, b) and not laurent_greater(a, b)
    with pytest.raises(ValidationError):
        laurent_cmp(a, b)


def test_ascending_chain():
    fam = [lab_s for _lab, lab_s in fixtures.r7_series()]
    assert is_strictly_ascending(fam)
    fam2 = [lab_s for _lab, lab_s in fixtures.rebase5_series()]
    assert is_strictly_ascending(fam2)


def test_series_take_int_exponents_and_int_or_fraction_coefficients():
    # a float would make evaluate() return a float: 0.5 * (1/2) == 0.25
    bad = [(1, 0.5), (1, True), (1, "1/2"), (1, None), (0.0, 1), (True, 1), (Fraction(1), 1)]
    for term in bad:
        with pytest.raises(ValidationError) as err:
            LaurentSeries([term])
        assert err.value.kind == "bad-series"
    s = LaurentSeries([(1, Fraction(1, 2)), (-2, 3)])
    assert s.evaluate(Fraction(1, 2)) == Fraction(49, 4)
    assert type(s.evaluate(Fraction(1, 2))) is Fraction


def test_parse_serialize_round_trip():
    s = _s((-5, Fraction(3, 2)), (-1, -2))
    assert parse_series([[-5, "3/2"], [-1, -2]]) == s
    with pytest.raises(ValidationError):
        parse_series([["-1", "1"]])  # exponents must be integers, not strings
    assert parse_series([[-1, 2], [0, "1/3"]]) == _s((-1, 2), (0, Fraction(1, 3)))
    for coeff in (0.1, True, None, [1]):  # coefficients are ints or "p/q" strings
        with pytest.raises(ValidationError) as err:
            parse_series([[-1, coeff]])
        assert err.value.kind == "bad-series"


def test_parse_series_bounds_exponents():
    ok = parse_series([[-MAX_EXPONENT, 1], [MAX_EXPONENT, "1/2"]])
    assert ok == _s((-MAX_EXPONENT, 1), (MAX_EXPONENT, Fraction(1, 2)))
    for e in (-MAX_EXPONENT - 1, MAX_EXPONENT + 1, 10**7):
        with pytest.raises(ValidationError) as err:
            parse_series([[e, 1]])
        assert err.value.kind == "limit"


def test_phylo_r7_frozen_tree():
    tree = phylo_tree(fixtures.r7_series())
    fam = clusters(tree)
    assert fam == fixtures.R7_CLUSTERS
    # the deepest separation in the caterpillar group happens at order -15
    assert isinstance(tree, PhyloNode)
    assert tree.depth == -20


def test_phylo_depths_are_orders():
    tree = phylo_tree(fixtures.r7_series())

    def walk(t):
        if isinstance(t, PhyloLeaf):
            return
        assert isinstance(t.depth, int)
        walk(t.first)
        walk(t.second)

    walk(tree)


def test_phylo_rejects_non_ascending():
    items = [(1, _s((-5, 1))), (2, LaurentSeries.zero())]
    with pytest.raises(ValidationError):
        phylo_tree(items)


def test_rebase_frozen_family():
    items = fixtures.rebase5_series()
    base_fam = clusters(phylo_tree(items))
    assert base_fam == fixtures.REBASE5_CLUSTERS
    for lab in [1, 2, 3, 4, 5]:
        moved = rebase(items, lab)
        labels = [l for l, _s2 in moved]
        assert labels[0] == lab  # the base has the zero series, hence smallest
        assert clusters(phylo_tree(moved)) == fixtures.REBASE5_CLUSTERS


def test_rebase_unknown_label():
    with pytest.raises(ValidationError):
        rebase(fixtures.rebase5_series(), 99)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=3, max_value=6))
def test_random_families_rebase_invariant(seed, count):
    rng = random.Random(seed)
    fam = random_ascending_series(rng, count)
    items = list(enumerate(fam, start=1))
    reference = clusters(phylo_tree(items))
    for lab, _series in items:
        assert clusters(phylo_tree(rebase(items, lab))) == reference


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_ascending_families_are_chains(seed):
    rng = random.Random(seed)
    fam = random_ascending_series(rng, rng.randint(2, 7))
    assert fam[0].is_zero()
    assert is_strictly_ascending(fam)
    # total comparability plus transitivity of the sort order
    for i in range(len(fam)):
        for j in range(i + 1, len(fam)):
            assert laurent_less(fam[i], fam[j])


# -- differential checks against tests/oracles.py ------------------------------

# small exponent ranges and few coefficients, so that equal, comparable and
# incomparable pairs all come up often
_terms = st.lists(
    st.tuples(st.integers(-6, 2), st.sampled_from([-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2)])),
    max_size=5,
)
_series = _terms.map(LaurentSeries)


def _outcome(f, *args):
    """f's result, or the kind of the ValidationError it raises."""
    try:
        return f(*args)
    except ValidationError as err:
        return ("raised", err.kind)


@settings(max_examples=300, deadline=None)
@given(_series, _series, _terms)
def test_order_matches_the_difference_series(p, q, tail):
    r = LaurentSeries(p.terms + tuple(tail))  # agrees with p up to tail's lowest exponent
    for a, b in [(p, q), (q, p), (p, p), (p, r), (r, p)]:
        assert _outcome(laurent_cmp, a, b) == _outcome(oracles.series_cmp, a, b)
        assert laurent_greater(a, b) == oracles.series_greater(a, b)
        assert laurent_less(a, b) == oracles.series_greater(b, a)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=9))
def test_phylo_tree_matches_the_runs_reference(seed, count):
    rng = random.Random(seed)
    items = list(enumerate(random_ascending_series(rng, count), start=1))
    for family in [items] + [rebase(items, lab) for lab, _s in items]:
        assert phylo_tree(family) == oracles.phylo_by_runs(family)
    rng.shuffle(items)  # usually no longer ascending
    assert _outcome(phylo_tree, items) == _outcome(oracles.phylo_by_runs, items)


@settings(max_examples=200, deadline=None)
@given(st.lists(_series, max_size=5))
def test_phylo_tree_of_any_family_matches_the_runs_reference(family):
    items = list(enumerate(family))
    assert _outcome(phylo_tree, items) == _outcome(oracles.phylo_by_runs, items)

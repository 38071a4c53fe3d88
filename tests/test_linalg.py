"""Exact linear algebra: reduced echelon forms, ranks and canonical kernel bases."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tropctl import residues
from tropctl.errors import ValidationError
from tropctl.inputs import MAX_BITS, parse_rational, rationals as read_rationals
from tropctl.laurent import LaurentSeries
from tropctl.linalg import (
    content_and_primitive,
    echelon,
    is_primitive,
    kernel,
    rank,
    residual,
    row_blocks,
)

import oracles


def dot(dense_row, sparse_row):
    return sum(Fraction(dense_row[j]) * x for j, x in sparse_row.items())


def echelon_basis(ncols, rows):
    """The canonical basis of the span of rows read off `echelon`: each
    reduced integer row divided by its pivot entry, in pivot order."""
    return tuple(
        {j: Fraction(x, row[p]) for j, x in row.items()} for p, row in sorted(echelon(ncols, rows).items())
    )


rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=6
)


def small_matrices(max_rows=5, max_cols=5):
    return st.integers(min_value=1, max_value=max_cols).flatmap(
        lambda c: st.lists(
            st.lists(rationals, min_size=c, max_size=c), min_size=1, max_size=max_rows
        )
    )


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("0.5") == Fraction(1, 2)  # decimal strings stay exact
    with pytest.raises(ValueError):
        parse_rational(5)  # JSON rationals must be strings
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("abc")


# strings near the edges of what Fraction accepts: signs, surrounding and
# Unicode whitespace, "_" separators, ASCII and Arabic-Indic digits,
# decimals, "p/q", exponents, and junk
_ws = st.sampled_from(["", " ", "\t\n", "\u2000", "\x1c"])
_digits = st.one_of(
    st.from_regex(r"[0-9\u0660-\u0669]{1,3}(_[0-9]{1,2})?", fullmatch=True),
    st.text(alphabet="0123456789_\u0663", max_size=4),
)
_number_like = st.builds(
    "".join,
    st.tuples(
        _ws,
        st.sampled_from(["", "+", "-", "+-"]),
        _digits,
        st.sampled_from(["", ".", "/", " / ", "e", "E"]),
        _digits,
        st.sampled_from(["", "e3", "E-2", "x"]),
        _ws,
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_number_like, st.text(max_size=8)))
@example("1/0")
@example(" -1_000/3 ")
@example("\u0661\u0662\u0663")
@example("-0.5e1")
@example("nan")
def test_parse_rational_agrees_with_fraction(text):
    try:
        expected = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        expected = None
    if expected is None or "e" in text or "E" in text:
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_rational(text)
        return
    try:
        int(text.strip())  # int strips less than str.strip: not "\x1c"
        kind = int
    except ValueError:
        kind = Fraction
    q = parse_rational(text)
    assert type(q) is kind
    assert q == expected


def _rational_by_parse_rational(text):
    """One position entry as `inputs.rationals` read it before its fast
    path: parse_rational, then the bit bound."""
    try:
        q = parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError("bad-rational", f"vertex v position: {exc}", vertex="v") from exc
    bits = max(Fraction(q).numerator.bit_length(), Fraction(q).denominator.bit_length())
    if bits > MAX_BITS:
        raise ValidationError(
            "limit", f"vertex v position: a number of {bits} bits exceeds the maximum {MAX_BITS}", vertex="v"
        )
    return q


def _reading(read, items):
    """The (type, value) pairs read, or the error raised, as comparable data."""
    try:
        return [(type(q), q) for q in read(items)]
    except ValidationError as err:
        return err.kind, err.message, err.context


_bound_strings = st.sampled_from(
    [str(2**40 - 1), str(-(2**40 - 1)), str(2**40), str(-(2**40)), f" +{2**40 - 1} ", f"{2**40}/1", f"1/{2**40}"]
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            _number_like,
            _bound_strings,
            st.sampled_from([" 5 ", "\x1c5", "1_0", "+4", "\u0663", "\u0661\u0662", "4/2", "3/4", "-0.5", "junk", "1/0"]),
            st.sampled_from([5, None, 1.5, True, ["1"]]),
            st.text(max_size=4),
        ),
        max_size=4,
    )
)
@example(["1", "2" * 5000])
def test_rationals_reads_as_parse_rational_does(items):
    """The int fast path of `inputs.rationals` gives the values, types and
    first error of the route through parse_rational and the bit bound."""
    assert _reading(lambda xs: read_rationals(xs, "position", "v"), items) == _reading(
        lambda xs: [_rational_by_parse_rational(x) for x in xs], items
    )


def test_rational_str_round_trip():
    for q in [Fraction(3, 4), Fraction(-2), Fraction(0), Fraction(11, 3), 7, -2**70]:
        assert parse_rational(str(q)) == q


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.integers(-(2**70), 2**70),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
))
def test_str_is_the_rational_format(q):
    # reports print rationals with str, which must keep the "p/q" or "p" format
    assert str(q) == oracles.rational_str(q)
    assert parse_rational(str(q)) == q


def test_rref_known_matrix():
    rows = [[1, 2, 3], [2, 4, 6], [1, 1, 1]]
    # the reduced echelon rows, pivots in columns 0 and 1, as integer rows
    assert echelon(3, rows) == {0: {0: 1, 2: -1}, 1: {1: 1, 2: 2}}
    assert rank(3, rows) == 2
    null = kernel(3, rows)
    assert null == ({0: 1, 1: -2, 2: 1},)
    (k,) = null
    assert [dot(r, k) for r in rows] == [0, 0, 0]
    # the annihilator of the kernel is the span of the rows, in canonical form
    assert kernel(3, null) == ({0: 1, 2: -1}, {1: 1, 2: 2}) == oracles.canonical_span(3, rows)


def test_kernel_of_zero_and_full_rank():
    assert len(kernel(2, [[0, 0]])) == 2
    assert len(kernel(2, [])) == 2
    assert kernel(2, [[1, 0], [0, 1]]) == ()


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rank_nullity_and_kernel_membership(rows):
    cols = len(rows[0])
    r = rank(cols, rows)
    null = kernel(cols, rows)
    assert r + len(null) == cols
    for b in null:
        assert all(dot(row, b) == 0 for row in rows)
    # the independent oracle agrees on both numbers
    assert r == oracles.matrix_rank(rows)
    assert len(null) == oracles.nullity(rows, cols)


# about one entry in three nonzero
sparse_entries = st.integers(0, 2).flatmap(lambda k: rationals if k == 0 else st.just(Fraction(0)))


@st.composite
def sparse_matrices(draw, max_rows=8, max_cols=8):
    ncols = draw(st.integers(min_value=1, max_value=max_cols))
    row = st.lists(sparse_entries, min_size=ncols, max_size=ncols)
    return ncols, draw(st.lists(row, min_size=1, max_size=max_rows))


@settings(max_examples=80, deadline=None)
@given(sparse_matrices(), st.data())
def test_elimination_matches_oracle_on_dense_and_sparse_rows(matrix, data):
    ncols, rows = matrix
    reduced, _pivots = oracles.row_reduce(rows)
    expected = oracles.canonical_span(ncols, rows)
    basis = echelon_basis(ncols, rows)
    assert basis == expected
    assert tuple(row_blocks(b, ncols)[0] for b in basis) == tuple(tuple(r) for r in reduced if any(r))
    # the same rows, shuffled, as {column: value} dicts that keep some zeros
    order = data.draw(st.permutations(range(len(rows))))
    shuffled = [
        {j: x for j, x in enumerate(rows[i]) if x or data.draw(st.booleans())} for i in order
    ]
    assert echelon_basis(ncols, shuffled) == expected
    null = kernel(ncols, shuffled)
    assert null == kernel(ncols, rows)
    assert len(null) == oracles.nullity(rows, ncols)
    for k in null:
        for r in rows:
            assert dot(r, k) == 0


def assert_canonical_basis(ncols, rows):
    """echelon(ncols, rows) holds, for each pivot p, a primitive integer row
    whose lowest column is p, positive there, and zero in every other
    pivot column; divided by its pivot entries it is the oracle's reduced
    echelon form.  kernel(ncols, rows) kills every row, and its own kernel
    is that form again, with `Fraction` values and pivots exactly 1.
    Returns the canonical basis."""
    kept = echelon(ncols, rows)
    for p, row in kept.items():
        assert min(row) == p and row[p] > 0
        assert all(type(x) is int for x in row.values()) and math.gcd(*row.values()) == 1
        assert not set(row) & set(kept) - {p}
    expected = oracles.canonical_span(ncols, rows)
    assert echelon_basis(ncols, rows) == expected
    null = kernel(ncols, rows)
    for k in null:
        assert all(dot(r, k) == 0 for r in rows)
    span = kernel(ncols, null)
    assert span == expected
    for b in span:
        assert all(type(x) is Fraction for x in b.values())
        assert b[min(b)] == 1
    return expected


# numerators and denominators up to about 2**70, as ints or Fractions
wide_rationals = st.one_of(
    st.integers(-(2**70), 2**70),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
)


@st.composite
def wide_sparse_matrices(draw, max_rows=6, max_cols=7):
    """Sparse matrices of wide entries, with zero rows and repeated rows."""
    ncols = draw(st.integers(min_value=1, max_value=max_cols))
    entry = st.integers(0, 2).flatmap(lambda k: wide_rationals if k == 0 else st.just(0))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=max_rows))
    rows += [[0] * ncols] * draw(st.integers(0, 2))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    return ncols, rows


@settings(max_examples=100, deadline=None)
@given(wide_sparse_matrices(), st.randoms(use_true_random=False))
def test_fraction_free_elimination_gives_the_canonical_basis(matrix, rng):
    ncols, rows = matrix
    span = assert_canonical_basis(ncols, rows)
    shuffled = [{j: x for j, x in enumerate(r) if x} for r in rows]
    rng.shuffle(shuffled)
    assert echelon_basis(ncols, shuffled) == span
    assert kernel(ncols, kernel(ncols, shuffled)) == span


@settings(max_examples=150, deadline=None)
@given(wide_sparse_matrices(), st.integers(0, 8), st.randoms(use_true_random=False))
def test_rank_and_residuals_modulo_a_reduced_set(matrix, split, rng):
    ncols, rows = matrix
    assert rank(ncols, rows) == oracles.matrix_rank(rows) == ncols - len(kernel(ncols, rows))
    rows = list(rows)
    rng.shuffle(rows)
    assert len(echelon(ncols, rows[:split])) == oracles.matrix_rank(rows[:split])
    fixed, new = [[{j: x for j, x in enumerate(r) if x} for r in part] for part in (rows[:split], rows[split:])]
    kept = echelon(ncols, fixed)
    residuals = [residual(row, kept) for row in new]
    for res in residuals:
        assert not set(res) & set(kept)
        assert all(type(x) is int and x for x in res.values())
    assert len(kept) + rank(ncols, residuals) == rank(ncols, rows)
    # a residual is empty exactly when its row lies in the span of the fixed rows
    for row, res in zip(new, residuals):
        assert (not res) == (rank(ncols, fixed + [row]) == len(kept))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda c: st.lists(st.lists(st.integers(0, 2).flatmap(
            lambda k: st.integers(-(2**70), 2**70) if k == 0 else st.just(0)
        ), min_size=c, max_size=c), min_size=1, max_size=7)
    ),
    st.integers(0, 7),
)
def test_integer_rows_reduce_as_the_same_rows_in_fractions(rows, split):
    """The integer intake of `residual` (no rescaling) gives the rank,
    kernel, echelon form and residuals that the same rows written as
    Fractions give."""
    ncols = len(rows[0])
    as_fractions = [[Fraction(x) for x in row] for row in rows]
    assert rank(ncols, rows) == rank(ncols, as_fractions)
    assert kernel(ncols, rows) == kernel(ncols, as_fractions)
    kept = echelon(ncols, rows[:split])
    assert kept == echelon(ncols, as_fractions[:split])
    for row, frow in zip(rows[split:], as_fractions[split:]):
        ints, fracs = ({j: x for j, x in enumerate(r)} for r in (row, frow))
        res = residual(ints, kept)
        assert res == residual(fracs, kept)
        assert all(type(x) is int and x for x in res.values())


sparse_nonzero = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)])


@st.composite
def block_diagonal_systems(draw):
    """(ncols, rows, block of each column): 20 to 60 sparse rows in 5 to 15
    blocks of 3 to 6 columns each, the shape of a flag system, whose blocks
    are its bouquets.  The blocks' columns interleave and their rows are
    shuffled together.  A block may carry a chain of rows
    {c0, c1, c2}, {c1, c2}, {c2, c3}, ... over its sorted columns, kept in
    that order: each chain row fills its last column into the kept rows of
    its block, and the second cancels c2 from the first, which leaves the
    first row with column c2 no longer nonzero for the third."""
    blocks = draw(st.integers(5, 15))
    widths = [draw(st.integers(3, 6)) for _ in range(blocks)]
    columns = draw(st.permutations(range(sum(widths))))
    owned, start = [], 0
    for w in widths:
        owned.append(sorted(columns[start : start + w]))
        start += w
    total = draw(st.integers(20, 60))
    chains = []
    for c in owned:
        chain = [{c[0]: 1, c[1]: 1, c[2]: 1}, {c[1]: 1, c[2]: 1}]
        chain += [{c[i]: draw(sparse_nonzero), c[i + 1]: draw(sparse_nonzero)} for i in range(2, len(c) - 1)]
        if len(chain) + sum(map(len, chains)) <= total and draw(st.booleans()):
            chains.append(chain)
    rows = [row for chain in chains for row in chain]
    while len(rows) < total:
        c = owned[draw(st.integers(0, blocks - 1))]
        picked = draw(st.lists(st.sampled_from(c), min_size=1, max_size=len(c), unique=True))
        rows.append({j: draw(sparse_nonzero) for j in picked})
    # shuffle, then put each chain's rows back in chain order on the places they took
    order = draw(st.permutations(range(len(rows))))
    shuffled = [rows[i] for i in order]
    offset = 0
    for chain in chains:
        places = sorted(order.index(offset + k) for k in range(len(chain)))
        for place, row in zip(places, chain):
            shuffled[place] = row
        offset += len(chain)
    block_of = {j: b for b, c in enumerate(owned) for j in c}
    return len(columns), shuffled, block_of


@settings(max_examples=60, deadline=None)
@given(block_diagonal_systems(), st.integers(0, 60))
def test_elimination_of_block_diagonal_systems_with_fill_in(system, split):
    ncols, rows, block_of = system
    assert_canonical_basis(ncols, [[r.get(j, 0) for j in range(ncols)] for r in rows])
    kept = echelon(ncols, rows)
    # each reduced row lies in one block
    assert all(len({block_of[j] for j in row}) == 1 for row in kept.values())
    fixed = echelon(ncols, rows[:split])
    residuals = [residual(row, fixed) for row in rows[split:]]
    for res in residuals:
        assert not set(res) & set(fixed)
        assert all(type(x) is int and x for x in res.values())
    assert len(fixed) + rank(ncols, residuals) == len(kept)


def oracle_kernel_basis(ncols, rows):
    """The canonical basis of the solution space from the oracle: the
    reduced echelon form of its one-vector-per-free-column null basis."""
    return oracles.canonical_span(ncols, oracles.nullspace(rows, ncols))


@settings(max_examples=150, deadline=None)
@given(wide_sparse_matrices(), st.randoms(use_true_random=False))
def test_kernel_is_the_canonical_basis_of_the_oracle_null_space(matrix, rng):
    ncols, rows = matrix
    expected = oracle_kernel_basis(ncols, rows)
    null = kernel(ncols, rows)
    assert type(null) is tuple and all(type(b) is dict for b in null)
    assert null == expected
    assert null == oracles.canonical_span(ncols, null)
    for b in null:
        assert all(type(x) is Fraction for x in b.values())
        assert b[min(b)] == 1
        assert list(b) == sorted(b)
    shuffled = [{j: x for j, x in enumerate(r) if x} for r in rows]
    rng.shuffle(shuffled)
    assert kernel(ncols, shuffled) == expected


@pytest.mark.parametrize("ncols", [1, 2, 5])
def test_kernel_of_no_rows_zero_rows_and_full_rank(ncols):
    identity = tuple({j: Fraction(1)} for j in range(ncols))
    assert kernel(ncols, []) == identity == oracle_kernel_basis(ncols, [])
    assert kernel(ncols, [{}, [0] * ncols]) == identity
    assert kernel(ncols, [[Fraction(j + 1, 3) ** i for j in range(ncols)] for i in range(ncols)]) == ()
    if ncols == 1:
        assert kernel(1, [[2**70]]) == ()
        assert kernel(1, [[Fraction(2**70 + 1, 2**69)], [0]]) == ()


def test_canonical_basis_of_a_six_valent_star_at_a_small_t():
    # marked points from series evaluated at t = 10^-6, as `compare` makes
    # them: residue rows with entries of hundreds of bits.  Such coordinates
    # exceed the bit bound of input files, so the model takes them directly.
    t = Fraction(1, 10**6)
    series = [[(-2, 3), (1, -1)], [(-2, 3), (0, 5)], [(-1, -7), (3, 2)], [(0, 1), (1, 1), (2, 1)]]
    directions = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [2, -1, 3], [-4, -2, -5]]
    star = residues.model_from_doc(
        {
            "ambient_dim": 3,
            "edges": [{"weight": 2 if i == 1 else 1, "direction": d} for i, d in enumerate(directions)],
        }
    )
    coords = [Fraction(0)] + [LaurentSeries(terms).evaluate(t) for terms in series]
    model = residues.LocalModel(star.slots, coords, 3)
    rows, bounded = residues._local_rows(model)
    ncols = len(bounded) * 3
    span = assert_canonical_basis(ncols, [[r.get(j, 0) for j in range(ncols)] for r in rows])
    assert echelon_basis(ncols, rows[::-1]) == span
    assert max(abs(x.numerator).bit_length() for b in span for x in b.values()) > 100


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=0, max_size=3))
def test_annihilator_involution(vectors):
    ann = kernel(4, vectors)
    assert rank(4, vectors) + len(ann) == 4
    assert kernel(4, ann) == oracles.canonical_span(4, vectors)
    assert kernel(4, kernel(4, ann)) == ann
    for a in ann:
        for v in vectors:
            assert dot(v, a) == 0


def test_subspace_equality_ignores_basis_choice():
    # equal spans have equal canonical rows, from echelon and from kernel
    a, b, c = [(1, 0, 0), (0, 1, 0)], [(1, 1, 0), (1, -1, 0)], [(1, 0, 0), (0, 0, 1)]
    assert echelon_basis(3, a) == echelon_basis(3, b) == oracles.canonical_span(3, a)
    assert echelon_basis(3, a) != echelon_basis(3, c)
    assert kernel(3, a) == kernel(3, b) == ({2: 1},)
    assert kernel(3, a) != kernel(3, c)


def test_equal_subspaces_have_equal_bases():
    a = echelon_basis(2, [(1, 1)])
    assert a == echelon_basis(2, [(2, 2)]) == ({0: 1, 1: 1},)
    assert echelon_basis(2, [(1, 1), (0, 0), (3, 3)]) == a == kernel(2, kernel(2, [(2, 2)]))
    assert rank(2, [(1, 2), (2, 4)]) == 1
    assert kernel(2, [(1, 2), (2, 4)]) == kernel(2, [(-3, -6)]) == ({0: 1, 1: Fraction(-1, 2)},)


def test_content_and_primitive():
    assert content_and_primitive((Fraction(2, 3), Fraction(-4, 3))) == (Fraction(2, 3), (1, -2))
    assert content_and_primitive((6, -9, 3)) == (3, (2, -3, 1))
    assert content_and_primitive((Fraction(6), 0)) == (6, (1, 0))
    assert is_primitive((2, -3, 1))
    assert not is_primitive((2, 4))
    # a non-integral entry makes a vector not primitive
    assert not is_primitive((Fraction(3, 2), 1))
    assert not is_primitive((Fraction(-1, 2), Fraction(3, 2)))
    assert not is_primitive((Fraction(1, 2), 0))
    assert not is_primitive((0, 0))
    # an integral Fraction counts as its integer
    assert is_primitive((Fraction(3), Fraction(-2)))
    assert not is_primitive((Fraction(4), 6))
    assert is_primitive((Fraction(6, 2), 1))


def fraction_primitive(v):
    """The primitive part, written with Fraction arithmetic."""
    fracs = [Fraction(x) for x in v]
    scale = 1
    for f in fracs:
        scale = scale * f.denominator // math.gcd(scale, f.denominator)
    ints = [int(f * scale) for f in fracs]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(min_value=-(2**70), max_value=2**70),
            st.fractions(min_value=-(2**70), max_value=2**70, max_denominator=2**70),
            st.just(0),
            st.just(Fraction(0)),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_content_and_primitive_matches_a_fraction_reference(v):
    if all(x == 0 for x in v):
        with pytest.raises(ValueError):
            content_and_primitive(v)
        return
    c, p = content_and_primitive(v)
    assert all(x == c * y for x, y in zip(v, p, strict=True))
    assert p == fraction_primitive(v)
    assert all(type(x) is int for x in p)
    assert is_primitive(p) and math.gcd(*p) == 1
    assert c > 0
    assert (type(c) is int) == all(Fraction(x).denominator == 1 for x in v)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.lists(rationals, max_size=12))
def test_row_blocks_read_back_the_dense_row(n, dense):
    dense += [Fraction(0)] * (-len(dense) % n)
    blocks = row_blocks({j: x for j, x in enumerate(dense) if x}, n)
    assert all(len(b) == n and any(b) for b in blocks.values())
    assert [x for i in range(len(dense) // n) for x in blocks.get(i, (0,) * n)] == dense

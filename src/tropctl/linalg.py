"""Exact sparse linear algebra over the rationals.

Values are ints or `fractions.Fraction`s, always exact; no floating point.
A linear system in Q^n is its rows, and four functions answer what is
asked of it: `echelon(n, rows)` is its reduced echelon form, `residual`
reduces one more row modulo that form, `rank(n, rows)` is its rank, with
no basis built, and `kernel(n, rows)` is the canonical basis of its
solution space.  A row is a {column: value} dict that lists only its
nonzero entries, from the row builders through elimination to the kernel
basis; `echelon`, `rank` and `kernel` also take dense vectors, which they
turn into such dicts.  `row_blocks` reads a row as the dense n-covectors
of the blocks where it is nonzero, for the per-flag bases.

Elimination is sparse, incremental and fraction-free in `_rref`, the one
eliminator, reached from `echelon` and `kernel`: rows are cleared of
denominators on the way in, and every step is integer arithmetic with the
row content divided out.  The rows built in this package are mostly
integer rows already, and a row of exact ints is taken as it is, with no
denominators read and no rescaling.  `echelon` returns those integer rows
and `rank` counts them.  `kernel` reduces the rows once, with the column order
reversed, and reads the canonical basis of the solution space off the same
reduced rows, each entry one `Fraction` made by dividing by a row's pivot,
so a kernel costs one elimination and not two.  The reduced echelon form
is unique, so no basis depends on how it was computed.  `_rref` keeps an
index from each column to the kept rows that may be nonzero there, so a
new row visits only the kept rows it changes: the cost of an elimination
follows its fill-in, not the number of kept rows times the number of rows.

`_rref` reduces each incoming row modulo the rows kept so far with
`residual`, and a caller whose rows split into a fixed part and a part that
varies does the same: with the fixed rows reduced once by `echelon`,
rank(fixed + new) = len(echelon(fixed)) + rank(residuals of the new rows).
The systems built elsewhere in this package are large and
sparse: a genus-40 loop chain in R^3 gives a 120x120 flag system with
about 2% of its entries nonzero, because every row is a condition on one
edge or at one junction and touches only the chains there, and it is
block-diagonal, one block per bouquet of loops.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Q0 = Fraction(0)
Q1 = Fraction(1)


def content_and_primitive(v: Sequence) -> tuple[int | Fraction, tuple[int, ...]]:
    """Content and primitive part of a nonzero vector of ints and Fractions:
    (c, p) with v = c * p, p a primitive integer vector and c > 0.  c is an
    int when every entry of v is an integer, else a Fraction.

    One lcm of the denominators and one gcd; an integer vector, whose lcm
    is 1, is read as it is.  Raises ValueError on the zero vector.
    """
    d = lcm(*[x.denominator for x in v])
    if d == 1:
        ints = [x.numerator for x in v]
    else:
        ints = [x.numerator * (d // x.denominator) for x in v]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return (g if d == 1 else Fraction(g, d)), tuple([x // g for x in ints])


def is_primitive(v: Sequence[int | Fraction]) -> bool:
    """Whether v is an integer vector whose entries have gcd 1.  An entry
    that is not an integer, such as Fraction(3, 2), makes it not primitive;
    an integral Fraction counts as its integer."""
    return lcm(*[x.denominator for x in v]) == 1 and gcd(*[x.numerator for x in v]) == 1


def _rref(rows: Iterable[dict]) -> dict:
    """The reduced echelon form of the rows, as {pivot: integer row}.

    Fraction-free incremental Gauss-Jordan on Python ints.  Each incoming row
    is reduced against the pivot rows kept so far (`residual`), made
    primitive with a positive entry on its lowest column, its pivot, and
    that column is cleared from the kept rows, so they stay fully reduced.
    A row that reduces to zero is dropped.  Each kept row is then a positive
    multiple of a row of the reduced echelon form, which is unique; dividing
    it by its pivot entry, as `kernel` does, gives that row whatever the
    order of the rows.

    The kept rows that hold the new pivot column are found through an index,
    {column: pivots of the kept rows that may be nonzero there}: a row's
    pivot joins the entry of each of its columns when it is kept, and when
    clearing a column from it fills in columns of the new row.  An entry may
    name a row whose column has since cancelled, so each row it names is
    checked before it is cleared.  So a new row visits only the rows it
    changes, and the cost follows the fill-in, not the number of kept rows
    times the number of rows: on a block-diagonal system, a row touches only
    the kept rows of its own block.
    """
    kept = {}  # pivot column -> primitive integer row, pivot > 0, zero in every other pivot column
    holders = defaultdict(set)  # column -> pivots of the kept rows that may be nonzero in it
    for row in rows:
        row = residual(row, kept)
        if not row:
            continue
        p = min(row)
        g = gcd(*row.values()) * (1 if row[p] > 0 else -1)
        row = {j: x // g for j, x in row.items()}
        for q in holders.pop(p, ()):
            other = kept[q]
            if p in other:
                _eliminate(other, p, row)
                for j in row:
                    holders[j].add(q)
        kept[p] = row
        for j in row:
            holders[j].add(p)
    return kept


def residual(row: dict, kept: dict) -> dict:
    """A sparse row modulo reduced rows `kept` ({pivot: integer row}, as
    `_rref` and `echelon` return them): an integer row, zero in every pivot
    column of kept, that differs from a positive multiple of row by a
    combination of the kept rows.  It is empty exactly when row lies in
    their span.

    A row of exact ints is copied without its zeros; another row is scaled
    by the lcm of its denominators.  Then each pivot column where it is
    nonzero is cleared with that pivot's row (`_eliminate`).
    The kept rows are zero in each other's pivot columns, so clearing one
    pivot column sets no other, and one pass over the row's entries clears
    them all.
    """
    for value in row.values():
        if type(value) is not int:
            d = lcm(*[x.denominator for x in row.values()])
            row = {j: x.numerator * (d // x.denominator) for j, x in row.items() if x}
            break
    else:
        row = {j: x for j, x in row.items() if x}
    for p in [j for j in row if j in kept]:
        _eliminate(row, p, kept[p])
    return row


def _eliminate(target: dict, p: int, source: dict):
    """Clear column p of the integer row target with source, whose entry at p
    is positive: target := a * target - c * source, then divide out the
    content.  Entries that cancel are removed; a positive entry of target
    stays positive in every column where source is zero."""
    g = gcd(source[p], target[p])
    a, c = source[p] // g, target[p] // g
    if a != 1:
        for j in target:
            target[j] *= a
    for j, x in source.items():
        y = target.get(j, 0) - c * x
        if y:
            target[j] = y
        else:
            del target[j]
    g = gcd(*target.values())
    if g > 1:
        for j in target:
            target[j] //= g


def row_blocks(row: dict, n: int) -> dict[int, tuple]:
    """The blocks of n consecutive columns in which a sparse row has a
    nonzero, as {i: entries i * n .. i * n + n - 1 as a dense tuple}.

    One pass over the row's nonzeros; a block that is absent is zero.  For a
    row in Q^n, block 0 is the whole row.
    """
    blocks = {}
    for j, x in row.items():
        i, k = divmod(j, n)
        block = blocks.get(i)
        if block is None:
            block = blocks[i] = [Q0] * n
        block[k] = x
    return {i: tuple(block) for i, block in blocks.items()}


def kernel(ambient: int, vectors: Iterable[dict | Sequence[Fraction]]) -> tuple[dict, ...]:
    """The canonical basis of the solution space {x : v . x = 0 for every v
    in vectors} in Q^ambient, from one elimination: a tuple of sparse
    {column: Fraction} rows, whose length is the nullity.

    The rows are reduced with column j keyed as ambient - 1 - j, so each
    reduced row has its pivot at its highest column q, where it is 1, and is
    zero in every other pivot column.  For each free column f the vector
    e_f - sum over q of row_q[f] * e_q is then orthogonal to every reduced
    row, so to every input row, and there are ambient - rank of them.  Its
    lowest column is f, where it is 1, because row_q[f] != 0 only for
    f < q, and it is zero in every other free column.  So these vectors are
    the rows of a reduced echelon form of the solution space, with pivots at
    the free columns, and that form is unique: equal solution spaces give
    equal tuples.  The rows are in pivot order, each written in increasing
    column order.
    """
    last = ambient - 1
    kept = _rref({last - j: x for j, x in row.items()} for row in _sparse_rows(ambient, vectors))
    null = {f: {f: Q1} for f in range(ambient)}
    for key in sorted(kept, reverse=True):  # pivot columns q in increasing order
        row = kept[key]
        pivot, q = row[key], last - key
        del null[q]
        for k, x in row.items():
            if k != key:
                null[last - k][q] = Fraction(-x, pivot)
    return tuple(null.values())


def echelon(ambient: int, vectors: Iterable[dict | Sequence[Fraction]]) -> dict:
    """The reduced echelon form of the vectors in Q^ambient as `_rref` gives
    it, {pivot: integer row}, for reducing further rows with `residual`.
    Its length is the rank."""
    return _rref(_sparse_rows(ambient, vectors))


def rank(ambient: int, vectors: Iterable[dict | Sequence[Fraction]]) -> int:
    """The dimension of the span of the vectors in Q^ambient, from one
    elimination and without building a basis."""
    return len(echelon(ambient, vectors))


def _sparse_rows(ambient: int, vectors: Iterable[dict | Sequence[Fraction]]):
    """The vectors as sparse {column: value} rows; a dense vector must have
    length ambient."""
    for v in vectors:
        row = v if isinstance(v, dict) else dict(zip(range(ambient), v, strict=True))
        assert not row or 0 <= min(row) and max(row) < ambient, "vectors must lie in the ambient space"
        yield row

"""Exact sparse linear algebra over the rationals.

Values are `fractions.Fraction`s or ints; no floating point.  The one
linear-algebra type is `Subspace`, held in reduced echelon form.  A linear
system is the subspace its rows span: its rank is the dimension and its
solution space the annihilator.  A row is a {column: value} dict that lists
only its nonzero entries, from the row builders through elimination to the
canonical basis of a `Subspace`; `Subspace` also takes dense vectors, which
it turns into such dicts.  `row_blocks` reads a row as the dense
n-covectors of the blocks where it is nonzero, for the per-flag bases.
Elimination is sparse, incremental and fraction-free in `_rref`, whose one
caller is `Subspace`: rows are cleared of denominators on the way in,
every step is integer arithmetic with the row content divided out, and
each output entry is one `Fraction` made by dividing by the row's pivot.
The reduced echelon form is unique, so the basis does not depend on how it
was computed.  The systems built elsewhere in this package are large and
sparse: a genus-40 loop chain in R^3 gives a 798x360 residue system with
under 1% of its entries nonzero, because every row is a condition at one
vertex and touches only the flags there.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import ValidationError

Q0 = Fraction(0)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", "p" or a decimal such as "0.5" into a Fraction.

    Raises ValueError on junk and on exponent notation: "1e10000000" is ten
    characters long but a 33-million-bit integer.
    """
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {text!r}")
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation is not accepted, got {text!r}")
    return Fraction(text.strip())


def checked_rational(text, what: str, **context) -> Fraction:
    """parse_rational for input data: junk (a non-string, "nan", "1/0")
    raises a bad-rational ValidationError naming what was being read."""
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError("bad-rational", f"{what}: {exc}", **context) from exc


def rational_str(q: Fraction | int) -> str:
    """Serialize a Fraction or int as "p/q", or "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def vec(entries: Iterable) -> tuple[Fraction, ...]:
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    assert len(u) == len(v)
    return tuple(a - b for a, b in zip(u, v))


def is_zero_vec(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


def content_and_primitive(v: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Content (gcd of the entries) and primitive part of a nonzero integer
    vector, so that v = content * primitive."""
    c = gcd(*(int(x) for x in v))
    return c, tuple(int(x) // c for x in v)


def integer_primitive(v: Sequence) -> tuple[int, ...]:
    """Primitive integer vector positively parallel to the rational vector v
    of ints and Fractions.

    Raises ValueError on the zero vector.
    """
    d = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (d // x.denominator) for x in v]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)


def is_primitive(v: Sequence[int]) -> bool:
    return gcd(*(int(x) for x in v)) == 1


def _rref(rows: Iterable[dict]) -> tuple[dict, ...]:
    """The nonzero rows of the reduced row echelon form, as sparse rows in
    pivot order with `Fraction` values.

    Fraction-free incremental Gauss-Jordan on Python ints.  Each incoming row
    is scaled by the lcm of its denominators, reduced against the pivot rows
    kept so far, made primitive with a positive entry on its lowest column,
    and that column is cleared from the kept rows, so they stay fully
    reduced.  A step target := a * target - c * source, with a / c the ratio
    of the two entries in the cleared column in lowest terms, is followed by
    dividing out the content of target.  Only nonzero entries are touched,
    and a row that reduces to zero is dropped.  Each kept row is then a
    nonzero multiple of a row of the reduced echelon form, which is unique;
    dividing it by its pivot, the only division, gives that row whatever the
    order of the rows.
    """
    kept = {}  # pivot column -> primitive integer row, pivot > 0, zero in every other pivot column
    for row in rows:
        d = lcm(*(x.denominator for x in row.values()))
        row = {j: x.numerator * (d // x.denominator) for j, x in row.items() if x}
        for p in [j for j in row if j in kept]:
            _eliminate(row, p, kept[p])
        if not row:
            continue
        p = min(row)
        g = gcd(*row.values()) * (1 if row[p] > 0 else -1)
        row = {j: x // g for j, x in row.items()}
        for other in kept.values():
            if p in other:
                _eliminate(other, p, row)
        kept[p] = row
    return tuple({j: Fraction(x, row[p]) for j, x in row.items()} for p, row in sorted(kept.items()))


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


class Subspace:
    """A linear subspace of Q^n held as its canonical basis: the nonzero rows
    of the reduced echelon form of any spanning set, as sparse
    {column: value} rows in pivot order.  A row's pivot is its lowest key,
    where its value is 1.  Equal subspaces therefore have equal bases, so
    `==` decides both containments at once.

    A linear system is the span of its rows: its rank is `dim` and its
    solution space is `annihilator()`.  Vectors are sparse {column: value}
    rows or dense sequences of length `ambient`.
    """

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, vectors: Iterable[dict | Sequence[Fraction]] = ()):
        rows = [
            v if isinstance(v, dict) else dict(zip(range(ambient), v, strict=True))
            for v in vectors
        ]
        assert all(0 <= j < ambient for r in rows for j in r), "vectors must lie in the ambient space"
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", _rref(rows))

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient})"

    def annihilator(self) -> "Subspace":
        """Covectors vanishing on this subspace; dims add up to the ambient.

        One null vector per free column f, read off the canonical basis: 1 at
        f and minus each row's entry at f in that row's pivot column.  Every
        nonzero of a basis row off its pivot lies in a free column, so one
        pass over those nonzeros writes all the null vectors.
        """
        null = {f: {f: 1} for f in range(self.ambient)}
        for row in self.basis:
            p = min(row)
            del null[p]
            for f, x in row.items():
                if f != p:
                    null[f][p] = -x
        return Subspace(self.ambient, null.values())

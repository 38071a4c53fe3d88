"""Laurent series in one variable over Q, their domination order, and the
phylogenetic tree of an ascending family.

One fact about two series p and q carries all of it: the lowest exponent m
where they differ, with both coefficients there (an absent term counts as
0).  p exceeds q when q's coefficient at m is 0, so that the lowest term of
p - q is p's alone; the pair is incomparable when neither is 0.  This is a
partial order and it is not translation invariant, but subtracting the same
series from both sides of a comparable pair preserves the comparison.  The
exponents where neighbours of an ascending family first differ give its
phylogenetic tree.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import ValidationError
from .inputs import excerpt, parse_rational, vertex_lists


class LaurentSeries:
    """Finite sum of c * t^e with an int exponent e and a rational c (an int
    or a Fraction); terms sorted by exponent.  A term of another type, a
    float above all, is rejected (`bad-series`); `parse_series` is where a
    term read from a file is checked in full."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc = {}
        for e, c in terms:
            if type(e) is not int or (type(c) is not int and not isinstance(c, Fraction)):
                raise ValidationError(
                    "bad-series", f"term ({e!r}, {c!r}) needs an int exponent and an int or Fraction coefficient"
                )
            acc[e] = acc.get(e, 0) + c
        object.__setattr__(
            self, "terms", tuple(sorted((e, c) for e, c in acc.items() if c != 0))
        )

    def __setattr__(self, *a):
        raise AttributeError("LaurentSeries is immutable")

    @classmethod
    def zero(cls) -> "LaurentSeries":
        return cls(())

    def is_zero(self) -> bool:
        return not self.terms

    def order(self):
        """Lowest exponent with a nonzero coefficient; +inf for the zero series."""
        return self.terms[0][0] if self.terms else math.inf

    def coeff(self, e: int):
        for ee, c in self.terms:
            if ee == e:
                return c
            if ee > e:
                break
        return 0

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return LaurentSeries(self.terms + tuple((e, -c) for e, c in other.terms))

    def __eq__(self, other):
        return isinstance(other, LaurentSeries) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        if not self.terms:
            return "LaurentSeries(0)"
        body = " + ".join(f"({c})t^{e}" for e, c in self.terms)
        return f"LaurentSeries({body})"

    def evaluate(self, t0: int | Fraction) -> Fraction:
        """The series at t = t0, an int or a Fraction above 0; any other
        value, a float or a bool among them, is rejected
        (`bad-evaluation-point`), as a float would be evaluated at its
        binary fraction and not at the number it was written as."""
        if type(t0) is not int and not isinstance(t0, Fraction):
            raise ValidationError("bad-evaluation-point", f"t = {t0!r} is not an int or a Fraction")
        t0 = Fraction(t0)
        if t0 <= 0:
            raise ValidationError("bad-evaluation-point", "series are evaluated at t > 0")
        if not self.terms:
            return Fraction(0)
        # Horner's rule over the exponent gaps: t0 is raised to the small
        # gaps and once to the lowest exponent, so a long series near
        # |e| = MAX_EXPONENT costs one large power, not one per term
        (e, acc), *rest = reversed(self.terms)
        for e_lower, c in rest:
            acc = acc * t0 ** (e - e_lower) + c
            e = e_lower
        return acc * t0**e


# -- order ----------------------------------------------------------------------


def _first_difference(p: LaurentSeries, q: LaurentSeries):
    """(m, p's coefficient at m, q's coefficient at m) for the lowest
    exponent m where p and q differ, or None when p == q."""
    # past their common run of equal terms, the two first differ at the lower
    # of their next exponents; a closing term at +inf ends each series
    end = ((math.inf, 0),)
    for (ea, ca), (eb, cb) in zip(p.terms + end, q.terms + end):
        if ea != eb or ca != cb:
            m = min(ea, eb)
            return m, ca if ea == m else 0, cb if eb == m else 0
    return None


def laurent_greater(p: LaurentSeries, q: LaurentSeries) -> bool:
    """p dominates q: the lowest term of p - q is p's alone."""
    diff = _first_difference(p, q)
    return diff is not None and diff[2] == 0


def laurent_less(p: LaurentSeries, q: LaurentSeries) -> bool:
    return laurent_greater(q, p)


def laurent_cmp(p: LaurentSeries, q: LaurentSeries) -> int:
    """-1, 0, or 1; raises when the pair is incomparable."""
    diff = _first_difference(p, q)
    if diff is None:
        return 0
    _m, at_p, at_q = diff
    if at_q == 0:
        return 1
    if at_p == 0:
        return -1
    raise ValidationError(
        "incomparable-series",
        "two series are incomparable in the domination order",
    )


def is_strictly_ascending(series: list[LaurentSeries]) -> bool:
    """Adjacent domination; by transitivity the whole family is a chain."""
    return all(laurent_less(a, b) for a, b in zip(series, series[1:]))


# -- rebasing -------------------------------------------------------------------


def rebase(items: list[tuple], base_label) -> list[tuple]:
    """Subtract the base point's series from every member and re-sort.

    items are (label, series) pairs; the result is ascending with the base
    label's (now zero) series first.  Raises when the shifted family fails to
    be totally ordered or contains repeats.
    """
    base = None
    for lab, s in items:
        if lab == base_label:
            base = s
    if base is None:
        raise ValidationError("unknown-label", f"no series labeled {base_label!r}")
    shifted = [(lab, s - base) for lab, s in items]
    shifted.sort(key=functools.cmp_to_key(lambda a, b: laurent_cmp(a[1], b[1])))
    if not is_strictly_ascending([s for _lab, s in shifted]):
        raise ValidationError("not-ascending", "rebased family is not strictly ascending")
    return shifted


# -- phylogenetic tree ------------------------------------------------------------


class PhyloLeaf(NamedTuple):
    label: object


class PhyloNode(NamedTuple):
    first: object  # the subtree of the larger series
    second: object  # the subtree of the smaller series
    depth: object  # exponent where the two subtrees' series first differ


def phylo_tree(items: list[tuple]):
    """Tree of an ascending (label, series) family.

    Neighbours s_i < s_{i+1} first differ at exponents m_1 .. m_{k-1}, and
    two members first differ at the lowest m between them.  The root splits
    the family at the lowest m_b into the members above it (`first`) and
    those below (`second`), at depth m_b, and each side is split the same
    way.  The lowest m of a run of neighbours is attained once: if
    m_i = m_j = m with i < j and no lower m between them, s_{i+1} gains a
    nonzero coefficient at m, which s_{i+1} .. s_j share since they first
    differ above m, yet s_j < s_{j+1} needs s_j's coefficient at m to be 0.
    """
    if not items:
        raise ValidationError("empty-family", "the series family is empty")
    cuts = []
    for (_a, p), (_b, q) in zip(items, items[1:]):
        diff = _first_difference(p, q)
        if diff is None or diff[1] != 0:  # p < q needs p's coefficient there to be 0
            raise ValidationError(
                "not-ascending", "the series family must be strictly ascending"
            )
        cuts.append(diff[0])

    def split(lo: int, hi: int):  # the members lo .. hi - 1
        if hi - lo == 1:
            return PhyloLeaf(items[lo][0])
        b = min(range(lo, hi - 1), key=cuts.__getitem__)
        return PhyloNode(first=split(b + 1, hi), second=split(lo, b + 1), depth=cuts[b])

    return split(0, len(items))


def clusters(tree) -> set[frozenset]:
    """Leaf-label sets of all internal nodes."""
    out = set()

    def leaves(t) -> frozenset:
        if isinstance(t, PhyloLeaf):
            return frozenset([t.label])
        below = leaves(t.first) | leaves(t.second)
        out.add(below)
        return below

    leaves(tree)
    return out


# -- file format ------------------------------------------------------------------

# Largest |exponent| a series file may use.  Evaluating t^e at the small t of
# a comparison costs time that grows with |e|: 0.07 s at 10^4, 13 s at 10^6.
MAX_EXPONENT = 10_000


def parse_series(data) -> LaurentSeries:
    """The series of one [[exponent, coefficient], ...] list of a --laurent
    file: an int exponent of at most MAX_EXPONENT in size (else limit) and
    an int or rational-string coefficient (`parse_rational`), else
    bad-series.  A message shows only the start of a long term or exponent
    (`inputs.excerpt`)."""
    if not isinstance(data, list):
        raise ValidationError("bad-series", "a series must be a list of [exp, coeff] pairs")
    terms = []
    for item in data:
        if not isinstance(item, list) or len(item) != 2:
            raise ValidationError("bad-series", f"bad series term {excerpt(item)}")
        e, c = item
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValidationError("bad-series", f"exponent {excerpt(e)} is not an integer")
        if abs(e) > MAX_EXPONENT:
            raise ValidationError("limit", f"exponent {excerpt(e)} exceeds the bound |e| <= {MAX_EXPONENT}")
        try:
            terms.append((e, c if type(c) is int else parse_rational(c)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError("bad-series", f"bad coefficient: {exc}") from exc
    return LaurentSeries(terms)


def parse_laurent_doc(doc: dict) -> dict:
    """{vertex id: [series, ...]} from the on-disk structure."""
    return {
        vid: [parse_series(s) for s in series]
        for vid, series in vertex_lists(doc, "series", "schema", "laurent document")
    }

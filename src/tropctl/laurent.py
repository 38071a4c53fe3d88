"""Laurent series in one variable over Q, their domination order, and the
phylogenetic tree of an ascending family.

The order compares p and q by the lowest-exponent term of p - q: p exceeds q
when that term belongs to p and is absent from q.  This is a partial order
(two series whose difference leads at an exponent where both have terms are
incomparable) and it is not translation invariant, but subtracting the same
series from both sides of a comparable pair preserves the comparison.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import ValidationError
from .inputs import parse_rational, vertex_lists


class LaurentSeries:
    """Finite sum of c * t^e with rational c; terms sorted by exponent."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc: dict[int, Fraction] = {}
        for e, c in terms:
            if not isinstance(e, int) or isinstance(e, bool):
                raise ValidationError("bad-series", f"exponent {e!r} is not an integer")
            c = Fraction(c)
            acc[e] = acc.get(e, Fraction(0)) + c
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

    def coeff(self, e: int) -> Fraction:
        for ee, c in self.terms:
            if ee == e:
                return c
            if ee > e:
                break
        return Fraction(0)

    def minus_term(self, e: int, c) -> "LaurentSeries":
        return LaurentSeries(self.terms + ((e, -Fraction(c)),))

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

    def evaluate(self, t0: Fraction) -> Fraction:
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


def laurent_greater(p: LaurentSeries, q: LaurentSeries) -> bool:
    """p dominates q: the lowest term of p - q is p's alone."""
    diff = p - q
    if diff.is_zero():
        return False
    m = diff.order()
    return q.coeff(m) == 0


def laurent_less(p: LaurentSeries, q: LaurentSeries) -> bool:
    return laurent_greater(q, p)


def laurent_cmp(p: LaurentSeries, q: LaurentSeries) -> int:
    """-1, 0, or 1; raises when the pair is incomparable."""
    diff = p - q
    if diff.is_zero():
        return 0
    m = diff.order()
    if q.coeff(m) == 0:
        return 1
    if p.coeff(m) == 0:
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
    for (_, a), (_, b) in zip(shifted, shifted[1:]):
        if not laurent_less(a, b):
            raise ValidationError(
                "not-ascending", "rebased family is not strictly ascending"
            )
    return shifted


# -- phylogenetic tree ------------------------------------------------------------


class PhyloLeaf(NamedTuple):
    label: object


class PhyloNode(NamedTuple):
    first: object  # the subtree attached at this node (larger series)
    second: object  # the rest of the comb (smaller series, closer to the end)
    depth: object  # order of the first subtree's series when the node formed


def phylo_tree(items: list[tuple]):
    """Tree of an ascending (label, series) family.

    Maximal runs of equal order split the family; the runs become a comb
    with the largest series nearest the root, and a run with more than one
    member recurses after its common leading term is removed (equal orders
    inside an ascending chain force equal leading coefficients).
    """
    if not items:
        raise ValidationError("empty-family", "the series family is empty")
    series = [s for _lab, s in items]
    if not is_strictly_ascending(series):
        raise ValidationError(
            "not-ascending", "the series family must be strictly ascending"
        )
    return _phylo(list(items))


def _phylo(items):
    if len(items) == 1:
        return PhyloLeaf(items[0][0])
    while True:
        groups = []
        for lab, s in items:
            if groups and groups[-1][0][1].order() == s.order():
                groups[-1].append((lab, s))
            else:
                groups.append([(lab, s)])
        if len(groups) > 1:
            break
        # one run: every member shares its leading terms; strip them at once
        k = 1
        while all(len(s.terms) > k and s.terms[k] == items[0][1].terms[k] for _lab, s in items):
            k += 1
        items = [(lab, LaurentSeries(s.terms[k:])) for lab, s in items]
    tree = _phylo(groups[0])
    for grp in groups[1:]:
        tree = PhyloNode(first=_phylo(grp), second=tree, depth=grp[0][1].order())
    return tree


def leaf_labels(tree) -> frozenset:
    if isinstance(tree, PhyloLeaf):
        return frozenset([tree.label])
    return leaf_labels(tree.first) | leaf_labels(tree.second)


def clusters(tree) -> set[frozenset]:
    """Leaf-label sets of all internal nodes."""
    out = set()
    todo = [tree]
    while todo:
        t = todo.pop()
        if isinstance(t, PhyloNode):
            out.add(leaf_labels(t))
            todo.extend([t.first, t.second])
    return out


# -- file format ------------------------------------------------------------------

# Largest |exponent| a series file may use.  Evaluating t^e at the small t of
# a comparison costs time that grows with |e|: 0.07 s at 10^4, 13 s at 10^6.
MAX_EXPONENT = 10_000


def parse_series(data) -> LaurentSeries:
    if not isinstance(data, list):
        raise ValidationError("bad-series", "a series must be a list of [exp, coeff] pairs")
    terms = []
    for item in data:
        if not isinstance(item, list) or len(item) != 2:
            raise ValidationError("bad-series", f"bad series term {item!r}")
        e, c = item
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValidationError("bad-series", f"exponent {e!r} is not an integer")
        if abs(e) > MAX_EXPONENT:
            raise ValidationError("limit", f"exponent {e} exceeds the bound |e| <= {MAX_EXPONENT}")
        if isinstance(c, int) and not isinstance(c, bool):
            terms.append((e, Fraction(c)))
            continue
        try:
            terms.append((e, parse_rational(c)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError("bad-series", f"bad coefficient {c!r}") from exc
    return LaurentSeries(terms)


def parse_laurent_doc(doc: dict) -> dict:
    """{vertex id: [series, ...]} from the on-disk structure."""
    return {
        vid: [parse_series(s) for s in series]
        for vid, series in vertex_lists(doc, "series", "schema", "laurent document")
    }

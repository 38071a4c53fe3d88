"""Seeded generators for graphs, curves, configurations, and series.

Everything draws from a caller-supplied random.Random so runs are exactly
reproducible from a seed.

One redraw rule serves every generator.  A draw is an attempt function
that raises `_Redraw` when what it drew breaks a constraint (a zero vector,
parallel arms, a repeated direction, an exponent already taken); `_draw`
calls it again, up to 200 times in all, and then raises GenerationError
rather than loop forever.  `_nonzero` is the most common such check.  A
shape that no draw in Q^n can take (a double tripod in Q^1) raises
GenerationError before anything is drawn.

Every curve is put together by one `_Builder`, which keeps the vertex
positions, the edges and the directions of the legs.  `step` places a new
vertex one primitive step from a placed one along a weighted direction and
gives the edge the direction's content as its weight; `edge` joins two
placed vertices by a weight-1 edge; `leg` splits a leg's weighted direction
into weight and primitive direction.  No bounded edge is given a
direction: `TropicalCurve` reads it off the positions.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .curves import TropicalCurve
from .graphs import AbstractGraph
from .laurent import LaurentSeries
from .linalg import content_and_primitive


class GenerationError(RuntimeError):
    pass


class _Redraw(Exception):
    """Raised by an attempt whose draw breaks a constraint."""


def _draw(what: str, attempt):
    """The value of attempt(), called again while it raises _Redraw, at
    most 200 times; GenerationError after that."""
    for _ in range(200):
        try:
            return attempt()
        except _Redraw:
            pass
    raise GenerationError(f"{what} draw failed")


def _nonzero(v: tuple) -> tuple:
    if not any(v):
        raise _Redraw
    return v


def random_int_vec(rng: random.Random, n: int, lo=-3, hi=3) -> tuple:
    return _draw("nonzero vector", lambda: _nonzero(tuple(rng.randint(lo, hi) for _ in range(n))))


# -- abstract graphs ---------------------------------------------------------------


def random_trivalent_graph(rng: random.Random, genus: int) -> AbstractGraph:
    """Connected graph, every vertex 3-valent, with the requested genus."""
    vertices = ["v00"]
    stubs = ["v00", "v00", "v00"]
    edges = []
    grows = rng.randint(0, 4)
    loops_left = genus
    k = 0
    while grows > 0 or loops_left > 0:
        # a non-final loop op must leave at least one stub to keep growing from
        last_op = grows == 0 and loops_left == 1
        can_loop = loops_left > 0 and len(stubs) >= 2 and (len(stubs) >= 3 or last_op)
        if loops_left > 0 and not can_loop and grows == 0:
            grows = 1
        if can_loop and (grows == 0 or rng.random() < 0.5):
            a = stubs.pop(rng.randrange(len(stubs)))
            b = stubs.pop(rng.randrange(len(stubs)))
            edges.append((f"l{k:02d}", (a, b), 1))
            loops_left -= 1
        else:
            a = stubs.pop(rng.randrange(len(stubs)))
            u = f"v{len(vertices):02d}"
            vertices.append(u)
            edges.append((f"b{k:02d}", (a, u), 1))
            stubs.extend([u, u])
            grows -= 1
        k += 1
    for s in stubs:
        edges.append((f"u{k:02d}", (s, None), 1))
        k += 1
    return AbstractGraph(vertices, edges)


# -- curves ------------------------------------------------------------------------


class _Builder:
    """The positions, edges and leg directions of a curve in Q^n being put
    together, its first vertex at the origin."""

    def __init__(self, n: int, origin: str):
        self.n = n
        self.positions = {origin: (0,) * n}
        self.edges = []
        self.directions = {}

    def step(self, eid: str, a: str, b: str, weighted: tuple):
        """Place b one primitive step from a along weighted, joined to a by
        an edge whose weight is weighted's content."""
        c, d = content_and_primitive(weighted)
        self.positions[b] = tuple(p + x for p, x in zip(self.positions[a], d))
        self.edges.append((eid, (a, b), c))

    def edge(self, eid: str, a: str, b: str):
        self.edges.append((eid, (a, b), 1))

    def leg(self, eid: str, v: str, weighted: tuple):
        c, self.directions[eid] = content_and_primitive(weighted)
        self.edges.append((eid, (v, None), c))

    def curve(self) -> TropicalCurve:
        return TropicalCurve(AbstractGraph(self.positions, self.edges), self.n, self.positions, self.directions)


def _minus(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def random_tree_curve(rng: random.Random, n: int) -> TropicalCurve:
    """Genus-0 immersive 3-valent curve grown from a tripod."""

    def tripod():
        w1, w2 = random_int_vec(rng, n), random_int_vec(rng, n)
        return [w1, w2, _nonzero(tuple(-a - b for a, b in zip(w1, w2)))]

    def split(w):
        a = random_int_vec(rng, n)
        return [a, _nonzero(_minus(w, a))]

    legs = [("v00", w) for w in _draw("tripod", tripod)]  # (vertex, weighted direction)
    b = _Builder(n, "v00")
    for k in range(rng.randint(0, 3)):
        v, w = legs.pop(rng.randrange(len(legs)))
        u = f"v{k + 1:02d}"
        b.step(f"b{k:02d}", v, u, w)
        legs += [(u, part) for part in _draw("leg split", lambda: split(w))]
    for j, (v, w) in enumerate(legs):
        b.leg(f"u{j:02d}", v, w)
    return b.curve()


def random_genus1_curve(rng: random.Random, n: int, extra_legs: int = 0) -> TropicalCurve:
    """Polygon with balancing legs; extra_legs > 0 splits one vertex's leg to
    create a single higher-valent vertex of valence 3 + extra_legs.  In Q^1
    no three split directions are distinct, so n = 1 with extra_legs >= 2
    raises GenerationError before drawing."""
    if n < 2 and extra_legs >= 2:
        raise GenerationError("a leg split into three or more distinct directions needs n >= 2")

    def polygon():
        steps = [random_int_vec(rng, n) for _ in range(rng.randint(3, 5) - 1)]
        steps.append(_nonzero(tuple(-sum(s[i] for s in steps) for i in range(n))))
        prims = [content_and_primitive(s)[1] for s in steps]
        if any(p == q for p, q in zip(prims, prims[1:] + prims[:1])):
            raise _Redraw
        return steps, prims

    steps, prims = _draw("polygon", polygon)
    k = len(steps)
    b = _Builder(n, "v00")
    for i, s in enumerate(steps[:-1]):
        b.positions[f"v{i + 1:02d}"] = tuple(p + x for p, x in zip(b.positions[f"v{i:02d}"], s))
    split_at = rng.randrange(k) if extra_legs > 0 else None
    legs = 0
    for i in range(k):
        b.edge(f"c{i:02d}", f"v{i:02d}", f"v{(i + 1) % k:02d}")
        w = _minus(prims[i - 1], prims[i])  # the leg's weighted direction
        for part in _split_vector(rng, w, extra_legs + 1, n) if i == split_at else [w]:
            b.leg(f"u{legs:02d}", f"v{i:02d}", part)
            legs += 1
    return b.curve()


def _split_vector(rng, w, pieces, n):
    """Split an integer vector into the given number of nonzero summands."""

    def attempt():
        parts, rest = [], w
        for _ in range(pieces - 1):
            parts.append(random_int_vec(rng, n, -2, 2))
            rest = _nonzero(_minus(rest, parts[-1]))
        parts.append(rest)
        # distinct directions keep the star honestly higher-valent
        if len({content_and_primitive(p)[1] for p in parts}) != pieces:
            raise _Redraw
        return parts

    return _draw("vector split", attempt)


def random_genus2_curve(rng: random.Random, n: int) -> TropicalCurve:
    """Randomized double tripod: two star centers, three rungs between them.
    In Q^1 every arm is parallel to the rungs, so n = 1 raises
    GenerationError before drawing."""
    if n < 2:
        raise GenerationError("a double tripod needs n >= 2")

    def double_tripod():
        d1 = content_and_primitive(random_int_vec(rng, n))[1]
        d2 = content_and_primitive(random_int_vec(rng, n))[1]
        w3, d3 = content_and_primitive(_nonzero(tuple(-a - b for a, b in zip(d1, d2))))
        if len({d1, d2, d3}) != 3:
            raise _Redraw
        nu = content_and_primitive(random_int_vec(rng, n))[1]
        if any(d in (nu, tuple(-x for x in nu)) for d in (d1, d2, d3)):  # an arm parallel to the rungs
            raise _Redraw
        return [(d1, 1), (d2, 1), (d3, w3)], nu

    arms, nu = _draw("double tripod", double_tripod)
    b = _Builder(n, "t")
    b.positions["b"] = tuple(-x for x in nu)
    for i, (d, w) in enumerate(arms):
        arm = tuple(w * x for x in d)
        b.step(f"a{i}t", "t", f"t{i}", arm)
        b.step(f"a{i}b", "b", f"b{i}", arm)
        b.edge(f"m{i}", f"b{i}", f"t{i}")
        b.leg(f"u{i}t", f"t{i}", tuple(x + y for x, y in zip(arm, nu)))
        b.leg(f"u{i}b", f"b{i}", _minus(arm, nu))
    return b.curve()


def random_loopchain_curve(rng: random.Random, n: int, genus: int) -> TropicalCurve:
    """Chain of theta-like loops joined by bridges; works for any genus >= 1.

    Each loop is a triangle A -> B (direct edge) and A -> m -> B (two-edge
    path) with a leg at m; consecutive loops are joined by a bridge from B
    to the next A.  All vertices are 3-valent and every bounded edge has a
    nonzero direction.
    """
    if genus < 1:
        raise GenerationError("loop chains need genus at least 1")

    def chain():
        b = _Builder(n, "a00")
        incoming = None  # weighted direction of the bridge arriving at the next A
        for i in range(genus):
            a, m, z = f"a{i:02d}", f"m{i:02d}", f"b{i:02d}"  # A, m and B
            e = random_int_vec(rng, n)
            if incoming is None:
                f = random_int_vec(rng, n)
                b.leg(f"u{i:02d}a", a, _nonzero(tuple(-x - y for x, y in zip(e, f))))
            else:
                f = _nonzero(_minus(incoming, e))
            b.step(f"c{i:02d}d", a, z, e)
            b.step(f"c{i:02d}p", a, m, f)
            b.edge(f"c{i:02d}q", m, z)
            g = content_and_primitive(_nonzero(_minus(b.positions[z], b.positions[m])))[1]
            b.leg(f"u{i:02d}m", m, _nonzero(_minus(f, g)))
            incoming = _nonzero(tuple(x + y for x, y in zip(e, g)))
            if i + 1 < genus:
                b.step(f"r{i:02d}", z, f"a{i + 1:02d}", incoming)
            else:
                b.leg(f"u{i:02d}b", z, incoming)
        return b.curve()

    return _draw("loop chain", chain)


def random_immersive_curve(rng: random.Random, n: int, genus=None) -> TropicalCurve:
    if genus is None:
        genus = rng.choice([0, 1, 1, 2])
    if genus == 0:
        return random_tree_curve(rng, n)
    if genus <= 2 and rng.choice([True, False]):
        return (random_genus1_curve if genus == 1 else random_genus2_curve)(rng, n)
    return random_loopchain_curve(rng, n, genus)


# -- coordinates and series -----------------------------------------------------------


# the number of distinct values a/b with |a| <= 30 and 1 <= b <= 6
_MARKED_VALUES = 229


def random_marked_coords(rng: random.Random, count: int) -> list:
    """count pairwise distinct rationals a/b with |a| <= 30 and 1 <= b <= 6,
    the first 0; a count past the number of such values raises."""
    if count > _MARKED_VALUES:
        raise GenerationError(f"cannot draw {count} distinct coordinates from {_MARKED_VALUES} values")
    vals = [Fraction(0)]
    while len(vals) < count:
        q = Fraction(rng.randint(-30, 30), rng.randint(1, 6))
        if q not in vals:
            vals.append(q)
    return vals


def random_ascending_series(rng: random.Random, count: int) -> list[LaurentSeries]:
    """Strictly ascending family, the first member zero.

    Each next series adds one term at an exponent where the previous member
    vanishes; by the order's definition the sum then dominates, and chains of
    such additions realize varied tree shapes.
    """

    def term(prev, nxt):
        if prev.is_zero():
            m = rng.randint(-8, -1)
        else:
            lo = prev.order() - rng.randint(0, 2)
            m = rng.randint(lo, prev.terms[-1][0] + 2)
        # adding terms only where prev vanishes keeps prev < nxt; nxt holds prev's terms
        if nxt.coeff(m) != 0:
            raise _Redraw
        return m, Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))

    out = [LaurentSeries.zero()]
    for _ in range(count - 1):
        nxt = out[-1]
        for _ in range(rng.randint(1, 2)):
            nxt = LaurentSeries(nxt.terms + (_draw("series", lambda: term(out[-1], nxt)),))
        out.append(nxt)
    return out

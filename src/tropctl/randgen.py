"""Seeded generators for graphs, curves, configurations, and series.

Everything draws from a caller-supplied random.Random so runs are exactly
reproducible from a seed.  Generators retry internally when a draw violates
a constraint (zero vectors, parallel arms, colliding coordinates) and raise
after too many attempts rather than loop forever.
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


def _retrying():
    return range(200)


def random_int_vec(rng: random.Random, n: int, lo=-3, hi=3) -> tuple:
    for _ in _retrying():
        v = tuple(rng.randint(lo, hi) for _ in range(n))
        if any(x != 0 for x in v):
            return v
    raise GenerationError("could not draw a nonzero vector")


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
            i = rng.randrange(len(stubs))
            a = stubs.pop(i)
            j = rng.randrange(len(stubs))
            b = stubs.pop(j)
            edges.append((f"l{k:02d}", (a, b), 1))
            loops_left -= 1
        else:
            i = rng.randrange(len(stubs))
            a = stubs.pop(i)
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


def random_tree_curve(rng: random.Random, n: int) -> TropicalCurve:
    """Genus-0 immersive 3-valent curve grown from a tripod."""
    for _ in _retrying():
        w1 = random_int_vec(rng, n)
        w2 = random_int_vec(rng, n)
        w3 = tuple(-a - b for a, b in zip(w1, w2))
        if any(x != 0 for x in w3):
            break
    else:
        raise GenerationError("tripod draw failed")
    positions = {"v00": tuple(Fraction(0) for _ in range(n))}
    vertices = ["v00"]
    edges = []
    directions = {}
    legs = []  # (vertex, weighted direction vector)
    for w in (w1, w2, w3):
        legs.append(("v00", w))
    k = 0
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(legs))
        v, w = legs.pop(i)
        c, d = content_and_primitive(w)
        u = f"v{len(vertices):02d}"
        vertices.append(u)
        positions[u] = tuple(p + x for p, x in zip(positions[v], d))
        eid = f"b{k:02d}"
        edges.append((eid, (v, u), c))
        directions[eid] = d
        k += 1
        for _ in _retrying():
            a = random_int_vec(rng, n)
            b = tuple(x - y for x, y in zip(w, a))
            if any(x != 0 for x in b):
                break
        else:
            raise GenerationError("leg split failed")
        legs.append((u, a))
        legs.append((u, b))
    for j, (v, w) in enumerate(legs):
        c, d = content_and_primitive(w)
        eid = f"u{j:02d}"
        edges.append((eid, (v, None), c))
        directions[eid] = d
    graph = AbstractGraph(vertices, edges)
    return TropicalCurve(graph, n, positions, directions)


def random_genus1_curve(rng: random.Random, n: int, extra_legs: int = 0) -> TropicalCurve:
    """Polygon with balancing legs; extra_legs > 0 splits one vertex's leg to
    create a single higher-valent vertex of valence 3 + extra_legs."""
    for _ in _retrying():
        k = rng.randint(3, 5)
        steps = [random_int_vec(rng, n) for _ in range(k - 1)]
        closing = tuple(-sum(s[i] for s in steps) for i in range(n))
        if all(x == 0 for x in closing):
            continue
        steps.append(closing)
        prims = [content_and_primitive(s)[1] for s in steps]
        if any(prims[i] == prims[(i + 1) % k] for i in range(k)):
            continue
        break
    else:
        raise GenerationError("polygon draw failed")
    vertices = [f"v{i:02d}" for i in range(k)]
    positions = {}
    pos = tuple(Fraction(0) for _ in range(n))
    for i in range(k):
        positions[vertices[i]] = pos
        pos = tuple(p + x for p, x in zip(pos, steps[i]))
    edges = []
    directions = {}
    for i in range(k):
        eid = f"c{i:02d}"
        edges.append((eid, (vertices[i], vertices[(i + 1) % k]), 1))
        directions[eid] = prims[i]
    split_at = rng.randrange(k) if extra_legs > 0 else None
    leg_counter = 0
    for i in range(k):
        deficit = tuple(
            Fraction(prims[i][t]) - Fraction(prims[(i - 1) % k][t]) for t in range(n)
        )
        w = tuple(-x for x in deficit)  # the leg's weighted direction
        if i == split_at:
            parts = _split_vector(rng, w, extra_legs + 1, n)
        else:
            parts = [w]
        for part in parts:
            c, d = content_and_primitive(part)
            eid = f"u{leg_counter:02d}"
            edges.append((eid, (vertices[i], None), c))
            directions[eid] = d
            leg_counter += 1
    graph = AbstractGraph(vertices, edges)
    return TropicalCurve(graph, n, positions, directions)


def _split_vector(rng, w, pieces, n):
    """Split an integer vector into the given number of nonzero summands."""
    for _ in _retrying():
        parts = []
        remaining = tuple(int(x) for x in w)
        ok = True
        for _ in range(pieces - 1):
            a = random_int_vec(rng, n, -2, 2)
            nxt = tuple(r - x for r, x in zip(remaining, a))
            if all(x == 0 for x in nxt):
                ok = False
                break
            parts.append(a)
            remaining = nxt
        if not ok:
            continue
        if all(x == 0 for x in remaining):
            continue
        parts.append(remaining)
        # distinct directions keep the star honestly higher-valent
        prims = [content_and_primitive(p)[1] for p in parts]
        if len(set(prims)) != len(prims):
            continue
        return parts
    raise GenerationError("vector split failed")


def random_genus2_curve(rng: random.Random, n: int) -> TropicalCurve:
    """Randomized double tripod: two star centers, three rungs between them."""
    for _ in _retrying():
        d1 = content_and_primitive(random_int_vec(rng, n))[1]
        d2 = content_and_primitive(random_int_vec(rng, n))[1]
        s = tuple(-a - b for a, b in zip(d1, d2))
        if all(x == 0 for x in s):
            continue
        w3, d3 = content_and_primitive(s)
        if len({d1, d2, d3}) != 3:
            continue
        nu = content_and_primitive(random_int_vec(rng, n))[1]
        arms = [(d1, 1), (d2, 1), (d3, w3)]
        if any(_parallel(d, nu) for d, _w in arms):
            continue
        break
    else:
        raise GenerationError("double tripod draw failed")
    zero = tuple(Fraction(0) for _ in range(n))
    positions = {"t": zero, "b": tuple(Fraction(-x) for x in nu)}
    vertices = ["t", "b"]
    edges = []
    directions = {}
    for i, (d, w) in enumerate(arms):
        ti = f"t{i}"
        bi = f"b{i}"
        vertices.extend([ti, bi])
        positions[ti] = tuple(p + x for p, x in zip(positions["t"], d))
        positions[bi] = tuple(p + x for p, x in zip(positions["b"], d))
        edges.append((f"a{i}t", ("t", ti), w))
        directions[f"a{i}t"] = d
        edges.append((f"a{i}b", ("b", bi), w))
        directions[f"a{i}b"] = d
        edges.append((f"m{i}", (bi, ti), 1))
        directions[f"m{i}"] = nu
        top_leg = tuple(w * x + y for x, y in zip(d, nu))
        bot_leg = tuple(w * x - y for x, y in zip(d, nu))
        for suffix, wd in (("t", top_leg), ("b", bot_leg)):
            c, p = content_and_primitive(wd)
            eid = f"u{i}{suffix}"
            edges.append((eid, (ti if suffix == "t" else bi, None), c))
            directions[eid] = p
    graph = AbstractGraph(vertices, edges)
    return TropicalCurve(graph, n, positions, directions)


def _parallel(a, b):
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i] * b[j] != a[j] * b[i]:
                return False
    return True


def random_loopchain_curve(rng: random.Random, n: int, genus: int) -> TropicalCurve:
    """Chain of theta-like loops joined by bridges; works for any genus >= 1.

    Each loop is a triangle A -> B (direct edge) and A -> m -> B (two-edge
    path) with a leg at m; consecutive loops are joined by a bridge from B
    to the next A.  All vertices are 3-valent and every bounded edge has a
    nonzero direction.
    """
    if genus < 1:
        raise GenerationError("loop chains need genus at least 1")
    for _ in _retrying():
        try:
            return _build_loopchain(rng, n, genus)
        except _RetryDraw:
            continue
    raise GenerationError("loop chain draw failed")


class _RetryDraw(Exception):
    pass


def _nonzero_or_retry(v):
    if all(x == 0 for x in v):
        raise _RetryDraw
    return v


def _build_loopchain(rng, n, genus):
    zero = tuple(Fraction(0) for _ in range(n))
    positions = {"a00": zero}
    vertices = []
    edges = []
    directions = {}

    def add_leg(eid, vertex, weighted):
        c, p = content_and_primitive(_nonzero_or_retry(weighted))
        edges.append((eid, (vertex, None), c))
        directions[eid] = p

    incoming = None  # weighted direction of the bridge arriving at the next A
    for i in range(genus):
        a, m, b = f"a{i:02d}", f"m{i:02d}", f"b{i:02d}"
        vertices.extend([a, m, b])
        e_vec = random_int_vec(rng, n)
        if incoming is None:
            f_vec = random_int_vec(rng, n)
            add_leg(f"u{i:02d}a", a, tuple(-x - y for x, y in zip(e_vec, f_vec)))
        else:
            f_vec = _nonzero_or_retry(tuple(x - y for x, y in zip(incoming, e_vec)))
        we, pe = content_and_primitive(e_vec)
        wf, pf = content_and_primitive(f_vec)
        positions[m] = tuple(p + x for p, x in zip(positions[a], pf))
        positions[b] = tuple(p + x for p, x in zip(positions[a], pe))
        g_vec = _nonzero_or_retry(tuple(x - y for x, y in zip(positions[b], positions[m])))
        _, pg = content_and_primitive(g_vec)
        edges.append((f"c{i:02d}d", (a, b), we))
        directions[f"c{i:02d}d"] = pe
        edges.append((f"c{i:02d}p", (a, m), wf))
        directions[f"c{i:02d}p"] = pf
        edges.append((f"c{i:02d}q", (m, b), 1))
        directions[f"c{i:02d}q"] = pg
        add_leg(f"u{i:02d}m", m, tuple(x - y for x, y in zip(f_vec, pg)))
        outgoing = _nonzero_or_retry(tuple(x + y for x, y in zip(e_vec, pg)))
        if i + 1 < genus:
            nxt = f"a{i + 1:02d}"
            wd, pd = content_and_primitive(outgoing)
            edges.append((f"r{i:02d}", (b, nxt), wd))
            directions[f"r{i:02d}"] = pd
            positions[nxt] = tuple(p + x for p, x in zip(positions[b], pd))
            incoming = outgoing
        else:
            add_leg(f"u{i:02d}b", b, outgoing)
    graph = AbstractGraph(vertices, edges)
    return TropicalCurve(graph, n, positions, directions)


def random_immersive_curve(rng: random.Random, n: int, genus=None) -> TropicalCurve:
    if genus is None:
        genus = rng.choice([0, 1, 1, 2])
    if genus == 0:
        return random_tree_curve(rng, n)
    if genus == 1:
        return rng.choice([random_genus1_curve, lambda r, k: random_loopchain_curve(r, k, 1)])(rng, n)
    if genus == 2:
        return rng.choice([random_genus2_curve, lambda r, k: random_loopchain_curve(r, k, 2)])(rng, n)
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
    out = [LaurentSeries.zero()]
    prev = LaurentSeries.zero()
    for _ in range(count - 1):
        nxt = prev
        # adding terms only where prev vanishes keeps prev < nxt
        for _ in range(rng.randint(1, 2)):
            for _ in _retrying():
                if prev.is_zero():
                    m = rng.randint(-8, -1)
                else:
                    lo = prev.order() - rng.randint(0, 2)
                    hi = max(x for x, _c in prev.terms) + 2
                    m = rng.randint(lo, hi)
                if prev.coeff(m) != 0 or nxt.coeff(m) != prev.coeff(m):
                    continue
                c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                nxt = LaurentSeries(nxt.terms + ((m, c),))
                break
            else:
                raise GenerationError("series draw failed")
        out.append(nxt)
        prev = nxt
    return out

"""Seeded input generator for the tropctl benchmark.

Every workload is a fixed list of cases whose make-up (types, genera,
dimensions, valences) does not depend on the seed; the seed only draws the
directions, lengths, weights, coordinates and series.  The constructions
follow the ones in `tropctl.randgen` but are written out here, so that a
change to the package cannot change a workload.  Draws that would fall
outside a command's preconditions are redrawn here, before any file is
written, so that no operation of a workload fails.

A case is a dict with the curve document (`doc`) and what the checker needs
to know about how it was built (`loops`, `high`, `config`, `laurent`, ...).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

MAX_TRIES = 500


class Redraw(Exception):
    """The current draw violates a constraint; draw again."""


def content_prim(v):
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    if g == 0:
        raise Redraw
    return g, tuple(int(x) // g for x in v)


def nonzero_vec(rng, n, lo=-3, hi=3):
    while True:
        v = tuple(rng.randint(lo, hi) for _ in range(n))
        if any(v):
            return v


def parallel(a, b):
    n = len(a)
    return all(a[i] * b[j] == a[j] * b[i] for i in range(n) for j in range(i + 1, n))


def qstr(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def retry(build, rng, *args):
    for _ in range(MAX_TRIES):
        try:
            return build(rng, *args)
        except Redraw:
            continue
    raise RuntimeError(f"{build.__name__}: no admissible draw in {MAX_TRIES} tries")


class CurveBuilder:
    """Collects vertices and edges, then emits a balanced curve document."""

    def __init__(self, n):
        self.n = n
        self.positions = {}
        self.edges = []  # (id, a, b or None, weight, primitive direction)

    def vertex(self, vid, pos):
        self.positions[vid] = tuple(Fraction(x) for x in pos)

    def bounded(self, eid, a, b, weight, direction):
        self.edges.append((eid, a, b, weight, tuple(direction)))

    def leg(self, eid, v, weighted):
        w, d = content_prim(weighted)
        self.edges.append((eid, v, None, w, d))

    def doc(self):
        n = self.n
        sums = {v: [0] * n for v in self.positions}
        for eid, a, b, w, d in self.edges:
            for k in range(n):
                sums[a][k] += w * d[k]
                if b is not None:
                    sums[b][k] -= w * d[k]
            if b is not None:
                diff = [y - x for x, y in zip(self.positions[a], self.positions[b])]
                lengths = {diff[k] / d[k] for k in range(n) if d[k]}
                if any(diff[k] for k in range(n) if not d[k]) or len(lengths) != 1 or min(lengths) <= 0:
                    raise AssertionError(f"edge {eid}: positions do not follow its direction")
        if any(any(s) for s in sums.values()):
            raise AssertionError("generated curve is unbalanced")
        return {
            "ambient_dim": n,
            "vertices": [
                {"id": v, "position": [qstr(x) for x in p]} for v, p in sorted(self.positions.items())
            ],
            "edges": [
                {"id": eid, "ends": [a, b], "weight": w, "direction": list(d)}
                for eid, a, b, w, d in self.edges
            ],
        }


def step(pos, d, length):
    return tuple(p + length * x for p, x in zip(pos, d))


# -- trivalent curves -----------------------------------------------------------


def tree_curve(rng, n, splits):
    """Genus 0: a tripod whose legs are split `splits` times."""
    w1, w2 = nonzero_vec(rng, n), nonzero_vec(rng, n)
    w3 = tuple(-a - b for a, b in zip(w1, w2))
    if not any(w3) or parallel(w1, w2):
        raise Redraw
    cb = CurveBuilder(n)
    cb.vertex("v00", [0] * n)
    legs = [("v00", w) for w in (w1, w2, w3)]
    for k in range(splits):
        v, w = legs.pop(rng.randrange(len(legs)))
        c, d = content_prim(w)
        u = f"v{k + 1:02d}"
        cb.vertex(u, step(cb.positions[v], d, rng.randint(1, 3)))
        cb.bounded(f"b{k:02d}", v, u, c, d)
        a = nonzero_vec(rng, n)
        b = tuple(x - y for x, y in zip(w, a))
        if not any(b) or parallel(a, w) or parallel(b, w):
            raise Redraw
        legs += [(u, a), (u, b)]
    for j, (v, w) in enumerate(legs):
        cb.leg(f"u{j:02d}", v, w)
    return {"kind": "tree", "doc": cb.doc(), "genus": 0}


def polygon_curve(rng, n, k, extra_legs=0):
    """Genus 1: a k-gon with one balancing leg per corner.

    With extra_legs > 0 the leg at one corner is split into extra_legs + 1
    legs of distinct directions, giving one vertex of valence 3 + extra_legs.
    """
    steps = [nonzero_vec(rng, n) for _ in range(k - 1)]
    closing = tuple(-sum(s[i] for s in steps) for i in range(n))
    if not any(closing):
        raise Redraw
    steps.append(closing)
    prims = [content_prim(s)[1] for s in steps]
    if any(prims[i] == prims[(i + 1) % k] for i in range(k)):
        raise Redraw
    cb = CurveBuilder(n)
    verts = [f"v{i:02d}" for i in range(k)]
    pos = (0,) * n
    for i in range(k):
        cb.vertex(verts[i], pos)
        pos = step(pos, steps[i], 1)
    for i in range(k):
        cb.bounded(f"c{i:02d}", verts[i], verts[(i + 1) % k], 1, prims[i])
    high = rng.randrange(k) if extra_legs else None
    legs = 0
    for i in range(k):
        w = tuple(a - b for a, b in zip(prims[(i - 1) % k], prims[i]))
        parts = split_vector(rng, w, extra_legs + 1, n) if i == high else [w]
        for part in parts:
            cb.leg(f"u{legs:02d}", verts[i], part)
            legs += 1
    case = {
        "kind": "polygon",
        "doc": cb.doc(),
        "genus": 1,
        "loops": [[f"c{i:02d}" for i in range(k)]],
    }
    if high is not None:
        case["high"] = verts[high]
    return case


def split_vector(rng, w, pieces, n):
    parts = []
    rest = tuple(w)
    for _ in range(pieces - 1):
        a = nonzero_vec(rng, n, -2, 2)
        rest = tuple(r - x for r, x in zip(rest, a))
        parts.append(a)
    if not any(rest):
        raise Redraw
    parts.append(rest)
    prims = [content_prim(p)[1] for p in parts]
    if len(set(prims)) != len(prims):
        raise Redraw
    return parts


def double_tripod(rng, n):
    """Genus 2: two tripod centres joined by three arm-rung-arm paths."""
    d1 = content_prim(nonzero_vec(rng, n))[1]
    d2 = content_prim(nonzero_vec(rng, n))[1]
    w3, d3 = content_prim(tuple(-a - b for a, b in zip(d1, d2)))
    if len({d1, d2, d3}) != 3:
        raise Redraw
    nu = content_prim(nonzero_vec(rng, n))[1]
    arms = [(d1, 1), (d2, 1), (d3, w3)]
    if any(parallel(d, nu) for d, _w in arms):
        raise Redraw
    cb = CurveBuilder(n)
    top = (0,) * n
    bot = tuple(-x for x in nu)
    cb.vertex("t", top)
    cb.vertex("b", bot)
    for i, (d, w) in enumerate(arms):
        ti, bi = f"t{i}", f"b{i}"
        cb.vertex(ti, step(top, d, 1))
        cb.vertex(bi, step(bot, d, 1))
        cb.bounded(f"a{i}t", "t", ti, w, d)
        cb.bounded(f"a{i}b", "b", bi, w, d)
        cb.bounded(f"m{i}", bi, ti, 1, nu)
        cb.leg(f"u{i}t", ti, tuple(w * x + y for x, y in zip(d, nu)))
        cb.leg(f"u{i}b", bi, tuple(w * x - y for x, y in zip(d, nu)))
    return {"kind": "double-tripod", "doc": cb.doc(), "genus": 2}


def loop_chain(rng, n, genus):
    """Chain of `genus` triangles joined by bridges; every vertex 3-valent.

    Triangle i has corners a, m, b: a direct edge a-b, a two-edge path
    a-m-b and a leg at m.  A bridge leads from b to the next triangle's a.
    """
    cb = CurveBuilder(n)
    cb.vertex("a00", (0,) * n)
    loops = []
    incoming = None
    for i in range(genus):
        a, m, b = f"a{i:02d}", f"m{i:02d}", f"b{i:02d}"
        e_vec = nonzero_vec(rng, n)
        if incoming is None:
            f_vec = nonzero_vec(rng, n)
            cb.leg(f"u{i:02d}a", a, tuple(-x - y for x, y in zip(e_vec, f_vec)))
        else:
            f_vec = tuple(x - y for x, y in zip(incoming, e_vec))
        we, pe = content_prim(e_vec)
        wf, pf = content_prim(f_vec)
        cb.vertex(m, step(cb.positions[a], pf, 1))
        cb.vertex(b, step(cb.positions[a], pe, 1))
        _wg, pg = content_prim(tuple(x - y for x, y in zip(pe, pf)))
        cb.bounded(f"c{i:02d}d", a, b, we, pe)
        cb.bounded(f"c{i:02d}p", a, m, wf, pf)
        cb.bounded(f"c{i:02d}q", m, b, 1, pg)
        loops.append([f"c{i:02d}d", f"c{i:02d}p", f"c{i:02d}q"])
        cb.leg(f"u{i:02d}m", m, tuple(x - y for x, y in zip(f_vec, pg)))
        outgoing = tuple(x + y for x, y in zip(e_vec, pg))
        if i + 1 < genus:
            wd, pd = content_prim(outgoing)
            nxt = f"a{i + 1:02d}"
            cb.vertex(nxt, step(cb.positions[b], pd, 1))
            cb.bounded(f"r{i:02d}", b, nxt, wd, pd)
            incoming = outgoing
        else:
            cb.leg(f"u{i:02d}b", b, outgoing)
    return {"kind": "loop-chain", "doc": cb.doc(), "genus": genus, "loops": loops}


# The quick-start curve of the package README: a planar square with four legs.
README_SQUARE = {
    "ambient_dim": 3,
    "vertices": [
        {"id": "a", "position": ["0", "0", "0"]},
        {"id": "b", "position": ["1", "0", "0"]},
        {"id": "c", "position": ["1", "1", "0"]},
        {"id": "d", "position": ["0", "1", "0"]},
    ],
    "edges": [
        {"id": "s01", "ends": ["a", "b"]},
        {"id": "s12", "ends": ["b", "c"]},
        {"id": "s23", "ends": ["c", "d"]},
        {"id": "s30", "ends": ["d", "a"]},
        {"id": "u0", "ends": ["a", None], "direction": [-1, -1, 0]},
        {"id": "u1", "ends": ["b", None], "direction": [1, -1, 0]},
        {"id": "u2", "ends": ["c", None], "direction": [1, 1, 0]},
        {"id": "u3", "ends": ["d", None], "direction": [-1, 1, 0]},
    ],
}


# -- higher-valent data -----------------------------------------------------------


def marked_coords(rng, count):
    vals = [Fraction(0)]
    while len(vals) < count:
        q = Fraction(rng.randint(-30, 30), rng.randint(1, 6))
        if q not in vals:
            vals.append(q)
    return vals


def ascending_series(rng, count):
    """Strictly ascending family of {exponent: coefficient} series, the first zero.

    Each member adds one or two terms where its predecessor vanishes, so it
    dominates the predecessor.
    """
    out = [{}]
    for _ in range(count - 1):
        prev = out[-1]
        nxt = dict(prev)
        for _ in range(rng.randint(1, 2)):
            for _ in range(MAX_TRIES):
                if not prev:
                    e = rng.randint(-8, -1)
                else:
                    e = rng.randint(min(prev) - rng.randint(0, 2), max(prev) + 2)
                if e not in nxt:
                    break
            else:
                raise Redraw
            nxt[e] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        out.append(nxt)
    return out


def star_slots(doc, vertex):
    """(finite slot labels, infinity label) of a vertex, as the residue method orders them.

    Slots follow the incident edges sorted by id; the infinity slot is the
    last bounded one.
    """
    incident = sorted(e["id"] for e in doc["edges"] if vertex in e["ends"])
    bounded = {e["id"] for e in doc["edges"] if e["ends"][1] is not None}
    inf = [eid for eid in incident if eid in bounded][-1]
    return [eid for eid in incident if eid != inf], inf


def phylo_clusters(labelled):
    """Leaf sets of the internal nodes of the tree of an ascending family.

    Runs of equal order split the family into a comb, largest run nearest
    the root; a single run recurses with its common leading term removed.
    Returns (root cluster, clusters).
    """
    out = []

    def order(s):
        return min(s) if s else float("inf")

    def build(items):
        labels = frozenset(lab for lab, _s in items)
        if len(items) == 1:
            return labels
        groups = []
        for lab, s in items:
            if groups and order(groups[-1][0][1]) == order(s):
                groups[-1].append((lab, s))
            else:
                groups.append([(lab, s)])
        if len(groups) == 1:
            e = order(items[0][1])
            return build([(lab, {x: c for x, c in s.items() if x != e}) for lab, s in items])
        acc = build(groups[0])
        for grp in groups[1:]:
            acc = acc | build(grp)
            out.append(acc)
        return acc

    root = build(labelled)
    return root, out


def higher_valent_case(rng, n, k, valence):
    """Genus-one k-gon with one vertex of the given valence, its marked
    coordinates and an ascending series family whose resolution is valid."""
    case = polygon_curve(rng, n, k, extra_legs=valence - 3)
    doc, v = case["doc"], case["high"]
    finite, _inf = star_slots(doc, v)
    series = ascending_series(rng, len(finite))
    root, clusters = phylo_clusters(list(zip(finite, series)))
    weighted = {}
    for e in doc["edges"]:
        if v in e["ends"]:
            sign = 1 if e["ends"][0] == v else -1
            weighted[e["id"]] = [sign * e["weight"] * x for x in e["direction"]]
    # every internal node of the resolution below the root becomes an edge
    # carrying the weighted direction sum of its leaves; a zero sum would
    # contract it, which the resolution rejects
    for cl in clusters:
        if cl != root and not any(sum(weighted[eid][k] for eid in cl) for k in range(n)):
            raise Redraw
    coords = marked_coords(rng, len(finite))
    case["config"] = {"vertices": {v: {"coords": [qstr(c) for c in coords]}}}
    case["laurent"] = {
        "vertices": {v: {"series": [[[e, qstr(c)] for e, c in sorted(s.items())] for s in series]}}
    }
    return case


def local_model(rng, r, n, s):
    """Standalone (r+2)-valent star: unit directions e_1..e_{r+1} with weights,
    a balancing last edge, s bounded edges at random places and marked
    coordinates."""
    weights = [rng.randint(1, 3) for _ in range(r + 1)]
    last = [0] * n
    for i in range(r + 1):
        last[i] = -weights[i]
    gw, dlast = content_prim(last)
    mask = [False] * (r + 2)
    for i in rng.sample(range(r + 2), s):
        mask[i] = True
    edges = []
    for i in range(r + 2):
        d = [0] * n
        if i <= r:
            d[i] = 1
        else:
            d = list(dlast)
        edges.append(
            {"label": f"E{i + 1}", "weight": weights[i] if i <= r else gw, "direction": d, "bounded": mask[i]}
        )
    doc = {
        "ambient_dim": n,
        "edges": edges,
        "coords": [qstr(c) for c in marked_coords(rng, r + 1)],
    }
    return {"kind": "local-model", "doc": doc, "r": r, "n": n, "s": s}


# -- workloads --------------------------------------------------------------------


def loopchain_large(seed):
    rng = random.Random(f"loopchain-large/{seed}")
    return [retry(loop_chain, rng, n, g) for n, g in ((3, 40), (4, 20), (3, 12))]


def small_sweep(seed):
    rng = random.Random(f"small-sweep/{seed}")
    cases = [{"kind": "readme-square", "doc": README_SQUARE, "genus": 1, "loops": [["s01", "s12", "s23", "s30"]]}]
    for n in (2, 3, 4):
        for i in range(24):
            cases.append(retry(tree_curve, rng, n, i % 4))
            cases.append(retry(polygon_curve, rng, n, 3 + i % 3))
        for i in range(12):
            cases.append(retry(double_tripod, rng, n))
            cases.append(retry(loop_chain, rng, n, 1 + i % 3))
    return cases


def higher_valent(seed):
    rng = random.Random(f"higher-valent/{seed}")
    cases = []
    for r in range(3, 10):
        for i, s in enumerate((r + 2, r + 1, 3, 1)):
            cases.append(local_model(rng, r, r + 1 + i % 3, s))
    for valence in range(4, 9):
        for n in (3, 4, 5):
            for k in (3, 5):
                cases.append(retry(higher_valent_case, rng, n, k, valence))
    return cases


WORKLOADS = {
    "loopchain-large": loopchain_large,
    "small-sweep": small_sweep,
    "higher-valent": higher_valent,
}

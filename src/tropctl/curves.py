"""Parametrized tropical curves: positions, directions, balancing, images.

A curve is an abstract graph plus rational vertex positions in Q^n and
primitive integer directions per edge.  Directions are stored once per edge,
measured from ends[0]; the flag direction flips sign at the other end.

A curve also holds the lattice length of each bounded edge: the position
difference ends[1] - ends[0] is that length times the primitive direction.
Validation takes the difference once per edge and splits it into content
and primitive part; the content is the length and the primitive part the
direction.  A difference of ints, the common case, is split by one gcd;
any other goes through `linalg.content_and_primitive`.

Loading a curve file takes three passes.  `parse_curve` reads each vertex
and then each edge in file order and checks its fields.  A field of the
common shape, an id of at most MAX_ID characters, an int weight in range,
integer position strings and an int direction in range, passes an exact
type test (`type(x) is int`); only another field goes through the reader
of `inputs` that words its error, so every message is the one that reader
gives.  `graphs.AbstractGraph` checks the graph, makes each edge once, in
sorted order, splits the edges into bounded and unbounded and builds its
spanning forest once.  Validation walks the edges once, in sorted id
order, measuring each bounded edge, and then sums the balancing residuals
in place in one more pass over them.  The first fault met in that order
is the one reported.

A bounded edge whose endpoints share a position is contracted, of length
0.  Contracted edges must carry a direction entry in input files; the zero
vector means "no virtual direction" (stored as None), a nonzero vector is
the virtual direction of the degenerating family and participates in
per-vertex balancing.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from .errors import PreconditionError, ValidationError
from .graphs import AbstractGraph, Flag, spanning_forest
from .inputs import INT_BOUND, MAX_ID, ambient_dim, bounded_id, integer_direction, positive_weight, rationals
from .linalg import content_and_primitive, is_primitive

# Largest curve file parse_curve accepts.  The worst case measured is a
# 256-edge loop chain (genus 51, 153 vertices) in Q^16 (inputs.MAX_DIM):
# `obstruction --method xi` takes 0.16 s and peaks at 23 MB, and prints a
# 62 MB report, whose dense basis format grows like edges^2 * n^2; the
# bound holds that output down.  With positions at inputs.MAX_BITS,
# `classify` and `abundancy` on such a chain take 0.10 s each.  In Q^3 a
# 511-edge chain takes 0.10 s (`--method xi`) with the bound lifted.
# Medians of 7 whole-process runs (the middle of three such medians),
# standard output to a file, without cached bytecode, on a shared 2-vCPU
# Xeon, Python 3.11; the largest benchmark curve has 201 edges.
MAX_VERTICES = 256
MAX_EDGES = 256


class CombinatorialType:
    """Graph plus direction map; no positions or lengths.  A zero direction
    is stored as None, "no direction", as `parse_curve` reads it."""

    def __init__(self, graph: AbstractGraph, n: int, directions: Mapping[str, tuple | None]):
        self.graph = graph
        self.n = n
        self.directions = {eid: d if d and any(d) else None for eid, d in directions.items()}

    def flag_direction(self, flag: Flag) -> tuple:
        """Primitive integer direction at the flag's vertex (zero if none)."""
        d = self.directions.get(flag.edge)
        if d is None:
            return tuple([0] * self.n)
        return d if flag.slot == 0 else tuple(-x for x in d)


class TropicalCurve(CombinatorialType):
    """A combinatorial type with rational vertex positions.

    Position entries are ints or Fractions, exact either way; `parse_curve`
    reads an integer entry as an int.

    `lengths` maps each bounded edge to its lattice length, 0 for a
    contracted edge; validation derives it with the edge's direction from
    the position difference, so no method measures an edge again.
    """

    def __init__(
        self,
        graph: AbstractGraph,
        n: int,
        positions: Mapping[str, Sequence[int | Fraction]],
        directions: Mapping[str, tuple | None],
    ):
        self.graph = graph
        self.n = n
        self.positions = {v: tuple(positions[v]) for v in graph.vertex_ids}
        self.lengths = {}
        self.directions = {eid: directions.get(eid) for eid in graph.edge_ids}
        _validate_curve(self)

    def is_contracted(self, eid: str) -> bool:
        return self.lengths.get(eid) == 0

    def edge_length(self, eid: str) -> int | Fraction:
        """Lattice length: position difference = length * primitive direction."""
        if self.graph.edges[eid].is_unbounded:
            raise PreconditionError("unbounded-length", f"edge {eid} is unbounded", edge=eid)
        return self.lengths[eid]

    def __eq__(self, other):
        return (
            isinstance(other, TropicalCurve)
            and self.n == other.n
            and self.graph.vertex_ids == other.graph.vertex_ids
            and self.graph.edges == other.graph.edges
            and self.positions == other.positions
            and self.directions == other.directions
        )


def _validate_curve(c: TropicalCurve):
    """Check the curve and store the length of each bounded edge, and the
    direction of each one whose direction is omitted.

    A position difference of ints has the gcd of its entries as its length
    and the quotient as its direction: what `content_and_primitive` gives,
    without its lcm of denominators that are all 1.  A difference with a
    Fraction entry goes through `content_and_primitive`."""
    positions, directions = c.positions, c.directions
    for eid, e in c.graph.edges.items():
        a, b = e.ends
        d = directions[eid]
        if b is None:
            if d is None:
                raise ValidationError(
                    "missing-direction", f"unbounded edge {eid} needs a nonzero direction", edge=eid
                )
            if not is_primitive(d):
                raise ValidationError(
                    "non-primitive", f"edge {eid} direction is not primitive", edge=eid
                )
            continue
        start, end = positions[a], positions[b]
        if start == end:
            c.lengths[eid] = 0
            if d is not None and not is_primitive(d):
                raise ValidationError(
                    "non-primitive",
                    f"contracted edge {eid} virtual direction is not primitive",
                    edge=eid,
                )
            continue
        diff = [y - x for x, y in zip(start, end)]
        for x in diff:
            if type(x) is not int:
                c.lengths[eid], prim = content_and_primitive(diff)
                break
        else:
            c.lengths[eid] = length = gcd(*diff)
            prim = tuple([x // length for x in diff])
        if d is None:
            directions[eid] = prim
        elif d != prim:
            raise ValidationError(
                "direction-mismatch",
                f"edge {eid} direction does not match endpoint positions",
                edge=eid,
            )
    require_balanced(c)


def require_balanced(c: CombinatorialType):
    """Raise `unbalanced` at the vertices where the directions do not balance."""
    bad = [v for v, r in balancing_residuals(c) if any(r)]
    if bad:
        raise ValidationError(
            "unbalanced", f"balancing fails at: {', '.join(bad)}", vertices=bad
        )


def balancing_residuals(c: CombinatorialType) -> list[tuple[str, tuple]]:
    """Per-vertex weighted direction sums; zero everywhere iff balanced.

    Contracted edges contribute their virtual direction when they have one
    (the curve is then a limit of honest curves) and nothing otherwise.
    One pass over the edges: w * d is added at ends[0] and subtracted at
    ends[1], the flag directions there, entry by entry into each vertex's
    running sum.  Sums are in vertex_ids order.
    """
    totals = {v: [0] * c.n for v in c.graph.vertex_ids}
    directions = c.directions
    for eid, e in c.graph.edges.items():
        d = directions[eid]
        if d is None:
            continue
        a, b = e.ends
        w = e.weight
        at, bt = totals[a], None if b is None else totals[b]
        for k, x in enumerate(d):
            if x:
                at[k] += w * x
                if bt is not None:
                    bt[k] -= w * x
    return [(v, tuple(t)) for v, t in totals.items()]


# -- file format --------------------------------------------------------------


def parse_curve(doc: dict) -> TropicalCurve:
    if not isinstance(doc, dict):
        raise ValidationError("schema", "curve document must be a JSON object")
    n = ambient_dim(doc, "schema")
    vs = doc.get("vertices")
    es = doc.get("edges")
    if not isinstance(vs, list) or not isinstance(es, list):
        raise ValidationError("schema", "vertices and edges must be lists")
    if len(vs) > MAX_VERTICES or len(es) > MAX_EDGES:
        raise ValidationError(
            "limit",
            f"{len(vs)} vertices and {len(es)} edges exceed the maximum "
            f"{MAX_VERTICES} vertices and {MAX_EDGES} edges of a curve",
        )
    positions = {}
    vertex_ids = []
    for item in vs:
        if not isinstance(item, dict) or not isinstance(item.get("id"), str):
            raise ValidationError("schema", "each vertex needs a string id")
        vid = item["id"]
        if len(vid) > MAX_ID:
            bounded_id(vid, "vertex id")  # raises
        pos = item.get("position")
        if not isinstance(pos, list) or len(pos) != n:
            raise ValidationError(
                "schema", f"vertex {vid} position must list {n} rationals", vertex=vid
            )
        positions[vid] = rationals(pos, "position", vid)
        vertex_ids.append(vid)
    edges = []
    directions = {}
    for item in es:
        if not isinstance(item, dict) or not isinstance(item.get("id"), str):
            raise ValidationError("schema", "each edge needs a string id")
        eid = item["id"]
        if len(eid) > MAX_ID:
            bounded_id(eid, "edge id")  # raises
        ends = item.get("ends")
        if not isinstance(ends, list) or len(ends) != 2 or not isinstance(ends[0], str):
            raise ValidationError(
                "schema", f"edge {eid} ends must be [vertex, vertex-or-null]", edge=eid
            )
        if ends[1] is not None and not isinstance(ends[1], str):
            raise ValidationError(
                "schema", f"edge {eid} second end must be a vertex id or null", edge=eid
            )
        d = item.get("direction")
        if d is not None:
            d = integer_direction(d, n, "schema", eid)
            d = d if any(d) else None
        else:
            if ends[1] is None:
                raise ValidationError(
                    "missing-direction", f"unbounded edge {eid} needs a direction", edge=eid
                )
            if (
                ends[1] in positions
                and ends[0] in positions
                and positions[ends[0]] == positions[ends[1]]
            ):
                raise ValidationError(
                    "missing-direction",
                    f"contracted edge {eid} needs a direction entry (zero vector for none)",
                    edge=eid,
                )
        weight = item.get("weight", 1)
        if type(weight) is not int or not 0 < weight < INT_BOUND:
            positive_weight(weight, "bad-weight", eid)  # raises, naming the fault
        edges.append((eid, (ends[0], ends[1]), weight))
        directions[eid] = d
    graph = AbstractGraph(vertex_ids, edges)
    return TropicalCurve(graph, n, positions, directions)


def serialize_curve(c: TropicalCurve) -> dict:
    vs = [
        {"id": v, "position": [str(x) for x in c.positions[v]]}
        for v in c.graph.vertex_ids
    ]
    es = []
    for eid in c.graph.edge_ids:
        e = c.graph.edges[eid]
        d = c.directions[eid]
        item = {
            "id": eid,
            "ends": [e.ends[0], e.ends[1]],
            "weight": e.weight,
            "direction": list(d) if d is not None else [0] * c.n,
        }
        es.append(item)
    return {"ambient_dim": c.n, "vertices": vs, "edges": es}


# -- degree, dimensions --------------------------------------------------------


def degree(c: TropicalCurve) -> tuple[tuple[tuple, int], ...]:
    """Multiset of weighted unbounded directions, as sorted (vector, count)."""
    counts: dict[tuple, int] = {}
    for eid in c.graph.unbounded_edge_ids():
        e = c.graph.edges[eid]
        u = c.flag_direction(Flag(e.ends[0], eid, 0))
        wu = tuple(e.weight * x for x in u)
        counts[wu] = counts.get(wu, 0) + 1
    return tuple(sorted(counts.items()))


def is_immersive(c: TropicalCurve) -> bool:
    return 0 not in c.lengths.values()


def expected_dim(obj) -> int:
    """e + (n - 3)(1 - g) for a curve or a combinatorial type."""
    g = obj.graph
    return len(g.unbounded_edge_ids()) + (obj.n - 3) * (1 - g.genus())


# -- image graph ---------------------------------------------------------------


def contract_image(c: TropicalCurve) -> TropicalCurve:
    """The curve after contracting its zero-length edges.

    Each contracted cluster becomes its smallest source vertex, so the image
    may have higher-valent vertices.  A curve with no contracted edge is its
    own image and is returned as it is.
    """
    contracted = [eid for eid in c.graph.bounded_edge_ids() if c.is_contracted(eid)]
    if not contracted:
        return c
    # a cycle of contracted edges is a contracted loop and is rejected
    forest = spanning_forest(c.graph, contracted)
    if forest.rest:
        eid = forest.rest[0]
        raise PreconditionError("contracted-loop", f"contracting edge {eid} collapses a loop", edge=eid)
    root = forest.root
    image_vertices = sorted(set(root.values()))
    edges = [
        (eid, (root[a], None if b is None else root[b]), weight)
        for eid, (a, b), weight in c.graph.edges.values()
        if not c.is_contracted(eid)
    ]
    graph = AbstractGraph(image_vertices, edges)
    positions = {v: c.positions[v] for v in image_vertices}
    return TropicalCurve(graph, c.n, positions, c.directions)


# -- star replacement ----------------------------------------------------------

# A replacement tree for a vertex is a nested structure over its edge ids:
# the top level is a 3-tuple of subtrees (the vertex keeps valence 3), every
# deeper level is a 2-tuple, and a leaf is an edge id.  A star of valence s
# therefore grows s - 3 new vertices, all 3-valent.


def _tree_leaves(t):
    """The leaves of a replacement tree: every item that is not a tuple or a list."""
    return [leaf for part in t for leaf in _tree_leaves(part)] if isinstance(t, (tuple, list)) else [t]


def replace_star(ct: CombinatorialType, vertex: str, tree, new_prefix: str) -> CombinatorialType:
    """Replace the star of a higher-valent vertex by a 3-valent tree.

    The tree's leaves must be exactly the edges at the vertex.  Each internal
    edge points from its parent down to the new node and carries the weighted
    direction sum of the leaves behind the node (primitive part as direction,
    content as weight); the flag sums then vanish at every new vertex.  A
    zero sum is rejected: the replacement would contract an edge.

    Once the leaves are checked, one walk down the tree builds the new type:
    a leaf moves its edge's end from the vertex to the node above it, and a
    node adds its vertex, new_prefix1, new_prefix2, ... in pre-order, and
    then, below its children, its edge, new_prefixedge1, ... in post-order.
    """
    g = ct.graph
    star = [eid for eid, _slot in g.incident(vertex)]
    if len(set(star)) != len(star):
        raise PreconditionError(
            "selfloop-star", f"cannot replace the star at {vertex}: a loop edge is attached twice", vertex=vertex
        )

    def bad(rule):
        return PreconditionError("bad-replacement", f"replacement tree for {vertex} must {rule}", vertex=vertex)

    if not isinstance(tree, (tuple, list)) or len(tree) != 3:
        raise bad("have three parts at the top")
    leaves = _tree_leaves(tree)
    if not all(isinstance(eid, str) for eid in leaves) or sorted(leaves) != sorted(star):
        raise bad("use exactly its incident edges")

    edges = dict(g.edges)
    nodes, added = [], []  # the new vertices in pre-order, their edges in post-order
    directions = dict(ct.directions)

    def build(t, above):
        """Attach subtree t below the vertex above; return the weighted
        direction sum of its leaves, at above."""
        if not isinstance(t, (tuple, list)):
            eid, (a, b), weight = g.edges[t]
            slot = 0 if a == vertex else 1
            edges[eid] = (eid, (above, b) if slot == 0 else (a, above), weight)
            return tuple(weight * x for x in ct.flag_direction(Flag(vertex, eid, slot)))
        if len(t) != 2:
            raise bad("branch in pairs below the top")
        node = f"{new_prefix}{len(nodes) + 1}"
        nodes.append(node)
        total = tuple(x + y for x, y in zip(build(t[0], node), build(t[1], node)))
        if not any(total):
            raise PreconditionError(
                "zero-direction-split", f"replacement at {vertex} creates a contracted internal edge", vertex=vertex
            )
        eid = f"{new_prefix}edge{len(added) + 1}"
        weight, directions[eid] = content_and_primitive(total)
        added.append((eid, (above, node), weight))
        return total

    for part in tree:
        build(part, vertex)
    graph = AbstractGraph([*g.vertex_ids, *nodes], [*edges.values(), *added])
    return CombinatorialType(graph, ct.n, directions)

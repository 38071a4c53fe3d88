"""Abstract weighted graphs with flags, genus, and loop decomposition.

Graphs may have parallel edges and (rarely useful but legal) self-loops.
Unbounded edges have exactly one vertex endpoint; the missing endpoint is
represented by None.  All iteration orders are fixed by sorted ids so that
every downstream matrix and report is reproducible.

Each graph splits its edges into bounded and unbounded ones once, when it
is made, and `bounded_edge_ids` and `unbounded_edge_ids` return the stored
tuples.  It builds one greedy spanning forest over its sorted bounded edges
at the same time.  That forest answers the cycle questions: the graph is
connected when the forest has one root, the genus is the number of edges
left out of it, the loop part is the union of its fundamental cycles, and
the abundancy map has one row block per fundamental cycle.  Only the walk
that cuts the loop part into maximal chains steps over the graph itself,
from junction to junction (vertices with three or more loop-edge ends),
and it records each edge's sign on the way (`Chain.signs`).  The chains
are the variables of every flag system: one covector per chain, with
junction conditions where chains meet (`obstruction.flag_assembly` reads
them).  A graph is never changed once it is made, so `loop_part` and
`loop_decomposition` are cached attributes: each graph finds its loop
part and walks its chains at most once, and only when something reads
them.
"""

from __future__ import annotations

import collections
import functools
from typing import Iterable, NamedTuple

from .errors import ValidationError


class Edge(NamedTuple):
    id: str
    ends: tuple  # (vid, vid) bounded, (vid, None) unbounded
    weight: int

    @property
    def is_unbounded(self) -> bool:
        return self.ends[1] is None


class Flag(NamedTuple):
    vertex: str
    edge: str
    slot: int  # end index within the edge; disambiguates self-loop flags


class Chain(NamedTuple):
    """Maximal run of loop-part edges between junction vertices.

    vertices has one more entry than edges, and the walk leaves edges[j]
    from vertices[j].  An open chain runs from one junction to another (or
    back to the same one); for a closed chain (a cycle none of whose
    vertices is a junction) the first and last vertex coincide and the
    walk starts at the smallest edge id.  A self-loop at a junction is a
    chain of its own.

    signs holds, for each of edges, its sign sigma_e against the chain's
    covector, decided as the walk goes: +1 on the chain's smallest edge and
    on each edge that the walk leaves from the same end (ends[0] or ends[1])
    as that one, -1 on the others (`obstruction.flag_assembly`).
    """

    edges: tuple[str, ...]
    vertices: tuple[str, ...]
    signs: tuple[int, ...]
    closed: bool


class AbstractGraph:
    """Weighted connected finite graph with bounded and unbounded edges."""

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple]):
        vertices = list(vertices)
        known = set(vertices)
        if not known:
            raise ValidationError("empty-graph", "graph has no vertices")
        if len(known) != len(vertices):
            raise ValidationError("duplicate-vertex", "vertex ids must be unique")
        emap: dict[str, Edge] = {}
        for eid, ends, weight in edges:
            if eid in emap:
                raise ValidationError("duplicate-edge", f"edge id repeated: {eid}", edge=eid)
            if not isinstance(weight, int) or isinstance(weight, bool) or weight < 1:
                raise ValidationError("bad-weight", f"edge {eid} weight must be a positive integer", edge=eid)
            a, b = ends
            if a not in known or (b is not None and b not in known):
                raise ValidationError("unknown-endpoint", f"edge {eid} references an unknown vertex", edge=eid)
            emap[eid] = Edge(eid, (a, b), weight)
        self.vertex_ids: tuple[str, ...] = tuple(sorted(known))
        self.edge_ids: tuple[str, ...] = tuple(sorted(emap))
        self.edges: dict[str, Edge] = {eid: emap[eid] for eid in self.edge_ids}
        adj: dict[str, list[tuple[str, int]]] = {v: [] for v in self.vertex_ids}
        bounded, unbounded = [], []
        for eid, e in self.edges.items():
            a, b = e.ends
            adj[a].append((eid, 0))
            if b is None:
                unbounded.append(eid)
            else:
                adj[b].append((eid, 1))
                bounded.append(eid)
        self._bounded, self._unbounded = tuple(bounded), tuple(unbounded)
        # edges in sorted id order, slot 0 before slot 1: already sorted
        self._adj: dict[str, tuple[tuple[str, int], ...]] = {v: tuple(a) for v, a in adj.items()}
        for v in self.vertex_ids:
            if not self._adj[v]:
                raise ValidationError("isolated-vertex", f"vertex {v} has no incident edge", vertex=v)
        self.forest = spanning_forest(self, self._bounded)
        if len(set(self.forest.root.values())) > 1:
            raise ValidationError("disconnected", "graph is not connected")

    # -- basic structure ---------------------------------------------------

    def incident(self, v: str) -> tuple[tuple[str, int], ...]:
        """(edge id, slot) pairs at v, sorted by edge id then slot."""
        return self._adj[v]

    def valence(self, v: str) -> int:
        return len(self._adj[v])

    def bounded_edge_ids(self) -> tuple[str, ...]:
        """The bounded edge ids in sorted order, split from the unbounded
        ones once, when the graph is made."""
        return self._bounded

    def unbounded_edge_ids(self) -> tuple[str, ...]:
        """The unbounded edge ids in sorted order."""
        return self._unbounded

    def is_trivalent(self) -> bool:
        return all(self.valence(v) <= 3 for v in self.vertex_ids)

    # -- counts ------------------------------------------------------------

    def genus(self) -> int:
        return len(self.forest.rest)

    # -- loop decomposition --------------------------------------------------

    @functools.cached_property
    def loop_part(self) -> frozenset[str]:
        """Bounded edges whose interior removal lowers the first Betti number.

        These are the bounded edges that lie on a cycle, found as the union
        of the forest's fundamental cycles.  An edge lies on some cycle
        exactly when it lies on a fundamental cycle, because the fundamental
        cycles span the cycle space: a sum of them has a zero coefficient on
        every edge that none of them crosses.  A self-loop or a parallel
        edge is left out of the forest and closes a cycle of its own.
        """
        loop: set[str] = set()
        for eid in self.forest.rest:
            loop.update(fundamental_cycle(self, self.forest, eid))
        return frozenset(loop)

    @functools.cached_property
    def loop_decomposition(self) -> tuple[Chain, ...]:
        """The maximal chains of the loop part, in the order of their
        smallest edge id; together they hold each loop edge once."""
        return _cut_chains(self, self.loop_part)


def _cut_chains(g: AbstractGraph, loop: frozenset[str]) -> tuple[Chain, ...]:
    ends = collections.Counter(v for eid in loop for v in g.edges[eid].ends)  # a self-loop counts twice
    junctions = {v for v, k in ends.items() if k > 2}
    used: set[str] = set()

    def walk(v: str, eid: str, closed: bool) -> Chain:
        edges, verts, signs = [], [v], []
        while True:
            used.add(eid)
            edges.append(eid)
            a, b = g.edges[eid].ends
            signs.append(1 if a == v else -1)
            v = b if a == v else a  # a self-loop's other end is v again
            verts.append(v)
            if v in junctions:
                break
            for eid, _slot in g.incident(v):  # go on along v's other loop edge, if not yet walked
                if eid in loop and eid not in used:
                    break
            else:
                break
        if signs[edges.index(min(edges))] < 0:  # the smallest edge was left from ends[1]
            signs = [-s for s in signs]
        return Chain(tuple(edges), tuple(verts), tuple(signs), closed)

    chains = []
    for j in sorted(junctions):
        for eid, _slot in g.incident(j):
            if eid in loop and eid not in used:
                chains.append(walk(j, eid, closed=False))
    # leftover loop edges belong to cycles with no junction: closed chains
    for eid in sorted(loop):
        if eid not in used:
            chains.append(walk(g.edges[eid].ends[0], eid, closed=True))
    return tuple(sorted(chains, key=lambda c: min(c.edges)))


class Forest(NamedTuple):
    """A greedy spanning forest, as one parent pointer per vertex.

    rest lists, in the order given, the edges left out of the forest because
    they close a cycle; each closes one fundamental cycle
    (`fundamental_cycle`).  root maps every vertex to the smallest vertex of
    its component.  up maps every vertex to (parent, edge, sign, depth): the
    forest edge towards its root, with sign +1 when the walk from the root
    crosses it from ends[0] to ends[1] and -1 the other way, and its number
    of edges from the root.  A root's entry is (None, None, 0, 0).
    """

    rest: tuple[str, ...]
    root: dict[str, str]
    up: dict[str, tuple]


def spanning_forest(g: AbstractGraph, edges: Iterable[str]) -> Forest:
    """Greedy spanning forest of the bounded edges given, taken in order."""
    parent = dict(zip(g.vertex_ids, g.vertex_ids))
    tree: dict[str, list[tuple[str, str, int]]] = {v: [] for v in g.vertex_ids}
    rest = []
    for eid in edges:
        a, b = g.edges[eid].ends
        ra, rb = a, b
        while parent[ra] != ra:  # find the roots, halving the paths walked
            parent[ra] = ra = parent[parent[ra]]
        while parent[rb] != rb:
            parent[rb] = rb = parent[parent[rb]]
        if ra == rb:
            rest.append(eid)
        else:
            parent[max(ra, rb)] = min(ra, rb)  # each root is its component's smallest vertex
            tree[a].append((eid, b, 1))
            tree[b].append((eid, a, -1))
    root: dict[str, str] = {}
    up: dict[str, tuple] = {}
    for r in g.vertex_ids:
        if parent[r] != r:
            continue
        root[r] = r
        up[r] = (None, None, 0, 0)
        todo = [r]
        while todo:
            v = todo.pop()
            depth = up[v][3] + 1
            for eid, o, sign in tree[v]:
                if o not in up:
                    root[o] = r
                    up[o] = (v, eid, sign, depth)
                    todo.append(o)
    return Forest(tuple(rest), root, up)


def fundamental_cycle(g: AbstractGraph, forest: Forest, eid: str) -> dict[str, int]:
    """The cycle that eid, an edge of forest.rest, closes in the forest.

    The cycle runs along eid from ends[0] to ends[1] and back through the
    forest; it is returned as {edge: +1} for the edges it crosses from
    ends[0] to ends[1] and {edge: -1} for the others.  Both ends climb to
    the vertex where they meet, so the cost is the cycle's length.
    """
    a, b = g.edges[eid].ends
    cycle = {eid: 1}
    up = forest.up
    while a != b:
        if up[a][3] >= up[b][3]:
            a, e, sign, _depth = up[a]
            cycle[e] = sign
        else:
            b, e, sign, _depth = up[b]
            cycle[e] = -sign
    return cycle


"""Abstract weighted graphs with flags, genus, and loop decomposition.

Graphs may have parallel edges and (rarely useful but legal) self-loops.
Unbounded edges have exactly one vertex endpoint; the missing endpoint is
represented by None.  All iteration orders are fixed by sorted ids so that
every downstream matrix and report is reproducible.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import PreconditionError, ValidationError


class Edge(NamedTuple):
    id: str
    ends: tuple  # (vid, vid) bounded, (vid, None) unbounded
    weight: int

    @property
    def is_unbounded(self) -> bool:
        return self.ends[1] is None

    @property
    def is_selfloop(self) -> bool:
        return not self.is_unbounded and self.ends[0] == self.ends[1]


class Flag(NamedTuple):
    vertex: str
    edge: str
    slot: int  # end index within the edge; disambiguates self-loop flags


class Chain(NamedTuple):
    """Maximal run of loop-part edges between junction vertices.

    vertices has one more entry than edges for open chains; for a closed
    chain (a cycle none of whose vertices is a junction) the first and last
    vertex coincide and the walk starts at the smallest edge id.
    """

    edges: tuple[str, ...]
    vertices: tuple[str, ...]
    closed: bool


class LoopDecomposition(NamedTuple):
    loop_edges: frozenset[str]
    chains: tuple[Chain, ...]


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
        self._adj: dict[str, list[tuple[str, int]]] = {v: [] for v in self.vertex_ids}
        for eid in self.edge_ids:
            e = self.edges[eid]
            self._adj[e.ends[0]].append((eid, 0))
            if e.ends[1] is not None:
                self._adj[e.ends[1]].append((eid, 1))
        for v in self.vertex_ids:
            if not self._adj[v]:
                raise ValidationError("isolated-vertex", f"vertex {v} has no incident edge", vertex=v)
        if not self._connected():
            raise ValidationError("disconnected", "graph is not connected")

    # -- basic structure ---------------------------------------------------

    def _connected(self) -> bool:
        seen = {self.vertex_ids[0]}
        stack = [self.vertex_ids[0]]
        while stack:
            v = stack.pop()
            for eid, slot in self._adj[v]:
                o = self.edges[eid].ends[1 - slot]
                if o is not None and o not in seen:
                    seen.add(o)
                    stack.append(o)
        return len(seen) == len(self.vertex_ids)

    def incident(self, v: str) -> list[tuple[str, int]]:
        """(edge id, slot) pairs at v, sorted by edge id then slot."""
        return sorted(self._adj[v])

    def valence(self, v: str) -> int:
        return len(self._adj[v])

    def flags(self) -> list[Flag]:
        out = []
        for eid in self.edge_ids:
            e = self.edges[eid]
            out.append(Flag(e.ends[0], eid, 0))
            if e.ends[1] is not None:
                out.append(Flag(e.ends[1], eid, 1))
        return out

    def bounded_edge_ids(self) -> list[str]:
        return [eid for eid in self.edge_ids if not self.edges[eid].is_unbounded]

    def unbounded_edge_ids(self) -> list[str]:
        return [eid for eid in self.edge_ids if self.edges[eid].is_unbounded]

    def is_trivalent(self) -> bool:
        return all(self.valence(v) <= 3 for v in self.vertex_ids)

    # -- counts ------------------------------------------------------------

    def genus(self) -> int:
        return len(self.bounded_edge_ids()) - len(self.vertex_ids) + 1

    # -- loop decomposition --------------------------------------------------

    def loop_part(self) -> frozenset[str]:
        """Bounded edges whose interior removal lowers the first Betti number.

        These are the bounded edges that are not bridges, found by one
        iterative depth-first search with low points (Tarjan 1972).  The
        search steps over edge ids rather than parent vertices, so a
        parallel edge or a self-loop is never mistaken for a bridge.
        """
        order = {self.vertex_ids[0]: 0}
        low = dict(order)
        bridges = set()
        stack = [(self.vertex_ids[0], None, iter(self._adj[self.vertex_ids[0]]))]
        while stack:
            v, via, todo = stack[-1]
            for eid, slot in todo:
                o = self.edges[eid].ends[1 - slot]
                if o is None or eid == via:
                    continue
                if o in order:
                    low[v] = min(low[v], order[o])
                else:
                    order[o] = low[o] = len(order)
                    stack.append((o, eid, iter(self._adj[o])))
                    break
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] > order[p]:
                        bridges.add(via)
        return frozenset(self.bounded_edge_ids()).difference(bridges)

    def loop_decomposition(self) -> LoopDecomposition:
        loop = self.loop_part()
        return LoopDecomposition(loop, _cut_chains(self, loop))


def _loop_valence(g: AbstractGraph, loop: frozenset[str]) -> dict[str, int]:
    val = {v: 0 for v in g.vertex_ids}
    for eid in loop:
        for v in g.edges[eid].ends:
            val[v] += 1  # a self-loop contributes twice via its two ends
    return val


def _cut_chains(g: AbstractGraph, loop: frozenset[str]) -> tuple[Chain, ...]:
    lval = _loop_valence(g, loop)
    junctions = {v for v, k in lval.items() if k >= 3}
    used: set[str] = set()
    chains: list[Chain] = []

    def walk(start_v: str, eid: str) -> Chain:
        edges = [eid]
        verts = [start_v]
        used.add(eid)
        e = g.edges[eid]
        cur = e.ends[1] if e.ends[0] == start_v else e.ends[0]
        if e.is_selfloop:
            cur = start_v
        verts.append(cur)
        while cur not in junctions:
            nxt = None
            for fid, slot in g.incident(cur):
                if fid in loop and fid not in used:
                    nxt = (fid, slot)
                    break
            if nxt is None:
                break
            fid, slot = nxt
            used.add(fid)
            edges.append(fid)
            f = g.edges[fid]
            cur = f.ends[1 - slot]
            verts.append(cur)
        return Chain(tuple(edges), tuple(verts), closed=False)

    for j in sorted(junctions):
        for eid, _slot in g.incident(j):
            if eid in loop and eid not in used:
                chains.append(walk(j, eid))
    # leftover loop edges belong to cycles with no junction: closed chains
    leftover = sorted(loop - used)
    while leftover:
        start = leftover[0]
        e = g.edges[start]
        ch = walk(e.ends[0], start)
        chains.append(Chain(ch.edges, ch.vertices, closed=True))
        leftover = sorted(loop - used)
    return tuple(sorted(chains, key=lambda c: c.edges[0]))


class Forest(NamedTuple):
    """A spanning forest and the signed paths to its roots.

    rest lists, in the order given, the edges left out of the forest because
    they close a cycle.  root maps every vertex to the smallest vertex of its
    component.  path maps every vertex to the forest edges from its root to
    it, as {edge: +1} when the walk crosses the edge from ends[0] to ends[1]
    and {edge: -1} when it crosses the other way.
    """

    rest: tuple[str, ...]
    root: dict[str, str]
    path: dict[str, dict[str, int]]


def spanning_forest(g: AbstractGraph, edges: Iterable[str]) -> Forest:
    """Greedy spanning forest of the bounded edges given, taken in order."""
    parent = {v: v for v in g.vertex_ids}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree: dict[str, list[tuple[str, str, int]]] = {v: [] for v in g.vertex_ids}
    rest = []
    for eid in edges:
        a, b = g.edges[eid].ends
        ra, rb = find(a), find(b)
        if ra == rb:
            rest.append(eid)
        else:
            parent[max(ra, rb)] = min(ra, rb)  # each root is its component's smallest vertex
            tree[a].append((eid, b, 1))
            tree[b].append((eid, a, -1))
    root = {v: find(v) for v in g.vertex_ids}
    path: dict[str, dict[str, int]] = {}
    for r in g.vertex_ids:
        if root[r] != r:
            continue
        path[r] = {}
        todo = [r]
        while todo:
            v = todo.pop()
            for eid, o, sign in tree[v]:
                if o not in path:
                    path[o] = {**path[v], eid: sign}
                    todo.append(o)
    return Forest(tuple(rest), root, path)


def require_trivalent(g: AbstractGraph, what: str = "operation"):
    bad = [v for v in g.vertex_ids if g.valence(v) > 3]
    if bad:
        raise PreconditionError(
            "not-trivalent",
            f"{what} requires a 3-valent graph; offending vertices: {', '.join(bad)}",
            vertices=bad,
        )

"""Dual obstruction spaces from combinatorial types, and abundancy maps.

The obstruction dual H is the kernel of a flag system: every bounded flag
carries a covector, opposite on the two flags of an edge and zero on edges
outside the loop part, subject to linear conditions at each vertex.
`flag_assembly` reads the loop part from the graph and writes the rows
over one n-covector per loop edge, in the one column order of sorted edge
ids, and `flag_system` solves them and gives a basis of H in
per-flag form: each basis vector is a {Flag: covector} dict that holds only
its nonzero covectors, so it costs its nonzeros and not the number of flags
(a basis vector of a genus-40 loop chain is nonzero on about 6 of its 240
flags).  The assembly writes the conditions of every method: the covectors
at a vertex sum to zero and each is perpendicular to its edge direction.
The chain method (here) adds nothing to them, so a maximal chain carries
one covector and junction vertices impose the signed sums; the residue
method (`residues.xi_map`) adds the residue sums at each vertex of valence
above 3, since at the others they follow from the shared conditions.

Where only a dimension is reported, no basis is built: dim H is the number
of columns minus the rank of the assembled rows (`linalg.rank`), as in
`dual_obstruction_dim`, and the abundancy maps report ranks the same way.
"""

from __future__ import annotations

import itertools

from .curves import TropicalCurve, contract_image, expected_dim
from .errors import PreconditionError
from .graphs import AbstractGraph, Flag, Forest, fundamental_cycle, spanning_forest
from .linalg import Q0, content_and_primitive, kernel, rank, row_blocks


def flag_assembly(g: AbstractGraph, n: int, directions, vertex_rows=()) -> tuple:
    """The rows of a flag system over one n-covector w_e per edge e of
    `g.loop_part()`.

    The flag at slot 0 of e carries +w_e and the flag at slot 1 carries
    -w_e; flags of other edges carry zero.  Returns (flag_pairs, rows):
    flag_pairs holds the (slot 0, slot 1) flags of each loop edge, in sorted
    edge order, and columns i * n .. i * n + n - 1 hold the covector of the
    i-th pair.  The shared conditions are written here: n rows per vertex
    with a loop flag say that the covectors on its loop flags sum to zero,
    and unless `directions` ({edge id: direction}) is None, one row per loop
    edge says that w_e is perpendicular to its direction.  `vertex_rows`
    yields a method's own conditions, placed by `place_rows`.
    """
    loop = g.loop_part()
    flag_pairs = [(Flag(g.edges[eid].ends[0], eid, 0), Flag(g.edges[eid].ends[1], eid, 1)) for eid in sorted(loop)]
    perpendicular = () if directions is None else (
        ([f0], [{k: x for k, x in enumerate(directions[f0.edge]) if x}]) for f0, _f1 in flag_pairs
    )
    stars = ([Flag(v, eid, slot) for eid, slot in g.incident(v) if eid in loop] for v in g.vertex_ids)
    sums = ((f, [dict.fromkeys(range(k, len(f) * n, n), 1) for k in range(n)]) for f in stars if f)
    return flag_pairs, place_rows(n, flag_pairs, itertools.chain(perpendicular, sums, vertex_rows))


def place_rows(n: int, flag_pairs, vertex_rows) -> list[dict]:
    """Vertex conditions as rows over the columns of `flag_pairs`.

    `vertex_rows` yields (flags, rows) pairs: each row is a condition at one
    vertex, a sparse {i * n + k: coefficient} dict over the concatenated
    n-covectors of those flags, so key i * n + k is entry k of the covector
    at flags[i].  A term on a slot-1 flag changes sign, since that flag
    carries -w_e.  Terms on flags of edges outside the loop part are
    dropped, and so is a row they leave empty.
    """
    base = {f0.edge: i * n for i, (f0, _f1) in enumerate(flag_pairs)}
    rows = []
    for flags, local_rows in vertex_rows:
        for local in local_rows:
            row = {}
            for key, c in local.items():
                i, k = divmod(key, n)
                b = base.get(flags[i].edge)
                if b is not None:
                    row[b + k] = row.get(b + k, 0) + (c if flags[i].slot == 0 else -c)
            if row:
                rows.append(row)
    return rows


def flag_system(g: AbstractGraph, n: int, edges, directions=None, vertex_rows=()) -> dict:
    """Kernel of the flag system that `flag_assembly` writes, from one
    elimination of its rows (`linalg.kernel`).

    Returns its dimension, `flag_order` (the flags of `edges`, sorted
    bounded edge ids that include the loop part, edge by edge with slot 0
    first) and the basis: one {Flag: covector} dict per row of the
    canonical kernel basis, written in one pass over that row's nonzeros.
    It holds both flags of each edge on which the row is nonzero, +w_e and
    -w_e as tuples, and no other flag: a flag of `flag_order` that it does
    not hold carries the zero covector.
    """
    flag_pairs, rows = flag_assembly(g, n, directions, vertex_rows)
    space = kernel(len(flag_pairs) * n, rows)
    flag_order = tuple(Flag(g.edges[eid].ends[s], eid, s) for eid in edges for s in (0, 1))
    basis = []
    for w in space:
        assignment = {}
        for i, cov in row_blocks(w, n).items():
            f0, f1 = flag_pairs[i]
            assignment[f0] = cov
            assignment[f1] = tuple(-x for x in cov)
        basis.append(assignment)
    return {"dim": len(space), "flag_order": flag_order, "basis": basis}


# -- compatible numberings -----------------------------------------------------


def compatible_numbering_space(g: AbstractGraph) -> dict:
    """Scalar flag numberings: zero on unbounded flags, summing to zero at
    each vertex and across each bounded edge.  The dimension equals the genus.
    Solved over the loop part, as the vertex sums force zero on a bridge.
    """
    return flag_system(g, 1, g.bounded_edge_ids())


# -- chain-method obstruction dual ----------------------------------------------


def _chain_loop(ct) -> list:
    """The sorted loop part of ct, once ct is checked to have valences at
    most 3 and then a direction on every loop edge, as the chain method needs."""
    g = ct.graph
    bad = [v for v in g.vertex_ids if g.valence(v) > 3]
    if bad:
        raise PreconditionError(
            "not-trivalent",
            f"the chain obstruction requires a 3-valent graph; offending vertices: {', '.join(bad)}",
            vertices=bad,
        )
    loop = sorted(g.loop_part())
    for eid in loop:
        if ct.directions.get(eid) is None:
            raise PreconditionError(
                "zero-direction-loop",
                f"loop edge {eid} has no direction; chains need one on every loop edge",
                edge=eid,
            )
    return loop


def dual_obstruction_chain(ct) -> dict:
    """Obstruction dual H of a combinatorial type, from directions only.

    Requires valences at most 3 and a direction on every loop edge.  Returns
    the kernel's dimension, a basis in per-flag form, and the maximal chains
    with their perpendicular spaces.
    """
    g, n = ct.graph, ct.n
    loop = _chain_loop(ct)
    out = flag_system(g, n, loop, ct.directions)
    chains = []
    for chain in g.loop_decomposition():
        perp = kernel(n, [ct.directions[eid] for eid in chain.edges])
        chains.append(
            {
                "edges": list(chain.edges),
                "closed": chain.closed,
                "perp": [content_and_primitive(row_blocks(bv, n)[0])[1] for bv in perp],
            }
        )
    out["loop_edges"] = loop
    out["chains"] = chains
    return out


def dual_obstruction_dim(ct) -> int:
    """dim H of `dual_obstruction_chain`, with its preconditions and errors,
    as the number of columns minus the rank of the chain rows; no basis is
    built."""
    _chain_loop(ct)
    flag_pairs, rows = flag_assembly(ct.graph, ct.n, ct.directions)
    columns = len(flag_pairs) * ct.n
    return columns - rank(columns, rows)


def parameter_dimension(obj) -> int:
    """Dimension of the deformation space of the combinatorial type."""
    return expected_dim(obj) + dual_obstruction_dim(obj)


# -- abundancy ------------------------------------------------------------------


def _cycle_rows(c: TropicalCurve, forest: Forest, eid: str, col: dict) -> list:
    """The n rows of length-weighted directions around the cycle that the
    non-tree edge eid closes, over the loop-edge columns `col`."""
    rows = [{} for _ in range(c.n)]
    for e2, s in fundamental_cycle(c.graph, forest, eid).items():
        u = c.directions[e2]
        if u is None:
            raise PreconditionError(
                "zero-direction-loop",
                f"loop edge {e2} has no direction; the abundancy map needs one",
                edge=e2,
            )
        le = c.edge_length(e2)
        for k in range(c.n):
            rows[k][col[e2]] = s * le * u[k]
    return rows


def abundancy_map(c: TropicalCurve):
    """Length-weighted cycle-direction map; surjective iff rank is genus * n.

    Returns (rank, surjective).  The map's rows come in blocks of n per
    fundamental cycle of the greedy spanning tree over sorted bounded edges;
    columns are indexed by the loop edges in sorted order.
    """
    g = c.graph
    col = {eid: j for j, eid in enumerate(sorted(g.loop_part()))}
    rows = []
    for eid in g.forest.rest:
        rows.extend(_cycle_rows(c, g.forest, eid, col))
    r = rank(len(col), rows)
    return r, r == g.genus() * c.n


def reduced_abundancy_map(c: TropicalCurve):
    """Abundancy composed with the quotients by the cut edge directions.

    The cut edges are the lexicographically first bounded edge set whose
    removal leaves a tree: the edges outside the greedy spanning tree built
    over the bounded edges in reverse order.  For each cut edge the n cycle
    rows are replaced by n-1 rows, one per vector of the canonical basis of
    the covectors vanishing on its direction, killing the cut edge's own
    column.  Returns (rank, cut_edges); the map is onto iff rank equals
    (n-1) * genus, and the obstruction dual dimension is the difference.
    """
    g = c.graph
    n = c.n
    forest = spanning_forest(g, reversed(g.bounded_edge_ids()))
    cut = sorted(forest.rest)
    col = {eid: j for j, eid in enumerate(sorted(g.loop_part()))}
    rows = []
    for eid in cut:
        d = c.directions[eid]
        if d is None:
            raise PreconditionError(
                "zero-direction-loop",
                f"cut edge {eid} has no direction; the reduced map needs one",
                edge=eid,
            )
        ann = kernel(n, [d])
        cycle_rows = _cycle_rows(c, forest, eid, col)
        for a in ann:
            row = {}
            for k, ak in a.items():
                for j, x in cycle_rows[k].items():
                    row[j] = row.get(j, Q0) + ak * x
            rows.append(row)
    return rank(len(col), rows), cut


# -- classification --------------------------------------------------------------


def classify_report(curve: TropicalCurve) -> dict:
    """Superabundance under both definitions, plus the supporting numbers.

    Definition 1 compares the deformation space dimension with the expected
    count (positive obstruction dual dimension).  Definition 2 asks whether
    the image curve's abundancy map is onto.
    """
    dim = dual_obstruction_dim(curve)
    expected = expected_dim(curve)
    report = {
        "dim_obstruction_dual": dim,
        "expected_dim": expected,
        "parameter_dim": expected + dim,
        "superabundant_def1": dim > 0,
    }
    try:
        image = contract_image(curve)
        rank, surjective = abundancy_map(image)
        report["abundancy_rank"] = rank
        report["abundancy_target_dim"] = image.graph.genus() * curve.n
        report["superabundant_def2"] = not surjective
    except PreconditionError as exc:
        report["abundancy_rank"] = None
        report["abundancy_target_dim"] = None
        report["superabundant_def2"] = None
        report["abundancy_note"] = exc.message
    return report

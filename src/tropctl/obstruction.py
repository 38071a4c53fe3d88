"""Dual obstruction spaces from combinatorial types, and abundancy maps.

The obstruction dual H is the kernel of a flag system: every bounded flag
carries a covector, opposite on the two flags of an edge and zero on edges
outside the loop part, subject to linear conditions at each vertex.  The
conditions of every method include that the covectors at a vertex sum to
zero and that each is perpendicular to its edge direction.  At a vertex
inside a maximal chain of the loop part the sum says only that the
covector goes on along the chain, up to sign, so every flag system has one
n-covector per chain of `graphs.AbstractGraph.loop_decomposition`, with a
fixed sign on each of its edges: the graph's one column map
(`AbstractGraph.chain_of`) gives each loop edge its chain's columns and
its sign, and every row, of this module or of `residues`, is written
straight into those columns.  `flag_assembly` writes the perpendicularity
rows and the sums at the junctions, where chains meet, from the ends of
the chains: a genus-40 loop chain in R^3 gives a 120x120 system, not the
480x360 of one covector per loop edge.  `flag_system` solves it, with a
method's own rows added, and gives a basis of H as the kernel solved it,
in chain blocks: each basis vector holds W_c for the chains where it is
nonzero, and `places` says which flags, with which sign, each chain's W_c
fills, so a vector costs its nonzero blocks and not the number of flags (a
basis vector of a genus-40 loop chain is nonzero on about 6 of its 240
flags).  Only a writer expands the blocks to flags.
The chain method (`dual_obstruction_chain`) is that system with nothing
added, solved by one elimination; the residue method (`residues.xi_map`)
adds the residue sums at each vertex of valence above 3, since at the
others they follow from the shared conditions.  The graph walks its chains
once and keeps them, however many systems read them.

Where only a dimension is reported, no basis is built: dim H is the number
of columns minus the rank of the assembled rows (`linalg.rank`), as in
`dual_obstruction_dim`, and the abundancy maps report ranks the same way.
"""

from __future__ import annotations

from .curves import TropicalCurve, contract_image, expected_dim
from .errors import PreconditionError
from .graphs import AbstractGraph, Flag, Forest, fundamental_cycle, spanning_forest
from .linalg import kernel, rank, row_blocks


def flag_assembly(g: AbstractGraph, n: int, directions) -> list[dict]:
    """The shared rows of a flag system over one n-covector W_c per maximal
    chain c of `g.loop_decomposition`, in the columns of `g.chain_of`:
    W_c of chains[i] takes columns i * n .. i * n + n - 1.

    A loop edge e of chain c carries w_e = sigma_e * W_c: the flag at slot 0
    of e carries +w_e, the flag at slot 1 carries -w_e, and flags of other
    edges carry zero.  sigma_e is read from `Chain.signs`, as the walk that
    cut the chain recorded it: +1 on the chain's smallest edge, and on each
    edge that the walk leaves from the same end as that one.  Unless
    `directions` ({edge id: direction}) is None, one row per loop edge, in
    chain order, says that W_c, so w_e, is perpendicular to its direction.

    Then come the vertex sums, n rows at each junction in sorted order,
    written from the ends of the chains.  The walk leaves each edge of c
    by a flag that carries eps_c * W_c and arrives by one that carries
    -eps_c * W_c, with eps_c = sigma of edges[0], negated unless the walk
    left edges[0] from its ends[0].  So at a vertex inside the chain the
    two flags cancel, and an open chain adds +eps_c * W_c to the sum at
    vertices[0] and -eps_c * W_c to the sum at vertices[-1].  The two
    terms cancel for a self-loop and for any chain whose two ends are one
    junction (and a closed chain has no junction), so such a chain adds
    nothing, and a junction that only such chains meet gets no rows.

    The chains are in the order of their smallest edge id, and so are those
    edges' columns in the per-edge form, one covector per loop edge in
    sorted edge order.  On every solution in that form, each other edge's
    columns are +-copies of its chain's smallest edge's, which sort earlier,
    so its reduced echelon form has its pivots in smallest-edge columns.
    So the canonical kernel basis over the chain columns, each row expanded
    to the edges of its chains, is the canonical basis in the per-edge form.
    """
    rows = [] if directions is None else [
        {i * n + k: x for k, x in enumerate(directions[eid]) if x} for eid, (i, _sign) in g.chain_of.items()
    ]
    sums = {}  # junction -> {chain index: coefficient of W_c in the junction's sum}
    for i, c in enumerate(g.loop_decomposition):
        if c.vertices[0] != c.vertices[-1]:
            eps = c.signs[0] if g.edges[c.edges[0]].ends[0] == c.vertices[0] else -c.signs[0]
            sums.setdefault(c.vertices[0], {})[i] = eps
            sums.setdefault(c.vertices[-1], {})[i] = -eps
    for v in sorted(sums):
        rows += [{i * n + k: x for i, x in sums[v].items()} for k in range(n)]
    return rows


def flag_system(g: AbstractGraph, n: int, edges, directions=None, method_rows=()) -> dict:
    """Kernel of the rows that `flag_assembly` writes followed by
    `method_rows`, a method's own conditions in the same chain columns,
    from one elimination (`linalg.kernel`).

    Returns its dimension, `flag_order` (the flags of `edges`, sorted
    bounded edge ids that include the loop part, edge by edge with slot 0
    first), `places` and the basis in block form: one `linalg.row_blocks`
    dict {chain index: W_c} per row of the canonical kernel basis, holding
    the chains where the row is nonzero.  places[i] lists the
    (position in `flag_order`, sign) pairs that W_c of chains[i] fills: the
    flag at slot 0 of each loop edge e of the chain carries +sigma_e * W_c
    and the flag at slot 1 carries -sigma_e * W_c.  No block reaches the
    flags of a non-loop edge, which carry the zero covector, as do the flags
    of the chains a row does not hold.  As `flag_assembly` says, the rows,
    so expanded, are the canonical basis over one covector per loop edge,
    so no second elimination is needed.
    """
    space = kernel(len(g.loop_decomposition) * n, flag_assembly(g, n, directions) + list(method_rows))
    flag_order, places = [], [[] for _ in g.loop_decomposition]
    for eid in edges:
        at = g.chain_of.get(eid)
        if at is not None:
            i, sign = at
            places[i] += [(len(flag_order), sign), (len(flag_order) + 1, -sign)]
        a, b = g.edges[eid].ends
        flag_order += [Flag(a, eid, 0), Flag(b, eid, 1)]
    basis = [row_blocks(w, n) for w in space]
    return {"dim": len(space), "flag_order": tuple(flag_order), "places": places, "basis": basis}


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
    loop = sorted(g.loop_part)
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
    the `flag_system` of the chain method over the sorted loop edges: the
    kernel's dimension, `flag_order`, `places` and a basis in chain blocks.
    """
    return flag_system(ct.graph, ct.n, _chain_loop(ct), ct.directions)


def dual_obstruction_dim(ct) -> int:
    """dim H of `dual_obstruction_chain`, with its preconditions and errors,
    as the number of columns minus the rank of the chain rows; no basis is
    built."""
    _chain_loop(ct)
    columns = len(ct.graph.loop_decomposition) * ct.n
    return columns - rank(columns, flag_assembly(ct.graph, ct.n, ct.directions))


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
    col = {eid: j for j, eid in enumerate(sorted(g.loop_part))}
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
    rows are replaced by n-1 rows, one per covector of a basis of those
    vanishing on its direction d, killing the cut edge's own column.  With
    q the last coordinate where d is nonzero, that basis is
    d[q] * e_f - d[f] * e_q for each f != q: integer covectors, written down
    without an elimination, which are `linalg.kernel`'s canonical basis of
    the annihilator of d scaled by d[q], so the rows span the same space and
    the rank is the same.  Row f is d[q] times cycle row f, minus d[f] times
    cycle row q where d[f] is nonzero.  Returns (rank, cut_edges); the map is
    onto iff rank equals (n-1) * genus, and the obstruction dual dimension
    is the difference.
    """
    g = c.graph
    n = c.n
    forest = spanning_forest(g, reversed(g.bounded_edge_ids()))
    cut = sorted(forest.rest)
    col = {eid: j for j, eid in enumerate(sorted(g.loop_part))}
    rows = []
    for eid in cut:
        d = c.directions[eid]
        if d is None:
            raise PreconditionError(
                "zero-direction-loop",
                f"cut edge {eid} has no direction; the reduced map needs one",
                edge=eid,
            )
        q = max(k for k in range(n) if d[k])
        cycle_rows = _cycle_rows(c, forest, eid, col)
        for f in range(n):
            if f == q:
                continue
            row = {j: d[q] * x for j, x in cycle_rows[f].items()}
            if d[f]:
                for j, x in cycle_rows[q].items():
                    row[j] = row.get(j, 0) - d[f] * x
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

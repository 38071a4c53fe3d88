"""Independent brute-force oracles for the acceptance tests.

Deliberately self-contained: the row reduction here is written from scratch
over Fractions and must not import the package's linear algebra, so that
dimension claims are checked by two unrelated code paths.  The cycle
reference builds a root path per vertex and merges the two paths of an
edge's ends, not the parent pointers that `tropctl.graphs` climbs.  The
Laurent references read the order off the difference series p - q and
build the phylogenetic tree from runs of equal order, not from where
neighbours first differ as `tropctl.laurent` does.  The flag-system
references assemble rows vertex by vertex, each vertex restating the
perpendicularity and sum conditions it shares with the others, where
`tropctl.obstruction.flag_system` writes those once per edge and vertex,
and they solve with every bounded edge as a variable, where the package
solves over the loop part and leaves bridges and twigs zero;
the residue reference writes the residue polynomial of every vertex
coefficient by coefficient, where `tropctl.residues` writes residue sums
and only at the vertices of valence above 3.
The abundancy references measure each edge from its end positions and take
the cycles from root paths.  Spans computed by the package (chain `perp`
spaces, obstruction bases, residue rows, `h_basis`) are compared through
`canonical_span`, the reduced echelon form that `row_reduce` gives, so such
a check rests on the package's elimination and this one, not on the
package's eliminator run twice.  `rational_str` is the rational format that
reports print, written out where the package uses `str`.
"""

from __future__ import annotations

from fractions import Fraction

from tropctl.errors import ValidationError
from tropctl.graphs import Flag
from tropctl.laurent import LaurentSeries, PhyloLeaf, PhyloNode
from tropctl.residues import LocalModel


def row_reduce(rows):
    """Plain Gauss-Jordan elimination; returns (reduced rows, pivot columns)."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def canonical_span(ncols, rows) -> tuple:
    """The canonical basis of the span of rows in Q^ncols: the nonzero rows
    of their reduced echelon form from `row_reduce`, as sparse
    {column: Fraction} rows in pivot order.  Equal spans give equal tuples.
    Rows are dense sequences or sparse {column: value} dicts."""
    dense = [[row.get(j, 0) for j in range(ncols)] if isinstance(row, dict) else row for row in rows]
    reduced, pivots = row_reduce(dense)
    return tuple({j: x for j, x in enumerate(row) if x} for row in reduced[: len(pivots)])


def matrix_rank(rows) -> int:
    _, pivots = row_reduce(rows)
    return len(pivots)


def nullspace(rows, ncols):
    """Basis of the right kernel, one vector per free column."""
    reduced, pivots = row_reduce(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def chain_perps(ct) -> list[tuple]:
    """For each maximal chain of ct's loop part, in chain order, the
    canonical span of the covectors perpendicular to all its directions,
    from `nullspace` (no `linalg.kernel`)."""
    return [
        canonical_span(ct.n, nullspace([ct.directions[eid] for eid in chain.edges], ct.n))
        for chain in ct.graph.loop_decomposition
    ]


def nullity(rows, ncols) -> int:
    if not rows:
        return ncols
    return ncols - matrix_rank(rows)


def rational_str(q) -> str:
    """An int or Fraction as "p/q", or "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# -- fundamental cycles from root paths ------------------------------------


def root_path_cycles(graph, edges):
    """(rest, root, cycles) of the greedy spanning forest of `edges`.

    A union-find takes the edges in order; rest lists the ones that close a
    cycle and root maps each vertex to its component's smallest vertex.
    Every vertex gets the signed forest path from its root ({edge: +1} when
    crossed from ends[0] to ends[1]), and the cycle of a rest edge a-b is
    {edge: 1} plus path(a) minus path(b), without the zero coefficients of
    the edges the two paths share.
    """
    parent = {v: v for v in graph.vertex_ids}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    tree = {v: [] for v in graph.vertex_ids}
    rest = []
    for eid in edges:
        a, b = graph.edges[eid].ends
        ra, rb = find(a), find(b)
        if ra == rb:
            rest.append(eid)
        else:
            parent[max(ra, rb)] = min(ra, rb)
            tree[a].append((eid, b, 1))
            tree[b].append((eid, a, -1))
    root = {v: find(v) for v in graph.vertex_ids}
    path = {}
    for r in graph.vertex_ids:
        if root[r] == r:
            path[r] = {}
            todo = [r]
            while todo:
                v = todo.pop()
                for eid, o, sign in tree[v]:
                    if o not in path:
                        path[o] = {**path[v], eid: sign}
                        todo.append(o)
    cycles = {}
    for eid in rest:
        a, b = graph.edges[eid].ends
        coeff = {eid: 1}
        for e, s in path[a].items():
            coeff[e] = coeff.get(e, 0) + s
        for e, s in path[b].items():
            coeff[e] = coeff.get(e, 0) - s
        cycles[eid] = {e: s for e, s in coeff.items() if s != 0}
    return tuple(rest), root, cycles


# -- abundancy maps from root-path cycles --------------------------------------


def abundancy_ranks(curve) -> tuple[int, int]:
    """Ranks of the abundancy map and of the reduced abundancy map.

    The full map has n rows per cycle of the greedy forest over the sorted
    bounded edges: entry k of the length-weighted direction of each cycle
    edge, signed as the cycle crosses it.  The reduced map takes the cycles
    of the greedy forest over the bounded edges in reverse order and
    combines each cycle's n rows by every vector of a null basis of its
    closing edge's direction.  Lengths are measured from the positions.
    """
    g, n = curve.graph, curve.n
    bounded = [eid for eid in g.edge_ids if g.edges[eid].ends[1] is not None]

    def length(eid):
        a, b = g.edges[eid].ends
        d = curve.directions[eid]
        k = next(k for k in range(n) if d[k])
        return Fraction(curve.positions[b][k] - curve.positions[a][k]) / d[k]

    def cycle_rows(cycle):
        return [{e: s * length(e) * curve.directions[e][k] for e, s in cycle.items()} for k in range(n)]

    rest, _root, cycles = root_path_cycles(g, bounded)
    rev_rest, _rev_root, rev_cycles = root_path_cycles(g, bounded[::-1])
    col = {e: j for j, e in enumerate(sorted({e for c in (*cycles.values(), *rev_cycles.values()) for e in c}))}

    def dense(row):
        out = [Fraction(0)] * len(col)
        for e, x in row.items():
            out[col[e]] = x
        return out

    full = [dense(row) for eid in rest for row in cycle_rows(cycles[eid])]
    reduced = []
    for eid in rev_rest:
        rows = [dense(row) for row in cycle_rows(rev_cycles[eid])]
        for a in nullspace([curve.directions[eid]], n):
            reduced.append([sum(a[k] * rows[k][j] for k in range(n)) for j in range(len(col))])
    return matrix_rank(full), matrix_rank(reduced)


# -- naive compatible-numbering flag system ----------------------------------


def all_flags(graph):
    """Every flag of the graph, edge by edge in sorted id order, slot 0 first."""
    out = []
    for eid in graph.edge_ids:
        e = graph.edges[eid]
        out.append(Flag(e.ends[0], eid, 0))
        if e.ends[1] is not None:
            out.append(Flag(e.ends[1], eid, 1))
    return out


def numbering_system(graph):
    """One scalar per flag (bounded and unbounded alike); rows pin unbounded
    flags to zero, sum each vertex's flags to zero, and sum each bounded
    edge's two flags to zero."""
    flags = all_flags(graph)
    index = {f: i for i, f in enumerate(flags)}
    nvars = len(flags)
    rows = []
    for f in flags:
        if graph.edges[f.edge].is_unbounded:
            row = [Fraction(0)] * nvars
            row[index[f]] = Fraction(1)
            rows.append(row)
    for v in graph.vertex_ids:
        row = [Fraction(0)] * nvars
        for eid, slot in graph.incident(v):
            row[index[Flag(v, eid, slot)]] += 1
        rows.append(row)
    for eid in graph.bounded_edge_ids():
        e = graph.edges[eid]
        row = [Fraction(0)] * nvars
        row[index[Flag(e.ends[0], eid, 0)]] += 1
        row[index[Flag(e.ends[1], eid, 1)]] += 1
        rows.append(row)
    return rows, nvars


def numbering_dimension(graph) -> int:
    rows, nvars = numbering_system(graph)
    return nullity(rows, nvars)


# -- explicit deformation system ----------------------------------------------


def deformation_system(curve):
    """Unknowns: every vertex position (n each) and every bounded edge length.

    Each bounded edge contributes n rows: position difference minus length
    times the primitive direction.  The solution space is the tropical
    deformation space of the combinatorial type, including translations.
    """
    g = curve.graph
    n = curve.n
    vids = list(g.vertex_ids)
    bids = list(g.bounded_edge_ids())
    vindex = {v: i for i, v in enumerate(vids)}
    eindex = {e: len(vids) * n + i for i, e in enumerate(bids)}
    nvars = len(vids) * n + len(bids)
    rows = []
    for eid in bids:
        e = g.edges[eid]
        d = curve.directions[eid]
        for k in range(n):
            row = [Fraction(0)] * nvars
            row[vindex[e.ends[1]] * n + k] += 1
            row[vindex[e.ends[0]] * n + k] -= 1
            row[eindex[eid]] -= d[k]
            rows.append(row)
    return rows, nvars


def deformation_dimension(curve) -> int:
    rows, nvars = deformation_system(curve)
    return nullity(rows, nvars)


# -- span of direction vectors -------------------------------------------------


def span_dimension(vectors) -> int:
    rows = [list(map(Fraction, v)) for v in vectors]
    if not rows:
        return 0
    return matrix_rank(rows)


# -- residue polynomial of a local model, coefficient by coefficient ----------


def _poly_from_roots(roots):
    """Coefficients, low degree first, of prod (x - r) over the roots."""
    coeffs = [Fraction(1)]
    for r in roots:
        times_x = [Fraction(0)] + coeffs
        coeffs = [a - r * b for a, b in zip(times_x, coeffs + [Fraction(0)])]
    return coeffs


def residue_coefficient_rows(model):
    """(rows, unknown count) of a local model's obstruction system, with the
    residue polynomial written out coefficient by coefficient.

    Unknowns: one covector of n entries per bounded slot, in slot order.
    Rows: each bounded covector is perpendicular to its own direction, the
    covectors sum to zero, and every coefficient of

        P(x) = sum over finite i != j of a[i,j] * prod over finite l != i, j of (x - p_l)

    vanishes, where a[i,j] = weight_i * w_j(direction_i).
    """
    n = model.n
    bounded = [rec for rec in model.slots if rec.bounded]
    start = {rec.label: i * n for i, rec in enumerate(bounded)}
    nvars = len(bounded) * n
    rows = []
    for rec in bounded:
        row = [Fraction(0)] * nvars
        for t in range(n):
            row[start[rec.label] + t] = Fraction(rec.direction[t])
        rows.append(row)
    for t in range(n):
        row = [Fraction(0)] * nvars
        for rec in bounded:
            row[start[rec.label] + t] = Fraction(1)
        rows.append(row)
    finite = model.finite
    m = len(finite)
    coeff_rows = [[Fraction(0)] * nvars for _ in range(m - 1)]
    for i in range(m):
        for j in range(m):
            if i == j or not finite[j].bounded:
                continue
            others = [model.coords[l] for l in range(m) if l not in (i, j)]
            for deg, c in enumerate(_poly_from_roots(others)):
                for t in range(n):
                    coeff_rows[deg][start[finite[j].label] + t] += (
                        c * finite[i].weight * finite[i].direction[t]
                    )
    return rows + coeff_rows, nvars


# -- flag systems assembled vertex by vertex -----------------------------------


def per_vertex_flag_kernel(g, n, edges, vertex_rows) -> dict:
    """The flag-system kernel in the form `obstruction.flag_system` reports,
    with `flag_order` over the flags of edges.

    Each (flags, rows) pair of vertex_rows holds conditions at one vertex,
    {i * n + k: coefficient} over the concatenated n-covectors of those
    flags.  Every bounded edge e is a variable: the flag at slot 0 carries
    +w_e, the flag at slot 1 carries -w_e, and unbounded flags zero.  The
    kernel is solved densely, and its basis is the reduced echelon form of
    the kernel, one {Flag: covector} dict of the nonzero covectors per row.
    """
    var = g.bounded_edge_ids()
    base = {eid: i * n for i, eid in enumerate(var)}
    width = len(var) * n
    rows = []
    for flags, local_rows in vertex_rows:
        for local in local_rows:
            row = [Fraction(0)] * width
            for key, c in local.items():
                i, k = divmod(key, n)
                f = flags[i]
                if f.edge in base:
                    row[base[f.edge] + k] += c if f.slot == 0 else -c
            rows.append(row)
    reduced, pivots = row_reduce(nullspace(rows, width))
    basis = []
    for w in reduced[: len(pivots)]:
        assignment = {}
        for eid in var:
            cov = tuple(w[base[eid] : base[eid] + n])
            if any(cov):
                ends = g.edges[eid].ends
                assignment[Flag(ends[0], eid, 0)] = cov
                assignment[Flag(ends[1], eid, 1)] = tuple(-x for x in cov)
        basis.append(assignment)
    flag_order = tuple(Flag(g.edges[eid].ends[s], eid, s) for eid in edges for s in (0, 1))
    return {"dim": len(basis), "flag_order": flag_order, "basis": basis}


def per_vertex_numbering(g) -> dict:
    """Compatible numberings: the flags at each vertex, unbounded ones
    included, sum to zero."""
    stars = ([Flag(v, eid, slot) for eid, slot in g.incident(v)] for v in g.vertex_ids)
    rows = ((flags, [dict.fromkeys(range(len(flags)), 1)]) for flags in stars)
    return per_vertex_flag_kernel(g, 1, g.bounded_edge_ids(), rows)


def per_vertex_chain(ct) -> dict:
    """Chain method: at each vertex, over its bounded flags, every slot-0
    covector is perpendicular to its edge direction and the n sums vanish.
    The flags reported are those of the loop edges."""
    g, n = ct.graph, ct.n

    def rows():
        for v in g.vertex_ids:
            flags = [Flag(v, e, slot) for e, slot in g.incident(v) if not g.edges[e].is_unbounded]
            perp = [
                {i * n + k: x for k, x in enumerate(ct.directions[f.edge])}
                for i, f in enumerate(flags)
                if f.slot == 0
            ]
            yield flags, perp + [dict.fromkeys(range(k, len(flags) * n, n), 1) for k in range(n)]

    return per_vertex_flag_kernel(g, n, sorted(g.loop_part), rows())


def per_vertex_xi(ct, coords_by_vertex=None) -> dict:
    """Residue method: at every vertex, whatever its valence, the full local
    rows of `residue_coefficient_rows` (perpendicularity at both ends of an
    edge, the sums and every coefficient of the residue polynomial) over its
    bounded flags.  A vertex that coords_by_vertex leaves out gets the
    coordinates 0, 1, 2, ..."""
    g = ct.graph
    coords_by_vertex = coords_by_vertex or {}

    def rows():
        for v in g.vertex_ids:
            model = LocalModel.from_star(ct, v, coords_by_vertex.get(v))
            dense, _nvars = residue_coefficient_rows(model)
            flags = [rec.flag for rec in model.slots if rec.bounded]
            yield flags, [{j: x for j, x in enumerate(row) if x} for row in dense]

    return per_vertex_flag_kernel(g, ct.n, g.bounded_edge_ids(), rows())


# -- Laurent order and phylogenetic tree ----------------------------------------


def series_greater(p, q) -> bool:
    """p dominates q: the lowest term of p - q is p's alone."""
    diff = p - q
    return not diff.is_zero() and q.coeff(diff.order()) == 0


def series_cmp(p, q) -> int:
    """-1, 0 or 1 by the lowest term of p - q; raises incomparable-series."""
    diff = p - q
    if diff.is_zero():
        return 0
    m = diff.order()
    if q.coeff(m) == 0:
        return 1
    if p.coeff(m) == 0:
        return -1
    raise ValidationError("incomparable-series", "two series are incomparable")


def phylo_by_runs(items):
    """Tree of an ascending (label, series) family.

    Maximal runs of equal order split the family; the runs become a comb
    with the largest series nearest the root, and a run with more than one
    member recurses after its common leading terms are removed (equal orders
    inside an ascending chain force equal leading coefficients).
    """
    if not items:
        raise ValidationError("empty-family", "the series family is empty")
    if not all(series_greater(q, p) for (_a, p), (_b, q) in zip(items, items[1:])):
        raise ValidationError("not-ascending", "the series family must be strictly ascending")
    return _runs(list(items))


def _runs(items):
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
    tree = _runs(groups[0])
    for grp in groups[1:]:
        tree = PhyloNode(first=_runs(grp), second=tree, depth=grp[0][1].order())
    return tree

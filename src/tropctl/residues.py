"""Local residue calculus at higher-valent vertices.

A vertex of valence r+2 is modeled by a rational curve with marked points:
one finite point per incident edge except a distinguished edge sitting at
infinity, the first finite point pinned to 0.  Obstruction covectors w_e on
the bounded edges satisfy three exact conditions: each w_e is perpendicular
to its edge direction, the w_e sum to zero, and the residue polynomial built
from the pair values a[i,j] = weight_i * w_j(direction_i) vanishes
identically.  That polynomial has degree m - 2 for m finite marked points
p_k, so it vanishes iff it vanishes at p_1..p_{m-1}; its value at p_k is,
up to a nonzero factor, the residue sum over j != k of
(a[k,j] + a[j,k]) / (p_k - p_j), and those m - 1 sums are the rows written
here.

On a curve, `obstruction.flag_assembly` writes the other two conditions,
perpendicularity once per loop edge and the sums at junctions (inside a
chain they hold by its one covector per chain), and the residue sums are
needed only at the vertices of valence above 3.  At a vertex of valence at
most 3 of a balanced type they follow from the other rows.  Take
a[i,j] = weight_i * w_j(u_i) over the vertex's slots, with u_i the
direction at slot i and w zero on the flags of edges that are not
variables.  The vertex sum and perpendicularity make each row sum,
-weight_i * w_i(u_i), zero; balancing and perpendicularity make each column
sum, -weight_j * w_j(u_j), zero.  With three slots that forces
a[0,1] + a[1,0] = 0, the one residue sum; fewer slots give none.
`test_residue_rows_at_low_valence_vertices_follow_from_the_flag_rows`
checks it on random curves.

So `xi_map` solves the flag system with the residue sums of the vertices
of valence above 3 only, and of any vertex whose coordinates it is given,
so that they are checked; its kernel is the curve-level obstruction space,
and on a 3-valent curve, given no coordinates, its rows are the chain
method's.  `degeneration_compare` needs only that space's dimension at each
evaluation point, so it takes a rank: the rows that do not depend on the
point are reduced once, and only the residue sums of the vertices whose
series are evaluated are reduced at each point.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .curves import TropicalCurve, contract_image, replace_star, require_balanced
from .errors import PreconditionError, ValidationError
from .graphs import Flag
from .inputs import ambient_dim, integer_direction, positive_weight, rationals
from .laurent import LaurentSeries, PhyloLeaf, laurent_cmp, phylo_tree
from .linalg import Q0, content_and_primitive, echelon, is_primitive, kernel, rank, residual, row_blocks
from .obstruction import dual_obstruction_dim, flag_assembly, flag_system, place_rows


# Largest star a LocalModel accepts.  Building the residue rows is O(m^2 n);
# eliminating them, once, grows faster than the fourth power of the valence.
# Medians of 5 in-process `a_system` runs on a shared 2-vCPU Xeon, Python
# 3.11, at the default coordinates 0, 1, 2, ...: 0.003 s for a 16-valent
# planar star, 0.004 s for the 16-valent unit-vector star in Q^15 and 0.04 s
# for a 16-valent star in Q^15 with random directions in [-3, 3]^15.  That
# star takes 0.4 s with 7-digit coordinates, 0.9 s with coordinates at the
# 40-bit inputs.MAX_BITS and 2.2 s with its direction entries at the bound
# too.  With the cap lifted, a 32-valent planar star takes 0.03 s and a
# 60-valent one 1.1 s.  The coordinates `compare` evaluates from Laurent
# series are not bounded: on a genus-8 curve in Q^15 with a 16-valent vertex
# whose series reach |e| = 10,000 (laurent.MAX_EXPONENT), numbers of some
# 60,000 digits at t = 10^-6, `compare` ran 570 s and grew past 1 GB before
# it was stopped.  Evaluation points that keep them small are left to the
# certified `compare` that ROADMAP.md plans.
MAX_VALENCE = 16


class SlotRecord(NamedTuple):
    label: object  # edge id, or synthetic name for standalone models
    flag: object  # Flag when the slot comes from a graph, else None
    weight: int
    direction: tuple
    bounded: bool


class LocalModel:
    """Star of one vertex with marked-point coordinates.

    slots lists the edges in marked-point order: the finite slots first
    (coordinate coords[i], an int or a Fraction, for slot i, by default
    i), then the infinity slot.  The infinity slot is the last bounded edge
    in sorted order, falling back to the last edge when nothing is bounded.
    """

    def __init__(self, slots: list[SlotRecord], coords, n: int, vertex=None):
        _check_valence(len(slots), vertex)
        self.slots = list(slots)
        self.n = n
        self.vertex = vertex
        self.finite = self.slots[:-1]
        self.infinity = self.slots[-1] if self.slots else None
        self.r = len(self.slots) - 2
        coords = tuple(range(len(self.finite)) if coords is None else coords)
        for c in coords:
            if type(c) is not int and not isinstance(c, Fraction):
                raise ValidationError("bad-coords", f"coordinate {c!r} is not an int or a Fraction", vertex=vertex)
        coords = tuple(map(Fraction, coords))
        if len(coords) != len(self.finite):
            raise ValidationError(
                "bad-coords",
                f"expected {len(self.finite)} marked coordinates, got {len(coords)}",
                vertex=vertex,
            )
        if coords and coords[0] != 0:
            raise ValidationError(
                "bad-coords", "the first marked coordinate must be 0", vertex=vertex
            )
        if len(set(coords)) != len(coords):
            raise ValidationError(
                "bad-coords", "marked coordinates must be pairwise distinct", vertex=vertex
            )
        self.coords = coords

    @classmethod
    def from_star(cls, ct, vertex: str, coords=None) -> "LocalModel":
        g = ct.graph
        inc = g.incident(vertex)
        eids = [eid for eid, _slot in inc]
        selfloop = len(set(eids)) != len(eids)
        records = []
        for eid, slot in inc:
            e = g.edges[eid]
            _require_direction(ct, vertex, eid)
            d = ct.flag_direction(Flag(vertex, eid, slot))
            # a loop edge meets the vertex twice; its two slots get distinct labels
            label = f"{eid}#{slot}" if selfloop and eids.count(eid) == 2 else eid
            records.append(
                SlotRecord(label, Flag(vertex, eid, slot), e.weight, d, not e.is_unbounded)
            )
        return cls(_infinity_last(records), coords, ct.n, vertex=vertex)


def _require_direction(ct, vertex: str, eid: str):
    """Raise zero-direction-local unless edge eid, at vertex, has a nonzero
    direction, as the local model of the vertex needs."""
    d = ct.directions.get(eid)
    if d is None or not any(d):
        raise PreconditionError(
            "zero-direction-local",
            f"edge {eid} at {vertex} has no direction; the local model needs one",
            vertex=vertex,
            edge=eid,
        )


def _check_valence(valence: int, vertex=None):
    if valence > MAX_VALENCE:
        raise ValidationError(
            "limit",
            f"valence {valence} exceeds the maximum {MAX_VALENCE} of a local model",
            vertex=vertex,
        )


def _infinity_last(records: list[SlotRecord]) -> list[SlotRecord]:
    """The records in marked-point order: the last bounded record (the last
    record when none is bounded) moves to the end, as the infinity slot."""
    inf_idx = len(records) - 1
    for i in range(len(records) - 1, -1, -1):
        if records[i].bounded:
            inf_idx = i
            break
    return [rec for i, rec in enumerate(records) if i != inf_idx] + [records[inf_idx]]


def standard_local_model(r: int, n: int, coords, bounded=None) -> LocalModel:
    """The (r+2)-valent star with unit-vector directions in Q^n.

    Edges 1..r+1 point along the first r+1 coordinate vectors and the last
    edge, along (-1, ..., -1, 0, ..., 0), balances them; every weight is 1.
    bounded marks which of the r+2 edges are bounded (default: all).
    """
    if n < r + 1:
        raise ValidationError("bad-model", "need ambient dimension at least r+1")
    if bounded is None:
        bounded = [True] * (r + 2)
    dirs = []
    for i in range(r + 1):
        d = [0] * n
        d[i] = 1
        dirs.append(tuple(d))
    dirs.append(tuple([-1] * (r + 1) + [0] * (n - r - 1)))
    records = [SlotRecord(f"E{i + 1}", None, 1, dirs[i], bool(bounded[i])) for i in range(r + 2)]
    return LocalModel(_infinity_last(records), coords, n)


def model_from_doc(doc) -> LocalModel:
    """Build a standalone LocalModel from a JSON document.

    Schema: {"ambient_dim": n, "edges": [{"label"?, "weight", "direction",
    "bounded"?}, ...], "coords"?: ["p/q", ...]}.  The infinity slot is the
    last bounded edge in listed order (last edge if none is bounded); coords
    apply to the remaining edges in listed order and default to 0, 1, 2, ...
    Directions must be primitive and balance against the weights,
    ambient_dim is capped at inputs.MAX_DIM, and a model of more than
    MAX_VALENCE edges is rejected before any edge is read.
    """
    if not isinstance(doc, dict):
        raise ValidationError("bad-model", "model document must be a JSON object")
    n = ambient_dim(doc, "bad-model")
    edges = doc.get("edges")
    if not isinstance(edges, list) or len(edges) < 3:
        raise ValidationError("bad-model", "edges must list at least 3 edges")
    _check_valence(len(edges))
    records = []
    labels = set()
    balance = [0] * n
    for i, entry in enumerate(edges):
        if not isinstance(entry, dict):
            raise ValidationError("bad-model", f"edge {i} must be an object")
        label = entry.get("label", f"E{i + 1}")
        if not isinstance(label, str) or label in labels:
            raise ValidationError("bad-model", f"edge {i} needs a unique string label")
        labels.add(label)
        weight = positive_weight(entry.get("weight", 1), "bad-model", label)
        d = integer_direction(entry.get("direction"), n, "bad-model", label)
        if not is_primitive(d):
            raise ValidationError(
                "bad-model", f"edge {label} direction must be primitive and nonzero", edge=label
            )
        bounded = entry.get("bounded", True)
        if not isinstance(bounded, bool):
            raise ValidationError("bad-model", f"edge {label} bounded must be a boolean", edge=label)
        for k in range(n):
            balance[k] += weight * d[k]
        records.append(SlotRecord(label, None, weight, d, bounded))
    if any(x != 0 for x in balance):
        raise ValidationError(
            "unbalanced",
            f"weighted directions sum to {tuple(balance)}, expected zero",
        )
    coords = doc.get("coords")
    if coords is not None:
        if not isinstance(coords, list):
            raise ValidationError("bad-model", "coords must be a list of rationals")
        coords = rationals(coords, "coords")
    return LocalModel(_infinity_last(records), coords, n)


# -- residue rows -------------------------------------------------------------------


def _local_rows(model: LocalModel):
    """(rows, bounded slot records) of the local obstruction system, over
    one n-covector per bounded slot in slot order: each bounded covector is
    perpendicular to its own edge, the covectors sum to zero, and the
    residue sums of `_residue_rows` vanish."""
    n = model.n
    bounded = [rec for rec in model.slots if rec.bounded]
    rows = [{i * n + k: x for k, x in enumerate(rec.direction)} for i, rec in enumerate(bounded)]
    rows += [dict.fromkeys(range(k, len(bounded) * n, n), 1) for k in range(n)]
    return rows + _residue_rows(model, bounded), bounded


def _residue_rows(model: LocalModel, bounded: list[SlotRecord]) -> list[dict]:
    """The residue sums of a local model over the covectors of `bounded`,
    its bounded slot records in slot order: each row is a sparse
    {i * n + k: coefficient} dict, key i * n + k standing for entry k of the
    i-th bounded covector.  The sums are

        sum over finite j != k of (a[k,j] + a[j,k]) / (p_k - p_j) = 0

    for the first m - 1 of the m finite slots k, with
    a[i,j] = weight_i * w_j(direction_i).  These say that the residue
    polynomial P(x) = sum over i != j of a[i,j] * prod over l != i, j of
    (x - p_l) vanishes: P has degree m - 2, so it vanishes identically iff
    it vanishes at m - 1 distinct points, and P(p_k), divided by the nonzero
    prod over l != k of (p_k - p_l), is the k-th residue sum.  The rows are
    an invertible (Vandermonde) change of basis of P's coefficients, so the
    row space, and the kernel, is that of the coefficient rows.  Each sum is
    written times the lcm of the numerators of its p_k - p_j, which keeps
    every coefficient an integer and the row space the same.
    """
    n = model.n
    index = {rec.label: i for i, rec in enumerate(bounded)}
    finite, p = model.finite, model.coords
    rows = []
    for k in range(len(finite) - 1):
        diffs = {j: p[k] - p[j] for j in range(len(finite)) if j != k}
        scale = lcm(*(d.numerator for d in diffs.values()))
        row = {}
        for j, d in diffs.items():
            c = scale // d.numerator * d.denominator  # scale / (p_k - p_j)
            # a[k,j] lands on w_j, a[j,k] on w_k
            for src, dst in ((finite[k], finite[j]), (finite[j], finite[k])):
                if dst.bounded:
                    base = index[dst.label] * n
                    for t in range(n):
                        row[base + t] = row.get(base + t, 0) + c * src.weight * src.direction[t]
        rows.append(row)
    return rows


def a_system(model: LocalModel) -> dict:
    """Kernel of the local obstruction system at one vertex, from one
    elimination of its rows (`linalg.kernel`).

    The basis has one {label: covector} dict per row of the canonical kernel
    basis, holding the bounded slots where that row is nonzero; a label of
    `variables` that a dict does not hold carries the zero covector.
    """
    rows, bounded = _local_rows(model)
    space = kernel(len(bounded) * model.n, rows)
    basis = [
        {bounded[i].label: cov for i, cov in row_blocks(bv, model.n).items()} for bv in space
    ]
    return {
        "dim": len(space),
        "variables": [rec.label for rec in bounded],
        "basis": basis,
    }


def a_values(model: LocalModel, assignment: dict) -> dict:
    """Pair values a[(i,j)] = weight_i * w_j(direction_i) of a solution.

    assignment maps slot labels to covectors; indices run over the finite
    slots, 1-based in slot order.
    """
    out = {}
    finite = model.finite
    for i, rec_i in enumerate(finite):
        for j, rec_j in enumerate(finite):
            if i == j:
                continue
            w = assignment.get(rec_j.label)
            if w is None:
                val = Q0
            else:
                val = sum((Fraction(w[k]) * rec_i.direction[k] for k in range(model.n)), Q0)
            out[(i + 1, j + 1)] = rec_i.weight * val
    return out


# -- descendant pair system ---------------------------------------------------------


def _pair_tree_leaves(tree):
    """Leaf labels of a pair tree from left to right, and for each internal
    node the (start, stop) slice of that list holding its descendants.

    Iterative, so a tree of any depth is read without recursion."""
    leaves, spans, stack = [], [], [(tree, None)]
    while stack:
        t, start = stack.pop()
        if start is not None:  # every leaf below t is listed
            spans.append((start, len(leaves)))
        elif not isinstance(t, (tuple, list)):
            leaves.append(t)
        elif len(t) != 2:
            raise ValidationError("bad-tree", "pair trees branch in twos")
        else:
            stack += ((t, len(leaves)), (t[1], None), (t[0], None))
    return leaves, spans


def b_system(tree) -> dict:
    """Row system of descendant-pair sums over a rooted binary tree.

    Variables are ordered pairs (i, j), i != j, of leaf labels; each internal
    node contributes one row summing the variables over ordered pairs of its
    descendant leaves.  Returns the rank of those rows, the internal node
    count and the pair order of the columns.  The rank equals the number of
    internal nodes.
    """
    leaves, spans = _pair_tree_leaves(tree)
    if len(set(leaves)) != len(leaves):
        raise ValidationError("bad-tree", "leaf labels must be distinct")
    if len(leaves) < 2:
        raise ValidationError("bad-tree", "need at least two leaves")
    ordered = sorted(leaves)
    pairs = [(i, j) for i in ordered for j in ordered if i != j]
    col = {p: k for k, p in enumerate(pairs)}
    rows = [{col[(i, j)]: 1 for i in leaves[a:b] for j in leaves[a:b] if i != j} for a, b in spans]
    return {
        "rank": rank(len(pairs), rows),
        "internal_nodes": len(spans),
        "pairs": pairs,
    }


# -- curve-level assembly -----------------------------------------------------------


def xi_map(ct, coords_by_vertex=None) -> dict:
    """Curve-level obstruction space from the local residue systems.

    The flag system of `obstruction.flag_system`, with the residue sums of
    the vertices of valence above 3 as the method's own vertex conditions.
    Its variables are one covector per maximal chain of the loop part,
    which each edge of the chain carries up to sign: covectors on bounded
    edges outside the loop subgraph are zero (on tree parts this is forced
    anyway; dropping them keeps bridges exact as well).  The kernel is
    reported over all bounded flags.  Vertices of valence 4 or more need marked
    coordinates (coords_by_vertex).  At a vertex of valence at most 3 the
    residue sums follow from the other rows of a balanced type, as every
    curve and its image are (see the module docstring), so such a vertex
    gets no model and no rows unless coords_by_vertex gives it coordinates,
    which its model then checks.  "models" holds the LocalModel of each
    vertex that has one.

    The vertices are checked in vertex order, each as its model would check
    it: `missing-config`, then `zero-direction-local` on every edge there,
    then the model's own errors; last, a hand-built type that does not
    balance is rejected (`unbalanced`, from `curves.require_balanced`).
    """
    g = ct.graph
    coords_by_vertex = coords_by_vertex or {}
    models = {}
    for v in g.vertex_ids:
        coords = coords_by_vertex.get(v)
        if coords is None and g.valence(v) > 3:
            raise PreconditionError(
                "missing-config",
                f"vertex {v} has valence {g.valence(v)} and needs marked coordinates",
                vertex=v,
            )
        if coords is None:
            for eid, _slot in g.incident(v):
                _require_direction(ct, v, eid)
        else:
            models[v] = LocalModel.from_star(ct, v, coords)
    require_balanced(ct)
    out = flag_system(g, ct.n, g.bounded_edge_ids(), ct.directions, _star_residues(models.values()))
    out["models"] = models
    return out


def _star_residues(models):
    """The residue sums of each model of a vertex of a curve, as the
    (flags, rows) pairs that `obstruction.place_rows` places."""
    for model in models:
        bounded = [rec for rec in model.slots if rec.bounded]
        yield [rec.flag for rec in bounded], _residue_rows(model, bounded)


# -- genus-one smoothing criterion ---------------------------------------------------


def genus1_loop_criterion(curve: TropicalCurve) -> dict:
    """Span test of the directions emanating from the image loop.

    For a genus-one curve, collect the directions of all image edges at the
    vertices of the (unique) image cycle; a full span certifies an
    unobstructed smoothing, and in general the obstruction dual is the
    kernel of the directions, the covectors vanishing on their span.
    """
    if curve.graph.genus() != 1:
        raise PreconditionError(
            "not-genus1", f"genus is {curve.graph.genus()}, need exactly 1"
        )
    image = contract_image(curve)
    ig = image.graph
    loop_vertices = sorted({v for eid in ig.loop_part for v in ig.edges[eid].ends})
    dirs = [
        image.flag_direction(Flag(v, eid, slot)) for v in loop_vertices for eid, slot in ig.incident(v)
    ]
    ann = kernel(curve.n, dirs)
    return {
        "span_dim": curve.n - len(ann),
        "dim_h": len(ann),
        "smoothable": not ann,
        "loop_vertices": loop_vertices,
        "h_basis": [content_and_primitive(row_blocks(bv, curve.n)[0])[1] for bv in ann],
    }


# -- phylogenetic resolution and degeneration comparison -------------------------------

_MAX_SHRINKS = 12  # divisions of t by 1000 before degeneration_compare stops


def _phylo_to_pairs(tree):
    if isinstance(tree, PhyloLeaf):
        return tree.label
    return (_phylo_to_pairs(tree.first), _phylo_to_pairs(tree.second))


def vertex_phylo(model: LocalModel, series_list: list[LaurentSeries]):
    """Ascending-sorted phylogenetic tree of a vertex's series, one per
    finite slot with the first slot's pinned to zero; leaf labels are the
    finite slot edge ids."""
    if len(series_list) != len(model.finite):
        raise ValidationError(
            "bad-laurent",
            f"vertex {model.vertex}: expected {len(model.finite)} series, got {len(series_list)}",
            vertex=model.vertex,
        )
    if series_list and not series_list[0].is_zero():
        raise ValidationError(
            "bad-laurent",
            f"vertex {model.vertex}: the first slot's series must be zero",
            vertex=model.vertex,
        )
    items = [(rec.label, s) for rec, s in zip(model.finite, series_list)]
    items.sort(key=functools.cmp_to_key(lambda a, b: laurent_cmp(a[1], b[1])))
    return phylo_tree(items)


def resolve_by_phylo(ct, series_by_vertex: dict) -> tuple:
    """Replace every higher-valent star by its phylogenetic tree.

    Returns (resolved combinatorial type, {higher-valent vertex: tree}).
    The infinity edge joins the two top branches at the original vertex.
    The series of a vertex of valence at most 3 are checked as `phylo`
    checks them, and its star stays.
    """
    g = ct.graph
    trees = {}
    out = ct
    for v in g.vertex_ids:
        higher = g.valence(v) > 3
        if v not in series_by_vertex:
            if higher:
                raise PreconditionError(
                    "missing-laurent",
                    f"vertex {v} has valence {g.valence(v)} and needs series data",
                    vertex=v,
                )
            continue
        model = LocalModel.from_star(ct, v)
        tree = vertex_phylo(model, series_by_vertex[v])
        if not higher:
            continue
        trees[v] = tree
        triple = (
            model.infinity.label,
            _phylo_to_pairs(tree.first),
            _phylo_to_pairs(tree.second),
        )
        out = replace_star(out, v, triple, new_prefix=f"__p{len(trees)}_")
    return out, trees


def degeneration_compare(
    curve: TropicalCurve,
    series_by_vertex: dict,
    t0: Fraction | None = None,
) -> dict:
    """Evaluated-coordinate obstruction dimension against the resolved type.

    The series are evaluated at a small t to produce marked coordinates; t
    shrinks by 1000 until the dimension repeats (and skips any t where
    evaluated points collide), at most _MAX_SHRINKS times.  The resolved
    type's chain dimension d0 (`dual_obstruction_dim`) bounds the evaluated
    dimension from above.

    The dimension at t is that of `xi_map` with the evaluated coordinates,
    computed as a rank and without a basis.  Only the residue sums of the
    higher-valent vertices, whose series are evaluated, depend on t: the
    perpendicularity rows and the junction sums are reduced once
    (`linalg.echelon`), and at each t only the residue sums of the
    higher-valent vertices are reduced modulo them (`linalg.residual`), at
    most sum over those vertices of (m_v - 1) rows for m_v finite slots.
    The other vertices have valence at most 3, and their residue sums
    follow from those rows (see the module docstring), so they are not
    written.
    """
    ct = contract_image(curve)
    resolved, trees = resolve_by_phylo(ct, series_by_vertex)
    d0 = dual_obstruction_dim(resolved)
    t = Fraction(t0) if t0 is not None else Fraction(1, 10**6)
    if not 0 < t < 1:
        raise ValidationError("bad-evaluation-point", "t must lie strictly between 0 and 1")
    g, n = ct.graph, ct.n
    chains, place, rows = flag_assembly(g, n, ct.directions)
    columns = len(chains) * n
    kept = echelon(columns, rows)
    dims = []
    t_used = None
    for _ in range(_MAX_SHRINKS + 1):
        coords_by_vertex = {v: [s.evaluate(t) for s in series_by_vertex[v]] for v in trees}
        if all(len(set(vals)) == len(vals) for vals in coords_by_vertex.values()):
            moving = [LocalModel.from_star(ct, v, coords) for v, coords in coords_by_vertex.items()]
            extra = [residual(row, kept) for row in place_rows(n, place, _star_residues(moving))]
            dims.append(columns - len(kept) - rank(columns, extra))
            t_used = t
            if len(dims) >= 2 and dims[-1] == dims[-2]:
                break
        t = t / 1000
    if not dims:
        raise ValidationError(
            "no-admissible-t", "every tried t made some marked points collide"
        )
    d = dims[-1]
    return {
        "d": d,
        "d0": d0,
        "semicontinuous": d <= d0,
        "stabilized": len(dims) >= 2 and dims[-1] == dims[-2],
        "t_used": t_used,
        "dims_seen": dims,
        "resolved_type": resolved,
        "trees": trees,
    }

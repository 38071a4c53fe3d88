"""Independent checks of tropctl reports.

Nothing here imports tropctl.  Curves are read straight from the generated
documents, and every dimension is recomputed with the sparse exact
elimination below.  The checks rest on three independent computations:

- the deformation space of a 3-valent curve, with vertex positions and edge
  lengths as unknowns, whose dimension is paramDim = expectedDim + dimH;
- the sum over the loops of a loop chain (or the one loop of a polygon) of
  n minus the rank of the loop's edge directions, which is dimH there;
- the flag system of the residue method: covectors on bounded flags,
  perpendicular to their edges, opposite across each edge, summing to zero
  at each vertex, zero off the loops, and with a vanishing residue
  polynomial at each vertex.  Here the polynomial is made to vanish at
  enough points rather than coefficient by coefficient, so these rows differ
  from the ones tropctl builds while having the same kernel.

Each check function returns a list of error strings; empty means correct.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from gen import phylo_clusters, star_slots

Q0 = Fraction(0)


# -- sparse exact elimination ----------------------------------------------------------


def rank(rows) -> int:
    """Rank of rows given as {column: value} dicts (or dense sequences)."""
    pivots = {}
    for row in rows:
        if not isinstance(row, dict):
            row = dict(enumerate(row))
        row = {c: Fraction(x) for c, x in row.items() if x}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = 1 / row[c]
                pivots[c] = {k: v * inv for k, v in row.items()}
                break
            f = row[c]
            for k, v in piv.items():
                nv = row.get(k, Q0) - f * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return len(pivots)


def apply_row(row, x) -> Fraction:
    return sum((v * x.get(c, Q0) for c, v in row.items()), Q0)


# -- curves read from their documents ---------------------------------------------------


def _primitive(v):
    den = 1
    for q in v:
        den = den * q.denominator // gcd(den, q.denominator)
    ints = [int(q * den) for q in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


class Curve:
    """A curve document with its edges, flags and loop edges."""

    def __init__(self, doc):
        self.n = doc["ambient_dim"]
        self.pos = {v["id"]: tuple(Fraction(x) for x in v["position"]) for v in doc["vertices"]}
        self.edges = {}
        for e in doc["edges"]:
            a, b = e["ends"]
            d = e.get("direction")
            if d is None:
                d = _primitive([y - x for x, y in zip(self.pos[a], self.pos[b])])
            self.edges[e["id"]] = (a, b, e.get("weight", 1), tuple(d))
        self.bounded = sorted(eid for eid, e in self.edges.items() if e[1] is not None)
        self.legs = sorted(eid for eid, e in self.edges.items() if e[1] is None)
        self.genus = len(self.bounded) - len(self.pos) + 1
        self.incident = {v: [] for v in self.pos}  # (edge id, slot), sorted
        for eid in sorted(self.edges):
            a, b, _w, _d = self.edges[eid]
            self.incident[a].append((eid, 0))
            if b is not None:
                self.incident[b].append((eid, 1))
        self.loop = frozenset(eid for eid in self.bounded if self._on_cycle(eid))

    def _on_cycle(self, eid):
        a, b, _w, _d = self.edges[eid]
        seen, todo = {a}, [a]
        while todo:
            v = todo.pop()
            for fid, slot in self.incident[v]:
                o = self.edges[fid][1 - slot]
                if fid != eid and o is not None and o not in seen:
                    seen.add(o)
                    todo.append(o)
        return b in seen

    def flag_dir(self, eid, slot):
        d = self.edges[eid][3]
        return d if slot == 0 else tuple(-x for x in d)

    def expected_dim(self):
        return len(self.legs) + (self.n - 3) * (1 - self.genus)

    def max_valence(self):
        return max(len(inc) for inc in self.incident.values())

    def deformation_nullity(self):
        """Dimension of the space of vertex positions and edge lengths with
        pos(b) - pos(a) = length * direction on every bounded edge."""
        n = self.n
        col = {}
        for v in sorted(self.pos):
            for k in range(n):
                col[(v, k)] = len(col)
        for eid in self.bounded:
            col[eid] = len(col)
        rows = []
        for eid in self.bounded:
            a, b, _w, d = self.edges[eid]
            for k in range(n):
                row = {col[(b, k)]: 1, col[(a, k)]: -1}
                if d[k]:
                    row[col[eid]] = -d[k]
                rows.append(row)
        return len(col) - rank(rows)

    def loop_formula(self, loops):
        """Sum over the given loops of n minus the rank of their edge directions."""
        return sum(self.n - rank([self.edges[eid][3] for eid in loop]) for loop in loops)

    def flag_system(self, coords_by_vertex=None):
        """(variable index, rows) of the residue-method flag system.

        One covector (n unknowns) per bounded flag (vertex, edge, slot).
        Vertices without given coordinates use 0, 1, 2, ...
        """
        n = self.n
        coords_by_vertex = coords_by_vertex or {}
        flags = []
        for eid in self.bounded:
            a, b, _w, _d = self.edges[eid]
            flags += [(a, eid, 0), (b, eid, 1)]
        index = {f: i * n for i, f in enumerate(flags)}
        rows = []
        for (v, eid, slot), base in index.items():
            d = self.flag_dir(eid, slot)
            rows.append(("perpendicular", {base + k: d[k] for k in range(n) if d[k]}))
            if slot == 0:
                other = index[(self.edges[eid][1], eid, 1)]
                for k in range(n):
                    rows.append(("opposite", {base + k: 1, other + k: 1}))
            if eid not in self.loop:
                for k in range(n):
                    rows.append(("non-loop-zero", {base + k: 1}))
        for v, inc in self.incident.items():
            here = [index[(v, eid, slot)] for eid, slot in inc if (v, eid, slot) in index]
            if not here:
                continue
            for k in range(n):
                rows.append(("vertex-sum", {b + k: 1 for b in here}))
            rows += [("residue", r) for r in self._residue_rows(v, inc, index, coords_by_vertex.get(v))]
        return index, rows

    def _residue_rows(self, v, inc, index, coords):
        """P(x) = sum over finite slots i != j of weight_i * w_j(dir_i) *
        prod over finite l != i, j of (x - p_l), made to vanish at m - 1 points."""
        n = self.n
        bounded = [(eid, slot) for eid, slot in inc if self.edges[eid][1] is not None]
        inf = bounded[-1]
        finite = [s for s in inc if s != inf]
        m = len(finite)
        if m < 2:
            return []
        p = [Fraction(c) for c in coords] if coords is not None else [Fraction(i) for i in range(m)]
        rows = []
        for x in range(m - 1):
            row = {}
            for i, (ei, si) in enumerate(finite):
                wi = self.edges[ei][2]
                di = self.flag_dir(ei, si)
                for j, (ej, sj) in enumerate(finite):
                    if i == j or (v, ej, sj) not in index:
                        continue
                    f = Fraction(wi)
                    for l in range(m):
                        if l != i and l != j:
                            f *= x - p[l]
                    base = index[(v, ej, sj)]
                    for k in range(n):
                        if di[k]:
                            row[base + k] = row.get(base + k, Q0) + f * di[k]
            rows.append({c: val for c, val in row.items() if val})
        return rows

    def flag_nullity(self, coords_by_vertex=None):
        index, rows = self.flag_system(coords_by_vertex)
        return len(index) * self.n - rank(r for _kind, r in rows)

    def loop_vertex_span(self):
        """Rank of all directions at the vertices of the cycles."""
        verts = {v for eid in self.loop for v in self.edges[eid][:2]}
        return rank([self.flag_dir(eid, slot) for v in verts for eid, slot in self.incident[v]])


# -- report checks ------------------------------------------------------------------


def _expect(errors, what, got, want):
    if got != want:
        errors.append(f"{what}: report has {got!r}, independent value {want!r}")


def check_basis(curve, rep, coords_by_vertex=None, loop_only=False):
    """The basis of an obstruction report lies in the flag-system kernel,
    is independent, and has dimH vectors."""
    errors = []
    index, rows = curve.flag_system(coords_by_vertex)
    flags = [tuple(f) for f in rep["flags"]]
    for f in flags:
        if f not in index:
            return [f"flag {f} is not a bounded flag of the curve"]
        if loop_only and f[1] not in curve.loop:
            errors.append(f"flag {f} is listed but its edge is not on a loop")
    vectors = []
    for vec in rep["basis"]:
        x = {}
        for f, cov in zip(flags, vec):
            for k, s in enumerate(cov):
                q = Fraction(s)
                if q:
                    x[index[f] + k] = q
        vectors.append(x)
        for kind, row in rows:
            if apply_row(row, x):
                errors.append(f"a basis vector violates a {kind} row")
                break
    _expect(errors, "number of basis vectors", len(vectors), rep["dimH"])
    _expect(errors, "rank of the basis", rank(vectors), len(vectors))
    return errors


def check_report(op, rep, truth):
    """Dispatch on the operation kind; truth holds the case's independent values."""
    kind = op["kind"]
    if "error" in rep:
        return [f"error report: {rep['error']}"]
    return CHECKS[kind](op, rep, truth)


def _check_validate(op, rep, t):
    c = t.curve
    errors = []
    _expect(errors, "valid", rep["valid"], True)
    _expect(errors, "genus", rep["genus"], c.genus)
    _expect(errors, "e", rep["e"], len(c.legs))
    _expect(errors, "ambientDim", rep["ambientDim"], c.n)
    _expect(errors, "vertices", rep["vertices"], len(c.pos))
    _expect(errors, "edges", rep["edges"], len(c.edges))
    _expect(errors, "boundedEdges", rep["boundedEdges"], len(c.bounded))
    _expect(errors, "trivalent", rep["trivalent"], c.max_valence() <= 3)
    _expect(errors, "immersive", rep["immersive"], True)
    return errors


def _check_obstruction(op, rep, t):
    errors = []
    want = t.dim_h(t.config)
    _expect(errors, "dimH", rep["dimH"], want)
    if "paramDim" in rep:
        _expect(errors, "paramDim", rep["paramDim"], t.curve.expected_dim() + want)
    elif t.config is None:
        errors.append("paramDim missing on a 3-valent curve")
    _expect(errors, "superabundant", rep["superabundant"], want > 0)
    errors += check_basis(t.curve, rep, t.config, loop_only=op["kind"] == "obstruction_chain")
    return errors


def _check_classify(op, rep, t):
    errors = []
    c = t.curve
    h = t.dim_h()
    _expect(errors, "dimH", rep["dimH"], h)
    _expect(errors, "expectedDim", rep["expectedDim"], c.expected_dim())
    _expect(errors, "paramDim", rep["paramDim"], c.expected_dim() + h)
    _expect(errors, "paramDim vs expectedDim + dimH", rep["paramDim"], rep["expectedDim"] + rep["dimH"])
    _expect(errors, "superabundantDef1", rep["superabundantDef1"], h > 0)
    _expect(errors, "agree", rep["agree"], True)
    return errors


def _check_abundancy(op, rep, t):
    errors = []
    c = t.curve
    g = c.genus
    _expect(errors, "genus", rep["genus"], g)
    _expect(errors, "targetDim", rep["targetDim"], c.n * g)
    _expect(errors, "reducedTargetDim", rep["reducedTargetDim"], (c.n - 1) * g)
    _expect(errors, "reducedRank", rep["reducedRank"], (c.n - 1) * g - t.dim_h())
    _expect(errors, "agree", rep["agree"], True)
    return errors


def _check_genus1(op, rep, t):
    errors = []
    c = t.curve
    span = c.loop_vertex_span()
    _expect(errors, "spanDim", rep["spanDim"], span)
    _expect(errors, "guaranteedDimH", rep["guaranteedDimH"], c.n - span)
    _expect(errors, "guaranteedDimH vs dimH", rep["guaranteedDimH"], t.dim_h())
    _expect(errors, "spans", rep["spans"], span == c.n)
    return errors


def _check_local_model(op, rep, t):
    case = op["case"]
    r, n, s = case["r"], case["n"], case["s"]
    want = r * (s - 2) + (n - r - 1) * (s - 1) if s >= 2 else 0
    errors = []
    _expect(errors, "dimH", rep["dimH"], want)
    _expect(errors, "r", rep["r"], r)
    _expect(errors, "ambientDim", rep["ambientDim"], n)
    _expect(errors, "boundedCount", rep["boundedCount"], s)
    vectors = [
        {i * n + k: Fraction(x) for i, cov in enumerate(vec) for k, x in enumerate(cov)} for vec in rep["basis"]
    ]
    _expect(errors, "number of basis vectors", len(vectors), want)
    _expect(errors, "rank of the basis", rank(vectors), len(vectors))
    return errors


def _tree_leaves(node):
    if "leaf" in node:
        return [node["leaf"]]
    return _tree_leaves(node["children"][0]) + _tree_leaves(node["children"][1])


def _tree_clusters(node, out):
    if "leaf" not in node:
        out.add(frozenset(_tree_leaves(node)))
        for child in node["children"]:
            _tree_clusters(child, out)
    return out


def _check_phylo(op, rep, t):
    errors = []
    v = t.case["high"]
    finite = t.finite
    body = rep["vertices"].get(v)
    if body is None or set(rep["vertices"]) != {v}:
        return [f"phylo report must describe exactly vertex {v}"]
    _expect(errors, "leaves", body["leaves"], finite)
    leaves = _tree_leaves(body["tree"])
    _expect(errors, "tree leaves (each finite slot once)", sorted(leaves), sorted(finite))
    fam = [frozenset(c) for c in body["clusters"]]
    for i, a in enumerate(fam):
        for b in fam[i + 1 :]:
            if a & b and not (a <= b or b <= a):
                errors.append(f"clusters {sorted(a)} and {sorted(b)} are not laminar")
    _expect(errors, "clusters vs tree nodes", set(fam), _tree_clusters(body["tree"], set()))
    _expect(errors, "clusters vs the series' own tree", set(fam), set(t.clusters))
    return errors


def _check_compare(op, rep, t):
    errors = []
    v = t.case["high"]
    d, d0 = rep["d"], rep["d0"]
    _expect(errors, "semicontinuous", rep["semicontinuous"], True)
    _expect(errors, "stabilized", rep["stabilized"], True)
    if not d <= d0:
        errors.append(f"d = {d} exceeds d0 = {d0}")
    _expect(errors, "last dimension seen", rep["dimsSeen"][-1], d)
    tq = Fraction(rep["tUsed"])
    coords = [sum((c * tq**e for e, c in s.items()), Q0) for s in t.series]
    _expect(errors, "d at tUsed", d, t.curve.flag_nullity({v: coords}))
    _expect(errors, "clusters", {frozenset(c) for c in rep["clusters"][v]}, set(t.clusters))
    return errors


CHECKS = {
    "validate": _check_validate,
    "obstruction_chain": _check_obstruction,
    "obstruction_xi": _check_obstruction,
    "classify": _check_classify,
    "abundancy": _check_abundancy,
    "genus1_check": _check_genus1,
    "local_model": _check_local_model,
    "phylo": _check_phylo,
    "compare": _check_compare,
}


class Truth:
    """Independent values of one case, computed once and on demand."""

    def __init__(self, case):
        self.case = case
        self.curve = Curve(case["doc"]) if "r" not in case else None
        self._dim_h = {}
        self.config = None
        if "high" in case:
            v = case["high"]
            self.config = {v: [Fraction(c) for c in case["config"]["vertices"][v]["coords"]]}
            self.finite, _inf = star_slots(case["doc"], v)
            self.series = [
                {e: Fraction(c) for e, c in s} for s in case["laurent"]["vertices"][v]["series"]
            ]
            _root, clusters = phylo_clusters(list(zip(self.finite, self.series)))
            self.clusters = {frozenset(c) for c in clusters}

    def dim_h(self, coords=None):
        """dimH: from the deformation space on 3-valent curves (cross-checked
        against the loop formula when the loops are known), else from the
        flag system with the given marked coordinates."""
        key = None if coords is None else tuple(sorted((v, tuple(c)) for v, c in coords.items()))
        if key not in self._dim_h:
            c = self.curve
            if coords is None and c.max_valence() <= 3:
                h = c.deformation_nullity() - c.expected_dim()
                if "loops" in self.case:
                    h_loops = c.loop_formula(self.case["loops"])
                    if h_loops != h:
                        raise AssertionError(f"benchmark inconsistency: {h} vs loop formula {h_loops}")
            else:
                h = c.flag_nullity(coords)
            self._dim_h[key] = h
        return self._dim_h[key]

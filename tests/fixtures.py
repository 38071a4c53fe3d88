"""Frozen reference inputs shared by the unit and acceptance tests.

Every value here was fixed by hand (balancing checked vertex by vertex) before
the implementation work, so the tests compare the code against independently
derived expectations rather than against its own output.
"""

from __future__ import annotations

import random

from tropctl.curves import TropicalCurve, parse_curve
from tropctl.laurent import LaurentSeries
from tropctl.randgen import random_ascending_series, random_genus1_curve


# -- two vertical tripods joined by three chains (genus 2, R^3) -----------------
#
# Junctions T=(0,0,1) and B=(0,0,0); each chain climbs an arm direction, then a
# vertical rung, then returns.  Arm directions (1,0,0), (0,1,0), (-1,-1,0);
# every chain's direction pair spans a plane whose annihilator line is the
# chain's contribution to the obstruction dual.  Expected: dim H = 1,
# parameter dimension 7.

def gamma1_doc() -> dict:
    return {
        "ambient_dim": 3,
        "vertices": [
            {"id": "T", "position": ["0", "0", "1"]},
            {"id": "B", "position": ["0", "0", "0"]},
            {"id": "T1", "position": ["1", "0", "1"]},
            {"id": "B1", "position": ["1", "0", "0"]},
            {"id": "T2", "position": ["0", "1", "1"]},
            {"id": "B2", "position": ["0", "1", "0"]},
            {"id": "T3", "position": ["-1", "-1", "1"]},
            {"id": "B3", "position": ["-1", "-1", "0"]},
        ],
        "edges": [
            # chain with perp direction (1,0,0): arm (0,1,0) plus the rung
            {"id": "l1_at", "ends": ["T", "T2"], "weight": 1},
            {"id": "l1_ab", "ends": ["B", "B2"], "weight": 1},
            {"id": "l1_v", "ends": ["B2", "T2"], "weight": 1},
            # chain with perp direction (0,1,0): arm (1,0,0)
            {"id": "l2_at", "ends": ["T", "T1"], "weight": 1},
            {"id": "l2_ab", "ends": ["B", "B1"], "weight": 1},
            {"id": "l2_v", "ends": ["B1", "T1"], "weight": 1},
            # chain with perp direction (1,-1,0): arm (-1,-1,0)
            {"id": "l3_at", "ends": ["T", "T3"], "weight": 1},
            {"id": "l3_ab", "ends": ["B", "B3"], "weight": 1},
            {"id": "l3_v", "ends": ["B3", "T3"], "weight": 1},
            {"id": "u_t1", "ends": ["T1", None], "weight": 1, "direction": [1, 0, 1]},
            {"id": "u_b1", "ends": ["B1", None], "weight": 1, "direction": [1, 0, -1]},
            {"id": "u_t2", "ends": ["T2", None], "weight": 1, "direction": [0, 1, 1]},
            {"id": "u_b2", "ends": ["B2", None], "weight": 1, "direction": [0, 1, -1]},
            {"id": "u_t3", "ends": ["T3", None], "weight": 1, "direction": [-1, -1, 1]},
            {"id": "u_b3", "ends": ["B3", None], "weight": 1, "direction": [-1, -1, -1]},
        ],
    }


# -- the same graph with one rung slid off to the side (genus 2, R^3) ------------
#
# The middle chain detours T2 -> c -> d -> B2 along direction (1,1,0), so its
# direction set spans all of R^3 and kills that chain's perp line; the other
# two chains share no common annihilator.  Expected: dim H = 0, parameter
# dimension 8.

def gamma2_doc() -> dict:
    return {
        "ambient_dim": 3,
        "vertices": [
            {"id": "T", "position": ["0", "0", "1"]},
            {"id": "B", "position": ["0", "0", "0"]},
            {"id": "T1", "position": ["1", "0", "1"]},
            {"id": "B1", "position": ["1", "0", "0"]},
            {"id": "T2", "position": ["0", "1", "1"]},
            {"id": "B2", "position": ["0", "1", "0"]},
            {"id": "T3", "position": ["-1", "-1", "1"]},
            {"id": "B3", "position": ["-1", "-1", "0"]},
            {"id": "c", "position": ["1", "2", "1"]},
            {"id": "d", "position": ["1", "2", "0"]},
        ],
        "edges": [
            {"id": "l1_at", "ends": ["T", "T2"], "weight": 1},
            {"id": "l1_ab", "ends": ["B", "B2"], "weight": 1},
            {"id": "m1_ac", "ends": ["T2", "c"], "weight": 1},
            {"id": "m2_bd", "ends": ["B2", "d"], "weight": 1},
            {"id": "m3_cd", "ends": ["d", "c"], "weight": 1},
            {"id": "l2_at", "ends": ["T", "T1"], "weight": 1},
            {"id": "l2_ab", "ends": ["B", "B1"], "weight": 1},
            {"id": "l2_v", "ends": ["B1", "T1"], "weight": 1},
            {"id": "l3_at", "ends": ["T", "T3"], "weight": 1},
            {"id": "l3_ab", "ends": ["B", "B3"], "weight": 1},
            {"id": "l3_v", "ends": ["B3", "T3"], "weight": 1},
            {"id": "u_t1", "ends": ["T1", None], "weight": 1, "direction": [1, 0, 1]},
            {"id": "u_b1", "ends": ["B1", None], "weight": 1, "direction": [1, 0, -1]},
            {"id": "u_t2", "ends": ["T2", None], "weight": 1, "direction": [-1, 0, 0]},
            {"id": "u_b2", "ends": ["B2", None], "weight": 1, "direction": [-1, 0, 0]},
            {"id": "u_t3", "ends": ["T3", None], "weight": 1, "direction": [-1, -1, 1]},
            {"id": "u_b3", "ends": ["B3", None], "weight": 1, "direction": [-1, -1, -1]},
            {"id": "u_c", "ends": ["c", None], "weight": 1, "direction": [1, 1, 1]},
            {"id": "u_d", "ends": ["d", None], "weight": 1, "direction": [1, 1, -1]},
        ],
    }


# -- unit square loop in the z = 0 plane of R^3 ----------------------------------
#
# Genus one, all vertices 3-valent, loop directions span only the plane, so
# dim H = 1 and the curve is superabundant.

def square_loop_doc() -> dict:
    return {
        "ambient_dim": 3,
        "vertices": [
            {"id": "a", "position": ["0", "0", "0"]},
            {"id": "b", "position": ["1", "0", "0"]},
            {"id": "c", "position": ["1", "1", "0"]},
            {"id": "d", "position": ["0", "1", "0"]},
        ],
        "edges": [
            {"id": "s01", "ends": ["a", "b"], "weight": 1},
            {"id": "s12", "ends": ["b", "c"], "weight": 1},
            {"id": "s23", "ends": ["c", "d"], "weight": 1},
            {"id": "s30", "ends": ["d", "a"], "weight": 1},
            {"id": "u0", "ends": ["a", None], "weight": 1, "direction": [-1, -1, 0]},
            {"id": "u1", "ends": ["b", None], "weight": 1, "direction": [1, -1, 0]},
            {"id": "u2", "ends": ["c", None], "weight": 1, "direction": [1, 1, 0]},
            {"id": "u3", "ends": ["d", None], "weight": 1, "direction": [-1, 1, 0]},
        ],
    }


# -- planar square through one 4-valent vertex, with a weight-2 vertical ----------
#
# The square a-loop lies in z = 0, but the 4-valent vertex V carries a
# weight-2 edge pointing down and a leg (1,1,2), so the directions at the loop
# span R^3: the local residue system forces every pair value to vanish and
# dim H = 0 for every admissible configuration.

def ex534_doc() -> dict:
    return {
        "ambient_dim": 3,
        "vertices": [
            {"id": "V", "position": ["0", "0", "0"]},
            {"id": "A", "position": ["-1", "0", "0"]},
            {"id": "B", "position": ["-1", "-1", "0"]},
            {"id": "C", "position": ["0", "-1", "0"]},
        ],
        "edges": [
            {"id": "e1_va", "ends": ["V", "A"], "weight": 1},
            {"id": "e2_down", "ends": ["V", None], "weight": 2, "direction": [0, 0, -1]},
            {"id": "e3_out", "ends": ["V", None], "weight": 1, "direction": [1, 1, 2]},
            {"id": "e4_cv", "ends": ["C", "V"], "weight": 1},
            {"id": "f1_ab", "ends": ["A", "B"], "weight": 1},
            {"id": "f2_bc", "ends": ["B", "C"], "weight": 1},
            {"id": "g1_a", "ends": ["A", None], "weight": 1, "direction": [-1, 1, 0]},
            {"id": "g2_b", "ends": ["B", None], "weight": 1, "direction": [-1, -1, 0]},
            {"id": "g3_c", "ends": ["C", None], "weight": 1, "direction": [1, -1, 0]},
        ],
    }


# -- two planar squares sharing one 4-valent vertex (genus 2) --------------------
#
# Loop one runs V-A-B-C in z = 0; loop two runs V-P-Q-S in the plane spanned
# by (0,-1,1) and (1,1,0).  Each loop is planar, and the local system at V
# leaves exactly one pair-value solution: dim H = 1, with
# a12 = a21 = 0 and a13 = a32 = -a31 = -a23.  Splitting V so the loops
# separate gives a 3-valent type with dim H = 2.

def ex536_doc() -> dict:
    return {
        "ambient_dim": 3,
        "vertices": [
            {"id": "V", "position": ["0", "0", "0"]},
            {"id": "A", "position": ["1", "0", "0"]},
            {"id": "B", "position": ["1", "1", "0"]},
            {"id": "C", "position": ["0", "1", "0"]},
            {"id": "P", "position": ["0", "-1", "1"]},
            {"id": "Q", "position": ["3", "2", "1"]},
            {"id": "S", "position": ["-1", "0", "-1"]},
        ],
        "edges": [
            {"id": "e1_va", "ends": ["V", "A"], "weight": 1},
            {"id": "e2_cv", "ends": ["C", "V"], "weight": 1},
            {"id": "e3_vp", "ends": ["V", "P"], "weight": 1},
            {"id": "e4_sv", "ends": ["S", "V"], "weight": 1},
            {"id": "f1_ab", "ends": ["A", "B"], "weight": 1},
            {"id": "f2_bc", "ends": ["B", "C"], "weight": 1},
            {"id": "f3_pq", "ends": ["P", "Q"], "weight": 1},
            {"id": "f4_qs", "ends": ["Q", "S"], "weight": 1},
            {"id": "g1_a", "ends": ["A", None], "weight": 1, "direction": [1, -1, 0]},
            {"id": "g2_b", "ends": ["B", None], "weight": 1, "direction": [1, 1, 0]},
            {"id": "g3_c", "ends": ["C", None], "weight": 1, "direction": [-1, 1, 0]},
            {"id": "g4_p", "ends": ["P", None], "weight": 1, "direction": [-1, -2, 1]},
            {"id": "g5_q", "ends": ["Q", None], "weight": 1, "direction": [3, 2, 1]},
            {"id": "g6_s", "ends": ["S", None], "weight": 1, "direction": [-3, -1, -2]},
        ],
    }


# The split of V that separates the two loops: square edges on one side of the
# new bridge, the P-side edges on the other.
EX536_SPLIT = ("e1_va", "e2_cv", ("e3_vp", "e4_sv"))


# -- three chains between two junctions, and a triangle off a bridge (genus 3) ----
#
# Junctions J=(0,0,1) and K=(0,0,0) are joined by three open chains that climb
# the arms (1,0,0), (0,1,0) and (-1,-1,0); the bridge r leaves the a-chain at
# A1 for a triangle D-E-F in the plane y = 0, a closed chain with no junction.
# The chains are walked from J, the smaller junction, so a1, the smallest edge
# of its chain, is walked from its ends[1]; a3, b2, b3 and t2 point against
# the walk too.  Each open chain's directions span a plane, and so do the
# triangle's: the perp lines (0,1,0), (1,0,0) and (1,-1,0) meet one
# condition at the junctions, so dim H = 1 + 1 = 2.

def junction_chains_doc() -> dict:
    return {
        "ambient_dim": 3,
        "vertices": [
            {"id": "J", "position": ["0", "0", "1"]},
            {"id": "K", "position": ["0", "0", "0"]},
            {"id": "A1", "position": ["1", "0", "0"]},
            {"id": "A2", "position": ["1", "0", "1"]},
            {"id": "B1", "position": ["0", "1", "0"]},
            {"id": "B2", "position": ["0", "1", "1"]},
            {"id": "C1", "position": ["-1", "-1", "0"]},
            {"id": "C2", "position": ["-1", "-1", "1"]},
            {"id": "D", "position": ["2", "0", "-1"]},
            {"id": "E", "position": ["3", "0", "-1"]},
            {"id": "F", "position": ["2", "0", "-2"]},
        ],
        "edges": [
            {"id": "a1", "ends": ["A2", "J"], "weight": 1},
            {"id": "a2", "ends": ["A1", "A2"], "weight": 1},
            {"id": "a3", "ends": ["A1", "K"], "weight": 1},
            {"id": "b1", "ends": ["J", "B2"], "weight": 1},
            {"id": "b2", "ends": ["B1", "B2"], "weight": 1},
            {"id": "b3", "ends": ["K", "B1"], "weight": 1},
            {"id": "c1", "ends": ["J", "C2"], "weight": 1},
            {"id": "c2", "ends": ["C2", "C1"], "weight": 1},
            {"id": "c3", "ends": ["C1", "K"], "weight": 1},
            {"id": "r", "ends": ["A1", "D"], "weight": 1},
            {"id": "t1", "ends": ["D", "E"], "weight": 1},
            {"id": "t2", "ends": ["F", "E"], "weight": 1},
            {"id": "t3", "ends": ["F", "D"], "weight": 1},
            {"id": "u_a2", "ends": ["A2", None], "weight": 1, "direction": [1, 0, 1]},
            {"id": "u_b1", "ends": ["B1", None], "weight": 1, "direction": [0, 1, -1]},
            {"id": "u_b2", "ends": ["B2", None], "weight": 1, "direction": [0, 1, 1]},
            {"id": "u_c1", "ends": ["C1", None], "weight": 1, "direction": [-1, -1, -1]},
            {"id": "u_c2", "ends": ["C2", None], "weight": 1, "direction": [-1, -1, 1]},
            {"id": "u_e", "ends": ["E", None], "weight": 1, "direction": [2, 0, 1]},
            {"id": "u_f", "ends": ["F", None], "weight": 1, "direction": [-1, 0, -2]},
        ],
    }


def curve(doc: dict) -> TropicalCurve:
    return parse_curve(doc)


# -- random multigraphs ------------------------------------------------------------

def random_multigraph(rng, connected=True):
    """(vertices, edges) of a random multigraph: a random tree (its edges
    are bridges and twigs) plus chords, parallel edges and self-loops, and
    one unbounded leg per vertex so that none is isolated.  Ids are drawn
    at random so that sorted order has nothing to do with the structure.
    Unless connected, each tree edge is dropped with probability 1/3."""
    k = rng.randint(1, 8)
    vertices = [f"v{i:02d}" for i in rng.sample(range(100), k)]
    ends = [(vertices[rng.randrange(i)], vertices[i]) for i in range(1, k)]
    if not connected:
        ends = [pair for pair in ends if rng.random() > 1 / 3]
    for _ in range(rng.randint(0, 6)):
        kind = rng.choice(["chord", "parallel", "selfloop"])
        if kind == "parallel" and ends:
            ends.append(rng.choice(ends))
        elif kind == "selfloop":
            v = rng.choice(vertices)
            ends.append((v, v))
        else:
            ends.append((rng.choice(vertices), rng.choice(vertices)))
    ends = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in ends]
    ends += [(v, None) for v in vertices]
    ids = [f"e{i:03d}" for i in rng.sample(range(1000), len(ends))]
    return vertices, [(eid, pair, 1) for eid, pair in zip(ids, ends)]


# -- Laurent series families -----------------------------------------------------

def _s(*terms) -> LaurentSeries:
    return LaurentSeries(terms)


def r7_series() -> list[tuple]:
    """Eight labeled series realizing a mixed nested/caterpillar tree.

    Labels 2..5 share the leading term t^-10 and separate at depths
    -6/-7 and deeper; labels 6..8 share t^-20 and separate immediately.
    """
    return [
        (1, _s()),
        (2, _s((-10, 1), (-6, 1), (-3, 1))),
        (3, _s((-10, 1), (-6, 1), (-4, 1))),
        (4, _s((-10, 1), (-6, 1), (-4, 1), (-1, 1))),
        (5, _s((-10, 1), (-7, 1))),
        (6, _s((-20, 1))),
        (7, _s((-20, 1), (-14, 1))),
        (8, _s((-20, 1), (-15, 1))),
    ]


R7_CLUSTERS = {
    frozenset({1, 2, 3, 4, 5, 6, 7, 8}),
    frozenset({1, 2, 3, 4, 5}),
    frozenset({2, 3, 4, 5}),
    frozenset({2, 3, 4}),
    frozenset({3, 4}),
    frozenset({6, 7, 8}),
    frozenset({6, 7}),
}


def rebase5_series() -> list[tuple]:
    """Five labeled series whose cluster family must survive every rebase."""
    return [
        (1, _s()),
        (2, _s((-5, 1), (-2, 1))),
        (3, _s((-5, 1), (-3, 1))),
        (4, _s((-5, 1), (-4, 1), (-3, 1))),
        (5, _s((-6, 1), (-5, 1), (-4, 1))),
    ]


REBASE5_CLUSTERS = {
    frozenset({1, 2, 3, 4, 5}),
    frozenset({1, 2, 3, 4}),
    frozenset({2, 3, 4}),
    frozenset({2, 3}),
}


# -- random degeneration scenarios -------------------------------------------------

def random_higher_valent_case(rng: random.Random):
    """A genus-one curve with one vertex of valence 4 or 5, plus ascending
    series for that vertex's finite slots.  Returns (curve, vertex id,
    {vertex: series list})."""
    extra = rng.choice([1, 1, 2])
    n = rng.choice([2, 3, 3, 4])
    c = random_genus1_curve(rng, n, extra_legs=extra)
    high = [v for v in c.graph.vertex_ids if c.graph.valence(v) > 3]
    assert len(high) == 1
    v = high[0]
    slots = c.graph.valence(v) - 1
    series = random_ascending_series(rng, slots)
    return c, v, {v: series}

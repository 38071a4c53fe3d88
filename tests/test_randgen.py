"""The seeded generators: the same seed gives the same draw, and a draw
that keeps failing stops."""

import hashlib
import json
import random

import pytest

from tropctl.curves import serialize_curve
from tropctl.errors import TropctlError
from tropctl.randgen import (
    GenerationError,
    _draw,
    _Redraw,
    random_ascending_series,
    random_genus1_curve,
    random_genus2_curve,
    random_immersive_curve,
    random_int_vec,
    random_loopchain_curve,
    random_marked_coords,
    random_tree_curve,
    random_trivalent_graph,
)

NS = (1, 2, 3, 4)
SEEDS = range(12)
DRAWS = 3  # draws in sequence from one rng: a draw's leftover rng state shows in the next

# Every public generator, with every parameter set the tests draw from it,
# as (name, draw(rng), to_json(result)).
CASES = (
    [(f"int_vec n={n}", lambda rng, n=n: random_int_vec(rng, n), list) for n in NS]
    + [
        (
            f"trivalent_graph genus={g}",
            lambda rng, g=g: random_trivalent_graph(rng, g),
            lambda gr: [gr.vertex_ids, [[eid, list(e.ends), e.weight] for eid, e in gr.edges.items()]],
        )
        for g in range(5)
    ]
    + [(f"tree n={n}", lambda rng, n=n: random_tree_curve(rng, n), serialize_curve) for n in NS]
    + [
        (f"genus1 n={n} extra_legs={x}", lambda rng, n=n, x=x: random_genus1_curve(rng, n, extra_legs=x), serialize_curve)
        for n in NS
        for x in range(6)
    ]
    + [(f"genus2 n={n}", lambda rng, n=n: random_genus2_curve(rng, n), serialize_curve) for n in NS]
    + [
        (f"loopchain n={n} genus={g}", lambda rng, n=n, g=g: random_loopchain_curve(rng, n, g), serialize_curve)
        for n in NS
        for g in range(7)
    ]
    + [
        (f"immersive n={n} genus={g}", lambda rng, n=n, g=g: random_immersive_curve(rng, n, genus=g), serialize_curve)
        for n in NS
        for g in (None, 0, 1, 2, 3)
    ]
    + [
        (f"marked_coords count={k}", lambda rng, k=k: random_marked_coords(rng, k), lambda qs: [str(q) for q in qs])
        for k in (*range(1, 9), 230)
    ]
    + [
        (
            f"ascending_series count={k}",
            lambda rng, k=k: random_ascending_series(rng, k),
            lambda fam: [[[e, str(c)] for e, c in s.terms] for s in fam],
        )
        for k in range(1, 8)
    ]
)

# sha256 of `_grid_lines()`, recorded before the generators were rewritten
# on one builder and one redraw rule; every draw has stayed the same since.
GRID_SHA256 = "e1e4de331b467161532e7b257bf90edf4268e5b325a700c5114fefdb2f1c35ae"


def _grid_lines():
    """One line per draw: the case, seed and draw number, and the draw as
    JSON, or the name of the exception it raised (not its message, whose
    words may change)."""
    for name, draw, to_json in CASES:
        for seed in SEEDS:
            rng = random.Random(seed)
            for k in range(DRAWS):
                try:
                    out = json.dumps(to_json(draw(rng)), sort_keys=True)
                except (GenerationError, TropctlError) as exc:
                    out = type(exc).__name__
                yield f"{name} seed={seed} draw={k}: {out}\n"


def test_every_generator_draws_what_it_drew_before():
    digest = hashlib.sha256("".join(_grid_lines()).encode()).hexdigest()
    assert digest == GRID_SHA256


def test_a_draw_that_always_fails_stops_after_200_attempts():
    calls = []

    def attempt():
        calls.append(None)
        raise _Redraw

    with pytest.raises(GenerationError, match="^test draw failed$"):
        _draw("test", attempt)
    assert len(calls) == 200

"""Paired benchmark runs of two checkouts, summed up as the `workloads`
object of a BENCH_<n>.json file.

Run from the repository root as

    python3 tests/bench_pairs.py PARENT CHANGE FIRST_SEED

PARENT and CHANGE are two checkouts, each with its own bench/run.py and
src/.  For each workload of this repository's BENCHMARK.json, in file
order, it runs 10 pairs on seeds FIRST_SEED to FIRST_SEED + 9: in each
pair both sides run `python3 bench/run.py --workload <w> --seed <s>
--seconds <run_seconds> --trace 0` in their own checkout, one after the
other, the parent first in odd pairs (the first, third, ...).  Progress
goes to standard error, and standard output gets one JSON object,
{"workloads": {...}}.

For each end-to-end metric it gives the medians, the change in percent,
the quartiles of the parent's runs (statistics.quantiles(n=4,
method='inclusive')) and their distance as a percent of the parent's
median, the number of pairs in which the change reads better in the
metric's better direction, the bound, and a verdict (`verdict`).  It
imports nothing from tropctl and writes nothing under bench/: each run
writes its inputs under its own checkout's .bench_work/.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def verdict(pairs: list, bound: float, better: str) -> str:
    """The verdict on one metric from its (parent, change) pairs, bound the
    largest share by which the change's median may be worse.

    "gain" when the change reads better in at least 9 of 10 pairs and its
    median is better than the parent's by more than the parent's
    interquartile distance; else "within the bound" when its median is
    worse by no more than the bound; else "unresolved" when the parent's
    interquartile distance, as a share of its median, exceeds the bound;
    else "regression".
    """
    return summary(pairs, bound, better)["verdict"]


def summary(pairs: list, bound: float, better: str) -> dict:
    """The metric entry of a BENCH_<n>.json workload for these pairs; its
    verdict (`verdict`) is reached on unrounded values."""
    sign = 1 if better == "lower" else -1
    parent = [p for p, _c in pairs]
    pm, cm = statistics.median(parent), statistics.median(c for _p, c in pairs)
    q1, _q2, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    wins = sum(sign * (c - p) < 0 for p, c in pairs)  # pairs in which the change reads better
    gap_exceeds_iqr = sign * (pm - cm) > q3 - q1
    if 10 * wins >= 9 * len(pairs) and gap_exceeds_iqr:
        outcome = "gain"
    elif sign * (cm - pm) <= bound * pm:
        outcome = "within the bound"
    else:
        outcome = "unresolved" if q3 - q1 > bound * pm else "regression"
    return {
        "parent_median": round(pm, 4),
        "change_median": round(cm, 4),
        "change_pct": round(100 * (cm - pm) / pm, 2),
        "bound_pct": round(100 * bound, 2),
        "verdict": outcome,
        "parent_quartiles": [round(q1, 4), round(q3, 4)],
        "parent_iqr_pct": round(100 * (q3 - q1) / pm, 2),
        f"change_{better}_pairs": wins,
        "pairs": len(pairs),
        "pairs_parent_change": [[round(p, 4), round(c, 4)] for p, c in pairs],
        "median_gap_exceeds_parent_iqr": gap_exceeds_iqr,
    }


def run(checkout: Path, workload: str, seed: int, seconds) -> dict:
    """The result object that bench/run.py prints last, for one run."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if not done.stdout.strip():
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} printed no result:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list) -> None:
    if len(argv) != 3:
        raise SystemExit("usage: python3 tests/bench_pairs.py PARENT CHANGE FIRST_SEED")
    parent, change, first = Path(argv[0]).resolve(), Path(argv[1]).resolve(), int(argv[2])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        seeds = list(range(first, first + PAIRS))
        runs = []  # (parent result, change result) per pair
        for k, seed in enumerate(seeds):
            sides = [parent, change] if k % 2 == 0 else [change, parent]
            out = {side: run(side, name, seed, spec["run_seconds"]) for side in sides}
            runs.append((out[parent], out[change]))
            print(f"{name} seed {seed}: " + json.dumps([r["metrics"]["total_ref"]["value"] for r in runs[-1]]), file=sys.stderr)
        workloads[name] = {
            "seeds": seeds,
            "parent_first": [k % 2 == 0 for k in range(PAIRS)],
            "failed_parent_change": [[p["failed"], c["failed"]] for p, c in runs],
            "attempted_parent_change": [[p["attempted"], c["attempted"]] for p, c in runs],
            "correct_all": all(p["correct"] and c["correct"] for p, c in runs),
            "metrics": {
                m["name"]: summary(
                    [(p["metrics"][m["name"]]["value"], c["metrics"][m["name"]]["value"]) for p, c in runs],
                    m["bound"],
                    m["better"],
                )
                for m in spec["end_to_end"]
            },
        }
    print(json.dumps({"workloads": workloads}, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
